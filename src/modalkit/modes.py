"""The 21 standard modes, scale-degree harmonization and mode decomposition.

A mode is viewed two ways at once: as an ordered seven-degree scale, and as
the superimposition of a four-note base chord (degrees 1-3-5-7) with a
three-note tension triad (degrees 2-4-6) sharing no pitch class.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .errors import InternalError, NotAMode, NotInterleavable
from .pitch import (
    Chord,
    ChordQuality,
    PitchClass,
    Triad,
    TriadQuality,
    chord_intersection,
    pc,
)


class ScaleType(Enum):
    """A parent scale: its label, step pattern and mode names by degree.

    Some sources spell the sixth degree b13 ("mixolydian b13"); only the b6
    spelling is used here, and no other name is accepted.
    """

    MAJOR = (
        "major",
        (0, 2, 4, 5, 7, 9, 11),
        ("ionian", "dorian", "phrygian", "lydian", "mixolydian", "eolian", "locrian"),
    )
    MELODIC_MINOR = (
        "melodic-minor",
        (0, 2, 3, 5, 7, 9, 11),
        ("hypoionian", "dorian b2", "lydian augmented", "lydian dominant",
         "mixolydian b6", "locrian #2", "superlocrian"),
    )
    HARMONIC_MINOR = (
        "harmonic-minor",
        (0, 2, 3, 5, 7, 8, 11),
        ("hypoionian b6", "locrian #6", "ionian augmented", "dorian #4",
         "phrygian dominant", "lydian #2", "ultralocrian"),
    )

    def __init__(self, label: str, step_pattern: tuple[int, ...], mode_names: tuple[str, ...]):
        self.label = label
        self.step_pattern = step_pattern
        self.mode_names = mode_names

    @classmethod
    def from_label(cls, label: str) -> "ScaleType":
        for s in cls:
            if s.label == label:
                return s
        raise KeyError(label)


@dataclass(frozen=True)
class ModalScale:
    """An ordered seven-degree scale: root first, then ascending degrees."""

    root: PitchClass
    degrees: tuple[PitchClass, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.degrees) != 7 or len(set(self.degrees)) != 7:
            raise NotAMode(f"need 7 distinct pitch classes, got {self.degrees}")
        if self.degrees[0] != self.root:
            raise NotAMode("first degree must be the root")

    def offsets(self) -> tuple[int, ...]:
        """Semitone offsets of each degree above the root."""
        return tuple(pc(d - self.root) for d in self.degrees)


@dataclass(frozen=True)
class Mode:
    """A (base chord, tension triad) pair and the scale they interleave into."""

    base: Chord
    tension: Chord
    scale: ModalScale

    def base_quality(self) -> ChordQuality:
        intervals = tuple(pc(n - self.scale.root) for n in _ordered_from(self.base, self.scale.root))
        quality = ChordQuality.from_intervals(intervals)
        if quality is None:
            raise InternalError(f"base chord {self.base} matches no quality")
        return quality

    def tension_triad(self) -> Triad:
        second = self.scale.degrees[1]
        intervals = tuple(pc(n - second) for n in _ordered_from(self.tension, second))
        quality = TriadQuality.from_intervals(intervals)
        if quality is None:
            raise InternalError(f"tension triad {self.tension} matches no quality")
        return Triad(second, quality)


def _ordered_from(c: Chord, root: PitchClass) -> list[PitchClass]:
    """Notes of a chord ordered ascending starting from the given root."""
    return sorted(c.notes, key=lambda n: pc(n - root))


def standard_modes(s: ScaleType, root: PitchClass) -> list[ModalScale]:
    """The seven modes of a parent scale: one rotation per scale degree."""
    parent = [pc(root + i) for i in s.step_pattern]
    result = []
    for i in range(7):
        degrees = tuple(parent[(i + j) % 7] for j in range(7))
        result.append(ModalScale(degrees[0], degrees, s.mode_names[i]))
    return result


@dataclass(frozen=True)
class StandardMode:
    """A standard mode without a root: where it sits and what it is."""

    scale: ScaleType
    degree: int
    name: str
    offsets: tuple[int, ...]
    quality: ChordQuality


@functools.cache
def _standard_catalog() -> dict[tuple[ScaleType, int], StandardMode]:
    """The 21 standard modes keyed by (parent scale, degree 1..7), derived once."""
    catalog = {}
    for s in ScaleType:
        for degree, mode in enumerate(standard_modes(s, 0), start=1):
            offs = mode.offsets()
            quality = ChordQuality.from_intervals(offs[0::2])
            if quality is None:
                raise InternalError(f"stacked intervals {offs[0::2]} match no quality")
            catalog[s, degree] = StandardMode(s, degree, mode.name, offs, quality)
    return catalog


def harmonize(s: ScaleType, degree: int) -> ChordQuality:
    """Seventh-chord quality stacked on a scale degree (1..7)."""
    if not 1 <= degree <= 7:
        raise ValueError(f"degree must be in 1..7, got {degree}")
    return _standard_catalog()[s, degree].quality


def decompose(m: ModalScale) -> Mode:
    """Split a modal scale into base chord (1,3,5,7) and tension triad (2,4,6)."""
    base = Chord(m.degrees[i] for i in (0, 2, 4, 6))
    tension = Chord(m.degrees[i] for i in (1, 3, 5))
    if chord_intersection(base, tension).cardinality:
        raise NotAMode(f"base and tension share notes in {m.degrees}")
    offs = m.offsets()
    if ChordQuality.from_intervals((offs[0], offs[2], offs[4], offs[6])) is None:
        raise NotAMode(f"degrees 1,3,5,7 of {m.degrees} fit no seventh chord")
    return Mode(base, tension, m)


def recompose(base: Chord, tension: Chord, root: PitchClass) -> ModalScale:
    """Interleave a base chord and tension triad into a modal scale."""
    if base.cardinality != 4 or tension.cardinality != 3:
        raise NotInterleavable("need a 4-note base and a 3-note tension")
    if chord_intersection(base, tension).cardinality:
        raise NotInterleavable("base and tension must be disjoint")
    if root not in base:
        raise NotInterleavable("root must belong to the base chord")
    merged = sorted(set(base.notes) | set(tension.notes), key=lambda n: pc(n - root))
    if len(merged) != 7:
        raise NotInterleavable("base and tension repeat a pitch class")
    degrees = tuple(merged)
    for i, note in enumerate(degrees):
        expected = base if i % 2 == 0 else tension
        if note not in expected:
            raise NotInterleavable(
                f"degree {i + 1} ({note}) does not alternate base/tension"
            )
    offsets = tuple(pc(d - root) for d in degrees)
    name = next((m.name for m in _standard_catalog().values() if m.offsets == offsets), "")
    return ModalScale(pc(root), degrees, name)


def all_standard_modes(root: PitchClass = 0) -> list[ModalScale]:
    """All 21 standard modes over the three parent scales on one root."""
    result = []
    for scale_type in ScaleType:
        result.extend(standard_modes(scale_type, root))
    return result
