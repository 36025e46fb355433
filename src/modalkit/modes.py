"""The 21 standard modes, scale-degree harmonization and mode decomposition.

A mode is viewed two ways at once: as an ordered seven-degree scale, and as
the superimposition of a four-note base chord (degrees 1-3-5-7) with a
three-note tension chord (degrees 2-4-6) sharing no pitch class.  The
tension chord is a triad on degree 2 for the 21 standard modes and for 2 of
the 12 special modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .errors import IndexOutOfRange, NotAMode
from .pitch import Chord, ChordQuality, PitchClass, Triad, TriadQuality, pc


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
    """A scale split into a base chord (degrees 1-3-5-7) stacking to a
    seventh chord and a tension chord (degrees 2-4-6), not always a triad."""

    base: Chord
    tension: Chord
    scale: ModalScale

    def __post_init__(self):
        degrees = self.scale.degrees
        if self.base != Chord(degrees[0::2]) or self.tension != Chord(degrees[1::2]):
            raise NotAMode(f"base and tension are not degrees 1,3,5,7 and 2,4,6 of {degrees}")
        if self.base_quality() is None:
            raise NotAMode(f"degrees 1,3,5,7 of {degrees} fit no seventh chord")

    def base_quality(self) -> ChordQuality:
        return ChordQuality.from_intervals(self.scale.offsets()[0::2])

    def tension_triad(self) -> Triad | None:
        """The triad that degrees 2-4-6 form on degree 2, or None if none."""
        offs = self.scale.offsets()
        quality = TriadQuality.from_intervals(tuple(o - offs[1] for o in offs[1::2]))
        return Triad(self.scale.degrees[1], quality) if quality else None


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
    """A standard mode without a root: its name, offsets and base quality."""

    name: str
    offsets: tuple[int, ...]
    quality: ChordQuality


@functools.cache
def _standard_catalog() -> dict[tuple[ScaleType, int], StandardMode]:
    """The 21 standard modes keyed by (parent scale, degree 1..7), derived once."""
    catalog = {}
    for s in ScaleType:
        for degree, mode in enumerate(standard_modes(s, 0), start=1):
            quality = decompose(mode).base_quality()
            catalog[s, degree] = StandardMode(mode.name, mode.offsets(), quality)
    return catalog


def harmonize(s: ScaleType, degree: int) -> ChordQuality:
    """Seventh-chord quality stacked on a scale degree (1..7)."""
    if not 1 <= degree <= 7:
        raise IndexOutOfRange(f"degree must be in 1..7, got {degree}")
    return _standard_catalog()[s, degree].quality


def decompose(m: ModalScale) -> Mode:
    """Split a modal scale into base chord (1,3,5,7) and tension chord (2,4,6)."""
    return Mode(Chord(m.degrees[0::2]), Chord(m.degrees[1::2]), m)


def recompose(base: Chord, tension: Chord, root: PitchClass) -> ModalScale:
    """Interleave a base chord and tension chord into a modal scale.

    The inverse of ``decompose``: raises NotAMode unless the notes, sorted
    upward from the root, split back into exactly ``base`` and ``tension``.
    """
    degrees = tuple(sorted(set(base.notes) | set(tension.notes), key=lambda n: pc(n - root)))
    offsets = tuple(pc(d - root) for d in degrees)
    name = next((m.name for m in _standard_catalog().values() if m.offsets == offsets), "")
    return Mode(base, tension, ModalScale(pc(root), degrees, name)).scale


def all_standard_modes(root: PitchClass = 0) -> list[ModalScale]:
    """All 21 standard modes over the three parent scales on one root."""
    return [mode for scale_type in ScaleType for mode in standard_modes(scale_type, root)]
