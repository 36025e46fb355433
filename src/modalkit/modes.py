"""The 21 standard modes, scale-degree harmonization and mode decomposition.

A mode is viewed two ways at once: as an ordered seven-degree scale, and as
the superimposition of a four-note base chord (degrees 1-3-5-7) with a
three-note tension chord (degrees 2-4-6) sharing no pitch class.  The
tension chord is a triad on degree 2 for the 21 standard modes and for 2 of
the 12 special modes.
"""

from __future__ import annotations

import functools
import operator
from enum import Enum

from .errors import IndexOutOfRange, NotAMode
from .pitch import (
    Chord, ChordQuality, PitchClass, Triad, TriadQuality, _MEMBERS_BY, _root_pc, _Table, _Value, pc,
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
        return _MEMBERS_BY[cls, "label"][label]


class ModalScale(_Value, name=""):
    """An ordered seven-degree scale: root first, then ascending degrees.

    A scale keeps its ``Mode`` once ``decompose`` has built it.
    """

    __slots__ = ("root", "degrees", "name", "_mode")

    def __post_init__(self):
        object.__setattr__(self, "_mode", None)
        if len(self.degrees) != 7 or len(set(self.degrees)) != 7:
            raise NotAMode(f"need 7 distinct pitch classes, got {self.degrees}")
        if self.degrees[0] != self.root:
            raise NotAMode("first degree must be the root")

    def offsets(self) -> tuple[int, ...]:
        """Semitone offsets of each degree above the root."""
        return tuple(pc(d - self.root) for d in self.degrees)


class Mode(_Value):
    """A scale split into a base chord (degrees 1-3-5-7) stacking to a
    seventh chord and a tension chord (degrees 2-4-6), not always a triad."""

    __slots__ = ("base", "tension", "scale")

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
    return list(_STANDARD_MODES[s, _root_pc(root)])


def _rotations(key: tuple[ScaleType, PitchClass]) -> tuple[ModalScale, ...]:
    s, root = key
    parent = tuple(pc(root + i) for i in s.step_pattern)
    return tuple(
        ModalScale(parent[i], parent[i:] + parent[:i], n) for i, n in enumerate(s.mode_names)
    )


# ``standard_modes`` per (parent scale, root pitch class), and per parent scale
# the base quality by degree 1..7: the 21 standard modes are _STANDARD_MODES[s, 0].
_STANDARD_MODES = _Table(_rotations)
_QUALITIES = _Table(lambda s: {
    degree: decompose(m).base_quality() for degree, m in enumerate(_STANDARD_MODES[s, 0], start=1)
})


@functools.cache
def _names_by_offsets() -> dict[tuple[int, ...], str]:
    """The 21 standard mode names keyed by their offsets, which no two of them share."""
    return {m.offsets(): m.name for s in ScaleType for m in _STANDARD_MODES[s, 0]}


def harmonize(s: ScaleType, degree: int) -> ChordQuality:
    """Seventh-chord quality stacked on a scale degree: an integer in 1..7."""
    try:
        degree = operator.index(degree)
    except TypeError:
        raise IndexOutOfRange(f"degree {degree!r} is not an integer") from None
    if not 1 <= degree <= 7:
        raise IndexOutOfRange(f"degree must be in 1..7, got {degree}")
    return _QUALITIES[s][degree]


def decompose(m: ModalScale) -> Mode:
    """Split a modal scale into base chord (1,3,5,7) and tension chord (2,4,6).

    The split is built and checked on a scale's first call and kept by the
    scale; a scale that is no mode raises NotAMode on every call.
    """
    mode = m._mode
    if mode is None:
        mode = Mode(Chord(m.degrees[0::2]), Chord(m.degrees[1::2]), m)
        object.__setattr__(m, "_mode", mode)
    return mode


def _recomposed(
    key: tuple[tuple[PitchClass, ...], tuple[PitchClass, ...], PitchClass],
) -> ModalScale:
    base, tension, root = key
    degrees = tuple(sorted(set(base) | set(tension), key=lambda n: pc(n - root)))
    offsets = tuple(pc(d - root) for d in degrees)
    scale = ModalScale(root, degrees, _names_by_offsets().get(offsets, ""))
    object.__setattr__(scale, "_mode", Mode(Chord(base), Chord(tension), scale))
    return scale


# ``recompose`` per (base notes, tension notes, root pitch class): 98 accepted
# splits on each root, 1,176 in all; a split that is no mode raises and stays out.
_RECOMPOSED = _Table(_recomposed)


def recompose(base: Chord, tension: Chord, root: PitchClass) -> ModalScale:
    """Interleave a base chord and tension chord into a modal scale.

    The inverse of ``decompose``: raises NotAMode unless the notes, sorted
    upward from the root, split back into exactly ``base`` and ``tension``.
    A root that is no integer is an IndexOutOfRange.
    """
    return _RECOMPOSED[base.notes, tension.notes, _root_pc(root)]


def all_standard_modes(root: PitchClass = 0) -> list[ModalScale]:
    """All 21 standard modes over the three parent scales on one root."""
    return [mode for scale_type in ScaleType for mode in standard_modes(scale_type, root)]
