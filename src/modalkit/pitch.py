"""Pitch-class arithmetic, chords as multisets mod 12, and chord-symbol parsing.

Pitch classes are integers in [0, 11] (semitones above C, octave equivalent).
A chord is an unordered multiset of pitch classes; equality ignores order.
Enharmonic spelling is erased at this layer: note names exist only as a
display convenience and never affect equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import ParseError

PitchClass = int

NOTE_TO_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Display-only spelling; parsing accepts any enharmonic input.
PC_NAMES = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")


def pc(value: int) -> PitchClass:
    """Reduce an integer to its pitch class in [0, 11]."""
    return value % 12


def pc_name(value: PitchClass) -> str:
    return PC_NAMES[pc(value)]


def parse_note(text: str) -> PitchClass:
    """Parse a note name like ``C``, ``F#`` or ``Bb`` into a pitch class."""
    m = re.fullmatch(r"([A-G])([#b]?)", text)
    if not m:
        raise ParseError(f"unknown note name {text!r}")
    value = NOTE_TO_PC[m.group(1)]
    if m.group(2) == "#":
        value += 1
    elif m.group(2) == "b":
        value -= 1
    return pc(value)


def parse_pcs(text: str) -> list[PitchClass]:
    """Parse a comma-separated pitch-class list like ``0,4,7``.

    Each item is an integer in 0..11, written in ASCII digits with an
    optional leading minus (``int`` alone would also read ``1_1``, ``+4``
    and non-ASCII digits); blank items are skipped, and at least one item
    must remain.
    """
    values = []
    position = 0
    for item in text.split(","):
        token = item.strip()
        if token:
            start = position + len(item) - len(item.lstrip())
            if not (token.isascii() and token.removeprefix("-").isdigit()):
                raise ParseError(f"bad pitch class {token!r}", start)
            value = int(token)
            if not 0 <= value <= 11:
                raise ParseError(f"pitch class {value} is not in 0..11", start)
            values.append(value)
        position += len(item) + 1
    if not values:
        raise ParseError("empty pitch-class list", 0)
    return values


class Chord:
    """An unordered multiset of pitch classes.

    Stored as a sorted tuple so that equality and hashing are order-free.
    Duplicate pitch classes are legal (they arise from voice padding).
    """

    __slots__ = ("notes",)

    def __init__(self, notes: Iterable[int]):
        self.notes: tuple[PitchClass, ...] = tuple(sorted(pc(n) for n in notes))

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chord) and self.notes == other.notes

    def __hash__(self) -> int:
        return hash(self.notes)

    def __repr__(self) -> str:
        return f"Chord({list(self.notes)})"


class ChordQuality(Enum):
    """The seven seventh-chord types arising from scale harmonization.

    Declared in the order of the complexity table, which ``tcm --all``
    follows.
    """

    DIM7 = ("o7", (0, 3, 6, 9))
    MAJ7_SHARP5 = ("maj7#5", (0, 4, 8, 11))
    MINMAJ7 = ("-maj7", (0, 3, 7, 11))
    MAJ7 = ("maj7", (0, 4, 7, 11))
    DOM7 = ("7", (0, 4, 7, 10))
    MIN7 = ("-7", (0, 3, 7, 10))
    MIN7_FLAT5 = ("-7b5", (0, 3, 6, 10))

    def __init__(self, symbol: str, intervals: tuple[int, int, int, int]):
        self.symbol = symbol
        self.intervals = intervals

    @classmethod
    def from_symbol(cls, symbol: str) -> "ChordQuality":
        for q in cls:
            if q.symbol == symbol:
                return q
        raise KeyError(symbol)

    @classmethod
    def from_intervals(cls, intervals: tuple[int, ...]) -> "ChordQuality | None":
        for q in cls:
            if q.intervals == tuple(intervals):
                return q
        return None


class TriadQuality(Enum):
    MAJOR = ("", (0, 4, 7))
    MINOR = ("-", (0, 3, 7))
    DIMINISHED = ("-b5", (0, 3, 6))
    AUGMENTED = ("#5", (0, 4, 8))

    def __init__(self, symbol: str, intervals: tuple[int, int, int]):
        self.symbol = symbol
        self.intervals = intervals

    @classmethod
    def from_intervals(cls, intervals: tuple[int, ...]) -> "TriadQuality | None":
        for q in cls:
            if q.intervals == tuple(intervals):
                return q
        return None


@dataclass(frozen=True)
class Triad:
    root: PitchClass
    quality: TriadQuality

    def chord(self) -> Chord:
        return Chord(pc(self.root + i) for i in self.quality.intervals)

    def symbol(self) -> str:
        return f"{pc_name(self.root)}{self.quality.symbol}"


# Quality tokens of the chord-symbol grammar and their intervals above the
# root: each quality's own symbol, plus three tokens with tensions on top.
_SYMBOL_INTERVALS: dict[str, tuple[int, ...]] = {
    **{q.symbol: q.intervals for q in ChordQuality},
    "-9": ChordQuality.MIN7.intervals + (2,),
    "13b9": ChordQuality.DOM7.intervals + (1, 9),
    "6/9": (0, 4, 7, 9, 2),
}


def parse_chord_symbol(text: str) -> tuple[PitchClass, Chord]:
    """Parse a chord symbol like ``Cmaj7``, ``B-7b5`` or ``F-9``.

    Returns (root pitch class, full pitch-class chord).
    """
    m = re.match(r"([A-G])([#b]?)", text)
    if not m:
        raise ParseError(f"expected a root note in {text!r}", 0)
    root = parse_note(m.group(0))
    rest = text[m.end():]
    intervals = _SYMBOL_INTERVALS.get(rest)
    if intervals is None:
        raise ParseError(f"unknown chord quality {rest!r}", m.end())
    return root, Chord(pc(root + i) for i in intervals)
