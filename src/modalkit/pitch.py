"""Pitch-class arithmetic, chords as multisets mod 12, and chord-symbol parsing.

Pitch classes are integers in [0, 11] (semitones above C, octave equivalent).
A chord is an unordered multiset of pitch classes; equality ignores order.
Enharmonic spelling is erased at this layer: note names exist only as a
display convenience and never affect equality.
"""

from __future__ import annotations

import operator
from enum import Enum

from .errors import IndexOutOfRange, InvalidArgument, ParseError

PitchClass = int

NOTE_TO_PC = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Display-only spelling; parsing accepts any enharmonic input.
PC_NAMES = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")


def pc(value: int) -> PitchClass:
    """Reduce an integer to its pitch class in [0, 11]; any other value, such as
    0.5 or '5', is an IndexOutOfRange."""
    try:
        return operator.index(value) % 12
    except TypeError:
        raise IndexOutOfRange(f"pitch class {value!r} is not an integer") from None


def _root_pc(root: int) -> PitchClass:
    """The pitch class of a root that keys a table; a root that is no integer is refused."""
    try:
        return operator.index(root) % 12
    except TypeError:
        raise IndexOutOfRange(f"root {root!r} is not an integer") from None


def _pitch_classes(notes) -> list[PitchClass]:
    """Each note's pitch class; a note that is no integer is an IndexOutOfRange, and
    notes that are no collection, such as 5, are an InvalidArgument."""
    try:
        notes = iter(notes)
    except TypeError:
        raise InvalidArgument(f"notes of type {type(notes).__name__} are no collection") from None
    values = []
    for note in notes:
        try:
            values.append(operator.index(note) % 12)
        except TypeError:
            raise IndexOutOfRange(f"note {note!r} is not an integer") from None
    return values


def pc_name(value: PitchClass) -> str:
    return PC_NAMES[pc(value)]


# The 21 note spellings, each letter plain, sharp and flat: the one note grammar.
_SPELLINGS: dict[str, PitchClass] = {
    letter + sign: pc(value + shift) for letter, value in NOTE_TO_PC.items()
    for sign, shift in (("", 0), ("#", 1), ("b", -1))
}


def parse_note(text: str) -> PitchClass:
    """Parse a note name like ``C``, ``F#`` or ``Bb`` into a pitch class; text
    that is no str is an InvalidArgument."""
    try:
        return _SPELLINGS[text]
    except (KeyError, TypeError):  # TypeError: unhashable, such as [1]
        if not isinstance(text, str):
            raise _no_text(text) from None
        raise ParseError(f"unknown note name {text!r}") from None


def _no_text(text) -> InvalidArgument:
    return InvalidArgument(f"a note or chord name is a str, not {type(text).__name__}")


def _integer(token: str, what: str = "integer", start: int = 0) -> int:
    """An ASCII-digit integer with an optional minus (``int`` also reads ``1_1``, ``+4``)."""
    if token.isascii() and token.strip().removeprefix("-").isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts, see sys.set_int_max_str_digits
            pass
    raise ParseError(f"bad {what} {token!r}", start)


_PC_TOKENS = {str(n): n for n in range(12)}  # "0".."11", as most lists spell them


def parse_pcs(text: str) -> list[PitchClass]:
    """Parse a comma-separated pitch-class list like ``0,4,7``.

    Each item is an integer in 0..11 (see ``_integer``); blank items are
    skipped, and at least one item must remain.
    """
    values = []
    position = 0
    for item in text.split(","):
        token = item.strip()
        if token in _PC_TOKENS:
            values.append(_PC_TOKENS[token])
        elif token:
            start = position + len(item) - len(item.lstrip())
            value = _integer(token, "pitch class", start)
            if not 0 <= value <= 11:
                raise ParseError(f"pitch class {value} is not in 0..11", start)
            values.append(value)
        position += len(item) + 1
    if not values:
        raise ParseError("empty pitch-class list", 0)
    return values


class _Value:
    """An immutable record: its fields are its public ``__slots__``.

    A subclass names each field once, in ``__slots__``, and gets an
    ``__init__`` generated as dataclasses does it: the fields in that order,
    by position or keyword, with defaults given as class keywords, as in
    ``class BraidWord(_Value, letters=())``.  A subclass that checks its
    fields defines ``__post_init__``, which ``__init__`` calls once they are
    set.  Like a frozen dataclass, a record equals an instance of its own
    type with equal fields, hashes by them and shows as ``Name(field=value, ...)``.

    A slot named with a leading underscore is no field: it holds a value the
    record derives from its fields, set with ``object.__setattr__``, and
    takes no part in ``__init__``, equality, hashing, the repr, copies or
    pickles.  ``__init__`` sets each field through its slot's descriptor
    directly, the one that ``object.__setattr__`` would look up by name.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        fields = cls._names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        if not defaults.keys() <= set(fields):
            raise TypeError(f"{cls.__name__} defaults {sorted(defaults)} name no field of {fields}")
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in fields)
        lines = [f"def __init__(self{params}):", *(f"    _set_{n}(self, {n})" for n in fields)]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")  # looked up per call, so a patch counts
        namespace = {f"_set_{n}": vars(cls)[n].__set__ for n in fields}
        namespace["_defaults"] = defaults
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls._fields = operator.attrgetter(*fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__, which checks it again
        return type(self), tuple(getattr(self, name) for name in self._names)


class Chord(_Value):
    """An unordered multiset of pitch classes.

    Stored sorted and reduced mod 12, so equality and hashing are order-free.
    Duplicates are legal: a pitch-class list with a repeated value, such as
    the progression line ``x: 0,0,4``, gives ``Chord([0, 0, 4])``.  Every
    note must be an integer, as ``operator.index`` reads one; any other note,
    such as 0.5 or ``'5'``, is an IndexOutOfRange, and notes that are no
    collection, such as 5, are an InvalidArgument.
    """

    __slots__ = ("notes",)

    def __post_init__(self):
        notes = _pitch_classes(self.notes)
        notes.sort()
        object.__setattr__(self, "notes", tuple(notes))

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)

    def __repr__(self) -> str:
        return f"Chord({list(self.notes)})"


class _Table(dict):
    """A finite table that derives each value on its first lookup.

    ``table[key]`` calls ``derive(key)`` for a key it does not hold, stores
    the value and returns it; a key whose derivation raises stays out.
    ``.get`` and ``in`` never derive, so they only ask what is held.
    """

    __slots__ = ("_derive",)

    def __init__(self, derive):
        super().__init__()
        self._derive = derive

    def __missing__(self, key):
        value = self[key] = self._derive(key)
        return value


# The members of an Enum keyed by one of their fields, which no two share: per (enum, field).
_MEMBERS_BY = _Table(lambda key: {getattr(member, key[1]): member for member in key[0]})


class _Quality:
    """A chord shape as an Enum member: its symbol and its intervals above the root.

    A member hashes by identity, in C: an Enum member equals only itself, and
    ``Enum.__hash__`` hashes its name in Python on every table lookup.
    """

    __hash__ = object.__hash__

    def __init__(self, symbol: str, intervals: tuple[int, ...]):
        self.symbol = symbol
        self.intervals = intervals

    @classmethod
    def from_intervals(cls, intervals: tuple[int, ...]):
        return _MEMBERS_BY[cls, "intervals"].get(tuple(intervals))


class ChordQuality(_Quality, Enum):
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

    @classmethod
    def from_symbol(cls, symbol: str) -> "ChordQuality":
        return _MEMBERS_BY[cls, "symbol"][symbol]


class TriadQuality(_Quality, Enum):
    MAJOR = ("", (0, 4, 7))
    MINOR = ("-", (0, 3, 7))
    DIMINISHED = ("-b5", (0, 3, 6))
    AUGMENTED = ("#5", (0, 4, 8))


class Triad(_Value):
    __slots__ = ("root", "quality")

    def chord(self) -> Chord:
        return Chord(self.root + i for i in self.quality.intervals)

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

    Returns (root pitch class, full pitch-class chord).  Text that is no str
    is an InvalidArgument.
    """
    if not isinstance(text, str):
        raise _no_text(text)
    root = text[:2] if text[:2] in _SPELLINGS else text[:1]
    if root not in _SPELLINGS:
        raise ParseError(f"expected a root note in {text!r}", 0)
    rest = text[len(root):]
    intervals = _SYMBOL_INTERVALS.get(rest)
    if intervals is None:
        raise ParseError(f"unknown chord quality {rest!r}", len(root))
    value = _SPELLINGS[root]
    return value, Chord(value + i for i in intervals)
