"""Pitch-class arithmetic, chords as multisets mod 12, and chord-symbol parsing.

Pitch classes are integers in [0, 11] (semitones above C, octave equivalent).
Two rules read every number the library is given, in a value-type field or
a function argument: an integer is the int that ``operator.index`` returns
(``_int``), and a pitch class is that integer mod 12 (``_pc``).
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


def _int(value, what: str) -> int:
    """The integer rule: the int that ``operator.index`` reads, so a bool counts and
    5.0, '5' and Fraction(5) do not; any other value is an IndexOutOfRange that
    names it as ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise IndexOutOfRange(f"{what} {value!r} is not an integer") from None


def _pc(value, what: str) -> PitchClass:
    """The pitch-class rule: the integer rule's int mod 12."""
    return _int(value, what) % 12


def pc(value: int) -> PitchClass:
    """Reduce an integer to its pitch class in [0, 11]; any other value, such as
    0.5 or '5', is an IndexOutOfRange."""
    return _pc(value, "pitch class")


def _collection(values, what: str) -> list:
    """The items of ``values`` as a list; values that are no collection, such as 5,
    are an InvalidArgument that names them as ``what``, a plural."""
    try:
        values = iter(values)
    except TypeError:
        kind = type(values).__name__
        raise InvalidArgument(f"{what} of type {kind} are no collection") from None
    return list(values)


def _ints(values, what: str) -> list[int]:
    """The integer rule over a collection, each value read as ``_int`` reads it
    and named as ``what``."""
    return [_int(value, what) for value in _collection(values, what + "s")]


def _pitch_classes(values, what: str) -> list[PitchClass]:
    """The pitch-class rule over a collection: each integer mod 12."""
    return [n % 12 for n in _ints(values, what)]


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


def _a(name: str) -> str:
    return f"an {name}" if name[0] in "AEIOU" else f"a {name}"


def _reader(owner: str, field: str, kind):
    """The function that reads one value of ``owner``'s ``field`` as ``kind`` declares it."""
    if kind is _pc or kind is _int:
        return lambda value: kind(value, field)
    if isinstance(kind, tuple):
        (item,) = kind
        if item is _pc or item is _int:
            noun = "note" if item is _pc else field.removesuffix("s")
            each = _pitch_classes if item is _pc else _ints
            return lambda values: tuple(each(values, noun))
        noun = field[:-4] + "ex" if field.endswith("ices") else field.removesuffix("s")
        read = _reader(owner, noun, item)
        return lambda values: tuple([read(value) for value in _collection(values, field)])

    def instance(value):
        if isinstance(value, kind):
            return value
        raise InvalidArgument(f"{_a(owner)}'s {field} is {_a(kind.__name__)},"
                              f" not {type(value).__name__}")

    return instance


def _checker(cls, kinds):
    """``cls.__post_init__``: each field read by its kind, then ``cls._finish``."""
    readers = [(name, _reader(cls.__name__, name, kinds[name]))
               for name in cls._names if kinds[name] is not object]
    finish = getattr(cls, "_finish", None)

    def __post_init__(self):
        for name, read in readers:
            object.__setattr__(self, name, read(getattr(self, name)))
        if finish:
            finish(self)

    return __post_init__


class _Value:
    """An immutable record: its fields are its public ``__slots__``.

    A subclass declares each slot once: ``__slots__`` is a dict that maps the
    slot's name to its kind, as in ``{"root": _pc, "quality": TriadQuality}``.
    It gets an ``__init__`` generated as dataclasses does it: the fields in
    that order, by position or keyword, with defaults given as class
    keywords, as in ``class BraidWord(_Value, letters=())``; a field with no
    default after one with a default is a TypeError.  Like a frozen
    dataclass, a record equals an instance of its own type with equal
    fields, hashes by them and shows as ``Name(field=value, ...)``.

    Unless the subclass defines its own, it gets a ``__post_init__`` that
    ``__init__`` calls once the fields are set, which reads each field by
    its kind:

    - ``_pc`` or ``_int``, a number, is read by that rule and stored;
    - a class is checked with ``isinstance``, and ``object`` takes anything;
    - a one-item tuple of either, such as ``(_pc,)``, takes any collection
      of such values and stores them as a tuple.  A refusal calls an item of
      a tuple of pitch classes a note, and any other item by its field's
      name in the singular, as a ``label`` of ``labels`` or a ``vertex`` of
      ``vertices``.

    Then the subclass's ``_finish``, if it has one, checks relations
    between the fields and derives the private slots.

    A slot named with a leading underscore, whose kind is None, is no field:
    it holds a value the record derives from its fields, set with
    ``object.__setattr__``, and takes no part in ``__init__``, equality,
    hashing, the repr, copies or pickles.  ``__init__`` sets each field
    through its slot's descriptor directly, the one that
    ``object.__setattr__`` would look up by name.

    A record whose every slot is known to pass the check, because it was
    derived from checked values, is built by ``cls._make(*slots)``: every
    slot in ``__slots__`` order, private ones included, as in
    ``Chord._make(notes, repeats)``, each set through its descriptor, with
    no kind read, no ``_finish`` and no ``__post_init__``.  It is the one
    way the package builds a record without its check.

    A record's slots are its bases' slots, then its own, so a subclass that
    declares none takes its parent's fields, kinds, defaults and check.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        kinds = {}
        for base in reversed(cls.__mro__):
            kinds.update(vars(base).get("__slots__", ()))
        fields = cls._names = tuple(n for n in kinds if not n.startswith("_"))
        defaults = cls._defaults = {**getattr(cls, "_defaults", {}), **defaults}
        if not defaults.keys() <= set(fields):
            raise TypeError(f"{cls.__name__} defaults {sorted(defaults)} name no field of {fields}")
        for before, name in zip(fields, fields[1:]):  # before exec, which would fail bare
            if before in defaults and name not in defaults:
                raise TypeError(f"{cls.__name__} field {name!r} has no default but follows"
                                f" {before!r}, which has one")
        if "__post_init__" not in vars(cls):
            cls.__post_init__ = _checker(cls, kinds)
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in fields)
        lines = [f"def __init__(self{params}):", *(f"    _set_{n}(self, {n})" for n in fields),
                 "    self.__post_init__()",  # looked up per call, so a patch counts
                 f"def _make({', '.join(kinds)}):", "    self = _new(_cls)",
                 *(f"    _set_{n}(self, {n})" for n in kinds), "    return self"]
        namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in kinds}
        namespace.update(_defaults=defaults, _new=object.__new__, _cls=cls)
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls._make = staticmethod(namespace["_make"])
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

    Stored sorted and reduced mod 12, as the pitch-class rule reads each
    note, so equality and hashing are order-free.  Duplicates are legal: a
    pitch-class list with a repeated value, such as the progression line
    ``x: 0,0,4``, gives ``Chord([0, 0, 4])``.

    A chord knows once whether its notes repeat a pitch class: the private
    ``_repeats`` is derived when the chord is built, copied or unpickled, so
    the braid core reads it and builds no set per transition.
    """

    __slots__ = {"notes": (_pc,), "_repeats": None}

    def _finish(self):
        notes = tuple(sorted(self.notes))
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "_repeats", len(set(notes)) < len(notes))

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)

    def __repr__(self) -> str:
        return f"Chord({list(self.notes)})"


def _chord(values: list[PitchClass]) -> Chord:
    """The chord of ``values`` known to pass the check, int pitch classes in 0..11,
    built by ``Chord._make``."""
    notes = tuple(sorted(values))
    return Chord._make(notes, len(set(notes)) < len(notes))


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
    """A root pitch class and a TriadQuality."""

    __slots__ = {"root": _pc, "quality": TriadQuality}

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
