"""Pitch classes, chords as multisets, qualities and chord-symbol parsing."""

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modalkit.errors import IndexOutOfRange, ParseError
from modalkit.pitch import (
    _SYMBOL_INTERVALS,
    NOTE_TO_PC,
    Chord,
    ChordQuality,
    Triad,
    TriadQuality,
    parse_chord_symbol,
    parse_note,
    parse_pcs,
    pc,
    pc_name,
)

pcs = st.integers(min_value=-50, max_value=50)

# More digits than int() converts by default (4,300).
HUGE = "0" * 5000


def reference_parse_note(text):
    """The regex note parser that the table of 21 spellings replaced."""
    m = re.fullmatch(r"([A-G])([#b]?)", text)
    if not m:
        raise ParseError(f"unknown note name {text!r}")
    value = NOTE_TO_PC[m.group(1)]
    if m.group(2) == "#":
        value += 1
    elif m.group(2) == "b":
        value -= 1
    return pc(value)


def reference_parse_chord_symbol(text):
    """The regex chord-symbol parser that the table of 21 spellings replaced."""
    m = re.match(r"([A-G])([#b]?)", text)
    if not m:
        raise ParseError(f"expected a root note in {text!r}", 0)
    root = reference_parse_note(m.group(0))
    rest = text[m.end():]
    intervals = _SYMBOL_INTERVALS.get(rest)
    if intervals is None:
        raise ParseError(f"unknown chord quality {rest!r}", m.end())
    return root, Chord(pc(root + i) for i in intervals)


def outcome(parse, text):
    """What parse does with text: ("value", result) or ("error", message, position)."""
    try:
        return "value", parse(text)
    except ParseError as exc:
        return "error", exc.message, exc.position


# Letters in and out of A-G, both accidentals and a Unicode sharp, digits, the
# quality tokens and a non-ASCII letter.
NOTE_TEXT = st.lists(
    st.sampled_from([*"ABCDEFGHabcdefg#b\u266f0123456789-/\u00e9", *_SYMBOL_INTERVALS]),
    max_size=6,
).map("".join)


@given(NOTE_TEXT)
@example("")
@example("Cb")
@example("Db#maj7")
def test_note_parsers_match_the_regex_reference(text):
    assert outcome(parse_note, text) == outcome(reference_parse_note, text)
    assert outcome(parse_chord_symbol, text) == outcome(reference_parse_chord_symbol, text)


@given(pcs)
def test_pc_reduces_mod_12(n):
    assert 0 <= pc(n) <= 11
    assert pc(n + 12) == pc(n)


def test_note_names_round_trip():
    for value in range(12):
        assert parse_note(pc_name(value)) == value


def test_parse_note_accidentals():
    assert parse_note("C") == 0
    assert parse_note("F#") == 6
    assert parse_note("Gb") == 6
    assert parse_note("Cb") == 11
    assert parse_note("B#") == 0
    with pytest.raises(ParseError):
        parse_note("H")


def test_chord_is_order_free():
    assert Chord([4, 0, 7]) == Chord([0, 4, 7])
    assert hash(Chord([4, 0, 7])) == hash(Chord([0, 7, 4]))
    assert Chord([0, 0, 4]) != Chord([0, 4])


def test_chord_keeps_duplicates():
    c = Chord([0, 0, 5])
    assert len(c) == 3
    assert list(c) == [0, 0, 5]


@pytest.mark.parametrize("note", [0.5, 4.0, "5", None, float("nan")], ids=repr)
def test_chord_notes_are_integers(note):
    # one gate where notes enter: a note equal to a pitch class is still no integer
    with pytest.raises(IndexOutOfRange, match=f"^note {re.escape(repr(note))} is not an integer$"):
        Chord([0, note])


def test_chord_reduces_integers_and_shows_its_notes():
    assert Chord(n for n in (12, -1, True)).notes == (0, 1, 11)
    assert Chord(notes=[7, 0, 4]) == Chord([0, 4, 7])
    assert repr(Chord([7, 0, 4])) == "Chord([0, 4, 7])"


def test_seven_qualities():
    assert len(ChordQuality) == 7
    assert ChordQuality.DIM7.intervals == (0, 3, 6, 9)
    assert ChordQuality.MAJ7_SHARP5.intervals == (0, 4, 8, 11)
    assert ChordQuality.MINMAJ7.intervals == (0, 3, 7, 11)
    assert ChordQuality.MAJ7.intervals == (0, 4, 7, 11)
    assert ChordQuality.DOM7.intervals == (0, 4, 7, 10)
    assert ChordQuality.MIN7.intervals == (0, 3, 7, 10)
    assert ChordQuality.MIN7_FLAT5.intervals == (0, 3, 6, 10)


def test_quality_symbol_round_trip():
    for q in ChordQuality:
        assert ChordQuality.from_symbol(q.symbol) is q
        assert ChordQuality.from_intervals(q.intervals) is q
    assert ChordQuality.from_intervals((0, 1, 2, 3)) is None

    def scan(enum, field, key):
        # the member loop that each lookup ran before it became a table
        return next((m for m in enum if getattr(m, field) == key), None)

    for enum in (ChordQuality, TriadQuality):
        keys = [m.intervals for m in enum] + [(0, 1, 2, 3), (0, 4, 7), (), (0, 4, 7, 10, 2)]
        for key in keys:
            assert enum.from_intervals(key) is scan(enum, "intervals", key)
            assert enum.from_intervals(list(key)) is scan(enum, "intervals", key)
    for key in [q.symbol for q in ChordQuality] + ["", "maj", "-9", "M7", "7 "]:
        expected = scan(ChordQuality, "symbol", key)
        if expected is None:
            with pytest.raises(KeyError) as info:
                ChordQuality.from_symbol(key)
            assert info.value.args == (key,)
        else:
            assert ChordQuality.from_symbol(key) is expected


def test_triad():
    t = Triad(2, TriadQuality.MINOR)
    assert t.chord() == Chord([2, 5, 9])
    assert t.symbol() == "D-"
    assert Triad(8, TriadQuality.MAJOR).symbol() == "Ab"


def test_parse_chord_symbol_basic():
    root, chord = parse_chord_symbol("Cmaj7")
    assert root == 0 and chord == Chord([0, 4, 7, 11])
    root, chord = parse_chord_symbol("B-7b5")
    assert root == 11 and chord == Chord([11, 2, 5, 9])
    root, chord = parse_chord_symbol("Ebo7")
    assert root == 3 and chord == Chord([3, 6, 9, 0])
    root, chord = parse_chord_symbol("Dbmaj7#5")
    assert root == 1 and chord == Chord([1, 5, 9, 0])
    root, chord = parse_chord_symbol("F#-maj7")
    assert root == 6 and chord == Chord([6, 9, 1, 5])
    root, chord = parse_chord_symbol("G7")
    assert root == 7 and chord == Chord([7, 11, 2, 5])
    root, chord = parse_chord_symbol("A-7")
    assert root == 9 and chord == Chord([9, 0, 4, 7])


def test_parse_chord_symbol_extensions():
    root, chord = parse_chord_symbol("F-9")
    assert root == 5 and chord == Chord([5, 8, 0, 3, 7])
    root, chord = parse_chord_symbol("B13b9")
    assert root == 11 and chord == Chord([11, 3, 6, 9, 0, 8])
    root, chord = parse_chord_symbol("C6/9")
    assert root == 0 and chord == Chord([0, 4, 7, 9, 2])


def test_parse_chord_symbol_rejects_junk():
    with pytest.raises(ParseError):
        parse_chord_symbol("Xmaj7")
    with pytest.raises(ParseError):
        parse_chord_symbol("Cmaj9")
    # the root is two characters only when they spell a note, so "C" ends at 1
    for text, message, position in (
        ("", "expected a root note in ''", 0),
        ("H7", "expected a root note in 'H7'", 0),
        ("C", "unknown chord quality ''", 1),
        ("Cb", "unknown chord quality ''", 2),
    ):
        with pytest.raises(ParseError) as info:
            parse_chord_symbol(text)
        assert (info.value.message, info.value.position) == (message, position)


def test_parse_pcs():
    assert parse_pcs("0,4,7") == [0, 4, 7]
    assert parse_pcs(" 11, 0 ,,") == [11, 0]


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty pitch-class list", 0),
        (" , ", "empty pitch-class list", 0),
        ("0, x", "bad pitch class 'x'", 3),
        ("4,12", "pitch class 12 is not in 0..11", 2),
        ("0,7,-1", "pitch class -1 is not in 0..11", 4),
        # only ASCII digits with an optional minus, though int() reads all three
        ("0,1_1", "bad pitch class '1_1'", 2),
        ("+4", "bad pitch class '+4'", 0),
        ("\u0663", "bad pitch class '\u0663'", 0),
        # more digits than int() converts is a bad token, not a ValueError
        pytest.param("0," + HUGE, f"bad pitch class {HUGE!r}", 2, id="5000-digits"),
    ],
)
def test_parse_pcs_errors(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_pcs(text)
    assert (info.value.message, info.value.position) == (message, position)


def reference_parse_pcs(text):
    """Every non-blank item read as a checked integer, at its offset in the text."""
    values, position = [], 0
    for item in text.split(","):
        token = item.strip()
        if token:
            start = position + len(item) - len(item.lstrip())
            if not (token.isascii() and token.removeprefix("-").isdigit()) or len(token) > 4000:
                raise ParseError(f"bad pitch class {token!r}", start)
            if not 0 <= int(token) <= 11:
                raise ParseError(f"pitch class {int(token)} is not in 0..11", start)
            values.append(int(token))
        position += len(item) + 1
    if not values:
        raise ParseError("empty pitch-class list", 0)
    return values


pc_items = st.sampled_from(
    ["0", "4", "11", "007", " 4 ", "-0", "12", "-1", "1_1", "+4", "x", "", " ", "\t7", HUGE]
)


@given(st.lists(pc_items, max_size=6).map(",".join))
@example("007")
@example(" 4 ")
@example("-0")
@example("12")
@example("1_1")
def test_parse_pcs_matches_the_checked_integer_reading(text):
    # "0".."11" are looked up; every other token is read as an integer, as before
    assert outcome(parse_pcs, text) == outcome(reference_parse_pcs, text)
