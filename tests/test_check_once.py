"""Each per-chord fact is derived once, and each parsed value is checked once.

A ``Chord`` knows whether its notes repeat a pitch class, and the braid core
reads that flag instead of testing the notes again.  The progression parser
builds its chords and its ``Progression`` from values it has checked, without
the constructors' checks; these tests show that what it builds is what the
checked constructors build.
"""

import copy
import pickle

from hypothesis import example, given
from hypothesis import strategies as st

from modalkit import leading
from modalkit.braid import BraidWord, invariants
from modalkit.leading import Progression, _moves, parse_progression
from modalkit.pitch import _SPELLINGS, _SYMBOL_INTERVALS, Chord

SYMBOLS = sorted(root + token for root in _SPELLINGS for token in _SYMBOL_INTERVALS)

pcs = st.lists(st.integers(0, 11), min_size=1, max_size=6)


def _pc_line(label, values, spaced):
    return f"{label}:" + (", " if spaced else ",").join(map(str, values))


# (line text, the values of a pc-list line, None for a chord symbol, False for no chord)
lines = st.one_of(
    st.sampled_from(SYMBOLS).map(lambda s: (s, None)),
    st.tuples(st.text("abxyz7-", max_size=3), pcs, st.booleans()).map(
        lambda t: (_pc_line(*t), t[1])),
    st.sampled_from(["", "  ", "# a comment", "\t# Cmaj7"]).map(lambda s: (s, False)),
    st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(["  # after", "\t#x"])).map(
        lambda t: (t[0] + t[1], None)),
)


@st.composite
def progression_texts(draw):
    """A progression text with at least one chord line, and per chord line its
    values (None for a chord symbol)."""
    drawn = draw(st.lists(lines, max_size=12))
    drawn.append(draw(st.sampled_from(SYMBOLS).map(lambda s: (s, None))))
    draw(st.randoms(use_true_random=False)).shuffle(drawn)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(drawn),
                         max_size=len(drawn)))
    text = "".join(line + end for (line, _), end in zip(drawn, ends))
    return text, [values for _, values in drawn if values is not False]


@given(progression_texts())
@example(("x: 0,0,4\r\nCmaj7\n\n# c\ny: 2, 2\r\n", [[0, 0, 4], None, [2, 2]]))
def test_the_parsed_progression_is_the_checked_one(case):
    text, expected = case
    parsed = parse_progression(text)
    checked = Progression(tuple(leading._entries(text)))
    assert type(parsed) is Progression and parsed._transitions is None
    assert parsed == checked and hash(parsed) == hash(checked)
    assert repr(parsed) == repr(checked)
    assert pickle.dumps(parsed) == pickle.dumps(checked)
    assert len(parsed.chords) == len(expected)
    for (_label, root, chord), values in zip(parsed.chords, expected):
        assert type(chord) is Chord
        if values is not None:
            built = Chord(values)
            assert chord == built and chord._repeats is built._repeats
            assert root == values[0]
        assert chord._repeats is (len(set(chord.notes)) < len(chord.notes))


def test_the_parser_builds_without_the_checks(monkeypatch):
    checked = []
    for cls in (Chord, Progression):
        monkeypatch.setattr(cls, "__post_init__", lambda value: checked.append(value))
    p = parse_progression("x: 7,0,0,4\ny: 2,11\n")
    assert checked == []
    assert [chord.notes for _, _, chord in p.chords] == [(0, 0, 4, 7), (2, 11)]
    assert [chord._repeats for _, _, chord in p.chords] == [True, False]


def test_a_chord_knows_whether_it_repeats():
    assert Chord([0, 0, 4])._repeats is True
    assert Chord([0, 4])._repeats is False
    assert Chord([12, 0])._repeats is True  # equal mod 12
    assert Chord([])._repeats is False


def test_copies_and_pickles_derive_the_flag_again(monkeypatch):
    derived, check = [], Chord.__post_init__
    monkeypatch.setattr(Chord, "__post_init__", lambda c: derived.append(c) or check(c))
    for chord in (Chord([0, 0, 4]), Chord([0, 4])):
        derived.clear()
        twins = [copy.copy(chord), copy.deepcopy(chord), pickle.loads(pickle.dumps(chord))]
        assert list(map(id, derived)) == list(map(id, twins))
        assert all(twin == chord and twin._repeats is chord._repeats for twin in twins)


chords = st.lists(st.integers(0, 11), min_size=1, max_size=7).map(Chord)
roots = st.none() | st.integers(0, 11)


@given(chords, chords, roots, roots)
@example(Chord([0, 0, 4]), Chord([0, 4]), None, None)
@example(Chord([2, 2, 2]), Chord([0, 4, 4]), 2, None)
def test_moves_read_the_flags_as_they_would_be_derived(a, b, a_root, b_root):
    flagged = _moves(a.notes, b.notes, a_root, b_root, a._repeats, b._repeats)
    derived = _moves(a.notes, b.notes, a_root, b_root,
                     len(set(a.notes)) < len(a), len(set(b.notes)) < len(b))
    assert flagged == derived == _moves(a.notes, b.notes, a_root, b_root)


def test_two_empty_sides_make_no_move():
    assert _moves((), ()) == _moves((), (), None, None, False, False) == []


words = st.integers(1, 8).flatmap(lambda n: st.builds(
    BraidWord, st.just(n),
    st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=20)
    if n > 1 else st.just(())))


@given(words)
def test_the_writhe_is_the_sum_of_the_signs(w):
    assert invariants(w).writhe == sum(sign for _index, sign in w.letters)
