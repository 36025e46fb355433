"""Voice leadings checked against a brute-force assignment oracle."""

import io
import random
import re
from collections import namedtuple
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalkit import braid, leading
from modalkit.braid import BraidWord, concatenate, invariants, render_ascii, serialize_word
from modalkit.cli import run
from modalkit.errors import (
    CrossingLeading,
    IndexOutOfRange,
    InvalidArgument,
    ParseError,
    SizeMismatch,
)
from modalkit.leading import (
    STRANDS,
    Progression,
    VoiceLeading,
    arc_distance,
    braid_of_leading,
    braid_of_progression,
    braids_of_progression,
    parse_progression,
    voice_leading,
)
from modalkit.leading import _letters, _moves
from modalkit.pitch import _SPELLINGS, _SYMBOL_INTERVALS, Chord, parse_chord_symbol

DATA, GOLDEN = (Path(__file__).parent / name for name in ("data", "golden"))

# More digits than int() converts by default (4,300).
HUGE = "0" * 5000


def oracle_leadings(source, target):
    """All crossing-free assignments, brute forced over every bijection.

    For distinct notes only the sorted pairing passes the crossing check, so
    the oracle confirms that it is the one crossing-free assignment.  It does
    not weigh assignments that cross, such as cyclic rotations, which can
    move the voices less.

    Returns (best total displacement, set of pair-tuples achieving it).
    """
    best, winners = None, set()
    for perm in permutations(range(len(target))):
        pairs = tuple((s, target[j]) for s, j in zip(source, perm))
        crossing = any(
            (si - sj) * (ti - tj) < 0
            for i, (si, ti) in enumerate(pairs)
            for sj, tj in pairs[i + 1:]
        )
        if crossing:
            continue
        cost = sum(arc_distance(s, t) for s, t in pairs)
        if best is None or cost < best:
            best, winners = cost, {tuple(sorted(pairs))}
        elif cost == best:
            winners.add(tuple(sorted(pairs)))
    return best, winners


def test_arc_distance():
    assert arc_distance(0, 11) == 1
    assert arc_distance(0, 6) == 6
    assert arc_distance(3, 3) == 0


def test_voice_leading_requires_equal_sizes():
    with pytest.raises(SizeMismatch):
        VoiceLeading((0, 1), (0,))


def test_padding_doubles_the_root():
    v = voice_leading(Chord([2, 5, 9, 0]), Chord([7, 11, 2, 5, 8]), a_root=2, b_root=7)
    assert v.source == (0, 2, 2, 5, 9)
    # without a declared root the lowest pitch class is doubled
    v = voice_leading(Chord([4, 7, 11]), Chord([0, 4, 7, 11]))
    assert v.source == (4, 4, 7, 11)
    # so does a progression root of None
    p = Progression((("a", None, Chord([4, 7, 11])), ("b", 0, Chord([0, 4, 7, 11]))))
    assert braid_of_progression(p) == braid_of_leading(v)


def test_cmaj7_to_gmaj7_pairs():
    v = voice_leading(Chord([0, 4, 7, 11]), Chord([7, 11, 2, 6]))
    assert v.pairs() == ((0, 2), (4, 6), (7, 7), (11, 11))
    assert v.is_crossing_free()
    assert v.total_displacement() == 4


def reference_voice_leading(a, b, a_root=None, b_root=None):
    """Both note lists copied, padded one note at a time, its root's pitch class, and sorted."""
    source, target = list(a.notes), list(b.notes)
    if (not source and a_root is None and target) or (not target and b_root is None and source):
        raise SizeMismatch("an empty chord with no root has no note to double")
    while len(source) < len(target):
        source.append(a_root % 12 if a_root is not None else min(source))
    while len(target) < len(source):
        target.append(b_root % 12 if b_root is not None else min(target))
    return VoiceLeading(tuple(sorted(source)), tuple(sorted(target)))


def outcome(build, *args, **kwargs):
    """What a call returns, or its error class and message."""
    try:
        return build(*args, **kwargs)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


chord_notes = st.lists(st.integers(-24, 36), max_size=7)
padding_roots = st.none() | st.integers(-2, 13)


@settings(max_examples=300)
@given(chord_notes, chord_notes, padding_roots, padding_roots)
@example([], [0], None, None)  # nothing to double: a SizeMismatch, not min() of no notes
def test_voice_leading_matches_the_copy_and_sort_form(a, b, a_root, b_root):
    # a Chord's notes are sorted already, so only a padded side is sorted again
    args = (Chord(a), Chord(b), a_root, b_root)
    assert outcome(voice_leading, *args) == outcome(reference_voice_leading, *args)


def test_an_empty_chord_with_no_root_is_a_size_mismatch():
    message = r"^an empty chord with no root has no note to double$"
    with pytest.raises(SizeMismatch, match=message):
        voice_leading(Chord([]), Chord([1]))
    with pytest.raises(SizeMismatch, match=message):
        braid_of_progression(Progression((("a", None, Chord([])), ("b", 0, Chord([1, 2])))))
    # a root is the note an empty chord doubles
    assert voice_leading(Chord([]), Chord([1, 2]), a_root=5) == VoiceLeading((5, 5), (1, 2))


def test_a_note_equal_to_a_pitch_class_walks_as_it():
    # a chord note must be an integer, so 0.5 is refused where it enters
    with pytest.raises(IndexOutOfRange, match=r"^note 0\.5 is not an integer$"):
        Chord([0.5, 4])
    # the doubled roots 14 and -10 are pitch class 2, so they walk as 2
    a, b = Chord([2, 9]), Chord([0, 4, 7])
    expected = braid_of_leading(voice_leading(a, b, a_root=2))
    for root in (14, -10, 2):
        progression = Progression((("a", root, a), ("b", 0, b)))
        for word in (braid_of_leading(voice_leading(a, b, a_root=root)),
                     braid_of_progression(progression)):
            assert word == expected and all(type(i) is int for i, _sign in word.letters)


def test_against_brute_force_oracle():
    rng = random.Random(20260824)
    for _ in range(100):
        size = rng.choice((2, 3, 4))
        source = tuple(sorted(rng.sample(range(12), size)))
        target = tuple(sorted(rng.sample(range(12), size)))
        v = voice_leading(Chord(source), Chord(target))
        assert v.is_crossing_free()
        best, winners = oracle_leadings(source, target)
        assert v.total_displacement() == best
        assert tuple(sorted(v.pairs())) in winners


def test_rotation_can_move_less_than_sorted_pairing():
    v = voice_leading(Chord([0, 4, 7]), Chord([4, 7, 11]))
    assert v.total_displacement() == 11
    rotated = VoiceLeading((0, 4, 7), (11, 4, 7))
    assert not rotated.is_crossing_free()
    assert rotated.total_displacement() == 1


def test_crossing_free_detection():
    assert not VoiceLeading((0, 4), (5, 2)).is_crossing_free()
    assert VoiceLeading((0, 4), (2, 5)).is_crossing_free()


def test_moves_deduplicate_padding():
    # the doubled pitch class keeps its cheaper move only, and the voice that
    # stays makes none; descending voices walk first, then ascending ones
    assert _moves((0, 2, 2, 4), (0, 3, 6, 8)) == [(4, 8), (2, 3)]
    assert _moves((0, 2, 4), (0, 3, 6, 8), 2) == [(4, 8), (2, 3)]  # padded with its root
    assert _moves((9, 11), (0, 3, 4)) == [(9, 3), (11, 4)]  # 9 doubled keeps its shorter move
    assert _moves((5, 7), (0, 10)) == [(5, 0), (7, 10)]
    assert _moves((0, 4, 7), (5,)) == [(4, 5)]  # three voices compete for the one target


def reference_reduced_moves(v):
    """The two-pass form: per side a dict keeps each pitch class's best move, then a sort."""

    def badness(move):
        d = move[1] - move[0]
        return (abs(d), 0 if d >= 0 else 1)

    def keep_best(moves, side):
        best = {}
        for move in moves:
            kept = best.get(move[side])
            if kept is None or badness(move) < badness(kept):
                best[move[side]] = move
        return best.values()

    return sorted(keep_best(keep_best(v.pairs(), 0), 1))


def reference_letters(moves):
    """Descending walks in ascending order, then ascending walks in descending order.

    A voice from pitch class a to b walks from strand slot a + 1 to slot b + 1.
    """
    down = [(i, -1) for a, b in moves if b < a for i in range(a, b, -1)]
    up = [(i, 1) for a, b in reversed(moves) if b > a for i in range(a + 1, b + 1)]
    return down + up


notes = st.lists(st.integers(0, 11), min_size=1, max_size=7)


roots = st.none() | st.integers(0, 11)
transitions = st.tuples(notes.map(Chord), notes.map(Chord), roots, roots)


def leadings():
    """Leadings as voice_leading builds them: chords that may repeat pitch
    classes, of equal size or padded with a declared or the lowest root."""
    return transitions.map(lambda t: voice_leading(t[0], t[1], a_root=t[2], b_root=t[3]))


@settings(max_examples=300)
@given(transitions, st.randoms(use_true_random=False))
# a target repeats after the source pass; both sides repeat; padded, then a target repeats
@example((Chord([0, 0, 1, 2]), Chord([1, 3, 5, 5]), None, None), random.Random(0))
@example((Chord([2, 2, 2]), Chord([0, 4, 4]), None, None), random.Random(0))
@example((Chord([2]), Chord([0, 4, 4]), None, None), random.Random(0))
def test_moves_match_the_two_pass_form_in_walk_order(transition, rng):
    a, b, a_root, b_root = transition
    v = voice_leading(a, b, a_root=a_root, b_root=b_root)
    moves = reference_reduced_moves(v)
    # the core pads the smaller chord itself, and keeps the moving moves
    walk = _moves(a.notes, b.notes, a_root, b_root)
    assert _moves(v.source, v.target) == walk
    assert sorted(walk) == [(s, t) for s, t in moves if s != t]
    # in walk order, their walks are the transition's letters
    assert _letters(walk) == tuple(reference_letters(moves))
    # the same crossing-free leading, its voices listed in another order
    pairs = list(v.pairs())
    rng.shuffle(pairs)
    shuffled = VoiceLeading(*map(tuple, zip(*pairs)))
    assert braid_of_leading(shuffled).letters == tuple(reference_letters(moves))


voices = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=6)


@settings(max_examples=100)
@given(leadings().map(lambda v: list(v.pairs())) | voices, st.randoms(use_true_random=False))
@example([(0, 5), (4, 2)], random.Random(0))  # crosses: refused
@example([(2, 0), (2, 4), (7, 7)], random.Random(0))  # a repeated source, in either order
def test_every_accepted_word_lands_its_voices(pairs, rng):
    rng.shuffle(pairs)
    v = VoiceLeading(*map(tuple, zip(*pairs)))
    try:
        word = braid_of_leading(v)
    except CrossingLeading:
        assert not v.is_crossing_free()
        return
    assert v.is_crossing_free()
    perm = invariants(word).permutation
    for a, b in reference_reduced_moves(v):
        assert perm[a] == b + 1  # from slot a + 1 to slot b + 1


@pytest.mark.parametrize("root", [13, -1])
def test_leading_notes_are_pitch_classes(root):
    # a padding root is read as its pitch class, as a Chord reads a note
    v = voice_leading(Chord([0, 4, 7]), Chord([0, 4, 7, 11]), a_root=root)
    assert v.source == tuple(sorted((0, 4, 7, root % 12)))


@pytest.mark.parametrize("b", [Chord([1]), Chord([1, 2])], ids=["unpadded", "padded"])
def test_a_root_that_is_no_number_is_refused_whether_or_not_its_chord_is_padded(b):
    for root in ("x", 0.5, 5.0, [1]):
        message = rf"^root {re.escape(repr(root))} is not an integer$"
        with pytest.raises(IndexOutOfRange, match=message):
            voice_leading(Chord([0]), b, a_root=root)
        with pytest.raises(IndexOutOfRange, match=message):
            voice_leading(b, Chord([0]), b_root=root)


def test_a_root_equal_to_an_int_is_read_as_that_int():
    # the int that operator.index reads, as its pitch class: 17 is 5, and True is 1
    assert voice_leading(Chord([0]), Chord([1, 2]), a_root=17) == VoiceLeading((0, 5), (1, 2))
    assert voice_leading(Chord([0]), Chord([1]), a_root=17, b_root=True) == VoiceLeading((0,), (1,))
    padded = voice_leading(Chord([]), Chord([1, 2]), a_root=True)
    assert padded == VoiceLeading((1, 1), (1, 2)) and all(type(n) is int for n in padded.source)


def test_a_leading_stores_its_notes_as_tuples():
    source, target = [0, 4], [5, 7]
    v = VoiceLeading(source, target)
    assert (v.source, v.target) == ((0, 4), (5, 7))
    assert hash(v) == hash(VoiceLeading((0, 4), (5, 7)))
    # a note added to the caller's list after the check changes nothing stored
    source.append(9)
    assert v == VoiceLeading((0, 4), (5, 7))
    assert repr(v) == "VoiceLeading(source=(0, 4), target=(5, 7))"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: VoiceLeading(5, 6), InvalidArgument, r"^notes of type int are no collection$"),
        (lambda: VoiceLeading((0, [1]), (1, 2)), IndexOutOfRange,
         r"^note \[1\] is not an integer$"),
        (lambda: braid_of_leading((0, 4)), InvalidArgument,
         r"^braid_of_leading takes a VoiceLeading, not tuple$"),
        (lambda: braids_of_progression(["Cmaj7"]), InvalidArgument,
         r"^a progression word takes a Progression, not list$"),
        (lambda: braid_of_progression(["Cmaj7"]), InvalidArgument,
         r"^a progression word takes a Progression, not list$"),
        (lambda: parse_progression(5), InvalidArgument, r"^progression text is a str, not int$"),
        (lambda: parse_progression(b"Cmaj7"), InvalidArgument,
         r"^progression text is a str, not bytes$"),
        (lambda: voice_leading(Chord([0]), Chord([1, 2]), a_root="x"), IndexOutOfRange,
         r"^root 'x' is not an integer$"),
    ],
    ids=["leading-no-collection", "leading-unhashable-note", "braid_of_leading",
         "braids_of_progression", "braid_of_progression", "parse_progression-int",
         "parse_progression-bytes", "leading-str-root"],
)
def test_a_value_of_the_wrong_kind_is_a_domain_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_braid_of_leading_word_and_permutation():
    v = voice_leading(Chord([0, 4, 7, 11]), Chord([7, 11, 2, 6]))
    w = braid_of_leading(v)
    assert w.strands == STRANDS
    assert w.letters == ((5, 1), (6, 1), (1, 1), (2, 1))
    perm = invariants(w).permutation
    assert perm[0] == 3 and perm[4] == 7 and perm[7] == 8 and perm[11] == 12


def test_braid_moves_every_voice_to_its_slot():
    rng = random.Random(4721)
    for _ in range(60):
        size = rng.choice((3, 4, 5))
        source = sorted(rng.sample(range(12), size))
        target = sorted(rng.sample(range(12), size))
        v = VoiceLeading(tuple(source), tuple(target))
        perm = invariants(braid_of_leading(v)).permutation
        for a, b in reference_reduced_moves(v):
            assert perm[a] == b + 1  # from slot a + 1 to slot b + 1


def test_crossing_leading_is_refused():
    # walked as given, slot 5 would end on slot 2, not on its target 3
    v = VoiceLeading((0, 4), (5, 2))
    assert not v.is_crossing_free()
    with pytest.raises(CrossingLeading, match=r"^the pairing \(\(0, 5\), \(4, 2\)\) crosses$"):
        braid_of_leading(v)
    with pytest.raises(CrossingLeading):
        braid_of_leading(VoiceLeading((0, 4, 7), (11, 4, 7)))  # a rotation crosses
    # the crossing-free pairing of the same notes, its voices in either order
    word = braid_of_leading(VoiceLeading((4, 0), (5, 2)))
    assert word == braid_of_leading(VoiceLeading((0, 4), (2, 5)))
    assert serialize_word(word) == "s5 s1 s2"


def test_identity_leading_gives_empty_word():
    v = voice_leading(Chord([0, 4, 7]), Chord([0, 4, 7]))
    assert len(braid_of_leading(v)) == 0


def test_progression_braids():
    text = "Cmaj7\nGmaj7\nCmaj7\n"
    p = parse_progression(text)
    words = braids_of_progression(p)
    assert len(words) == 2
    whole = braid_of_progression(p)
    assert whole.letters == words[0].letters + words[1].letters
    # returning to the first chord restores the occupied slots
    perm = invariants(whole).permutation
    occupied = {1, 5, 8, 12}
    assert {perm[s - 1] for s in occupied} == occupied


symbol_lines = st.sampled_from(["Cmaj7", "G7", "D-7", "F#o7", "Bb-7b5", "Ebmaj7#5", "C#-9", "A13b9"])
pcs_lines = st.lists(st.integers(0, 11), min_size=1, max_size=6).map(
    lambda values: "x: " + ",".join(map(str, values)))  # repeats and unequal sizes pad


@settings(max_examples=200)
@given(st.lists(symbol_lines | pcs_lines, min_size=1, max_size=40))
@example(["Cmaj7"])
@example(["x: 0,0,4", "G7", "y: 2,2"])
def test_braid_of_progression_is_the_concatenation(lines):
    p = parse_progression("\n".join(lines))
    words = braids_of_progression(p)
    joined = braid_of_progression(p)
    assert joined == concatenate(BraidWord(STRANDS), *words)
    for w in (*words, joined):  # built unchecked, each is the word the check builds
        assert type(w.letters) is tuple and w == BraidWord(w.strands, w.letters)
    if len(lines) == 1:
        assert joined == BraidWord(STRANDS)


def test_braid_of_progression_checks_each_letter_once(monkeypatch, cold_walks):
    # each walk is checked once, as one word, when it is derived; both progression
    # words are built from the checked walks, so they check nothing again, and
    # derive no walk's tokens or rows
    text = "Cmaj7\nx: 0,0,4\nG7\nF#o7\nCmaj7\n"
    checked, check = [], BraidWord.__post_init__
    monkeypatch.setattr(BraidWord, "__post_init__", lambda w: checked.append(w) or check(w))
    p = parse_progression(text)
    joined, words = braid_of_progression(p), braids_of_progression(p)
    walks = list(cold_walks._WALKS.values())
    assert [w.letters for w in checked] == walks and len(walks) > 0
    assert len(cold_walks._WALK_TOKENS) == len(cold_walks._WALK_ROWS) == 0
    checked.clear()
    q = parse_progression(text)
    assert (braids_of_progression(q), braid_of_progression(q)) == (words, joined)
    assert checked == [] and len(joined) == sum(map(len, words)) > 0


padding_lines = st.sampled_from(["x: 0", "y: 4,4", "z: 0,1,2,3,4,5"])  # pad up and down


@settings(max_examples=150)
@given(st.lists(symbol_lines | pcs_lines | padding_lines, min_size=1, max_size=24),
       st.booleans())
@example(["Cmaj7"], True)
@example(["x: 0", "Cmaj7", "x: 0", "x: 0", "z: 0,1,2,3,4,5"], False)
def test_both_progression_words_match_each_transition(lines, words_first):
    p = parse_progression("\n".join(lines))
    expected = [braid_of_leading(voice_leading(a, b, ra, rb))
                for (_, ra, a), (_, rb, b) in zip(p.chords, p.chords[1:])]
    whole = concatenate(BraidWord(STRANDS), *expected)
    calls = [lambda: braids_of_progression(p), lambda: braid_of_progression(p)]
    if not words_first:
        calls.reverse()
    for call in calls * 2:
        got = call()
        assert got == (expected if isinstance(got, list) else whole)


def test_a_progression_derives_each_transition_once(monkeypatch):
    runs, moves = [], leading._moves
    monkeypatch.setattr(leading, "_moves", lambda *args: runs.append(1) or moves(*args))
    text = "Cmaj7\nx: 0,0,4\nG7\nF#o7\ny: 2\nCmaj7\n"
    for first, then in ((braids_of_progression, braid_of_progression),
                        (braid_of_progression, braids_of_progression)):
        p = parse_progression(text)
        n = len(p.chords)
        first(p), then(p), first(p), then(p)
        assert len(runs) == n - 1
        runs.clear()


def test_the_braid_stream_keeps_no_letters(monkeypatch):
    # the verb pairs the parser's entries through the one core and writes each
    # move's kept tokens and rows: it builds no Progression, no letters and no
    # word, so nothing keeps the entries or the letters
    text = "Cmaj7\nG7\nF#o7\n"
    words = braids_of_progression(parse_progression(text))
    stream = leading._transition_moves(leading._entries(text))
    assert [(a, b, BraidWord(STRANDS, _letters(moves))) for a, b, moves in stream] == [
        ("Cmaj7", "G7", words[0]), ("G7", "F#o7", words[1])]
    path = DATA / "peru.prog"
    braids_of_progression(parse_progression(path.read_text()))  # every walk it needs, derived
    built = []
    monkeypatch.setattr(Progression, "__post_init__", lambda p: built.append(p))
    monkeypatch.setattr(BraidWord, "__post_init__", lambda w: built.append(w))
    monkeypatch.setattr(leading, "_letters", lambda moves: built.append(moves))
    for name in ("serialize_word", "render_ascii"):
        monkeypatch.setattr(braid, name, lambda w: built.append(w))
    for flags, golden in (([], "braid_peru.txt"), (["--ascii"], "braid_peru_ascii.txt")):
        out = io.StringIO()
        assert run(["braid", "--file", str(path), *flags], out=out) == 0
        assert built == [] and out.getvalue() == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("ascii_", [False, True], ids=["plain", "ascii"])
def test_an_empty_transition_prints_no_tokens(ascii_, tmp_path):
    # a chord that moves no voice: the line keeps the space after its colon,
    # and its drawing is the base row alone
    path = tmp_path / "song.prog"
    path.write_text("C: 0,4,7\nC: 7,0,4\n")
    out = io.StringIO()
    assert run(["braid", "--file", str(path), *(["--ascii"] if ascii_ else [])], out=out) == 0
    base = "| | | | | | | | | | | |\n"
    assert out.getvalue() == "strands=12\nC -> C: \n" + (base if ascii_ else "")


def test_a_progression_keeps_its_own_chords():
    entries = [("a", 0, Chord([0, 4, 7])), ("b", 7, Chord([7, 11, 2]))]
    p = Progression(entries)
    words = braids_of_progression(p)
    entries.append(("c", 5, Chord([5, 9, 0])))  # the caller's list, changed after the build
    assert p.chords == tuple(entries[:2])
    assert braids_of_progression(p) == words
    assert braid_of_progression(p) == words[0]


def test_single_chord_progression_is_identity():
    p = parse_progression("Cmaj7\n")
    assert braid_of_progression(p) == BraidWord(STRANDS)


def test_parse_progression_formats():
    p = parse_progression("# comment\n\nF-9\ncluster: 0,1,2\n")
    assert len(p.chords) == 2
    name, root, chord = p.chords[1]
    assert (name, root) == ("cluster", 0)
    assert chord == Chord([0, 1, 2])
    # a repeated pitch class stays a duplicate in the chord
    assert parse_progression("x: 0,0,4\n").chords[0][2] == Chord([0, 0, 4])


def test_parse_progression_errors():
    with pytest.raises(ParseError):
        parse_progression("cluster: 0,x\n")
    with pytest.raises(ParseError):
        parse_progression("cluster: 13\n")
    with pytest.raises(ParseError, match=r"^the progression has no chords \(at position 0\)$"):
        Progression(())


@pytest.mark.parametrize(
    "text, message, position, token",
    [
        ("Cmaj7\nG7\nCxx\n", "unknown chord quality 'xx' on line 3", 10, "xx"),
        ("Cmaj7\n\n  # c\n  Hm7  # c\n", "expected a root note in 'Hm7' on line 4", 15, "Hm7"),
        ("G7\r\ncluster:\n", "empty pitch-class list on line 2", 12, "\n"),
        ("G7\n cl: 0, x\n", "bad pitch class 'x' on line 2", 11, "x"),
        ("G7\ncl: 4,12\n", "pitch class 12 is not in 0..11 on line 2", 9, "12"),
        ("G7\n\ncl: 0,-1\n", "pitch class -1 is not in 0..11 on line 3", 10, "-1"),
        ("x: 1_1\n", "bad pitch class '1_1' on line 1", 3, "1_1"),
        pytest.param(
            f"x: 0,{HUGE}\n", f"bad pitch class {HUGE!r} on line 1", 5, HUGE, id="5000-digits"
        ),
        pytest.param("Cmaj7\n" * 30_000 + "Cxx\n", "unknown chord quality 'xx' on line 30001",
                     180_001, "xx", id="past-two-blocks"),
    ],
)
def test_parse_progression_error_names_line_and_offset(text, message, position, token):
    # position is the character offset of the offending token into the whole text
    with pytest.raises(ParseError) as info:
        parse_progression(text)
    assert (info.value.message, info.value.position) == (message, position)
    assert text[position:].startswith(token)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("Cmaj7\x0cG7\nCxx\n", 1),
        ("Cmaj7  # a\x0cb\nG7\nCxx\n", 3),
        ("Cmaj7\x85\nCxx\n", 2),
        ("Cmaj7\u2028\nG7\nCxx\n", 3),
        ("Cmaj7\r\nG7\r\nCxx\r\n", 3),
    ],
    ids=["form-feed", "form-feed-in-comment", "next-line", "line-separator", "crlf"],
)
def test_parse_progression_counts_newlines_only(text, lineno):
    # the line `wc -l` reports: one plus the newlines before the error
    with pytest.raises(ParseError) as info:
        parse_progression(text)
    assert info.value.message.endswith(f" on line {lineno}")
    assert text[: info.value.position].count("\n") + 1 == lineno


LONG_LINE = "x" * (3 * leading._BLOCK)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "\n" * 5, "a", "a\n", "\na", "\r\n", LONG_LINE, f"a\n{LONG_LINE}\nb\n",
     "\n" * (2 * leading._BLOCK + 1)],
    ids=["empty", "newline", "newlines", "one-line", "trailing-newline", "leading-newline", "crlf",
         "line-of-three-blocks", "long-middle-line", "newlines-of-two-blocks"],
)
def test_block_lines_are_the_split_lines(text):
    assert list(leading._lines(text)) == text.split("\n")


@given(st.text(alphabet="ab\n\r", max_size=40), st.integers(1, 6))
def test_lines_split_alike_in_blocks_of_any_size(text, block):
    with mock.patch.object(leading, "_BLOCK", block):
        assert list(leading._lines(text)) == text.split("\n")


def test_parse_progression_without_chords_is_a_parse_error():
    for text in ("", "# only a comment\n\n  # another\n"):
        with pytest.raises(ParseError):
            parse_progression(text)


# The pattern a comment was cut at before str methods cut it, kept as the reference.
COMMENT = re.compile(r"(?:^|\s)#")


# sharps, ASCII and other whitespace (which \s and str.isspace both take), and any character
line_characters = st.one_of(
    st.sampled_from("#aF7 \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u200b"), st.characters()
)


@given(st.text(line_characters, max_size=16))
@example("F#o7  # note")
@example("#C7")
@example("\u3000#")
def test_a_comment_is_cut_where_the_regex_cut_it(raw):
    assert leading._uncommented(raw).strip() == COMMENT.split(raw, 1)[0].strip()


def test_sharp_is_not_a_comment():
    p = parse_progression("F#o7\nC#-7  # note\nDbmaj7#5\n#C7\n\t# C7\n")
    assert [name for name, _root, _chord in p.chords] == ["F#o7", "C#-7", "Dbmaj7#5"]
    assert p.chords[0][1:] == (6, Chord([6, 9, 0, 3]))
    assert p.chords[1][1:] == (1, Chord([1, 4, 8, 11]))
    assert p.chords[2][1:] == (1, Chord([1, 5, 9, 0]))


def test_progression_line_parses_like_chord_symbol():
    for letter, accidental, token in product("CDEFGAB", ("", "#", "b"), _SYMBOL_INTERVALS):
        sym = letter + accidental + token
        assert parse_progression(sym).chords[0][1:] == parse_chord_symbol(sym), sym


def test_only_valid_chord_symbols_are_kept():
    before = dict(leading._SYMBOLS)
    for junk in ("Hm7", "Cxx", "C7 7"):
        with pytest.raises(ParseError):
            parse_progression(junk)
    parse_progression("cl: 0,4,7\nC7: 0,4\nCmaj7: 0,4,7,11\n")
    assert leading._SYMBOLS == before
    symbols = [root + token for root in _SPELLINGS for token in _SYMBOL_INTERVALS]
    p = parse_progression("\n".join(symbols * 2))
    assert set(leading._SYMBOLS) == set(symbols) and len(symbols) == 21 * 10
    # a symbol's second line shares the first one's chord
    half = len(symbols)
    assert all(p.chords[i][2] is p.chords[i + half][2] for i in range(half))


def symbol_entry(label):
    return (label, *parse_chord_symbol(label))


@pytest.mark.parametrize(
    "text, expected, held",
    [
        ("Cmaj7\nCmaj7\n", [symbol_entry("Cmaj7")] * 2, [True, True]),
        ("G7  # five\r\n\tG7\r\n", [symbol_entry("G7")] * 2, [True, True]),
        ("C7\nx: 0,4,7,10\nC7: 7,10,0,4\n",
         [symbol_entry("C7"), ("x", 0, Chord([0, 4, 7, 10])), ("C7", 7, Chord([0, 4, 7, 10]))],
         [True, False, False]),
    ],
    ids=["twice", "comment-and-cr", "pc-lists-of-the-same-notes"],
)
def test_a_symbol_line_seen_before_reads_as_it_first_did(text, expected, held):
    parse_progression(text)  # each symbol of the text is held now
    entries = list(leading._entries(text))
    assert entries == expected
    assert [type(root) for _, root, _ in entries] == [int] * len(expected)
    # a symbol's lines share its held entry; a pitch-class list is an entry of its own
    assert [entry is leading._SYMBOLS.get(entry[0]) for entry in entries] == held


def test_an_unknown_symbol_after_held_ones_is_the_same_parse_error():
    parse_progression("Cmaj7\nG7\n")
    with pytest.raises(ParseError) as info:
        parse_progression("Cmaj7\nG7\nCxx\n")
    assert (info.value.message, info.value.position) == ("unknown chord quality 'xx' on line 3", 10)
    assert "Cxx" not in leading._SYMBOLS


def test_a_progression_keeps_an_entry_stored_as_it_stores_it():
    chord = Chord([0, 4, 7])
    entry = ("C", 0, chord)
    p = Progression((entry, entry, ("C", None, chord)))
    assert p.chords[0] is entry and p.chords[1] is entry
    # any other entry is stored anew: its root read as a pitch class, a tuple subclass
    # as a plain tuple
    Entry = namedtuple("Entry", "label root chord")
    for built, stored in [(("C", True, chord), ("C", 1, chord)), (("C", 12, chord), ("C", 0, chord)),
                          (Entry("C", 0, chord), ("C", 0, chord))]:
        kept = Progression((built,)).chords[0]
        assert kept == stored and type(kept) is tuple and type(kept[1]) is int


def test_walks_are_kept_per_move():
    for s, t in product(range(12), repeat=2):
        braid_of_leading(VoiceLeading((s,), (t,)))
    # keyed by the voice's two pitch classes; a voice that stays looks up no walk
    assert set(leading._WALKS) == {(s, t) for s, t in product(range(12), repeat=2) if s != t}


def test_each_move_keeps_its_walks_tokens_and_rows(cold_walks):
    # tokens and rows are read first, so each derives the walk it is made from
    base = render_ascii(BraidWord(STRANDS))
    for s, t in permutations(range(12), 2):
        text, rows = cold_walks._WALK_TOKENS[s, t], cold_walks._WALK_ROWS[s, t]
        letters = cold_walks._WALKS[s, t]
        assert letters == tuple(reference_letters([(s, t)]))
        word = BraidWord(STRANDS, letters)
        assert text == serialize_word(word)
        assert base + rows == render_ascii(word)
    assert len(cold_walks._WALKS) == len(cold_walks._WALK_TOKENS) == len(cold_walks._WALK_ROWS)


def test_a_walk_off_the_strands_is_refused_when_derived(cold_walks):
    tables = (cold_walks._WALKS, cold_walks._WALK_TOKENS, cold_walks._WALK_ROWS)
    for table in (*tables[1:], tables[0]):  # tokens and rows first, each deriving the walk
        with pytest.raises(IndexOutOfRange, match=r"^generator s12 needs 13 strands, have 12$"):
            table[0, 12]
    assert all((0, 12) not in table for table in tables)
    assert cold_walks._WALK_TOKENS[0, 11] == " ".join(f"s{i}" for i in range(1, 12))
