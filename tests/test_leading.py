"""Voice leadings checked against a brute-force assignment oracle."""

import random
from itertools import permutations, product

import pytest

from modalkit.braid import invariants
from modalkit.errors import ParseError, SizeMismatch
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
from modalkit.leading import _reduced_moves
from modalkit.pitch import _SYMBOL_QUALITIES, Chord, parse_chord_symbol


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
    with pytest.raises(SizeMismatch):
        voice_leading(Chord([0, 4, 7]), Chord([0, 7]), pad=False)


def test_padding_doubles_the_root():
    v = voice_leading(Chord([2, 5, 9, 0]), Chord([7, 11, 2, 5, 8]), a_root=2, b_root=7)
    assert v.source == (0, 2, 2, 5, 9)
    # without a declared root the lowest pitch class is doubled
    v = voice_leading(Chord([4, 7, 11]), Chord([0, 4, 7, 11]))
    assert v.source == (4, 4, 7, 11)


def test_cmaj7_to_gmaj7_pairs():
    v = voice_leading(Chord([0, 4, 7, 11]), Chord([7, 11, 2, 6]))
    assert v.pairs() == ((0, 2), (4, 6), (7, 7), (11, 11))
    assert v.is_crossing_free()
    assert v.total_displacement() == 4


def test_reverse_swaps_endpoints():
    v = voice_leading(Chord([0, 4, 7]), Chord([2, 5, 9]))
    assert v.reverse().pairs() == tuple((t, s) for s, t in v.pairs())


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


def test_reduced_moves_deduplicate_padding():
    v = VoiceLeading((0, 2, 2, 4), (0, 3, 6, 8))
    moves = _reduced_moves(v)
    # the doubled pitch class keeps its cheaper move only
    assert moves == [(1, 1), (3, 4), (5, 9)]
    slots = list(zip(*moves))
    assert list(slots[0]) == sorted(set(slots[0]))
    assert list(slots[1]) == sorted(set(slots[1]))


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
        for a, b in _reduced_moves(v):
            assert perm[a - 1] == b


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


def test_single_chord_progression_is_identity():
    p = parse_progression("Cmaj7\n")
    assert braid_of_progression(p) == braid_of_progression(p).identity(STRANDS)


def test_parse_progression_formats():
    p = parse_progression("# comment\n\nF-9\ncluster: 0,1,2\n")
    assert len(p.chords) == 2
    name, root, chord = p.chords[1]
    assert (name, root) == ("cluster", 0)
    assert chord == Chord([0, 1, 2])


def test_parse_progression_errors():
    with pytest.raises(ParseError):
        parse_progression("cluster: 0,x\n")
    with pytest.raises(ParseError):
        parse_progression("cluster: 13\n")
    with pytest.raises(ValueError):
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


def test_parse_progression_without_chords_is_a_parse_error():
    for text in ("", "# only a comment\n\n  # another\n"):
        with pytest.raises(ParseError):
            parse_progression(text)


def test_sharp_is_not_a_comment():
    p = parse_progression("F#o7\nC#-7  # note\nDbmaj7#5\n#C7\n\t# C7\n")
    assert [name for name, _root, _chord in p.chords] == ["F#o7", "C#-7", "Dbmaj7#5"]
    assert p.chords[0][1:] == (6, Chord([6, 9, 0, 3]))
    assert p.chords[1][1:] == (1, Chord([1, 4, 8, 11]))
    assert p.chords[2][1:] == (1, Chord([1, 5, 9, 0]))


def test_progression_line_parses_like_chord_symbol():
    for letter, accidental, token in product("CDEFGAB", ("", "#", "b"), _SYMBOL_QUALITIES):
        sym = letter + accidental + token
        assert parse_progression(sym).chords[0][1:] == parse_chord_symbol(sym), sym
