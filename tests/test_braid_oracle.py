"""Braid equality proved with Artin's free-group action (``braid_oracle``)."""

import io
import random
from collections.abc import Iterator
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from modalkit.braid import BraidWord, free_reduce, parse_word, rewrite_step, serialize_word
from modalkit.cli import run
from modalkit.errors import PatternMismatch
from modalkit.leading import (
    STRANDS,
    _reduced_moves,
    braid_of_leading,
    braid_of_progression,
    parse_progression,
    voice_leading,
)
from modalkit.pitch import Chord, _SYMBOL_INTERVALS

from braid_oracle import image, same_braid
from test_braid import word_strategy

DATA = Path(__file__).parent / "data"


def word(strands, *letters):
    return BraidWord(strands, tuple(letters))


def test_oracle_knows_the_braid_relations():
    s1, s2, s3 = (1, 1), (2, 1), (3, 1)
    assert same_braid(word(3, s1, s2, s1), word(3, s2, s1, s2))
    assert same_braid(word(4, s1, s3), word(4, s3, s1))
    assert same_braid(word(3, s1, (1, -1)), word(3))
    assert not same_braid(word(2, s1), word(2, (1, -1)))
    assert not same_braid(word(3, s1, s2), word(3, s2, s1))
    assert not same_braid(word(3, s1, s1), word(3))


# Words on 6 strands with one window of each rule at a known position.
side = st.lists(st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), max_size=5)
far = st.sampled_from([(i, j) for i in range(1, 6) for j in range(1, 6) if abs(i - j) > 1])


@given(side, side, st.integers(1, 5), far, st.integers(1, 4), st.booleans(), st.sampled_from((1, -1)))
def test_rewrite_step_preserves_the_braid(prefix, suffix, k, ij, low, up, sign):
    (i, j), (a, b) = ij, ((low, low + 1) if up else (low + 1, low))
    windows = {
        "free_cancel": [(k, sign), (k, -sign)],
        "p1_swap": [(i, sign), (j, -sign)],
        "p2_slide": [(a, sign), (b, sign), (a, sign)],
    }
    for rule, window in windows.items():
        w = word(6, *prefix, *window, *suffix)
        assert same_braid(rewrite_step(w, rule, len(prefix)), w)
        for at in range(len(w)):  # and wherever else the rule happens to fit
            try:
                assert same_braid(rewrite_step(w, rule, at), w)
            except PatternMismatch:
                pass


@given(word_strategy(max_len=14))
def test_free_reduce_preserves_the_braid(w):
    assert same_braid(free_reduce(w), w)


@given(word_strategy(max_strands=12, max_len=14))
def test_serialize_round_trip_is_the_same_braid(w):
    assert same_braid(parse_word(serialize_word(w), w.strands), w)


chord_symbols = st.tuples(
    st.sampled_from("C Db D Eb E F F# G Ab A Bb B".split()), st.sampled_from(sorted(_SYMBOL_INTERVALS))
).map("".join)


@given(st.lists(chord_symbols, min_size=1, max_size=6))
def test_progression_braid_is_the_lazy_pass_joined(chords):
    p = parse_progression("\n".join(chords))
    leadings = p.leadings()
    assert isinstance(leadings, Iterator)
    letters = [x for v in leadings for x in braid_of_leading(v).letters]
    assert image(STRANDS, letters) == image(STRANDS, braid_of_progression(p).letters)


def test_braid_verb_words_join_to_the_progression_braid():
    path, out = DATA / "peru.prog", io.StringIO()
    assert run(["braid", "--file", str(path)], out=out) == 0
    lines = out.getvalue().splitlines()[1:]
    letters = [x for line in lines for x in parse_word(line.split(": ", 1)[1], STRANDS).letters]
    whole = braid_of_progression(parse_progression(path.read_text()))
    assert len(lines) == 3 and image(STRANDS, letters) == image(STRANDS, whole.letters)


def ascending_first(v) -> BraidWord:
    """``braid_of_leading`` with its two groups of voices emitted the other way round."""
    moves = _reduced_moves(v)
    letters = []
    for a, b in reversed([m for m in moves if m[1] > m[0]]):
        letters.extend((i, 1) for i in range(a, b))
    for a, b in [m for m in moves if m[1] < m[0]]:
        letters.extend((i, -1) for i in range(a - 1, b - 1, -1))
    return BraidWord(STRANDS, tuple(letters))


def test_voice_order_is_a_choice_of_word_not_of_braid():
    rng = random.Random(2000)
    for _ in range(2000):
        source, target = (Chord(rng.sample(range(12), 4)) for _ in range(2))
        v = voice_leading(source, target)
        assert same_braid(ascending_first(v), braid_of_leading(v))
