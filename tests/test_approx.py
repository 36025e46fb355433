"""Octatonic approximation by admissible modes."""

import random

import pytest

from modalkit.approximate import ScaleApproximation, _CANDIDATES, approximate, hs_ws_scale
from modalkit.errors import IndexOutOfRange
from modalkit.graph import build_graph, enumerate_admissible, path_notes
from modalkit.pitch import ChordQuality, pc


def test_hs_ws_scale_shape():
    scale = hs_ws_scale(0)
    assert scale == frozenset({0, 1, 3, 4, 6, 7, 9, 10})
    assert len(scale) == 8
    # the scale is invariant under minor-third transposition
    assert hs_ws_scale(3) == scale
    assert hs_ws_scale(11) == frozenset({11, 0, 2, 3, 5, 6, 8, 9})


def test_ranking_covers_all_admissible_modes():
    ranked = approximate(hs_ws_scale(11), ChordQuality.DOM7, 11)
    assert len(ranked) == 8
    shared = [a.shared for a in ranked]
    assert shared == sorted(shared, reverse=True)


def test_hs_ws_on_b_is_best_matched_by_mixolydian_b2_sharp4():
    ranked = approximate(hs_ws_scale(11), ChordQuality.DOM7, 11)
    best = ranked[0]
    assert best.candidate.name == "mixolydian b2 #4"
    assert best.candidate.is_special
    assert best.shared == 7
    assert best.dropped == frozenset({2})
    assert best.added == frozenset()
    assert ranked[1].shared < 7


def test_accounting_is_consistent():
    for a in approximate(hs_ws_scale(4), ChordQuality.MIN7, 4):
        assert a.shared == len(a.target & a.notes)
        assert a.dropped == a.target - a.notes
        assert a.added == a.notes - a.target
        assert len(a.notes) == 7


def test_base_chord_always_fully_inside_candidate():
    root = 7
    target = hs_ws_scale(root)
    for a in approximate(target, ChordQuality.DOM7, root):
        base = {(root + i) % 12 for i in ChordQuality.DOM7.intervals}
        assert base <= set(a.notes)


def reference_approximate(target, q, root):
    """approximate as it derived each candidate's notes on every call."""
    target = frozenset(pc(n) for n in target)
    ranked = []
    for path in enumerate_admissible(build_graph(q)):
        notes = frozenset(path_notes(path, root))
        ranked.append(ScaleApproximation(target, path, pc(root), notes, len(target & notes),
                                         target - notes, notes - target))
    ranked.sort(key=lambda a: (-a.shared, len(a.added), a.candidate.name))
    return ranked


def test_candidates_match_path_notes():
    # in name order, so that a candidate's index after (-shared, added) keeps the name tiebreak
    for q in ChordQuality:
        paths = sorted(enumerate_admissible(build_graph(q)), key=lambda p: p.name)
        for root in range(12):
            candidates = _CANDIDATES[q, root]
            assert [(p, notes) for p, notes, _mask in candidates] == [
                (p, frozenset(path_notes(p, root))) for p in paths
            ]
            for _path, notes, mask in candidates:
                assert mask == sum(1 << n for n in notes) and 0 <= mask < 1 << 12


def test_approximate_matches_the_per_call_derivation():
    rng = random.Random(1306)
    for q in ChordQuality:
        for root in range(-12, 24):
            target = set(rng.sample(range(-24, 36), rng.randint(0, 12)))
            ranked = approximate(target, q, root)
            assert ranked == reference_approximate(target, q, root)
            assert ranked == approximate(target, q, root + 12)


def test_approximate_matches_the_per_call_derivation_on_every_target():
    # every subset of the 12 pitch classes, for each quality at one root
    subsets = [frozenset(n for n in range(12) if mask >> n & 1) for mask in range(1 << 12)]
    for q in ChordQuality:
        for target in subsets:
            assert approximate(target, q, 5) == reference_approximate(target, q, 5)


@pytest.mark.parametrize(
    "target", [frozenset({0, 7.0}), [0, 7.0], {0, "7"}, (0.5,), [0, 7, 7.0]], ids=repr
)
def test_filled_tables_still_refuse_a_note_that_is_no_integer(target):
    # the tables are keyed by masks of checked ints, so 7.0 never finds the entry of 7
    for q in ChordQuality:
        for root in range(12):
            approximate(frozenset({0, 7}), q, root)
    with pytest.raises(IndexOutOfRange, match=r"^note .* is not an integer$"):
        approximate(target, ChordQuality.DOM7, 0)


def test_masks_read_true_as_1_and_repeats_and_octaves_once():
    assert approximate({True, 0}, ChordQuality.DOM7, 0) == approximate({0, 1}, ChordQuality.DOM7, 0)
    for target in ([-1, 11, 23, 23], [0, 12, -12, 24, 0], [], range(-30, 30)):
        for q in ChordQuality:
            assert approximate(target, q, 7) == reference_approximate(target, q, 7)

