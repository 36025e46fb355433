"""Octatonic approximation by admissible modes."""

import random

from modalkit.approximate import ScaleApproximation, _CANDIDATES, approximate, hs_ws_scale
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
    for q in ChordQuality:
        paths = enumerate_admissible(build_graph(q))
        for root in range(12):
            expected = tuple((p, frozenset(path_notes(p, root))) for p in paths)
            assert _CANDIDATES[q, root] == expected


def test_approximate_matches_the_per_call_derivation():
    rng = random.Random(1306)
    for q in ChordQuality:
        for root in range(-12, 24):
            target = set(rng.sample(range(-24, 36), rng.randint(0, 12)))
            ranked = approximate(target, q, root)
            assert ranked == reference_approximate(target, q, root)
            assert ranked == approximate(target, q, root + 12)
