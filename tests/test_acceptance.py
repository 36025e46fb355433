"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line when its assertions hold; run with
``pytest -s tests/test_acceptance.py`` to see the checklist.
"""

import io
import random
from itertools import permutations
from pathlib import Path

from modalkit.approximate import approximate, hs_ws_scale
from modalkit.braid import (
    BraidWord,
    concatenate,
    free_reduce,
    invariants,
    parse_word,
    rewrite_step,
)
from modalkit.cli import run
from modalkit.errors import PatternMismatch
from modalkit.graph import build_graph, enumerate_admissible, special_modes, tcm
from modalkit.leading import (
    STRANDS,
    braid_of_leading,
    braids_of_progression,
    parse_progression,
    voice_leading,
)
from modalkit.modes import ScaleType, decompose, harmonize, recompose, standard_modes
from modalkit.pitch import Chord, ChordQuality

from test_leading import reference_reduced_moves
from test_modes import HARMONIZATION, MODE_TABLE

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def report(number, title):
    print(f"PASS {number:2d}: {title}")


def test_01_standard_mode_catalog():
    rows = [
        (s.label, m.name, m.offsets())
        for s in ScaleType
        for m in standard_modes(s, 0)
    ]
    assert rows == [(lbl, name, offs) for lbl, name, offs, _q, _r, _t in MODE_TABLE]
    report(1, "21 standard modes on C match the frozen catalog exactly")


def test_02_harmonization():
    for s in ScaleType:
        got = tuple(harmonize(s, d).symbol for d in range(1, 8))
        assert got == HARMONIZATION[s.label]
    report(2, "harmonization reproduces all 21 degree qualities")


def test_03_decomposition_round_trip():
    for s in ScaleType:
        for scale in standard_modes(s, 0):
            mode = decompose(scale)
            row = next(r for r in MODE_TABLE if r[1] == scale.name)
            assert mode.base_quality().symbol == row[3]
            triad = mode.tension_triad()
            assert (triad.root, triad.quality) == (row[4], row[5])
            back = recompose(mode.base, mode.tension, scale.root)
            assert back.degrees == scale.degrees
    report(3, "decompose matches the frozen pairs and recompose inverts it")


def test_04_graph_topology():
    expected = {
        ChordQuality.DIM7: 0,
        ChordQuality.MAJ7_SHARP5: 1,
        ChordQuality.MINMAJ7: 1,
        ChordQuality.MAJ7: 2,
        ChordQuality.DOM7: 3,
        ChordQuality.MIN7: 3,
        ChordQuality.MIN7_FLAT5: 3,
    }
    for q, tau in expected.items():
        assert tcm(q) == tau
        assert len(enumerate_admissible(build_graph(q))) == 2 ** tau
    report(4, "tau per quality is {0,1,1,2,3,3,3} and |admissible| = 2^tau")


def test_05_special_modes():
    counts = {q: len(special_modes(q)) for q in ChordQuality}
    assert counts[ChordQuality.MAJ7] == 1
    assert counts[ChordQuality.DOM7] == 4
    assert counts[ChordQuality.MIN7] == 3
    assert counts[ChordQuality.MIN7_FLAT5] == 4
    assert sum(counts.values()) == 12

    (maj7_special,) = special_modes(ChordQuality.MAJ7)
    assert maj7_special.label_names() == ("I", "aII", "MIII", "PIV", "PV", "MVI", "MVII")
    dom7 = {p.name: p.offsets() for p in special_modes(ChordQuality.DOM7)}
    assert dom7 == {
        "mixolydian b2": (0, 1, 4, 5, 7, 9, 10),
        "mixolydian b2 #4": (0, 1, 4, 6, 7, 9, 10),
        "mixolydian #4 b6": (0, 2, 4, 6, 7, 8, 10),
        "mixolydian b2 #4 b6": (0, 1, 4, 6, 7, 8, 10),
    }

    # two published min7/min7b5 degree lists coincide with standard modes
    # (phrygian and locrian); the computed specials must differ from them
    published_min7_eolian_b2 = (0, 1, 3, 5, 7, 8, 10)
    published_locrian_sharp2_sharp6 = (0, 1, 3, 5, 6, 8, 10)
    min7 = {p.offsets() for p in special_modes(ChordQuality.MIN7)}
    min7b5 = {p.offsets() for p in special_modes(ChordQuality.MIN7_FLAT5)}
    assert published_min7_eolian_b2 not in min7
    assert published_locrian_sharp2_sharp6 not in min7b5
    assert (0, 1, 3, 6, 7, 9, 10) in min7
    assert (0, 2, 3, 5, 6, 9, 10) in min7b5
    report(5, "special counts are {1,4,3,4} and published divergences hold")


def test_06_braid_rewrites_and_associativity():
    rng = random.Random(97)

    def random_word():
        n = rng.randint(2, 5)
        length = rng.randint(0, 12)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
        )
        return BraidWord(n, letters)

    checked = 0
    for _ in range(500):
        w = random_word()
        before = invariants(w)
        for rule in ("free_cancel", "p1_swap", "p2_slide"):
            for at in range(len(w)):
                try:
                    rewritten = rewrite_step(w, rule, at)
                except PatternMismatch:
                    continue
                assert invariants(rewritten) == before
                checked += 1
        assert invariants(free_reduce(w)) == before
    assert checked > 100

    for _ in range(200):
        n = rng.randint(2, 5)
        a, b, c = (
            BraidWord(n, tuple(
                (rng.randint(1, n - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            ))
            for _ in range(3)
        )
        left = free_reduce(concatenate(concatenate(a, b), c))
        right = free_reduce(concatenate(a, concatenate(b, c)))
        assert left == right
    report(6, "rewrites preserve invariants; concatenation associative")


def test_07_voice_leading_example_and_oracle():
    v = voice_leading(Chord([0, 4, 7, 11]), Chord([7, 11, 2, 6]))
    w = braid_of_leading(v)
    # the 0 -> 2 voice walks slots 1 -> 3 through exactly sigma_1 sigma_2
    assert w.letters[-2:] == ((1, 1), (2, 1))
    assert v.pairs() == ((0, 2), (4, 6), (7, 7), (11, 11))

    rng = random.Random(20260824)
    for _ in range(100):
        size = rng.choice((2, 3, 4))
        source = tuple(sorted(rng.sample(range(12), size)))
        target = tuple(sorted(rng.sample(range(12), size)))
        got = voice_leading(Chord(source), Chord(target))
        assert got.is_crossing_free()
        best = None
        for perm in permutations(range(size)):
            pairs = [(s, target[j]) for s, j in zip(source, perm)]
            if any(
                (si - sj) * (ti - tj) < 0
                for i, (si, ti) in enumerate(pairs)
                for sj, tj in pairs[i + 1:]
            ):
                continue
            cost = sum(min((s - t) % 12, (t - s) % 12) for s, t in pairs)
            best = cost if best is None else min(best, cost)
        assert got.total_displacement() == best
    report(7, "sigma1 sigma2 example and 100 oracle-checked leadings")


def test_08_octatonic_approximation():
    ranked = approximate(hs_ws_scale(11), ChordQuality.DOM7, 11)
    best = ranked[0]
    assert best.candidate.name == "mixolydian b2 #4"
    assert best.shared == 7
    assert best.dropped == frozenset({2})
    report(8, "hs-ws on B is best approximated by mixolydian b2 #4 (7 shared)")


FIXTURE_WORDS = (
    "s9 s7 s6 s5 s6 s4 s3 s4 s2 s1 s2 s4",
    "s10 s11 s6 s7 s5 s6 s3",
    "s11 s10 s9 s8 s7 s6 s5 s4 s3 s2 s1 s2",
)


def test_09_progression_fixtures():
    for text, expected_len in zip(FIXTURE_WORDS, (12, 7, 12)):
        word = parse_word(text, strands=12)
        assert len(word) == expected_len
        assert all(sign == 1 for _i, sign in word.letters)
        inv = invariants(word)
        assert sorted(inv.permutation) == list(range(1, 13))
        assert inv.writhe == expected_len

    progression = parse_progression((DATA / "peru.prog").read_text())
    assert len(progression.chords) == 4
    words = braids_of_progression(progression)
    assert len(words) == 3
    for v, word in zip(progression.leadings(), words):
        assert word.strands == STRANDS
        perm = invariants(word).permutation
        targets = {t + 1 for t in v.target}
        moved = set()
        for a, b in reference_reduced_moves(v):  # pitch classes, slots a + 1 and b + 1
            assert perm[a] == b + 1
            moved.add(b + 1)
        assert moved <= targets
    report(9, "fixture words parse (12/7/12, positive); progression braids land voices")


def test_10_cli_golden_files():
    cases = (
        (["modes", "--scale", "major", "--root", "C"], "modes_major_c.txt"),
        (["tcm", "--all"], "tcm_all.txt"),
        (["special", "--quality", "7"], "special_dom7.txt"),
        (["graph", "--quality", "o7", "--dot"], "graph_dim7.dot"),
    )
    for argv, golden in cases:
        out = io.StringIO()
        assert run(argv, out=out, err=io.StringIO()) == 0
        assert out.getvalue() == (GOLDEN / golden).read_text()
    report(10, "four CLI outputs are byte-identical to the goldens")
