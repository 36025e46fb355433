"""Standard modes, harmonization, and decompose/recompose on all 21 modes."""

import pytest

from modalkit.errors import NotAMode, NotInterleavable
from modalkit.modes import (
    ModalScale,
    ScaleType,
    all_standard_modes,
    decompose,
    harmonize,
    recompose,
    standard_modes,
)
from modalkit.pitch import Chord, ChordQuality, TriadQuality, chord_intersection

# Frozen catalog: (scale, mode name, offsets, base quality symbol,
# tension root offset, tension triad quality).  Derived independently by
# rotating the three parent step patterns and stacking degrees 1-3-5-7 /
# 2-4-6; checked once by hand against standard jazz-theory mode tables.
MODE_TABLE = [
    ("major", "ionian", (0, 2, 4, 5, 7, 9, 11), "maj7", 2, TriadQuality.MINOR),
    ("major", "dorian", (0, 2, 3, 5, 7, 9, 10), "-7", 4, TriadQuality.MINOR),
    ("major", "phrygian", (0, 1, 3, 5, 7, 8, 10), "-7", 5, TriadQuality.MAJOR),
    ("major", "lydian", (0, 2, 4, 6, 7, 9, 11), "maj7", 7, TriadQuality.MAJOR),
    ("major", "mixolydian", (0, 2, 4, 5, 7, 9, 10), "7", 9, TriadQuality.MINOR),
    ("major", "eolian", (0, 2, 3, 5, 7, 8, 10), "-7", 11, TriadQuality.DIMINISHED),
    ("major", "locrian", (0, 1, 3, 5, 6, 8, 10), "-7b5", 0, TriadQuality.MAJOR),
    ("melodic-minor", "hypoionian", (0, 2, 3, 5, 7, 9, 11), "-maj7", 2, TriadQuality.MINOR),
    ("melodic-minor", "dorian b2", (0, 1, 3, 5, 7, 9, 10), "-7", 3, TriadQuality.AUGMENTED),
    ("melodic-minor", "lydian augmented", (0, 2, 4, 6, 8, 9, 11), "maj7#5", 5, TriadQuality.MAJOR),
    ("melodic-minor", "lydian dominant", (0, 2, 4, 6, 7, 9, 10), "7", 7, TriadQuality.MAJOR),
    ("melodic-minor", "mixolydian b6", (0, 2, 4, 5, 7, 8, 10), "7", 9, TriadQuality.DIMINISHED),
    ("melodic-minor", "locrian #2", (0, 2, 3, 5, 6, 8, 10), "-7b5", 11, TriadQuality.DIMINISHED),
    ("melodic-minor", "superlocrian", (0, 1, 3, 4, 6, 8, 10), "-7b5", 0, TriadQuality.MINOR),
    ("harmonic-minor", "hypoionian b6", (0, 2, 3, 5, 7, 8, 11), "-maj7", 2, TriadQuality.DIMINISHED),
    ("harmonic-minor", "locrian #6", (0, 1, 3, 5, 6, 9, 10), "-7b5", 3, TriadQuality.AUGMENTED),
    ("harmonic-minor", "ionian augmented", (0, 2, 4, 5, 8, 9, 11), "maj7#5", 5, TriadQuality.MINOR),
    ("harmonic-minor", "dorian #4", (0, 2, 3, 6, 7, 9, 10), "-7", 7, TriadQuality.MAJOR),
    ("harmonic-minor", "phrygian dominant", (0, 1, 4, 5, 7, 8, 10), "7", 8, TriadQuality.MAJOR),
    ("harmonic-minor", "lydian #2", (0, 3, 4, 6, 7, 9, 11), "maj7", 11, TriadQuality.DIMINISHED),
    ("harmonic-minor", "ultralocrian", (0, 1, 3, 4, 6, 8, 9), "o7", 0, TriadQuality.MINOR),
]

HARMONIZATION = {
    "major": ("maj7", "-7", "-7", "maj7", "7", "-7", "-7b5"),
    "melodic-minor": ("-maj7", "-7", "maj7#5", "7", "7", "-7b5", "-7b5"),
    "harmonic-minor": ("-maj7", "-7b5", "maj7#5", "-7", "7", "maj7", "o7"),
}


def test_standard_mode_catalog_on_c():
    rows = [(s.label, m.name, m.offsets()) for s in ScaleType for m in standard_modes(s, 0)]
    assert rows == [(lbl, name, offs) for lbl, name, offs, _q, _r, _t in MODE_TABLE]


def test_standard_modes_transpose_with_root():
    for s in ScaleType:
        for base, shifted in zip(standard_modes(s, 0), standard_modes(s, 5)):
            assert shifted.degrees == tuple((d + 5) % 12 for d in base.degrees)
            assert shifted.root == (base.root + 5) % 12


def test_all_standard_modes_count():
    modes = all_standard_modes(0)
    assert len(modes) == 21
    assert len({m.degrees for m in modes}) == 21


def test_harmonization_table():
    for s in ScaleType:
        got = tuple(harmonize(s, d).symbol for d in range(1, 8))
        assert got == HARMONIZATION[s.label]


def test_harmonize_rejects_bad_degree():
    with pytest.raises(ValueError):
        harmonize(ScaleType.MAJOR, 0)
    with pytest.raises(ValueError):
        harmonize(ScaleType.MAJOR, 8)


def test_quality_census_over_21_modes():
    census = {}
    for s in ScaleType:
        for d in range(1, 8):
            q = harmonize(s, d)
            census[q.symbol] = census.get(q.symbol, 0) + 1
    assert census == {
        "maj7": 3, "7": 4, "-7": 5, "-7b5": 4, "-maj7": 2, "maj7#5": 2, "o7": 1,
    }


def test_decompose_all_21():
    rows = []
    for s in ScaleType:
        for scale in standard_modes(s, 0):
            mode = decompose(scale)
            triad = mode.tension_triad()
            rows.append(
                (s.label, scale.name, scale.offsets(),
                 mode.base_quality().symbol, triad.root, triad.quality)
            )
    assert rows == MODE_TABLE


def test_decompose_base_and_tension_are_disjoint():
    for scale in all_standard_modes(0):
        mode = decompose(scale)
        assert chord_intersection(mode.base, mode.tension).cardinality == 0
        assert mode.base.cardinality == 4
        assert mode.tension.cardinality == 3


def test_recompose_inverts_decompose():
    for root in (0, 4, 9):
        for scale in all_standard_modes(root):
            mode = decompose(scale)
            back = recompose(mode.base, mode.tension, scale.root)
            assert back.degrees == scale.degrees
            assert back.name == scale.name


def test_decompose_rejects_non_modes():
    with pytest.raises(NotAMode):
        ModalScale(0, (0, 1, 2, 3, 4, 5))
    with pytest.raises(NotAMode):
        ModalScale(1, (0, 1, 2, 3, 4, 5, 6))
    # chromatic cluster: degrees 1,3,5,7 fit no seventh chord
    with pytest.raises(NotAMode):
        decompose(ModalScale(0, (0, 1, 2, 3, 4, 5, 6)))


def test_recompose_rejects_bad_input():
    base = Chord([0, 4, 7, 11])
    with pytest.raises(NotInterleavable):
        recompose(Chord([0, 4, 7]), Chord([2, 5, 9]), 0)
    with pytest.raises(NotInterleavable):
        recompose(base, Chord([0, 5, 9]), 0)  # shares the root
    with pytest.raises(NotInterleavable):
        recompose(base, Chord([2, 5, 9]), 3)  # root outside base
    with pytest.raises(NotInterleavable):
        recompose(base, Chord([1, 2, 3]), 0)  # no base/tension alternation


def test_recompose_names_standard_results():
    got = recompose(ChordQuality.MAJ7.on_root(0), Chord([2, 6, 9]), 0)
    assert got.name == "lydian"
    # admissible but non-standard interleavings come back unnamed here
    got = recompose(ChordQuality.DOM7.on_root(0), Chord([1, 6, 9]), 0)
    assert got.name == ""


def test_catalog_agrees_with_decompose_on_every_root():
    for root in range(12):
        for s in ScaleType:
            for degree, scale in enumerate(standard_modes(s, root), start=1):
                mode = decompose(scale)
                assert recompose(mode.base, mode.tension, scale.root) == scale
                assert harmonize(s, degree) is mode.base_quality()
