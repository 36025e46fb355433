"""Standard modes, harmonization, and decompose/recompose on all 21 modes,
every admissible mode and every seven-note scale."""

import copy
import itertools
import math
import pickle

import pytest

from modalkit.approximate import _CANDIDATES, approximate, hs_ws_scale
from modalkit.errors import IndexOutOfRange, ModalkitError, NotAMode
from modalkit.graph import _THEORY_DOT, build_graph, emit_dot, enumerate_admissible, path_notes
from modalkit.modes import (
    ModalScale,
    Mode,
    ScaleType,
    _RECOMPOSED,
    _STANDARD_MODES,
    all_standard_modes,
    decompose,
    harmonize,
    recompose,
    standard_modes,
)
from modalkit.pitch import Chord, ChordQuality, Triad, TriadQuality, pc

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


def reference_standard_modes(s, root):
    """The rotation that standard_modes derived on every call before it kept a table."""
    parent = tuple(pc(root + i) for i in s.step_pattern)
    return [ModalScale(parent[i], parent[i:] + parent[:i], n) for i, n in enumerate(s.mode_names)]


def test_standard_modes_table_matches_the_rotation():
    for s in ScaleType:
        for root in range(-12, 24):
            modes = standard_modes(s, root)
            assert type(modes) is list
            assert modes == reference_standard_modes(s, root)
            assert standard_modes(s, root + 12) == modes


def test_returned_mode_lists_do_not_share_the_table():
    standard_modes(ScaleType.MAJOR, 2).clear()
    modes = standard_modes(ScaleType.MAJOR, 2)
    modes[0] = None
    modes.append(None)
    assert standard_modes(ScaleType.MAJOR, 14) == reference_standard_modes(ScaleType.MAJOR, 2)


TABLES = (_STANDARD_MODES, _CANDIDATES, _THEORY_DOT, _RECOMPOSED)


@pytest.mark.parametrize("root", [0.5, 7.0, "7", -1.5], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda root: standard_modes(ScaleType.MAJOR, root),
        lambda root: all_standard_modes(root),
        lambda root: approximate({0, 4, 7}, ChordQuality.DOM7, root),
        lambda root: emit_dot(build_graph(ChordQuality.DIM7), root),
        lambda root: recompose(Chord([0, 4, 7, 11]), Chord([2, 5, 9]), root),
        lambda root: hs_ws_scale(root),
    ],
    ids=["standard_modes", "all_standard_modes", "approximate", "emit_dot", "recompose",
         "hs_ws_scale"],
)
def test_a_root_that_keys_a_table_is_an_integer(call, root):
    sizes = [len(table) for table in TABLES]
    with pytest.raises(IndexOutOfRange) as info:
        call(root)
    assert str(info.value) == f"root {root!r} is not an integer"
    assert [len(table) for table in TABLES] == sizes


@pytest.mark.parametrize("note", [0.5, 4.0, "0", None], ids=repr)
def test_a_target_note_is_an_integer(note):
    # as a Chord's notes: 4.0 equals pitch class 4, yet it is no integer
    with pytest.raises(IndexOutOfRange, match=rf"^note {note!r} is not an integer$"):
        approximate({note, 7}, ChordQuality.DOM7, 0)


def test_integer_like_roots_key_the_tables_as_their_pitch_class():
    assert standard_modes(ScaleType.MAJOR, True) == standard_modes(ScaleType.MAJOR, 1)
    assert standard_modes(ScaleType.MAJOR, -11) == standard_modes(ScaleType.MAJOR, 1)
    assert emit_dot(build_graph(ChordQuality.DIM7), 14) == emit_dot(build_graph(ChordQuality.DIM7), 2)


def test_scale_labels_match_a_scan_of_the_members():
    for s in ScaleType:
        assert ScaleType.from_label(s.label) is s
    for label in ("", "minor", "Major", "melodic minor", "major "):
        with pytest.raises(KeyError) as info:
            ScaleType.from_label(label)
        assert info.value.args == (label,)


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
    with pytest.raises(ModalkitError):
        harmonize(ScaleType.MAJOR, 9)


@pytest.mark.parametrize("degree", [2.5, 2.0, "2", None], ids=repr)
def test_harmonize_refuses_a_degree_that_is_no_integer(degree):
    # as a root that keys a table: 2.0 equals degree 2, yet it is no integer
    with pytest.raises(IndexOutOfRange, match=rf"^degree {degree!r} is not an integer$"):
        harmonize(ScaleType.MAJOR, degree)


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
        assert not set(mode.base) & set(mode.tension)
        assert len(mode.base) == 4
        assert len(mode.tension) == 3


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
    with pytest.raises(NotAMode):
        recompose(Chord([0, 4, 7]), Chord([2, 5, 9]), 0)
    with pytest.raises(NotAMode):
        recompose(base, Chord([0, 5, 9]), 0)  # shares the root
    with pytest.raises(NotAMode):
        recompose(base, Chord([2, 5, 9]), 3)  # root outside base
    with pytest.raises(NotAMode, match=r"\(0, 1, 2, 3, 4, 7, 11\)"):
        recompose(base, Chord([1, 2, 3]), 0)  # no base/tension alternation
    with pytest.raises(NotAMode):
        recompose(base, Chord([1, 1, 2]), 0)  # a repeated tension note


def test_recompose_rejects_a_base_that_is_no_seventh_chord():
    with pytest.raises(NotAMode, match="fit no seventh chord"):
        recompose(Chord([0, 2, 5, 8]), Chord([1, 3, 6]), 0)


def test_recompose_inverts_decompose_or_raises_on_every_split():
    accepted = set()
    for rest in itertools.combinations(range(1, 12), 3):
        base = Chord((0, *rest))
        others = [n for n in range(12) if n not in base]
        for tension in map(Chord, itertools.combinations(others, 3)):
            try:
                scale = recompose(base, tension, 0)
            except NotAMode:
                continue
            mode = decompose(scale)
            assert (mode.base, mode.tension) == (base, tension)
            accepted.add(scale.offsets())
    assert accepted == _oracle_offsets()


def test_recompose_names_standard_results():
    got = recompose(Chord([0, 4, 7, 11]), Chord([2, 6, 9]), 0)
    assert got.name == "lydian"
    # admissible but non-standard interleavings come back unnamed here
    got = recompose(Chord([0, 4, 7, 10]), Chord([1, 6, 9]), 0)
    assert got.name == ""


def test_catalog_agrees_with_decompose_on_every_root():
    for root in range(12):
        for s in ScaleType:
            for degree, scale in enumerate(standard_modes(s, root), start=1):
                mode = decompose(scale)
                assert recompose(mode.base, mode.tension, scale.root) == scale
                assert harmonize(s, degree) is mode.base_quality()


def test_a_scale_decomposes_once_and_stays_the_same_value():
    scale = standard_modes(ScaleType.MELODIC_MINOR, 5)[3]
    fresh = reference_standard_modes(ScaleType.MELODIC_MINOR, 5)[3]
    mode = decompose(scale)
    assert decompose(scale) is mode and mode == decompose(fresh)
    assert scale == fresh and hash(scale) == hash(fresh) and repr(scale) == repr(fresh)
    assert pickle.dumps(scale) == pickle.dumps(fresh)
    for twin in (copy.copy(scale), copy.deepcopy(scale), pickle.loads(pickle.dumps(scale))):
        assert twin == scale and twin._mode is None and decompose(twin) == mode
    # a recomposed scale comes with its split, the one decompose builds
    back = recompose(mode.base, mode.tension, scale.root + 12)
    assert back == scale and decompose(back) == mode


def test_a_scale_that_is_no_mode_raises_on_every_decompose():
    scale = ModalScale(0, (0, 1, 2, 3, 4, 5, 6))
    for _ in range(2):
        with pytest.raises(NotAMode, match="fit no seventh chord"):
            decompose(scale)
    assert scale._mode is None


def test_mode_checks_its_split():
    scale = standard_modes(ScaleType.MAJOR, 0)[0]
    base, tension = Chord([0, 4, 7, 11]), Chord([2, 5, 9])
    assert Mode(base, tension, scale) == decompose(scale)
    with pytest.raises(NotAMode):
        Mode(tension, base, scale)
    with pytest.raises(NotAMode):
        Mode(Chord([0, 4, 7, 10]), tension, scale)


def _oracle_offsets() -> set[tuple[int, ...]]:
    """Offsets of every seven-note scale whose degrees 1-3-5-7 stack to a
    seventh chord: one degree strictly inside each of the three gaps."""
    result = set()
    for q in ChordQuality:
        _, third, fifth, seventh = q.intervals
        for two, four, six in itertools.product(
            range(1, third), range(third + 1, fifth), range(fifth + 1, seventh)
        ):
            result.add((0, two, third, four, fifth, six, seventh))
    return result


def test_decompose_every_seven_note_scale_on_every_root():
    oracle = _oracle_offsets()
    decomposed = 0
    for notes in itertools.combinations(range(12), 7):
        for root in notes:
            scale = ModalScale(root, tuple(sorted(notes, key=lambda n: (n - root) % 12)))
            if scale.offsets() not in oracle:
                with pytest.raises(NotAMode):
                    decompose(scale)
                continue
            mode = decompose(scale)
            decomposed += 1
            assert mode.base == Chord(scale.degrees[0::2])
            assert mode.tension == Chord(scale.degrees[1::2])
            assert mode.base_quality().intervals == scale.offsets()[0::2]
            triad = mode.tension_triad()
            if triad is not None:
                assert (triad.root, triad.chord()) == (scale.degrees[1], mode.tension)
            assert recompose(mode.base, mode.tension, root).degrees == scale.degrees
    per_root = sum(
        math.prod(b - a - 1 for a, b in zip(q.intervals, q.intervals[1:])) for q in ChordQuality
    )
    assert decomposed == 12 * per_root == 1176


def test_every_admissible_mode_decomposes_on_every_root():
    paths = [
        (g.quality, p) for g in map(build_graph, ChordQuality) for p in enumerate_admissible(g)
    ]
    assert len(paths) == 33
    for root in range(12):
        for quality, path in paths:
            scale = ModalScale(root, path_notes(path, root))
            mode = decompose(scale)
            assert mode.base_quality() is quality, path.name
            back = recompose(mode.base, mode.tension, root)
            assert back.degrees == scale.degrees
            assert back.name == ("" if path.is_special else path.name)


def test_tension_triads_of_standard_and_special_modes():
    for scale in all_standard_modes(0):
        assert isinstance(decompose(scale).tension_triad(), Triad), scale.name
    with_triads = {
        p.name: triad.symbol()
        for g in map(build_graph, ChordQuality)
        for p in enumerate_admissible(g)
        if p.is_special and (triad := decompose(ModalScale(0, path_notes(p, 0))).tension_triad())
    }
    assert with_triads == {"mixolydian b2": "Db#5", "locrian #2 #6": "D-"}
