"""Base-chord graphs: topology, admissible enumeration, special modes."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalkit
from modalkit.graph import (
    SPECIAL_NAMES,
    AdmissiblePath,
    DegreeLabel,
    ModeGraph,
    build_graph,
    emit_dot,
    enumerate_admissible,
    euler_characteristic,
    find_mode_by_name,
    maximal_tree,
    path_notes,
    special_modes,
    standard_patterns,
    tcm,
)
from modalkit.graph import _render_dot
from modalkit.modes import _QUALITIES, _STANDARD_MODES, ScaleType, all_standard_modes
from modalkit.pitch import ChordQuality

# Frozen topology: quality -> (vertices, edges, chi, tau).
TOPOLOGY = {
    ChordQuality.DIM7: (7, 6, 1, 0),
    ChordQuality.MAJ7_SHARP5: (8, 8, 0, 1),
    ChordQuality.MINMAJ7: (8, 8, 0, 1),
    ChordQuality.MAJ7: (9, 10, -1, 2),
    ChordQuality.DOM7: (10, 12, -2, 3),
    ChordQuality.MIN7: (10, 12, -2, 3),
    ChordQuality.MIN7_FLAT5: (10, 12, -2, 3),
}

SPECIAL_COUNTS = {
    ChordQuality.DIM7: 0,
    ChordQuality.MAJ7_SHARP5: 0,
    ChordQuality.MINMAJ7: 0,
    ChordQuality.MAJ7: 1,
    ChordQuality.DOM7: 4,
    ChordQuality.MIN7: 3,
    ChordQuality.MIN7_FLAT5: 4,
}


def test_graph_topology_table():
    for q, (nv, ne, chi, tau) in TOPOLOGY.items():
        g = build_graph(q)
        assert (len(g.vertices), len(g.edges)) == (nv, ne)
        assert euler_characteristic(g) == chi
        assert tcm(q) == tau


def test_tau_is_one_minus_chi():
    for q in ChordQuality:
        assert tcm(q) == 1 - euler_characteristic(build_graph(q))


def test_maximal_tree_spans():
    for g in map(build_graph, ChordQuality):
        tree = maximal_tree(g)
        assert len(tree) == len(g.vertices) - 1
        covered = {v for e in tree for v in e}
        assert covered == set(g.vertices)
        # omitted edges count the fundamental-group generators
        assert len(g.edges) - len(tree) == tcm(g.quality)


def test_admissible_counts_are_powers_of_two():
    for q in ChordQuality:
        paths = enumerate_admissible(build_graph(q))
        assert len(paths) == 2 ** tcm(q)
        assert len({p.offsets() for p in paths}) == len(paths)


def test_diamonds_count_the_generators():
    # the module docstring: degrees 1, 3, 5 and 7 carry one label, degrees 2, 4
    # and 6 one or two, and each two-label degree adds one generator
    taus = []
    for q in ChordQuality:
        labels = {d: sum(v.degree == d for v in build_graph(q).vertices) for d in range(1, 8)}
        assert all(labels[d] == 1 for d in (1, 3, 5, 7))
        assert all(labels[d] in (1, 2) for d in (2, 4, 6))
        assert tcm(q) == sum(labels[d] == 2 for d in (2, 4, 6))
        taus.append(tcm(q))
    assert taus == [0, 1, 1, 2, 3, 3, 3]


def test_enumerate_admissible_reads_its_graph():
    path = AdmissiblePath((DegreeLabel(1, 0),), is_special=False, name="one label")
    g = ModeGraph(ChordQuality.MAJ7, (DegreeLabel(1, 0),), (), (path,))
    assert enumerate_admissible(g) == [path]


def test_standard_plus_special_is_33():
    paths = [p for g in map(build_graph, ChordQuality) for p in enumerate_admissible(g)]
    total = len(paths)
    assert total == 33
    assert len({p.name for p in paths}) == 33
    total_special = sum(len(special_modes(q)) for q in ChordQuality)
    assert total_special == 12
    assert total - total_special == 21


def test_returned_lists_do_not_share_the_catalog():
    g = build_graph(ChordQuality.DOM7)
    enumerate_admissible(g).clear()
    assert len(enumerate_admissible(g)) == 8
    special_modes(ChordQuality.DOM7).pop()
    assert len(special_modes(ChordQuality.DOM7)) == 4


# Every table of the finite theory by qualified name: the keyed tables, each a
# pitch._Table filled per key on first lookup, with the size each reaches once
# its whole key space is looked up (the README's bounds), and the two whole maps
# on functools.cache.
BOUNDS = {
    "modalkit.pitch._MEMBERS_BY": 4,  # (enum, field)
    "modalkit.modes._STANDARD_MODES": 3 * 12,  # (scale, root pitch class)
    "modalkit.modes._QUALITIES": 3,  # scale
    "modalkit.modes._RECOMPOSED": 12 * 98,  # (base, tension, root pitch class), accepted only
    "modalkit.graph._GRAPHS": 7,  # quality
    "modalkit.graph._THEORY_DOT": 7 * 13,  # (quality, root pitch class or None)
    "modalkit.approximate._CANDIDATES": 7 * 12,  # (quality, root pitch class)
    "modalkit.leading._WALKS": 12 * 11,  # (pitch class, another pitch class)
    "modalkit.leading._SYMBOLS": 21 * 10,  # note spelling + quality token
    "modalkit.braid._TOKENS": 2 * 11,  # letter on 12 strands
    "modalkit.braid._DRAWINGS": 2,  # strand count: 12 and 3, each 2 * (strands - 1) letters
    "modalkit.braid._VALID": 2,  # strand count: 12 and 3
}
WHOLE_MAPS = {"modalkit.modes._names_by_offsets", "modalkit.graph._paths_by_name"}

# Prints [kind, size] per attribute of a modalkit module that holds a table:
# "table" for a _Table, "cache" for a functools cache, and "dict" for a plain
# dict that is empty, one that a reader fills (every constant dict is full).
SIZES = """
import json, sys
from modalkit.pitch import _Table
found = {}
for module in [m for name, m in sys.modules.items() if name.startswith("modalkit")]:
    for attr, value in vars(module).items():
        name = f"{module.__name__}.{attr}"
        if isinstance(value, _Table):
            found[name] = ["table", len(value)]
        elif hasattr(value, "cache_info"):
            found[name] = ["cache", value.cache_info().currsize]
        elif type(value) is dict and not value and not attr.startswith("__"):
            found[name] = ["dict", 0]
print(json.dumps(found))
"""


def table_sizes(code):
    """SIZES after running code in a fresh interpreter."""
    src = Path(modalkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code + SIZES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_derives_nothing():
    found = table_sizes("import modalkit.cli\n")
    kinds = {kind: {name for name, (k, _size) in found.items() if k == kind}
             for kind in ("table", "cache", "dict")}
    # found by type, so a table renamed or added is still checked, and bounded;
    # modes imports pitch's _MEMBERS_BY by name, one table found twice
    assert set(BOUNDS) == kinds["table"] - {"modalkit.modes._MEMBERS_BY"}
    assert WHOLE_MAPS <= kinds["cache"]
    assert kinds["dict"] == {"modalkit.braid._LETTERS"}
    assert {size for _kind, size in found.values()} == {0}


# Looks up every key of each table's finite key space, roots -12..23 included.
# recompose accepts a split only when it is the decomposition of the scale it
# makes, so every mode of every seven-note scale gives every accepted split.
EXHAUST = """
from itertools import combinations, product
from modalkit import *
from modalkit.errors import NotAMode
from modalkit.graph import find_mode_by_name
from modalkit.pitch import _SPELLINGS, _SYMBOL_INTERVALS
for q in ChordQuality:
    ChordQuality.from_symbol(q.symbol), ChordQuality.from_intervals(q.intervals)
TriadQuality.from_intervals((0, 4, 7)), ScaleType.from_label("major")
for s in ScaleType:
    for root in range(-12, 24):
        standard_modes(s, root)
    for degree in range(1, 8):
        harmonize(s, degree)
for notes in combinations(range(12), 7):
    for root in notes:
        try:
            mode = decompose(ModalScale(root, tuple(sorted(notes, key=lambda n: (n - root) % 12))))
        except NotAMode:
            continue
        for shift in (-12, 0, 12):
            recompose(mode.base, mode.tension, root + shift)
for q in ChordQuality:
    g = build_graph(q)
    emit_dot(g)
    for root in range(-12, 24):
        emit_dot(g, root), approximate({0}, q, root)
find_mode_by_name("ionian")
parse_progression("\\n".join(root + token for root in _SPELLINGS for token in _SYMBOL_INTERVALS))
for s, t in product(range(12), repeat=2):
    braid_of_leading(VoiceLeading((s,), (t,)))
for n in (12, 3):
    word = BraidWord(n, tuple((i, sign) for i in range(1, n) for sign in (1, -1)))
    render_ascii(word), parse_word(serialize_word(word), n)
assert len(braid._LETTERS) == 2 * 11
assert {n: len(blocks) for n, (_base, blocks) in braid._DRAWINGS.items()} == {12: 22, 3: 4}
"""


def test_tables_fill_to_the_readme_bounds():
    found = table_sizes(EXHAUST)
    assert {name: found[name] for name in BOUNDS} == {
        name: ["table", size] for name, size in BOUNDS.items()
    }
    assert {name: found[name] for name in WHOLE_MAPS} == dict.fromkeys(WHOLE_MAPS, ["cache", 1])


def test_special_counts_per_quality():
    for q, count in SPECIAL_COUNTS.items():
        assert len(special_modes(q)) == count


def test_every_standard_mode_is_an_admissible_path():
    by_quality = {q: {p.offsets() for p in enumerate_admissible(build_graph(q))}
                  for q in ChordQuality}
    for scale in all_standard_modes(0):
        offs = scale.offsets()
        intervals = (offs[0], offs[2], offs[4], offs[6])
        q = ChordQuality.from_intervals(intervals)
        assert offs in by_quality[q]


def test_maj7_special_is_ionian_sharp2():
    (path,) = special_modes(ChordQuality.MAJ7)
    assert path.name == "ionian #2"
    assert path.label_names() == ("I", "aII", "MIII", "PIV", "PV", "MVI", "MVII")
    assert path.offsets() == (0, 3, 4, 5, 7, 9, 11)


def test_dom7_specials():
    got = {p.name: p.offsets() for p in special_modes(ChordQuality.DOM7)}
    assert got == {
        "mixolydian b2": (0, 1, 4, 5, 7, 9, 10),
        "mixolydian b2 #4": (0, 1, 4, 6, 7, 9, 10),
        "mixolydian #4 b6": (0, 2, 4, 6, 7, 8, 10),
        "mixolydian b2 #4 b6": (0, 1, 4, 6, 7, 8, 10),
    }


def test_min7_and_min7b5_specials():
    got = {p.name: p.offsets() for p in special_modes(ChordQuality.MIN7)}
    assert got == {
        "eolian #4": (0, 2, 3, 6, 7, 8, 10),
        "phrygian #4": (0, 1, 3, 6, 7, 8, 10),
        "dorian b2 #4": (0, 1, 3, 6, 7, 9, 10),
    }
    got = {p.name: p.offsets() for p in special_modes(ChordQuality.MIN7_FLAT5)}
    assert got == {
        "locrian #2 #6": (0, 2, 3, 5, 6, 9, 10),
        "superlocrian #2": (0, 2, 3, 4, 6, 8, 10),
        "superlocrian #6": (0, 1, 3, 4, 6, 9, 10),
        "superlocrian #2 #6": (0, 2, 3, 4, 6, 9, 10),
    }


def test_specials_are_disjoint_from_standard_patterns():
    standard = {offs for q in ChordQuality for offs in standard_patterns(q)}
    for offs in SPECIAL_NAMES:
        assert offs not in standard


def test_every_special_offset_tuple_is_named():
    # the diamond choices per degree, minus the standard modes, independently of the graphs
    specials = set()
    for q in ChordQuality:
        standard = standard_patterns(q)
        choices = [sorted(set(column)) for column in zip(*standard)]
        specials |= set(itertools.product(*choices)) - set(standard)
    assert specials == set(SPECIAL_NAMES)


def test_three_semitone_second_only_on_maj7():
    # it is spelled aII: a minor third is forbidden over a major-third chord
    having = {g.quality for g in map(build_graph, ChordQuality) if DegreeLabel(2, 3) in g.vertices}
    assert having == {ChordQuality.MAJ7}


def test_maj7_second_degree_spelled_augmented():
    names = {v.name for v in build_graph(ChordQuality.MAJ7).vertices}
    assert "aII" in names and "mIII" not in names


def test_path_notes_and_lookup():
    found = find_mode_by_name("mixolydian b2 #4")
    assert found is not None
    q, path = found
    assert q is ChordQuality.DOM7
    assert path_notes(path, 11) == (11, 0, 3, 5, 6, 8, 9)
    assert find_mode_by_name("no such mode") is None


def test_emit_dot_shape():
    dot = emit_dot(build_graph(ChordQuality.DIM7))
    lines = dot.strip().splitlines()
    assert lines[0] == 'digraph "o7" {'
    assert lines[-1] == "}"
    assert sum("->" in ln for ln in lines) == 6
    named = emit_dot(build_graph(ChordQuality.DIM7), root=0)
    assert '"Eb" -> "Fb";' in named


def test_emit_dot_table_matches_the_render():
    for q in ChordQuality:
        g = build_graph(q)
        assert emit_dot(g) == _render_dot(g, None)
        for root in range(-12, 24):
            assert emit_dot(g, root) == _render_dot(g, root) == emit_dot(g, root + 12)


def test_graphs_built_by_hand_are_rendered_from_their_own_fields():
    g = build_graph(ChordQuality.DOM7)
    copy = ModeGraph(g.quality, g.vertices, g.edges, g.paths)
    assert copy == g and copy is not g
    assert emit_dot(copy, 2) == emit_dot(g, 2)
    other = ModeGraph(g.quality, g.vertices[:3], g.edges[:2], g.paths)
    for root in (None, 0, 7):
        assert emit_dot(other, root) == _render_dot(other, root) != emit_dot(g, root)
    assert emit_dot(other).count(";") == 1 + 3 + 2


def test_standard_patterns_match_a_scan_of_the_catalog():
    for q in ChordQuality:
        expected = {m.offsets(): m.name for s in ScaleType
                    for degree, m in enumerate(_STANDARD_MODES[s, 0], start=1)
                    if _QUALITIES[s][degree] is q}
        assert list(standard_patterns(q).items()) == list(expected.items())
    assert sum(len(standard_patterns(q)) for q in ChordQuality) == 21


@pytest.mark.parametrize(
    "degree, semitones, root, spelled",
    [
        (1, 0, 0, "C"),
        (2, 1, 0, "Db"),
        (2, 3, 0, "D#"),
        (4, 6, 0, "F#"),
        (3, 4, 6, "A#"),
        (7, 11, 6, "E#"),
        (5, 6, 11, "F"),
        (6, 8, 1, "Bbb"),
        (7, 10, 2, "C"),
        # one flat: B lies a semitone above the root Bb, though I is Bb major's own
        (1, 0, 10, "Bb"),
    ],
)
def test_degree_label_note_names(degree, semitones, root, spelled):
    assert DegreeLabel(degree, semitones).note_name(root) == spelled


def test_graph_edges_connect_consecutive_degrees():
    for g in map(build_graph, ChordQuality):
        for a, b in g.edges:
            assert b.degree == a.degree + 1
