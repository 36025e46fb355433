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
from modalkit.graph import _render_dot, _theory_dot
from modalkit.modes import _standard_catalog, all_standard_modes
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


def test_importing_the_cli_derives_nothing():
    # Every functools cache in every modalkit module, by name and current size.
    code = (
        "import json, sys, modalkit.cli\n"
        "print(json.dumps({f'{m.__name__}.{k}': f.cache_info().currsize\n"
        "       for m in list(sys.modules.values()) if m.__name__.startswith('modalkit')\n"
        "       for k, f in vars(m).items() if hasattr(f, 'cache_info')}))\n"
        "from modalkit import braid, leading\n"
        "print(json.dumps({name: len(table) for name, table in [('_TOKENS', braid._TOKENS),\n"
        "       ('_LETTERS', braid._LETTERS), ('_BLOCKS', braid._BLOCKS),\n"
        "       ('_WALKS', leading._WALKS), ('_SYMBOLS', leading._SYMBOLS)]}))\n"
    )
    src = Path(modalkit.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    caches, tables = proc.stdout.splitlines()
    sizes = json.loads(caches)
    # the braid pipeline's dict tables, filled on first use, are empty too
    names = ["_TOKENS", "_LETTERS", "_BLOCKS", "_WALKS", "_SYMBOLS"]
    assert json.loads(tables) == dict.fromkeys(names, 0)
    assert {
        "modalkit.pitch._members_by",
        "modalkit.modes._standard_catalog",
        "modalkit.modes._standard_modes",
        "modalkit.modes._names_by_offsets",
        "modalkit.graph._theory",
        "modalkit.graph._theory_dot",
        "modalkit.approximate._candidates",
    } <= set(sizes)
    assert set(sizes.values()) == {0}


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
    assert _theory_dot.cache_info().currsize <= 7 * 13


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
        expected = {m.offsets: m.name for m in _standard_catalog().values() if m.quality is q}
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
