"""Base-chord graphs: construction, topology and admissible-mode enumeration.

Each seventh-chord quality gets an oriented planar graph whose vertices are
the scale-degree labels reachable by the standard modes built on that
quality, with every root-to-seventh connection between consecutive degrees.
Degrees 2, 4 and 6 carry one or two labels; each two-label degree creates a
"diamond" and contributes one generator to the fundamental group.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InvalidArgument
from .modes import _names_by_offsets
from .pitch import NOTE_TO_PC, ChordQuality, PitchClass, _int, _pc, _Table, _Value, pc, pc_name

# Label spelling per (degree, semitone offset), following the figure
# convention M=major, m=minor, P=perfect, a=augmented, d=diminished.
_LABEL_NAMES: dict[tuple[int, int], str] = {
    (1, 0): "I",
    (2, 1): "mII", (2, 2): "MII", (2, 3): "aII",
    (3, 3): "mIII", (3, 4): "MIII",
    (4, 4): "dIV", (4, 5): "PIV", (4, 6): "aIV",
    (5, 6): "dV", (5, 7): "PV", (5, 8): "aV",
    (6, 8): "mVI", (6, 9): "MVI",
    (7, 9): "dVII", (7, 10): "mVII", (7, 11): "MVII",
}


@functools.total_ordering
class DegreeLabel(_Value):
    """A graph vertex: a scale degree and its semitones above the root, ordered by both.

    The degree is an integer and the semitones a pitch class, and the pair is
    one that the figure names, such as (2, 1) for ``mII``; any other pair,
    such as (1, 5), is an InvalidArgument.
    """

    __slots__ = {"degree": _int, "semitones": _pc}

    def _finish(self):
        if (self.degree, self.semitones) not in _LABEL_NAMES:
            raise InvalidArgument(f"no label names degree {self.degree} at {self.semitones}"
                                  f" semitones")

    def __lt__(self, other: DegreeLabel) -> bool:
        if other.__class__ is DegreeLabel:
            return self._fields(self) < self._fields(other)
        return NotImplemented

    @property
    def name(self) -> str:
        """The figure's spelling."""
        return _LABEL_NAMES[self.degree, self.semitones]

    def note_name(self, root: PitchClass) -> str:
        """Spell this degree over a root: the letter ``degree - 1`` steps above
        the root's letter, with one sharp or flat per semitone from that
        letter's natural pitch class above the root (``I`` over Bb is ``Bb``)."""
        letters = "CDEFGAB"
        root_letter = pc_name(root)[0]
        letter = letters[(letters.index(root_letter) + self.degree - 1) % 7]
        natural = pc(NOTE_TO_PC[letter] - root)
        acc = (self.semitones - natural + 6) % 12 - 6
        return letter + ("#" * acc if acc >= 0 else "b" * (-acc))


class AdmissiblePath(_Value, name=""):
    """A root-to-seventh path: its labels, whether it is special, a bool, and its name."""

    __slots__ = {"labels": (DegreeLabel,), "is_special": bool, "name": str}

    def offsets(self) -> tuple[int, ...]:
        return tuple(label.semitones for label in self.labels)

    def label_names(self) -> tuple[str, ...]:
        return tuple(label.name for label in self.labels)


class ModeGraph(_Value):
    """A base-chord graph: its quality, its vertex labels, its edges as pairs of
    labels and its root-to-seventh ``paths`` in ``enumerate_admissible`` order.

    A graph has one vertex at least, and each edge is a pair of its vertices;
    any other is an InvalidArgument.
    """

    __slots__ = {"quality": ChordQuality, "vertices": (DegreeLabel,), "edges": (tuple,),
                 "paths": (AdmissiblePath,)}

    def _finish(self):
        if not self.vertices:
            raise InvalidArgument("a ModeGraph has one vertex at least")
        for edge in self.edges:
            # compared, not hashed, so an edge of unhashable items is refused here too
            if len(edge) != 2 or not all(v in self.vertices for v in edge):
                raise InvalidArgument(f"a ModeGraph's edge {edge!r} is no pair of its vertices")


def standard_patterns(q: ChordQuality) -> dict[tuple[int, ...], str]:
    """Offset tuples (and names) of the standard modes whose base chord is q."""
    return {offs: name for offs, name in _names_by_offsets().items() if offs[0::2] == q.intervals}


# Canonical names for the twelve special modes, keyed by offset tuple.
SPECIAL_NAMES: dict[tuple[int, ...], str] = {
    (0, 3, 4, 5, 7, 9, 11): "ionian #2",
    (0, 1, 4, 5, 7, 9, 10): "mixolydian b2",
    (0, 1, 4, 6, 7, 9, 10): "mixolydian b2 #4",
    (0, 2, 4, 6, 7, 8, 10): "mixolydian #4 b6",
    (0, 1, 4, 6, 7, 8, 10): "mixolydian b2 #4 b6",
    (0, 2, 3, 6, 7, 8, 10): "eolian #4",
    (0, 1, 3, 6, 7, 8, 10): "phrygian #4",
    (0, 1, 3, 6, 7, 9, 10): "dorian b2 #4",
    (0, 2, 3, 5, 6, 9, 10): "locrian #2 #6",
    (0, 2, 3, 4, 6, 8, 10): "superlocrian #2",
    (0, 1, 3, 4, 6, 9, 10): "superlocrian #6",
    (0, 2, 3, 4, 6, 9, 10): "superlocrian #2 #6",
}


def _graph(q: ChordQuality) -> ModeGraph:
    """q's graph with its admissible paths; a q that is no ChordQuality is refused."""
    if not isinstance(q, ChordQuality):
        raise _no_quality(q)
    standard = standard_patterns(q)
    # zip(*patterns) gives, per degree, the semitones the standard modes use there
    per_degree = [
        tuple(DegreeLabel(degree, s) for s in sorted(set(choices)))
        for degree, choices in enumerate(zip(*standard), start=1)
    ]
    vertices = tuple(v for labels in per_degree for v in labels)
    edges = tuple(
        (a, b) for lower, upper in zip(per_degree, per_degree[1:]) for a in lower for b in upper
    )
    paths = []
    # product varies the last degree fastest: lexicographic over the degrees
    for labels in itertools.product(*per_degree):
        offsets = tuple(label.semitones for label in labels)
        name = standard.get(offsets) or SPECIAL_NAMES[offsets]
        paths.append(AdmissiblePath(labels, offsets not in standard, name))
    return ModeGraph(q, vertices, edges, tuple(paths))


# q's graph per quality.  A key that is no ChordQuality is refused on its miss, and
# an unhashable one where it is looked up, so a lookup that hits checks nothing.
_GRAPHS = _Table(_graph)


def _no_quality(q) -> InvalidArgument:
    return InvalidArgument(f"a base-chord graph needs a ChordQuality, not {type(q).__name__}")


def _graph_of(q: ChordQuality) -> ModeGraph:
    """q's graph from ``_GRAPHS``; a q that is no ChordQuality is an InvalidArgument."""
    try:
        return _GRAPHS[q]
    except TypeError:  # unhashable; _graph refuses the other keys
        raise _no_quality(q) from None


def build_graph(q: ChordQuality) -> ModeGraph:
    """The oriented graph of all degree choices the standard modes allow on q.

    A q that is no ChordQuality is an InvalidArgument here, in ``tcm`` and in
    ``special_modes``; a g that is no ModeGraph is one in the functions that
    read a graph.
    """
    return _graph_of(q)


def _no_graph(g) -> InvalidArgument:
    return InvalidArgument(f"a ModeGraph is needed, not {type(g).__name__}")


def euler_characteristic(g: ModeGraph) -> int:
    """Vertices minus edges."""
    if not isinstance(g, ModeGraph):
        raise _no_graph(g)
    return len(g.vertices) - len(g.edges)


def maximal_tree(g: ModeGraph) -> tuple[tuple[DegreeLabel, DegreeLabel], ...]:
    """A deterministic spanning tree: first-reached edges in vertex order."""
    if not isinstance(g, ModeGraph):
        raise _no_graph(g)
    seen = {g.vertices[0]}
    tree: list[tuple[DegreeLabel, DegreeLabel]] = []
    # Edges connect consecutive degrees only, so one left-to-right sweep
    # reaches every vertex.
    for edge in g.edges:
        a, b = edge
        if (a in seen) != (b in seen):
            tree.append(edge)
            seen.update(edge)
    return tuple(tree)


def tcm(q: ChordQuality) -> int:
    """Topological complexity: rank of the fundamental group, 1 - chi."""
    return 1 - euler_characteristic(_graph_of(q))


def enumerate_admissible(g: ModeGraph) -> list[AdmissiblePath]:
    """All of g's root-to-seventh paths, each taking one label per degree.

    Deterministic order: lexicographic over the per-degree choices with the
    flatter alteration first.
    """
    if not isinstance(g, ModeGraph):
        raise _no_graph(g)
    return list(g.paths)


def special_modes(q: ChordQuality) -> list[AdmissiblePath]:
    """Admissible paths that are not standard modes."""
    return [p for p in _graph_of(q).paths if p.is_special]


# Degree lists printed in the source classification for the special modes.
# Two of them (eolian b2 and locrian #2 #6) coincide with standard patterns
# (phrygian and locrian) and disagree with the set-difference computation;
# they are kept verbatim here for the --paper-compat diagnostic.
PUBLISHED_SPECIALS: dict[ChordQuality, tuple[tuple[str, tuple[str, ...]], ...]] = {
    ChordQuality.MAJ7: (
        ("ionian #2", ("I", "aII", "MIII", "PIV", "PV", "MVI", "MVII")),
    ),
    ChordQuality.DOM7: (
        ("mixolydian b2", ("I", "mII", "MIII", "PIV", "PV", "MVI", "mVII")),
        ("mixolydian b2 #4", ("I", "mII", "MIII", "aIV", "PV", "MVI", "mVII")),
        ("mixolydian #4 b6", ("I", "MII", "MIII", "aIV", "PV", "mVI", "mVII")),
        ("mixolydian b2 #4 b6", ("I", "mII", "MIII", "aIV", "PV", "mVI", "mVII")),
    ),
    ChordQuality.MIN7: (
        ("eolian b2", ("I", "mII", "mIII", "PIV", "PV", "mVI", "mVII")),
        ("eolian #4", ("I", "MII", "mIII", "aIV", "PV", "mVI", "mVII")),
        ("phrygian #4", ("I", "mII", "mIII", "aIV", "PV", "mVI", "mVII")),
    ),
    ChordQuality.MIN7_FLAT5: (
        ("locrian #2 #6", ("I", "mII", "mIII", "PIV", "dV", "mVI", "mVII")),
        ("superlocrian #2", ("I", "MII", "mIII", "dIV", "dV", "mVI", "mVII")),
        ("superlocrian #6", ("I", "mII", "mIII", "dIV", "dV", "MVI", "mVII")),
        ("superlocrian #2 #6", ("I", "MII", "mIII", "dIV", "dV", "MVI", "mVII")),
    ),
}


def emit_dot(g: ModeGraph, root: PitchClass | None = None) -> str:
    """Render the graph as a DOT digraph; note names when a root is given.

    The theory's own graph of a quality reads its text from a table; a graph
    built by hand is rendered from its own fields.
    """
    if root is not None:
        root = _pc(root, "root")
    if not isinstance(g, ModeGraph):
        raise _no_graph(g)
    if _GRAPHS.get(g.quality) is g:
        return _THEORY_DOT[g.quality, root]
    return _render_dot(g, root)


def _render_dot(g: ModeGraph, root: PitchClass | None) -> str:
    def node(v: DegreeLabel) -> str:
        return v.name if root is None else v.note_name(root)

    lines = [f'digraph "{g.quality.symbol}" {{', "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{node(v)}";')
    for a, b in g.edges:
        lines.append(f'  "{node(a)}" -> "{node(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ``emit_dot`` of a theory graph per (quality, root pitch class or None).
_THEORY_DOT = _Table(lambda key: _render_dot(_GRAPHS[key[0]], key[1]))


@functools.cache
def _paths_by_name() -> dict[str, tuple[ChordQuality, AdmissiblePath]]:
    """The 33 admissible modes by name; no two of them share a name."""
    return {p.name: (q, p) for q in ChordQuality for p in _GRAPHS[q].paths}


def find_mode_by_name(name: str) -> tuple[ChordQuality, AdmissiblePath] | None:
    """Look up any admissible mode (standard or special) by name."""
    return _paths_by_name().get(name)


def path_notes(p: AdmissiblePath, root: PitchClass) -> tuple[PitchClass, ...]:
    root = _pc(root, "root")
    return tuple(pc(root + s) for s in p.offsets())

