"""Every public function, and every value type, refuses an argument of the wrong
type with a ModalkitError, and reads every integer and pitch class by one rule.

Each function of ``modalkit.__all__`` is called with valid arguments but one,
which is a value of another type: each of the fixed ``SAMPLES`` (library
values, None and a look-alike of a graph or scale) in place of each argument,
on every run, and text, bytes, lists and dicts drawn at random.  The call must
raise a ``ModalkitError``, never a bare ``AttributeError`` or ``TypeError``.
Each value type's fields are checked the same way.

Numbers are drawn by the table ``NUMBERS``: every value-type field and every
argument of a public function that is an integer or a pitch class.  This file
keeps that table itself, so it checks the library's own declarations instead
of reading them.
"""

import operator
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import modalkit
from modalkit import (
    AdmissiblePath,
    BraidInvariants,
    BraidWord,
    Chord,
    ChordQuality,
    DegreeLabel,
    ModalScale,
    Mode,
    ModeGraph,
    Progression,
    ScaleApproximation,
    ScaleType,
    Triad,
    TriadQuality,
    VoiceLeading,
    all_standard_modes,
    approximate,
    braid_of_leading,
    braid_of_progression,
    braids_of_progression,
    build_graph,
    concatenate,
    decompose,
    emit_dot,
    enumerate_admissible,
    euler_characteristic,
    free_reduce,
    harmonize,
    hs_ws_scale,
    invariants,
    maximal_tree,
    parse_chord_symbol,
    parse_note,
    parse_progression,
    parse_word,
    pc,
    pc_name,
    recompose,
    render_ascii,
    rewrite_step,
    serialize_word,
    special_modes,
    standard_modes,
    tcm,
    voice_leading,
)
from modalkit.errors import IndexOutOfRange, InvalidArgument, ModalkitError
from modalkit.graph import path_notes
from modalkit.leading import arc_distance

WORD = BraidWord(5, ((1, 1), (3, 1)))
SCALE = standard_modes(ScaleType.MAJOR, 0)[0]
GRAPH = build_graph(ChordQuality.DOM7)
LEADING = VoiceLeading((0, 4), (2, 5))
PROGRESSION = parse_progression("Cmaj7\nF-7\n")


def _int_collection(value) -> bool:
    try:
        return all(isinstance(item, int) for item in value)
    except TypeError:
        return False


def _collection_of(cls):
    def takes(value):
        try:
            return all(isinstance(item, cls) for item in value)
        except TypeError:
            return False

    return takes


# Per kind of parameter, the values of the right type.
TAKES = {
    "chord": lambda v: isinstance(v, Chord),
    "edges": _collection_of(tuple),
    "frozenset": lambda v: isinstance(v, frozenset),
    "graph": lambda v: isinstance(v, ModeGraph),
    "int": lambda v: isinstance(v, int),
    "labels": _collection_of(DegreeLabel),
    "leading": lambda v: isinstance(v, VoiceLeading),
    "notes": _int_collection,
    "path": lambda v: isinstance(v, AdmissiblePath),
    "paths": _collection_of(AdmissiblePath),
    "progression": lambda v: isinstance(v, Progression),
    "quality": lambda v: isinstance(v, ChordQuality),
    "root": lambda v: v is None or isinstance(v, int),
    "scale": lambda v: isinstance(v, ModalScale),
    "scale type": lambda v: isinstance(v, ScaleType),
    "text": lambda v: isinstance(v, str),
    "triad quality": lambda v: isinstance(v, TriadQuality),
    "tuple": lambda v: isinstance(v, tuple),
    "word": lambda v: isinstance(v, BraidWord),
}

# (function, valid arguments, the kind of each); a kind of None is not varied,
# because the function reads that argument only for other values of the rest.
CALLS = [
    (all_standard_modes, (0,), ("int",)),
    (approximate, ({0, 4}, ChordQuality.DOM7, 0), ("notes", "quality", "int")),
    (braid_of_leading, (LEADING,), ("leading",)),
    (braid_of_progression, (PROGRESSION,), ("progression",)),
    (braids_of_progression, (PROGRESSION,), ("progression",)),
    (build_graph, (ChordQuality.DOM7,), ("quality",)),
    (concatenate, (WORD, WORD), ("word", "word")),
    (decompose, (SCALE,), ("scale",)),
    (emit_dot, (GRAPH, 0), ("graph", "root")),
    (enumerate_admissible, (GRAPH,), ("graph",)),
    (euler_characteristic, (GRAPH,), ("graph",)),
    (free_reduce, (WORD,), ("word",)),
    (harmonize, (ScaleType.MAJOR, 1), ("scale type", "int")),
    (hs_ws_scale, (0,), ("int",)),
    (invariants, (WORD,), ("word",)),
    (maximal_tree, (GRAPH,), ("graph",)),
    (parse_chord_symbol, ("Cmaj7",), ("text",)),
    (parse_note, ("C",), ("text",)),
    (parse_progression, ("Cmaj7\n",), ("text",)),
    (parse_word, ("s1 s3", 5), ("text", "int")),
    (pc, (13,), ("int",)),
    (pc_name, (13,), ("int",)),
    (recompose, (Chord([0, 4, 7, 11]), Chord([2, 5, 9]), 0), ("chord", "chord", "int")),
    (render_ascii, (WORD,), ("word",)),
    (rewrite_step, (WORD, "p1_swap", 0), ("word", "text", "int")),
    (serialize_word, (WORD,), ("word",)),
    (special_modes, (ChordQuality.DOM7,), ("quality",)),
    (standard_modes, (ScaleType.MAJOR, 0), ("scale type", "int")),
    (tcm, (ChordQuality.DOM7,), ("quality",)),
    # a root is read whether or not its chord is padded
    (voice_leading, (Chord([0]), Chord([1, 2]), 0, None), ("chord", "chord", "root", None)),
    (voice_leading, (Chord([0, 1]), Chord([2]), None, 2), (None, None, None, "root")),
    (voice_leading, (Chord([0]), Chord([1]), 0, 1), (None, None, "root", "root")),
]

# a look-alike with each field that a graph or scale reader reads, of the wrong type
LOOK_ALIKE = types.SimpleNamespace(quality=[], vertices=5, edges=(), paths=5, _mode=None, degrees=5)
SAMPLES = [
    None, 5, "7", b"s1", [1], {}, (0, 1), object(), Chord([0, 4, 7, 10]), ChordQuality.DOM7,
    ScaleType.MAJOR, TriadQuality.MAJOR, Triad(0, TriadQuality.MAJOR), WORD, SCALE, GRAPH,
    LEADING, PROGRESSION, LOOK_ALIKE,
]
VALUES = st.one_of(
    st.text(max_size=4),
    st.binary(max_size=4),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def unrefused_samples(call, valid, kinds):
    """Each (position, sample, outcome) for which ``call``, given ``valid`` with the
    sample in place of the argument at that position, raises no ModalkitError; a
    sample is put only where its kind does not take it."""
    unrefused = []
    for position, kind in enumerate(kinds):
        for sample in SAMPLES:
            if kind is None or TAKES[kind](sample):
                continue
            try:
                call(*valid[:position], sample, *valid[position + 1:])
            except ModalkitError:
                continue
            except Exception as exc:  # every pair is collected, not the first alone
                unrefused.append((position, sample, type(exc).__name__))
            else:
                unrefused.append((position, sample, "returned"))
    return unrefused


CALL_IDS = [f"{f.__name__}-{i}" for i, (f, _, _) in enumerate(CALLS)]


@pytest.mark.parametrize("function, args, kinds", CALLS, ids=CALL_IDS)
def test_each_sample_of_the_wrong_type_is_a_modalkit_error(function, args, kinds):
    function(*args)  # the valid arguments are taken
    assert unrefused_samples(function, args, kinds) == []


@pytest.mark.parametrize("function, args, kinds", CALLS, ids=CALL_IDS)
@given(data=st.data())
def test_an_argument_of_the_wrong_type_is_a_modalkit_error(function, args, kinds, data):
    function(*args)  # the valid arguments are taken
    position = data.draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind]))
    takes = TAKES[kinds[position]]
    value = data.draw(VALUES.filter(lambda v: not takes(v)), label=f"argument {position}")
    with pytest.raises(ModalkitError):
        function(*args[:position], value, *args[position + 1:])


@pytest.mark.parametrize("function", [
    decompose, emit_dot, enumerate_admissible, euler_characteristic, maximal_tree,
])
def test_a_look_alike_of_a_graph_or_scale_is_a_modalkit_error(function):
    with pytest.raises(ModalkitError):
        function(LOOK_ALIKE)


def test_every_public_function_is_called():
    public = {name for name in modalkit.__all__
              if isinstance(getattr(modalkit, name), types.FunctionType)}
    assert public == {function.__name__ for function, _, _ in CALLS}


PATH = GRAPH.paths[0]
RANKED = approximate({0, 4, 7, 10}, ChordQuality.DOM7, 0)[0]
RANKED_FIELDS = tuple(getattr(RANKED, name) for name in ScaleApproximation.__slots__)

# (value type, valid fields, the kind of each; a kind of None is not checked):
# the value types whose fields are not all numbers, except VoiceLeading,
# Progression and BraidWord, which tests/test_leading.py and tests/test_braid.py
# check.
BUILDS = [
    (Triad, (2, TriadQuality.MINOR), ("int", "triad quality")),
    (ModalScale, (0, SCALE.degrees, "ionian"), ("int", "tuple", "text")),
    (Mode, (decompose(SCALE).base, decompose(SCALE).tension, SCALE), ("chord", "chord", "scale")),
    (DegreeLabel, (2, 3), ("int", "int")),
    (ModeGraph, (GRAPH.quality, GRAPH.vertices, GRAPH.edges, GRAPH.paths),
     ("quality", "labels", "edges", "paths")),
    (AdmissiblePath, (PATH.labels, PATH.is_special, PATH.name), ("labels", None, "text")),
    (ScaleApproximation, RANKED_FIELDS,
     ("frozenset", "path", "int", "frozenset", "int", "frozenset", "frozenset")),
]


BUILD_IDS = [cls.__name__ for cls, _, _ in BUILDS]


@pytest.mark.parametrize("cls, fields, kinds", BUILDS, ids=BUILD_IDS)
def test_each_sample_field_of_the_wrong_type_is_a_modalkit_error(cls, fields, kinds):
    cls(*fields)  # the valid fields are taken
    assert unrefused_samples(cls, fields, kinds) == []


@pytest.mark.parametrize("cls, fields, kinds", BUILDS, ids=BUILD_IDS)
@given(data=st.data())
def test_a_field_of_the_wrong_type_is_a_modalkit_error(cls, fields, kinds, data):
    cls(*fields)  # the valid fields are taken
    position = data.draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind]))
    takes = TAKES[kinds[position]]
    value = data.draw(VALUES.filter(lambda v: not takes(v)), label=f"field {position}")
    with pytest.raises(ModalkitError):
        cls(*fields[:position], value, *fields[position + 1:])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ModalScale(0, 5), InvalidArgument, r"^notes of type int are no collection$"),
        (lambda: ModalScale(0, (0, 2, 4, 5, 7, 9, "b")), IndexOutOfRange,
         r"^note 'b' is not an integer$"),
        (lambda: ModalScale(0.0, SCALE.degrees), IndexOutOfRange, r"^root 0\.0 is not an integer$"),
        (lambda: Mode(1, 2, 3), InvalidArgument, r"^a Mode's base is a Chord, not int$"),
        (lambda: DegreeLabel("a", "b"), IndexOutOfRange, r"^degree 'a' is not an integer$"),
        (lambda: DegreeLabel(8, 0), InvalidArgument, r"^no label names degree 8 at 0 semitones$"),
        (lambda: DegreeLabel(1, 12.0), IndexOutOfRange, r"^semitones 12\.0 is not an integer$"),
        (lambda: DegreeLabel(1, 5), InvalidArgument, r"^no label names degree 1 at 5 semitones$"),
        (lambda: Triad("x", TriadQuality.MAJOR), IndexOutOfRange, r"^root 'x' is not an integer$"),
        (lambda: Triad(0.5, TriadQuality.MAJOR), IndexOutOfRange, r"^root 0\.5 is not an integer$"),
        (lambda: Triad(0, ChordQuality.DOM7), InvalidArgument,
         r"^a Triad's quality is a TriadQuality, not ChordQuality$"),
        (lambda: ModeGraph("7", (), (), ()), InvalidArgument,
         r"^a ModeGraph's quality is a ChordQuality, not str$"),
        (lambda: ModeGraph(ChordQuality.DOM7, 5, 6, 7), InvalidArgument,
         r"^vertices of type int are no collection$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (5,), (), ()), InvalidArgument,
         r"^a ModeGraph's vertex is a DegreeLabel, not int$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (), 6, ()), InvalidArgument,
         r"^edges of type int are no collection$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (), ([1, 2],), ()), InvalidArgument,
         r"^a ModeGraph's edge is a tuple, not list$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (), (), ()), InvalidArgument,
         r"^a ModeGraph has one vertex at least$"),
        (lambda: ModeGraph(ChordQuality.DOM7, GRAPH.vertices, ((1, 2),), ()), InvalidArgument,
         r"^a ModeGraph's edge \(1, 2\) is no pair of its vertices$"),
        (lambda: ModeGraph(ChordQuality.DOM7, GRAPH.vertices, (GRAPH.vertices[:3],), ()),
         InvalidArgument, r"^a ModeGraph's edge \(DegreeLabel\(degree=1, .* is no pair of its"
         r" vertices$"),
        (lambda: ModeGraph(ChordQuality.DOM7, GRAPH.vertices[:1], GRAPH.edges[:1], ()),
         InvalidArgument, r"^a ModeGraph's edge .*semitones=1\)\) is no pair of its vertices$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (), (), 7), InvalidArgument,
         r"^paths of type int are no collection$"),
        (lambda: ModeGraph(ChordQuality.DOM7, (), (), GRAPH.vertices), InvalidArgument,
         r"^a ModeGraph's path is an AdmissiblePath, not DegreeLabel$"),
        (lambda: AdmissiblePath(5, False), InvalidArgument,
         r"^labels of type int are no collection$"),
        (lambda: AdmissiblePath((DegreeLabel(1, 0), (2, 2)), False), InvalidArgument,
         r"^an AdmissiblePath's label is a DegreeLabel, not tuple$"),
        (lambda: AdmissiblePath(PATH.labels, False, 5), InvalidArgument,
         r"^an AdmissiblePath's name is a str, not int$"),
        (lambda: ScaleApproximation(1, 2, 3, 4, 5, 6, 7), InvalidArgument,
         r"^a ScaleApproximation's target is a frozenset, not int$"),
        (lambda: candidate(candidate=2), InvalidArgument,
         r"^a ScaleApproximation's candidate is an AdmissiblePath, not int$"),
        (lambda: candidate(dropped={1}), InvalidArgument,
         r"^a ScaleApproximation's dropped is a frozenset, not set$"),
    ],
    ids=["scale-degrees", "scale-degree", "scale-root", "mode", "label-text", "label-degree",
         "label-semitones", "label-unnamed", "triad-root-text", "triad-root-float",
         "triad-quality", "graph-quality", "graph-vertices", "graph-vertex", "graph-edges",
         "graph-edge", "graph-no-vertex", "graph-edge-of-ints", "graph-edge-of-three",
         "graph-edge-to-no-vertex", "graph-paths", "graph-path", "path-labels", "path-label",
         "path-name", "approximation-target", "approximation-candidate",
         "approximation-dropped"],
)
def test_a_value_type_names_what_it_refuses(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_degree_label_stores_the_ints_its_numbers_equal():
    # the int that operator.index reads, its semitones as their pitch class
    label = DegreeLabel(2, True)
    assert (type(label.degree), type(label.semitones)) == (int, int)
    assert label == DegreeLabel(2, 13) == DegreeLabel(2, 1)
    assert label.name == "mII" and label.note_name(0) == "Db"


def integer(value):
    """The integer rule, as this table reads it: the int that ``operator.index``
    returns, or None when it refuses the value."""
    try:
        return operator.index(value)
    except TypeError:
        return None


IONIAN = (0, 2, 4, 5, 7, 9, 11)
ANY = lambda n: True  # noqa: E731
PITCH_CLASS, INTEGER = "pitch class", "integer"


def row(name, call, what, kind, takes=ANY, optional=False, stores=False):
    """One number that the library reads: ``call(v)`` reads it, and a refusal names it
    ``what``.  An integer n that ``takes`` refuses is refused for its range or a
    relation to the other fields; None is taken where ``optional``; and where
    ``stores``, ``call`` returns the number as it is stored."""
    return pytest.param(call, what, kind, takes, optional, stores, id=name)


def candidate(**fields):
    """RANKED with the given fields replaced."""
    return ScaleApproximation(**{**dict(zip(ScaleApproximation.__slots__, RANKED_FIELDS)),
                                 **fields})


NUMBERS = [
    row("Triad.root", lambda v: Triad(v, TriadQuality.MAJOR).root, "root", PITCH_CLASS,
        stores=True),
    row("ModalScale.root", lambda v: ModalScale(v, IONIAN).root, "root", PITCH_CLASS,
        lambda n: n % 12 == 0, stores=True),
    row("ModalScale.degrees", lambda v: ModalScale(0, IONIAN[:6] + (v,)).degrees[6], "note",
        PITCH_CLASS, lambda n: n % 12 not in IONIAN[:6], stores=True),
    row("DegreeLabel.degree", lambda v: DegreeLabel(v, 1).degree, "degree", INTEGER,
        lambda n: n == 2, stores=True),
    row("DegreeLabel.semitones", lambda v: DegreeLabel(2, v).semitones, "semitones", PITCH_CLASS,
        lambda n: n % 12 in (1, 2, 3), stores=True),
    row("ScaleApproximation.root", lambda v: candidate(root=v).root, "root", PITCH_CLASS,
        stores=True),
    row("ScaleApproximation.shared", lambda v: candidate(shared=v).shared, "shared", INTEGER,
        stores=True),
    row("Chord.notes", lambda v: Chord([v]).notes[0], "note", PITCH_CLASS, stores=True),
    row("VoiceLeading.source", lambda v: VoiceLeading((v,), (0,)).source[0], "note", PITCH_CLASS,
        stores=True),
    row("VoiceLeading.target", lambda v: VoiceLeading((0,), (v,)).target[0], "note", PITCH_CLASS,
        stores=True),
    row("Progression.chords-root", lambda v: Progression((("a", v, Chord([0])),)).chords[0][1],
        "root", PITCH_CLASS, optional=True, stores=True),
    row("BraidWord.strands", lambda v: BraidWord(v).strands, "strands", INTEGER,
        lambda n: n >= 1, stores=True),
    row("BraidWord.letters-index", lambda v: BraidWord(12, ((v, 1),)).letters[0][0],
        "generator index", INTEGER, lambda n: 1 <= n <= 11, stores=True),
    row("BraidInvariants.permutation", lambda v: BraidInvariants((v,), 0).permutation[0],
        "permutation", INTEGER, stores=True),
    row("BraidInvariants.writhe", lambda v: BraidInvariants((1,), v).writhe, "writhe", INTEGER,
        stores=True),
    row("pc", pc, "pitch class", PITCH_CLASS, stores=True),
    row("pc_name", pc_name, "pitch class", PITCH_CLASS),
    row("DegreeLabel.note_name", lambda v: DegreeLabel(2, 1).note_name(v), "pitch class",
        PITCH_CLASS),
    row("standard_modes", lambda v: standard_modes(ScaleType.MAJOR, v), "root", PITCH_CLASS),
    row("all_standard_modes", all_standard_modes, "root", PITCH_CLASS),
    row("harmonize", lambda v: harmonize(ScaleType.MAJOR, v), "degree", INTEGER,
        lambda n: 1 <= n <= 7),
    row("recompose", lambda v: recompose(Chord([0, 4, 7, 11]), Chord([2, 5, 9]), v), "root",
        PITCH_CLASS, lambda n: n % 12 == 0),
    row("hs_ws_scale", hs_ws_scale, "root", PITCH_CLASS),
    row("graph.path_notes", lambda v: path_notes(PATH, v), "root", PITCH_CLASS),
    row("leading.arc_distance-a", lambda v: arc_distance(v, 0), "pitch class", PITCH_CLASS),
    row("leading.arc_distance-b", lambda v: arc_distance(0, v), "pitch class", PITCH_CLASS),
    row("approximate-root", lambda v: approximate({0, 4, 7}, ChordQuality.DOM7, v), "root",
        PITCH_CLASS),
    row("approximate-target", lambda v: approximate([v, 7], ChordQuality.DOM7, 0), "note",
        PITCH_CLASS),
    row("emit_dot", lambda v: emit_dot(GRAPH, v), "root", PITCH_CLASS, optional=True),
    row("parse_word", lambda v: parse_word("", v).strands, "strands", INTEGER, lambda n: n >= 1,
        stores=True),
    row("rewrite_step", lambda v: rewrite_step(WORD, "p1_swap", v), "position", INTEGER,
        lambda n: n == 0),
    *(row(f"voice_leading-{side}-{padded}", call, "root", PITCH_CLASS, optional=True)
      for side, padded, call in [
          ("a_root", "padded", lambda v: voice_leading(Chord([0]), Chord([1, 2]), a_root=v)),
          ("a_root", "unpadded", lambda v: voice_leading(Chord([0]), Chord([1]), a_root=v)),
          ("b_root", "padded", lambda v: voice_leading(Chord([1, 2]), Chord([0]), b_root=v)),
          ("b_root", "unpadded", lambda v: voice_leading(Chord([1]), Chord([0]), b_root=v)),
      ]),
]

# Ints small and big, bools, and numbers and values that operator.index refuses.
DRAWN = st.one_of(
    st.integers(-30, 30),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
    st.booleans(),
    st.integers(-30, 30).map(float),
    st.floats().filter(lambda f: not f.is_integer()),
    st.fractions(),
    st.integers(-30, 30).map(Fraction),
    st.decimals(allow_nan=False),
    st.integers(-30, 30).map(Decimal),
    st.text(max_size=3),
    st.none(),
    st.just([1]),
)


@pytest.mark.parametrize("call, what, kind, takes, optional, stores", NUMBERS)
@given(value=DRAWN)
@example(value=14)
@example(value=2.0)
def test_every_number_is_read_by_one_rule(call, what, kind, takes, optional, stores, value):
    assume(not (optional and value is None))
    n = integer(value)
    if n is None:
        with pytest.raises(IndexOutOfRange) as info:
            call(value)
        assert str(info.value) == f"{what} {value!r} is not an integer"
        return
    read = n % 12 if kind is PITCH_CLASS else n
    if not takes(n):
        with pytest.raises(ModalkitError):
            call(value)
        return
    got = call(value)
    assert got == call(read)  # a pitch class is read as the integer mod 12
    if stores:
        assert type(got) is int and got == read


def test_a_number_reads_the_same_wherever_it_is_read():
    # pitch classes equal mod 12 make equal values, and a float is never an integer
    assert Triad(14, TriadQuality.MAJOR) == Triad(2, TriadQuality.MAJOR)
    assert ModalScale(12, tuple(d + 12 for d in IONIAN)) == ModalScale(0, IONIAN)
    a, b = Chord([0]), Chord([1, 2])
    assert voice_leading(a, b, a_root=14) == voice_leading(a, b, a_root=2)
    assert VoiceLeading((12,), (1,)) == VoiceLeading((0,), (1,))
    assert DegreeLabel(1, 12) == DegreeLabel(1, 0)
    for build in (lambda: BraidWord(3.0, [(1, 1)]), lambda: BraidWord(3, [(1.0, 1)]),
                  lambda: DegreeLabel(2.0, True), lambda: Progression((("a", 5.0, a),)),
                  lambda: Chord([5.0]), lambda: harmonize(ScaleType.MAJOR, 2.0)):
        with pytest.raises(IndexOutOfRange, match=r" is not an integer$"):
            build()
