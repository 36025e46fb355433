"""Every public function, and every value type that checks its fields, refuses an
argument of the wrong type with a ModalkitError.

Each function of ``modalkit.__all__`` is called with valid arguments but one,
which is drawn from values of other types: library values, None, text,
bytes, lists and dicts.  The call must raise a ``ModalkitError``, never a bare
``AttributeError`` or ``TypeError``.  Numbers are not drawn: whether a float
equal to an int is taken is a question of value, checked where each function
is tested.
"""

import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import modalkit
from modalkit import (
    AdmissiblePath,
    BraidWord,
    Chord,
    ChordQuality,
    DegreeLabel,
    ModalScale,
    Mode,
    ModeGraph,
    Progression,
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


# Per kind of parameter, the values of the right type.
TAKES = {
    "chord": lambda v: isinstance(v, Chord),
    "graph": lambda v: isinstance(v, ModeGraph),
    "int": lambda v: isinstance(v, int),
    "labels": lambda v: isinstance(v, tuple) and all(isinstance(x, DegreeLabel) for x in v),
    "leading": lambda v: isinstance(v, VoiceLeading),
    "notes": _int_collection,
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

SAMPLES = [
    None, 5, "7", b"s1", [1], {}, (0, 1), object(), Chord([0, 4, 7, 10]), ChordQuality.DOM7,
    ScaleType.MAJOR, TriadQuality.MAJOR, Triad(0, TriadQuality.MAJOR), WORD, SCALE, GRAPH,
    LEADING, PROGRESSION,
]
VALUES = st.one_of(
    st.sampled_from(SAMPLES),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@pytest.mark.parametrize(
    "function, args, kinds", CALLS, ids=[f"{f.__name__}-{i}" for i, (f, _, _) in enumerate(CALLS)]
)
@given(data=st.data())
def test_an_argument_of_the_wrong_type_is_a_modalkit_error(function, args, kinds, data):
    function(*args)  # the valid arguments are taken
    position = data.draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind]))
    takes = TAKES[kinds[position]]
    value = data.draw(VALUES.filter(lambda v: not takes(v)), label=f"argument {position}")
    with pytest.raises(ModalkitError):
        function(*args[:position], value, *args[position + 1:])


def test_every_public_function_is_called():
    public = {name for name in modalkit.__all__
              if isinstance(getattr(modalkit, name), types.FunctionType)}
    assert public == {function.__name__ for function, _, _ in CALLS}


PATH = GRAPH.paths[0]

# (value type, valid fields, the kind of each; a kind of None is not checked):
# the value types that check their fields when built, except VoiceLeading,
# Progression and BraidWord, which tests/test_leading.py and tests/test_braid.py
# check.  Only ScaleApproximation checks nothing.
BUILDS = [
    (Triad, (2, TriadQuality.MINOR), ("int", "triad quality")),
    (ModalScale, (0, SCALE.degrees, "ionian"), ("int", "tuple", "text")),
    (Mode, (decompose(SCALE).base, decompose(SCALE).tension, SCALE), ("chord", "chord", "scale")),
    (DegreeLabel, (2, 3), ("int", "int")),
    (ModeGraph, (GRAPH.quality, GRAPH.vertices, GRAPH.edges, GRAPH.paths),
     ("quality", None, None, None)),
    (AdmissiblePath, (PATH.labels, PATH.is_special, PATH.name), ("labels", None, "text")),
]


@pytest.mark.parametrize("cls, fields, kinds", BUILDS, ids=[cls.__name__ for cls, _, _ in BUILDS])
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
        (lambda: ModalScale(0, 5), InvalidArgument,
         r"^a ModalScale takes a tuple of degrees and a str name, not int and str$"),
        (lambda: ModalScale(0, (0, 2, 4, 5, 7, 9, "b")), IndexOutOfRange,
         r"^note 'b' is not an integer$"),
        (lambda: ModalScale(0.0, SCALE.degrees), IndexOutOfRange, r"^root 0\.0 is not an integer$"),
        (lambda: Mode(1, 2, 3), InvalidArgument,
         r"^a Mode takes two Chords and a ModalScale, not int, int and int$"),
        (lambda: DegreeLabel("a", "b"), InvalidArgument,
         r"^a degree label is a degree in 1\.\.7 and semitones in 0\.\.11, not 'a' and 'b'$"),
        (lambda: DegreeLabel(8, 0), InvalidArgument, "not 8 and 0"),
        (lambda: DegreeLabel(1, 12), InvalidArgument, "not 1 and 12"),
        (lambda: DegreeLabel(1, 5).name, InvalidArgument,
         r"^no label names degree 1 at 5 semitones$"),
        (lambda: Triad("x", TriadQuality.MAJOR), IndexOutOfRange, r"^root 'x' is not an integer$"),
        (lambda: Triad(0.5, TriadQuality.MAJOR), IndexOutOfRange, r"^root 0\.5 is not an integer$"),
        (lambda: Triad(0, ChordQuality.DOM7), InvalidArgument,
         r"^a Triad's quality is a TriadQuality, not ChordQuality$"),
        (lambda: ModeGraph("7", (), (), ()), InvalidArgument,
         r"^a base-chord graph needs a ChordQuality, not str$"),
        (lambda: AdmissiblePath([DegreeLabel(1, 0)], False), InvalidArgument,
         r"^a path's labels are a tuple, not list$"),
        (lambda: AdmissiblePath((DegreeLabel(1, 0), (2, 2)), False), InvalidArgument,
         r"^a path's label is a DegreeLabel, not tuple$"),
        (lambda: AdmissiblePath(PATH.labels, False, 5), InvalidArgument,
         r"^a path's name is a str, not int$"),
    ],
    ids=["scale-degrees", "scale-degree", "scale-root", "mode", "label-text", "label-degree",
         "label-semitones", "label-unnamed", "triad-root-text", "triad-root-float",
         "triad-quality", "graph-quality", "path-labels", "path-label", "path-name"],
)
def test_a_value_type_names_what_it_refuses(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_degree_label_stores_the_ints_its_numbers_equal():
    label = DegreeLabel(2.0, True)
    assert (type(label.degree), type(label.semitones)) == (int, int)
    assert label == DegreeLabel(2, 1) and label.name == "mII" and label.note_name(0) == "Db"
