"""Every public function refuses an argument of the wrong type with a ModalkitError.

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
    BraidWord,
    Chord,
    ChordQuality,
    ModalScale,
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
from modalkit.errors import ModalkitError

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
    "leading": lambda v: isinstance(v, VoiceLeading),
    "notes": _int_collection,
    "progression": lambda v: isinstance(v, Progression),
    "quality": lambda v: isinstance(v, ChordQuality),
    "root": lambda v: v is None or isinstance(v, int),
    "scale": lambda v: isinstance(v, ModalScale),
    "scale type": lambda v: isinstance(v, ScaleType),
    "text": lambda v: isinstance(v, str),
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
    # the smaller chord is padded with its root, so only that root is read
    (voice_leading, (Chord([0]), Chord([1, 2]), 0, None), ("chord", "chord", "root", None)),
    (voice_leading, (Chord([0, 1]), Chord([2]), None, 2), (None, None, None, "root")),
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
