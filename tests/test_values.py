"""The 11 value types behave as frozen dataclasses: field equality and hashing,
``Name(field=value, ...)`` reprs, no assignment, keyword construction with
defaults, copies and pickles, and ``DegreeLabel`` ordering.  Each takes its
public ``__slots__`` as parameters, and each field check runs once per build
from outside fields; a braid word built from checked words is not checked again.
A private slot, such as the letters a ``Progression`` derives, is no field."""

import copy
import inspect
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    Triad,
    TriadQuality,
    VoiceLeading,
    approximate,
    braid_of_leading,
    braid_of_progression,
    braids_of_progression,
    build_graph,
    concatenate,
    free_reduce,
    hs_ws_scale,
    parse_progression,
    parse_word,
    rewrite_step,
)
from modalkit.errors import (
    IndexOutOfRange,
    InvalidBraid,
    InvalidProgression,
    NotAMode,
    ParseError,
    SizeMismatch,
)
from modalkit.pitch import _Value

IONIAN = (0, 2, 4, 5, 7, 9, 11)
DORIAN_ON_D = (2, 4, 5, 7, 9, 11, 0)
MAJ7, DOM7 = build_graph(ChordQuality.MAJ7), build_graph(ChordQuality.DOM7)
RANKED = approximate(hs_ws_scale(11), ChordQuality.DOM7, 11)


def graph_fields(g):
    return dict(quality=g.quality, vertices=g.vertices, edges=g.edges, paths=g.paths)


def path_fields(p):
    return dict(labels=p.labels, is_special=p.is_special, name=p.name)


def approximation_fields(a):
    return dict(target=a.target, candidate=a.candidate, root=a.root, notes=a.notes,
                shared=a.shared, dropped=a.dropped, added=a.added)


# Two field sets per type, in the order of the type's fields; they differ in some field.
SAMPLES = {
    Triad: (dict(root=2, quality=TriadQuality.MINOR), dict(root=2, quality=TriadQuality.MAJOR)),
    ModalScale: (dict(root=0, degrees=IONIAN, name="ionian"), dict(root=0, degrees=IONIAN, name="")),
    Mode: (
        dict(base=Chord([0, 4, 7, 11]), tension=Chord([2, 5, 9]), scale=ModalScale(0, IONIAN)),
        dict(base=Chord([2, 5, 9, 0]), tension=Chord([4, 7, 11]), scale=ModalScale(2, DORIAN_ON_D)),
    ),
    DegreeLabel: (dict(degree=2, semitones=3), dict(degree=2, semitones=1)),
    ModeGraph: (graph_fields(MAJ7), graph_fields(DOM7)),
    AdmissiblePath: (path_fields(MAJ7.paths[0]), path_fields(MAJ7.paths[1])),
    ScaleApproximation: (approximation_fields(RANKED[0]), approximation_fields(RANKED[1])),
    BraidWord: (dict(strands=3, letters=((1, 1), (2, -1))), dict(strands=4, letters=((1, 1), (2, -1)))),
    BraidInvariants: (dict(permutation=(2, 1, 3), writhe=1), dict(permutation=(2, 1, 3), writhe=-1)),
    VoiceLeading: (dict(source=(0, 4, 7), target=(2, 5, 9)), dict(source=(0, 4, 7), target=(0, 4, 7))),
    Progression: (
        dict(chords=(("C", 0, Chord([0, 4, 7])),)),
        dict(chords=(("C", 0, Chord([0, 4, 7])), ("D-", 2, Chord([2, 5, 9])))),
    ),
}
TYPES = list(SAMPLES)


def test_every_value_type_is_sampled():
    assert len(TYPES) == 11
    for cls in TYPES:
        assert not hasattr(cls(**SAMPLES[cls][0]), "__dict__")


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_values(cls):
    first, second = SAMPLES[cls]
    a, b, c = cls(**first), cls(**first), cls(**second)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert cls(*first.values()) == a
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_values_of_other_types_and_tuples_differ(cls):
    fields = SAMPLES[cls][0]
    value = cls(**fields)
    assert value != tuple(fields.values()) and tuple(fields.values()) != value
    if len(fields) == 1:
        assert value != next(iter(fields.values()))
    for other in TYPES:
        if other is not cls:
            assert value != other(**SAMPLES[other][0])


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    fields = SAMPLES[cls][0]
    value = cls(**fields)
    for name, new in zip(fields, SAMPLES[cls][1].values()):
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    fields = SAMPLES[cls][0]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    value = cls(**SAMPLES[cls][0])
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_derived_letters_leave_a_progression_as_it_was():
    # the letters a Progression keeps are no field: nothing about its value changes
    text = "Cmaj7\nx: 0,0,4\nG7\n"
    derived, fresh = parse_progression(text), parse_progression(text)
    braid_of_progression(derived)
    assert derived._transitions is not None and fresh._transitions is None
    assert derived == fresh and hash(derived) == hash(fresh) and repr(derived) == repr(fresh)
    assert copy.copy(derived).__reduce__() == fresh.__reduce__() == derived.__reduce__()
    assert pickle.dumps(derived) == pickle.dumps(fresh)
    for twin in (copy.copy(derived), copy.deepcopy(derived), pickle.loads(pickle.dumps(derived))):
        assert twin == derived and twin._transitions is None


def test_a_list_of_chords_is_kept_as_a_tuple():
    entries = [("C", 0, Chord([0, 4, 7]))]
    p = Progression(entries)
    assert p.chords == tuple(entries) and type(p.chords) is tuple
    assert repr(p) == "Progression(chords=(('C', 0, Chord([0, 4, 7])),))"
    assert p == Progression(tuple(entries))


def equal_number(n):
    """n, or a number of another type equal to it: a float, a Fraction, or a bool for 0 and 1."""
    return st.sampled_from([n, float(n), Fraction(n), *([bool(n)] if n in (0, 1) else [])])


def blurred(draw, fields):
    """``fields`` with each int, however deep in tuples, drawn as a number equal to it."""
    if type(fields) is int:
        return draw(equal_number(fields))
    if type(fields) is tuple:
        return tuple(blurred(draw, field) for field in fields)
    return fields  # a str label, a None root or a Chord


def stored_numbers(value):
    """Every number a value stores, through its fields, its tuples and its Chords."""
    if isinstance(value, _Value):
        for name in value._names:
            yield from stored_numbers(getattr(value, name))
    elif type(value) is tuple:
        for field in value:
            yield from stored_numbers(field)
    elif not (value is None or type(value) is str):
        yield value


def pitch_classes(size):
    return st.lists(st.integers(0, 11), min_size=size, max_size=size).map(tuple)


INT_FIELDS = st.one_of(
    st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(BraidWord), st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=6).map(tuple),
    ))),
    st.integers(0, 5).flatmap(lambda size: st.tuples(
        st.just(VoiceLeading), st.tuples(pitch_classes(size), pitch_classes(size)))),
    st.tuples(st.just(Progression), st.tuples(st.lists(st.tuples(
        st.sampled_from(["a", "b"]), st.none() | st.integers(0, 11),
        st.integers(0, 4).flatmap(pitch_classes).map(Chord),
    ), min_size=1, max_size=4).map(tuple))),
)


@given(st.data(), INT_FIELDS)
def test_numbers_equal_to_ints_are_stored_as_the_ints(data, int_fields):
    cls, fields = int_fields
    value, twin = cls(*blurred(data.draw, fields)), cls(*fields)
    assert all(type(number) is int for number in stored_numbers(value))
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)


def test_defaults_and_keywords():
    assert BraidWord(12) == BraidWord(strands=12, letters=()) and BraidWord(12).letters == ()
    assert ModalScale(0, IONIAN).name == ""
    assert ModalScale(0, IONIAN, name="ionian") == ModalScale(root=0, degrees=IONIAN, name="ionian")
    path = MAJ7.paths[0]
    assert AdmissiblePath(path.labels, is_special=False).name == ""
    assert ScaleApproximation(**approximation_fields(RANKED[0])) == RANKED[0]


LABELS = st.builds(DegreeLabel, st.integers(1, 7), st.integers(0, 11))


@given(st.lists(LABELS, max_size=12))
def test_degree_labels_sort_by_degree_then_semitones(labels):
    key = lambda label: (label.degree, label.semitones)  # noqa: E731
    assert sorted(labels) == sorted(labels, key=key)
    for a, b in itertools.product(labels, repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (key(a) < key(b), key(a) <= key(b),
                                                  key(a) > key(b), key(a) >= key(b))


def test_degree_labels_do_not_order_against_tuples():
    with pytest.raises(TypeError):
        DegreeLabel(1, 0) < (1, 0)  # noqa: B015


# The only fields with a default.
DEFAULTS = {BraidWord: {"letters": ()}, ModalScale: {"name": ""}, AdmissiblePath: {"name": ""}}


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_signature_is_the_slots_in_order(cls):
    # the public slots: a slot named with a leading underscore is no field
    parameters = inspect.signature(cls).parameters
    fields = [name for name in cls.__slots__ if not name.startswith("_")]
    assert list(parameters) == fields == list(SAMPLES[cls][0])
    assert {p.kind for p in parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {name: p.default for name, p in parameters.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})


def test_a_default_names_a_field():
    with pytest.raises(TypeError, match=r"defaults \['nmae'\] name no field of \('name',\)"):
        type("Named", (_Value,), {"__slots__": ("name",)}, nmae="")


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_missing_or_unknown_fields_are_type_errors(cls):
    fields = SAMPLES[cls][0]
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    for name in fields.keys() - DEFAULTS.get(cls, {}).keys():
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != name})


@pytest.mark.parametrize(
    "cls, fields, error, message",
    [
        (ModalScale, dict(root=0, degrees=IONIAN[:6]), NotAMode, "need 7 distinct pitch classes"),
        (ModalScale, dict(root=0, degrees=(0, 2, 4, 5, 7, 9, 0)), NotAMode, "need 7 distinct"),
        (ModalScale, dict(root=2, degrees=IONIAN), NotAMode, "first degree must be the root"),
        (Mode, dict(base=Chord([0, 4, 7, 11]), tension=Chord([2, 5, 9]),
                    scale=ModalScale(2, DORIAN_ON_D)), NotAMode, "base and tension are not"),
        (Mode, dict(base=Chord([0, 2, 4, 6]), tension=Chord([1, 3, 5]),
                    scale=ModalScale(0, tuple(range(7)))), NotAMode, "fit no seventh chord"),
        (VoiceLeading, dict(source=(0, 4, 7), target=(2, 5)), SizeMismatch, "3 voices vs 2"),
        (Progression, dict(chords=()), ParseError, "the progression has no chords"),
        (BraidWord, dict(strands=0), InvalidBraid, "need at least one strand"),
        (BraidWord, dict(strands=3, letters=((1, 1), (3, 1))), IndexOutOfRange, "s3 needs 4 strands"),
        (BraidWord, dict(strands=3, letters=((1, 0),)), InvalidBraid, "sign must be"),
        (VoiceLeading, dict(source=(0, 4, 13), target=(2, 5, 9)), IndexOutOfRange,
         "pitch class 13 is not in 0..11"),
        (VoiceLeading, dict(source=(0, 4, 7), target=(-1, 5, 9)), IndexOutOfRange,
         "pitch class -1 is not in 0..11"),
        (Progression, dict(chords=(("C", 0, Chord([0, 4, 7])), ("x", 13, Chord([1])))),
         IndexOutOfRange, r"^pitch class 13 is not in 0\.\.11$"),
        (Progression, dict(chords=(("x", 0.5, Chord([1])),)), IndexOutOfRange,
         r"^pitch class 0\.5 is not in 0\.\.11$"),
        (Progression, dict(chords=(("a", 0, (0, 4)), ("b", 0, Chord([1])))), InvalidProgression,
         r"^entry \('a', 0, \(0, 4\)\) is not a \(label, root, Chord\) triple$"),
        (Progression, dict(chords=(["a", 0, Chord([1])],)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("a", 0),)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("a", 0, Chord([1]), "extra"),)), InvalidProgression, "not a"),
        (Progression, dict(chords=((0, 0, Chord([1])),)), InvalidProgression, "not a"),
        (Progression, dict(chords=("abc",)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("C", 0, Chord([0])), ("x", [1], Chord([1])))),
         IndexOutOfRange, r"^pitch class \[1\] is not in 0\.\.11$"),
        (BraidWord, dict(strands=12, letters=((1.5, 1),)), IndexOutOfRange,
         r"^generator index 1\.5 is not an integer$"),
        (BraidWord, dict(strands=100, letters=((2, 1), (1.5, 1))), IndexOutOfRange,
         r"^generator index 1\.5 is not an integer$"),
        (BraidWord, dict(strands=100, letters=((100, 1),)), IndexOutOfRange,
         r"^generator s100 needs 101 strands, have 100$"),
        (BraidWord, dict(strands=100, letters=((1, 0),)), InvalidBraid, "sign must be"),
        (BraidWord, dict(strands=12.5), InvalidBraid, r"^strand count 12\.5 is not an integer$"),
        (BraidWord, dict(strands="12"), InvalidBraid, r"^strand count '12' is not an integer$"),
        (BraidWord, dict(strands=3, letters=((1,),)), InvalidBraid,
         r"^letter \(1,\) is not a \(generator index, sign\) pair$"),
        (BraidWord, dict(strands=3, letters=([1, 1],)), InvalidBraid, "not a"),
        (BraidWord, dict(strands=3, letters=(("1", 1),)), IndexOutOfRange, "not an integer"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else None,
)
def test_checks_reject_bad_fields(cls, fields, error, message):
    with pytest.raises(error, match=message):
        cls(**fields)


def test_chords_cannot_be_changed():
    # parse_progression hands one Chord to every line that spells its symbol
    chord = Chord([7, 0, 4])
    with pytest.raises(AttributeError):
        chord.notes = (1,)
    with pytest.raises(AttributeError):
        del chord.notes
    with pytest.raises(AttributeError):
        chord.extra = 1
    assert chord.notes == (0, 4, 7)
    for twin in (copy.copy(chord), copy.deepcopy(chord), pickle.loads(pickle.dumps(chord))):
        assert twin == chord and twin.notes == (0, 4, 7)


CHECKED = [ModalScale, Mode, DegreeLabel, VoiceLeading, Progression, BraidWord]


def counting_check(cls, monkeypatch):
    """Patch cls.__post_init__, as bench/spans.py does, to record each value it checks."""
    checked, check = [], cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda value: checked.append(value) or check(value))
    return checked


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_checked_again(cls, monkeypatch):
    assert {c for c in TYPES if "__post_init__" in vars(c)} == set(CHECKED)
    value = cls(**SAMPLES[cls][0])
    checked = counting_check(cls, monkeypatch)
    for make in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = make(value)
        assert checked.pop() is twin and not checked


def test_patched_braid_check_runs_once_per_build(monkeypatch):
    word = BraidWord(3, ((1, 1), (1, -1), (2, 1)))
    p = parse_progression("Cmaj7\nx: 0,0,4\nG7\nF#o7\n")
    leading = VoiceLeading((0, 4, 7), (2, 5, 11))
    braids_of_progression(p), braid_of_leading(leading)  # each walk they need, checked once
    checked = counting_check(BraidWord, monkeypatch)
    # a word whose fields come from outside is checked once per build
    once = [
        BraidWord(3, ((1, 1), (2, -1))),
        BraidWord(strands=3),
        copy.copy(word),
        pickle.loads(pickle.dumps(word)),
        parse_word("s01 s2^-1", 3),  # s01 is no token serialize_word writes
    ]
    assert list(map(id, checked)) == list(map(id, once))
    checked.clear()
    # a word built from checked words, known tokens or checked walks is not checked again
    never = [
        concatenate(word, word, word),
        free_reduce(word),
        rewrite_step(word, "free_cancel", 0),
        parse_word("s1 s2^-1", 3),
        *braids_of_progression(p),
        braid_of_progression(p),
        braid_of_leading(leading),
    ]
    assert checked == [] and all(type(w) is BraidWord for w in never)
