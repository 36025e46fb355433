"""The 11 value types behave as frozen dataclasses: field equality and hashing,
``Name(field=value, ...)`` reprs, no assignment, keyword construction with
defaults, copies and pickles, and ``DegreeLabel`` ordering.  Each takes its
public ``__slots__`` as parameters, and each field check runs once per build
from outside fields; a braid word built from checked words is not checked again.
A private slot, such as the letters a ``Progression`` derives, is no field.
Every record, ``Chord`` too, is built without its check by its ``_make`` alone."""

import copy
import inspect
import itertools
import pickle
import re
from enum import Enum
from pathlib import Path

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
from modalkit.graph import _LABEL_NAMES
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


class Pitch(int):
    """A number of a sample that fills a pitch-class field, so the check stores it mod 12."""


def read_as(draw, fields):
    """``fields`` with each number, however deep in tuples, drawn as another number that
    the rules read as it: an int of the same pitch class for a Pitch, and a bool for an
    int 0 or 1 (a pitch class 0 or 1 may be drawn as either)."""
    if isinstance(fields, Pitch):
        same = [int(fields), *([bool(fields)] if fields in (0, 1) else [])]
        return draw(st.integers(-40, 40).map(lambda k: int(fields) + 12 * k) | st.sampled_from(same))
    if type(fields) is int:
        return draw(st.sampled_from([fields, *([bool(fields)] if fields in (0, 1) else [])]))
    if type(fields) is tuple:
        return tuple(read_as(draw, field) for field in fields)
    return fields  # a str, a None root, an enum member or a value


def as_stored(fields):
    """``fields`` as the check stores them: each Pitch, already in 0..11, as an int."""
    if isinstance(fields, int):
        return int(fields)
    if type(fields) is tuple:
        return tuple(as_stored(field) for field in fields)
    return fields


def stored_numbers(value):
    """Every number a value stores, through its fields, its sets and tuples and the
    values it holds; a path's ``is_special`` flag is no number."""
    if isinstance(value, _Value):
        for name in value._names:
            if name != "is_special":
                yield from stored_numbers(getattr(value, name))
    elif type(value) in (tuple, frozenset):
        for field in value:
            yield from stored_numbers(field)
    elif not (value is None or type(value) is str or isinstance(value, Enum)):
        yield value


PITCH = st.integers(0, 11).map(Pitch)


def pitch_classes(size):
    return st.lists(PITCH, min_size=size, max_size=size).map(tuple)


def candidate_fields(a, root):
    """A ranked candidate's fields, its root as a Pitch."""
    return (a.target, a.candidate, Pitch(root), a.notes, a.shared, a.dropped, a.added)


# (value type, fields) for every value type that stores a number in a field of its own.
NUMBER_FIELDS = st.one_of(
    st.tuples(st.just(Triad), st.tuples(PITCH, st.sampled_from(TriadQuality))),
    PITCH.map(lambda r: (ModalScale, (r, tuple(Pitch((r + k) % 12) for k in IONIAN), "x"))),
    st.sampled_from(sorted(_LABEL_NAMES)).map(lambda p: (DegreeLabel, (p[0], Pitch(p[1])))),
    st.sampled_from(RANKED).map(lambda a: (ScaleApproximation, candidate_fields(a, 11))),
    st.integers(0, 6).flatmap(pitch_classes).map(lambda notes: (Chord, (notes,))),
    st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(BraidWord), st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=6).map(tuple),
    ))),
    st.tuples(st.just(BraidInvariants), st.tuples(
        st.permutations(range(1, 6)).map(tuple), st.integers(-5, 5))),
    st.integers(0, 5).flatmap(lambda size: st.tuples(
        st.just(VoiceLeading), st.tuples(pitch_classes(size), pitch_classes(size)))),
    st.tuples(st.just(Progression), st.tuples(st.lists(st.tuples(
        st.sampled_from(["a", "b"]), st.none() | PITCH,
        st.integers(0, 4).flatmap(pitch_classes).map(lambda notes: Chord(as_stored(notes))),
    ), min_size=1, max_size=4).map(tuple))),
)


@given(st.data(), NUMBER_FIELDS)
def test_numbers_equal_to_ints_are_stored_as_the_ints(data, number_fields):
    # every stored number is an int, and every pitch class in 0..11: the value equals,
    # and shows as, the one built from the ints in 0..11 that the rules read
    cls, fields = number_fields
    value, twin = cls(*read_as(data.draw, fields)), cls(*as_stored(fields))
    assert all(type(number) is int for number in stored_numbers(value))
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)


def test_defaults_and_keywords():
    assert BraidWord(12) == BraidWord(strands=12, letters=()) and BraidWord(12).letters == ()
    assert ModalScale(0, IONIAN).name == ""
    assert ModalScale(0, IONIAN, name="ionian") == ModalScale(root=0, degrees=IONIAN, name="ionian")
    path = MAJ7.paths[0]
    assert AdmissiblePath(path.labels, is_special=False).name == ""
    assert ScaleApproximation(**approximation_fields(RANKED[0])) == RANKED[0]


LABELS = st.sampled_from(sorted(_LABEL_NAMES)).map(lambda pair: DegreeLabel(*pair))


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
        type("Named", (_Value,), {"__slots__": {"name": str}}, nmae="")


@pytest.mark.parametrize(
    "bases, slots, defaults, message",
    [
        ((BraidWord,), {"extra": str}, {}, "Extra field 'extra' has no default but follows"
                                           " 'letters', which has one"),
        ((_Value,), {"a": int, "b": int, "c": int}, dict(b=0), "Extra field 'c' has no default"
                                                               " but follows 'b', which has one"),
    ],
    ids=["after-the-parents-default", "after-its-own-default"],
)
def test_a_field_with_no_default_follows_none_with_one(bases, slots, defaults, message):
    # refused before the generated __init__ is compiled, where it would be a bare SyntaxError
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        type("Extra", bases, {"__slots__": slots}, **defaults)


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
        (VoiceLeading, dict(source=(0, 4, 13.0), target=(2, 5, 9)), IndexOutOfRange,
         "note 13.0 is not an integer"),
        (VoiceLeading, dict(source=(0, 4, 7), target=("-1", 5, 9)), IndexOutOfRange,
         "note '-1' is not an integer"),
        (Progression, dict(chords=(("C", 0, Chord([0, 4, 7])), ("x", 13.0, Chord([1])))),
         IndexOutOfRange, r"^root 13\.0 is not an integer$"),
        (Progression, dict(chords=(("x", 0.5, Chord([1])),)), IndexOutOfRange,
         r"^root 0\.5 is not an integer$"),
        (Progression, dict(chords=(("a", 0, (0, 4)), ("b", 0, Chord([1])))), InvalidProgression,
         r"^entry \('a', 0, \(0, 4\)\) is not a \(label, root, Chord\) triple$"),
        (Progression, dict(chords=(["a", 0, Chord([1])],)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("a", 0),)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("a", 0, Chord([1]), "extra"),)), InvalidProgression, "not a"),
        (Progression, dict(chords=((0, 0, Chord([1])),)), InvalidProgression, "not a"),
        (Progression, dict(chords=("abc",)), InvalidProgression, "not a"),
        (Progression, dict(chords=(("C", 0, Chord([0])), ("x", [1], Chord([1])))),
         IndexOutOfRange, r"^root \[1\] is not an integer$"),
        (BraidWord, dict(strands=12, letters=((1.5, 1),)), IndexOutOfRange,
         r"^generator index 1\.5 is not an integer$"),
        (BraidWord, dict(strands=100, letters=((2, 1), (1.5, 1))), IndexOutOfRange,
         r"^generator index 1\.5 is not an integer$"),
        (BraidWord, dict(strands=100, letters=((100, 1),)), IndexOutOfRange,
         r"^generator s100 needs 101 strands, have 100$"),
        (BraidWord, dict(strands=100, letters=((1, 0),)), InvalidBraid, "sign must be"),
        (BraidWord, dict(strands=12.5), IndexOutOfRange, r"^strands 12\.5 is not an integer$"),
        (BraidWord, dict(strands="12"), IndexOutOfRange, r"^strands '12' is not an integer$"),
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


CHECKED = [
    Triad, ModalScale, Mode, DegreeLabel, ModeGraph, AdmissiblePath, ScaleApproximation,
    VoiceLeading, Progression, BraidWord, BraidInvariants,
]


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


# Fields per record type for _make: each value type's first sample, and a Chord.
MADE = {**{cls: fields for cls, (fields, _) in SAMPLES.items()}, Chord: dict(notes=(7, 0, 0, 4))}


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_type_is_made():
    assert {c for c in subclasses(_Value) if c.__module__.startswith("modalkit.")} == set(MADE)


@pytest.mark.parametrize("cls", MADE, ids=lambda cls: cls.__name__)
def test_make_builds_the_checked_record_without_its_check(cls, monkeypatch):
    value = cls(**MADE[cls])
    slots = [getattr(value, name) for name in cls.__slots__]  # private slots too
    checked = counting_check(cls, monkeypatch)
    made = cls._make(*slots)
    assert checked == []
    assert type(made) is cls and made is not value and made == value and hash(made) == hash(value)
    assert [getattr(made, name) for name in cls.__slots__] == slots


@pytest.mark.parametrize("slots", [{}, {"__slots__": ()}], ids=["no-slots", "empty-slots"])
def test_a_subclass_with_no_slots_of_its_own_is_its_parents_record(slots, monkeypatch):
    cls = type("Word", (BraidWord,), slots)  # with no __slots__, a Word has a __dict__ too
    # the parent's fields, kinds, defaults and check, on records of the subclass
    assert inspect.signature(cls) == inspect.signature(BraidWord)
    word = cls(3, [(True, 1), (2, -1.0)])
    assert type(word.letters) is tuple and word.letters == ((1, 1), (2, -1))
    assert repr(word) == "Word(strands=3, letters=((1, 1), (2, -1)))"
    assert cls(3) == cls(3, ()) == cls(strands=3, letters=[]) != BraidWord(3)
    assert hash(word) == hash(cls(3, ((1, 1), (2, -1))))
    with pytest.raises(IndexOutOfRange, match=r"^strands '3' is not an integer$"):
        cls("3")
    with pytest.raises(IndexOutOfRange, match=r"^generator s3 needs 4 strands, have 3$"):
        cls(3, ((3, 1),))
    checked = counting_check(cls, monkeypatch)
    made = cls._make(3, ((1, 1), (2, -1)))
    assert checked == [] and type(made) is cls and made == word
    twins = [copy.copy(word), copy.deepcopy(word)]  # each checked again
    assert list(map(id, checked)) == list(map(id, twins))
    assert all(type(twin) is cls and twin == word for twin in twins)


LAYERS = sorted(Path(inspect.getfile(_Value)).parent.glob("*.py"))
# object.__new__, or a slot descriptor's __set__, builds a record past its check
PAST_THE_CHECK = re.compile(r"object\.__new__\b|\.__set__\b")


def test_only_pitch_builds_a_record_past_its_check():
    # _Value._make is the one way to build a record without its check
    assert {layer.name for layer in LAYERS} >= {"pitch.py", "braid.py", "approximate.py"}
    found = [f"{layer.name}:{n}: {line.strip()}" for layer in LAYERS if layer.name != "pitch.py"
             for n, line in enumerate(layer.read_text(encoding="utf-8").splitlines(), start=1)
             if PAST_THE_CHECK.search(line)]
    assert found == []
