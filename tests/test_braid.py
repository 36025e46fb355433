"""Braid words: parsing, invariants, rewriting, rendering."""

import random
import re
import struct
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modalkit import braid
from modalkit.braid import (
    BraidInvariants,
    BraidWord,
    concatenate,
    free_reduce,
    invariants,
    parse_word,
    render_ascii,
    rewrite_step,
    serialize_word,
)
from modalkit.errors import (
    IndexOutOfRange,
    InvalidArgument,
    InvalidBraid,
    ModalkitError,
    ParseError,
    PatternMismatch,
    StrandMismatch,
)


def word_strategy(max_strands=5, max_len=12):
    def build(strands):
        letters = st.tuples(
            st.integers(min_value=1, max_value=strands - 1),
            st.sampled_from((1, -1)),
        )
        return st.lists(letters, max_size=max_len).map(
            lambda ls: BraidWord(strands, tuple(ls))
        )

    return st.integers(min_value=2, max_value=max_strands).flatmap(build)


def reference_invariants(w):
    """Strand-scan invariants: move every strand that sits at a crossed slot."""
    position = list(range(1, w.strands + 1))
    for index, _sign in w.letters:
        for p in range(w.strands):
            if position[p] == index:
                position[p] = index + 1
            elif position[p] == index + 1:
                position[p] = index
    return BraidInvariants(tuple(position), sum(sign for _i, sign in w.letters))


def reference_render_ascii(w):
    """Row-by-row rendering: a row of bars, then the crossing drawn over it."""
    n = w.strands
    width = 2 * n - 1

    def bars(skip=()):
        row = [" "] * width
        for c in range(n):
            if c + 1 not in skip:
                row[2 * c] = "|"
        return row

    lines = ["".join(bars())]
    for index, sign in w.letters:
        top = bars(skip=(index, index + 1))
        top[2 * (index - 1)] = "\\"
        top[2 * index] = "/"
        mid = bars(skip=(index, index + 1))
        mid[2 * index - 1] = "/" if sign > 0 else "\\"
        bottom = bars(skip=(index, index + 1))
        bottom[2 * (index - 1)] = "/"
        bottom[2 * index] = "\\"
        lines.extend("".join(row) for row in (top, mid, bottom))
    return "\n".join(lines) + "\n"


def test_word_validation():
    with pytest.raises(IndexOutOfRange):
        BraidWord(3, ((3, 1),))
    with pytest.raises(ValueError):
        BraidWord(3, ((1, 2),))
    with pytest.raises(ValueError):
        BraidWord(0)
    assert len(BraidWord(4)) == 0


@pytest.mark.parametrize("strands", [12, 100])  # read through the tables, and per call
@pytest.mark.parametrize("equal", [(True, True), (True, 1), (1, 1.0), (1, True)])
def test_a_letter_equal_to_a_valid_one_reads_as_it(strands, equal):
    # an index that is an integer, and a sign equal to +1, are stored as the int
    # letter, so every function reads that letter; an index of 1.0 is no integer
    word, twin = BraidWord(strands, (equal, (2, -1))), BraidWord(strands, ((1, 1), (2, -1)))
    assert word.letters == ((1, 1), (2, -1)) and all(type(x) is int for x in word.letters[0])
    assert word == twin and hash(word) == hash(twin)
    for read in (serialize_word, render_ascii, invariants, free_reduce):
        assert read(word) == read(twin)
    assert repr(invariants(word)) == repr(invariants(twin))
    assert serialize_word(twin) == "s1 s2^-1"
    assert parse_word(serialize_word(word), strands) == twin


@pytest.mark.parametrize("count", [True])  # 12.0 is no integer: tests/test_wrong_types.py
def test_a_strand_count_equal_to_an_integer_is_kept_as_it(count):
    word = BraidWord(count)
    assert type(word.strands) is int and word.strands == count
    assert word == BraidWord(int(count)) and repr(word) == f"BraidWord(strands={int(count)}, letters=())"


def test_letters_are_kept_as_a_tuple():
    given_letters = [(1, 1), (2, -1)]
    word, twin = BraidWord(3, given_letters), BraidWord(3, ((1, 1), (2, -1)))
    assert type(word.letters) is tuple
    assert word == twin and hash(word) == hash(twin)
    assert repr(word) == "BraidWord(strands=3, letters=((1, 1), (2, -1)))"
    # a letter added to the caller's list after the check changes nothing kept
    given_letters.append((9, 1))
    assert word == twin and len(word) == 2
    assert BraidWord(3, twin.letters).letters == twin.letters
    assert all(type(x) is int for letter in word.letters for x in letter)


@pytest.mark.parametrize(
    "call",
    [
        lambda: BraidWord(0),
        lambda: parse_word("s1", strands=0),
        lambda: BraidWord(3, ((1, 2),)),
        lambda: rewrite_step(BraidWord(3, ((1, 1),)), "nope", 0),
        lambda: BraidWord(3, 5),
        *(lambda f=f: f(((1, 1),)) for f in (invariants, serialize_word, render_ascii,
                                             free_reduce, concatenate)),
        lambda: concatenate(BraidWord(3), ((1, 1),)),
        lambda: rewrite_step(SimpleNamespace(strands=3, letters=((1, 1), (1, -1))),
                             "free_cancel", 0),
        lambda: rewrite_step(BraidWord(3, ((1, 1),)), ["p1_swap"], 0),
    ],
    ids=["no-strands", "parse-no-strands", "bad-sign", "unknown-rule", "letters-no-sequence",
         "invariants-tuple", "serialize-tuple", "render-tuple", "reduce-tuple",
         "concatenate-tuple", "concatenate-then-tuple", "rewrite-duck", "unhashable-rule"],
)
def test_invalid_braid_requests_are_domain_errors(call):
    with pytest.raises(InvalidBraid) as info:
        call()
    assert isinstance(info.value, ModalkitError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_word(5, 3), "braid text is a str, not int"),
        (lambda: parse_word(b"s1", 3), "braid text is a str, not bytes"),
        (lambda: parse_word(b"", 3), "braid text is a str, not bytes"),
        (lambda: rewrite_step(BraidWord(5, ((1, 1), (3, 1))), "p1_swap", 0.0),
         "position 0.0 is not an integer"),
        (lambda: rewrite_step(BraidWord(5, ((1, 1), (3, 1))), "p1_swap", "0"),
         "position '0' is not an integer"),
    ],
    ids=["parse-int", "parse-bytes", "parse-empty-bytes", "rewrite-float-position",
         "rewrite-str-position"],
)
def test_text_and_positions_of_the_wrong_type_are_domain_errors(call, message):
    # text that is no str is an InvalidArgument; a position, by the integer rule,
    # is an IndexOutOfRange
    error = IndexOutOfRange if message.startswith("position") else InvalidArgument
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_invariants_single_crossing():
    inv = invariants(BraidWord(3, ((1, 1),)))
    assert inv.permutation == (2, 1, 3)
    assert inv.writhe == 1


def test_invariants_sigma1_sigma2():
    # the strand starting at 1 walks to 3
    inv = invariants(BraidWord(3, ((1, 1), (2, 1))))
    assert inv.permutation == (3, 1, 2)
    assert inv.writhe == 2


def test_inverse_crossing_same_permutation_opposite_writhe():
    plus = invariants(BraidWord(4, ((2, 1),)))
    minus = invariants(BraidWord(4, ((2, -1),)))
    assert plus.permutation == minus.permutation
    assert plus.writhe == -minus.writhe


@given(word_strategy())
def test_writhe_is_sign_sum(w):
    assert invariants(w).writhe == sum(s for _i, s in w.letters)


@given(word_strategy())
def test_permutation_is_bijection(w):
    perm = invariants(w).permutation
    assert sorted(perm) == list(range(1, w.strands + 1))


def test_concatenate_requires_same_strands():
    with pytest.raises(StrandMismatch):
        concatenate(BraidWord(3), BraidWord(4))
    with pytest.raises(StrandMismatch):
        concatenate(BraidWord(3), BraidWord(3, ((1, 1),)), BraidWord(4))


@given(word_strategy(), st.lists(st.integers(min_value=0, max_value=12), max_size=3))
def test_concatenate_joins_any_cut_of_a_word(w, cuts):
    bounds = [0, *sorted(min(c, len(w)) for c in cuts), len(w)]
    pieces = [BraidWord(w.strands, w.letters[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert concatenate(*pieces) == w


@given(word_strategy(max_len=6))
def test_word_times_inverse_reduces_to_identity(w):
    inverse = BraidWord(w.strands, tuple((i, -s) for i, s in reversed(w.letters)))
    assert free_reduce(concatenate(w, inverse)) == BraidWord(w.strands)


@given(word_strategy())
def test_free_reduce_preserves_invariants(w):
    assert invariants(free_reduce(w)) == invariants(w)


def test_free_reduce_cascades():
    w = BraidWord(3, ((1, 1), (2, 1), (2, -1), (1, -1)))
    assert free_reduce(w) == BraidWord(3)


def test_rewrite_free_cancel():
    w = BraidWord(3, ((1, 1), (1, -1), (2, 1)))
    assert rewrite_step(w, "free_cancel", 0) == BraidWord(3, ((2, 1),))
    with pytest.raises(PatternMismatch):
        rewrite_step(w, "free_cancel", 1)


def test_rewrite_p1_swap():
    w = BraidWord(5, ((1, 1), (3, -1)))
    swapped = rewrite_step(w, "p1_swap", 0)
    assert swapped.letters == ((3, -1), (1, 1))
    with pytest.raises(PatternMismatch):
        rewrite_step(BraidWord(5, ((1, 1), (2, 1))), "p1_swap", 0)


def test_rewrite_p2_slide_both_directions():
    w = BraidWord(4, ((1, 1), (2, 1), (1, 1)))
    slid = rewrite_step(w, "p2_slide", 0)
    assert slid.letters == ((2, 1), (1, 1), (2, 1))
    assert rewrite_step(slid, "p2_slide", 0) == w
    with pytest.raises(PatternMismatch):
        rewrite_step(BraidWord(4, ((1, 1), (2, -1), (1, 1))), "p2_slide", 0)
    with pytest.raises(ValueError):
        rewrite_step(w, "nonsense", 0)


# each word matches its rule if read across its two ends
@pytest.mark.parametrize(
    "rule, word",
    [
        ("free_cancel", BraidWord(3, ((1, 1), (1, -1)))),
        ("p1_swap", BraidWord(4, ((1, 1), (2, 1), (3, 1)))),
        ("p2_slide", BraidWord(3, ((1, 1), (2, 1), (1, 1)))),
    ],
)
@pytest.mark.parametrize("where", ["minus-one", "before-start", "at-end"])
def test_rewrite_outside_the_word_is_a_pattern_mismatch(rule, word, where):
    at = {"minus-one": -1, "before-start": -(len(word) + 1), "at-end": len(word)}[where]
    with pytest.raises(PatternMismatch, match=f"no letter (pair|triple) at {at}$"):
        rewrite_step(word, rule, at)


@given(word_strategy(max_len=8))
def test_rewrite_keeps_invariants_inside_its_window_only(w):
    for rule, width in (("free_cancel", 2), ("p1_swap", 2), ("p2_slide", 3)):
        for at in range(-len(w) - 2, len(w) + 2):
            try:
                rewritten = rewrite_step(w, rule, at)
            except PatternMismatch:
                continue
            assert 0 <= at <= len(w) - width
            assert invariants(rewritten) == invariants(w)


def test_parse_and_serialize_round_trip():
    text = "s3 s1^-1 s2"
    w = parse_word(text, strands=4)
    assert w.letters == ((3, 1), (1, -1), (2, 1))
    assert serialize_word(w) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("s1 x2", strands=3)
    with pytest.raises(ParseError):
        parse_word("s\u0663", strands=12)  # an Arabic-Indic three
    # more digits than int() converts: the whole token, at its position
    token = "s" + "0" * 5000
    with pytest.raises(ParseError) as info:
        parse_word(f"s1 {token}", strands=12)
    assert (info.value.message, info.value.position) == (f"bad braid token {token!r}", 3)
    with pytest.raises(IndexOutOfRange):
        parse_word("s9", strands=4)


def reference_parse_word(text, strands):
    """One regex match per token, each token found left to right in the text."""
    position, letters = 0, []
    for token in text.split():
        start = text.find(token, position)
        position = start + len(token)
        m = re.fullmatch(r"s([0-9]+)(\^-1)?", token)
        if not m or len(m.group(1)) > 4000:
            raise ParseError(f"bad braid token {token!r}", start)
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return BraidWord(strands, tuple(letters))


def parse_outcome(parse, text, strands):
    try:
        return parse(text, strands)
    except ParseError as exc:
        return "ParseError", exc.message, exc.position
    except ModalkitError as exc:
        return type(exc).__name__, str(exc)


tokens = st.sampled_from(
    ["s1", "s2^-1", "s3", "s11", "s11^-1", "s01", "s01^-1", "s0", "s12", "s99999",
     "s1x", "x", "1", "s", "s1^-2", "s1^-1^-1", "s\u0663", "s" + "0" * 5000]
)
separators = st.sampled_from([" ", "  ", "\t", "\n", " \r\n "])


# strand counts around the tokens drawn, and either side of the largest tabled count
strand_counts = st.one_of(st.integers(1, 13), st.sampled_from([braid._TABLED_STRANDS,
                                                                braid._TABLED_STRANDS + 1]))


@given(st.lists(st.tuples(separators, tokens), max_size=12), strand_counts, st.booleans())
@example([(" ", "s1"), (" ", "s1x"), (" ", "s1"), (" ", "s1x")], 12, True)  # a bad token repeats
@example([(" ", "s12"), (" ", "2")], 13, True)  # a bad token inside an earlier one
@example([(" ", "s11"), (" ", "s1^-1"), (" ", "1")], 12, False)
@example([(" ", "s11^-1")], 12, True)  # one token, looked up: a word of one letter
@example([("\t", "s2"), (" ", "s11^-1")], 12, True)  # two tokens, the fewest looked up at once
def test_parse_word_matches_the_regex_walk(pieces, strands, warm):
    text = "".join(sep + token for sep, token in pieces)
    if warm:  # the same tokens met once before, so each valid one is looked up
        parse_outcome(parse_word, text, strands)
    expected = parse_outcome(reference_parse_word, text, strands)
    assert parse_outcome(parse_word, text, strands) == expected


# The pattern a token was read by before str methods read it, kept as the reference.
TOKEN = re.compile(r"s([0-9]+)(\^-1)?")


def reference_letter(token):
    m = TOKEN.fullmatch(token)
    try:
        return int(m.group(1)), -1 if m.group(2) else 1
    except (AttributeError, ValueError):  # no match, or more digits than int() converts
        return "ParseError", f"bad braid token {token!r}", 0


def letter_outcome(token):
    try:
        return braid._letter(token, [token], 0)
    except ParseError as exc:
        return "ParseError", exc.message, exc.position


# ASCII and other digits, the suffix's characters, and any other character
token_characters = st.one_of(st.sampled_from("s0123456789^-1\u0663\u00b2\uff11S"), st.characters())


@given(st.sampled_from(["s", ""]), st.text(token_characters, max_size=6),
       st.sampled_from(["", "^-1", "^-1^-1", "^"]))
@example("s", "0" * 5000, "")
@example("s", "\u0663", "^-1")
def test_a_token_reads_as_the_regex_reads_it(prefix, body, suffix):
    token = prefix + body + suffix
    assume(token.split() == [token])  # a token as str.split gives it
    assert letter_outcome(token) == reference_letter(token)


@pytest.mark.parametrize(
    "text, position",
    [("s1 s1x s1 s1x", 3), ("s12 2", 4), ("s1^-1 1 s1 1", 6), ("s3 s3 3", 6)],
)
def test_bad_token_position_walks_the_earlier_tokens(text, position):
    for _ in range(2):  # with the valid tokens unknown, then known
        with pytest.raises(ParseError) as info:
            parse_word(text, strands=13)
        assert info.value.position == position


def test_token_table_holds_only_canonical_valid_tokens(monkeypatch):
    monkeypatch.setattr(braid, "_LETTERS", braid._Table(braid._LETTERS._derive))  # cold
    # spellings that serialize_word never writes parse as before, token by token
    assert parse_word("s01 s01^-1 s001", 12).letters == ((1, 1), (1, -1), (1, 1))
    for text, strands in [("s99999", 12), ("s9", 4), ("s1 s3^-1", 3), ("s1", 0), ("s1", True)]:
        with pytest.raises(ModalkitError):
            parse_word(text, strands)
    # a strand count that is no int in 1..64 keys nothing, and is read as before
    assert parse_word("s1 s64^-1", 65) == BraidWord(65, ((1, 1), (64, -1)))
    assert parse_word("s2", True + 2) == BraidWord(3, ((2, 1),))
    with pytest.raises(IndexOutOfRange, match=r"^strands 3\.0 is not an integer$"):
        parse_word("s2", 3.0)
    parse_word("s3 s2^-1 s11^-1", 12)
    assert sorted(braid._LETTERS) == [3, 4, 12]
    # a token of more strands met on fewer is refused by the word's check
    with pytest.raises(IndexOutOfRange):
        parse_word("s11^-1", 4)
    # each count holds exactly its 2 * (n - 1) valid letters, spelled as serialize_word does
    for n, known in braid._LETTERS.items():
        letters = [(i, sign) for i in range(1, n) for sign in (1, -1)]
        assert known == {serialize_word(BraidWord(n, (letter,))): letter for letter in letters}


def test_token_table_is_bounded_by_the_tabled_strand_counts(monkeypatch):
    for table in ("_LETTERS", "_TOKENS"):
        monkeypatch.setattr(braid, table, braid._Table(getattr(braid, table)._derive))
    for n in range(1, 3 * braid._TABLED_STRANDS):
        word = parse_word(f"s{n - 1} s{n - 1}^-1 s1" if n > 1 else "", n)
        assert serialize_word(word) == reference_serialize_word(word)
        assert render_ascii(word) == reference_render_ascii(word)
    assert sorted(braid._LETTERS) == list(range(1, braid._TABLED_STRANDS + 1))
    assert sum(map(len, braid._LETTERS.values())) == sum(2 * (n - 1) for n in braid._LETTERS)
    # one token per letter that a word on at most 64 strands uses, none for a longer word
    assert set(braid._TOKENS) == {(i, sign) for i in range(1, braid._TABLED_STRANDS)
                                  for sign in (1, -1)}


def built_words(w, other, at):
    """Every word concatenate, free_reduce, rewrite_step and parse_word build from
    the checked words ``w`` and ``other``, with rewrites tried at ``at``."""
    yield concatenate(w, other, w)
    yield free_reduce(w)
    for rule in ("free_cancel", "p1_swap", "p2_slide"):
        try:
            yield rewrite_step(w, rule, at)
        except PatternMismatch:
            pass
    yield parse_word(serialize_word(w), w.strands)


@settings(max_examples=200)
@given(word_strategy(max_strands=8, max_len=10).flatmap(lambda w: st.tuples(
    st.just(w), word_strategy(max_strands=w.strands, max_len=6).map(
        lambda v: BraidWord(w.strands, v.letters)), st.integers(0, 10))))
@example((BraidWord(3, ((True, 1.0), (True, -1), (2, 1))), BraidWord(3), 0))
@example((BraidWord(12, ((1, 1), (2, 1), (1, 1))), BraidWord(12), 0))
def test_an_unchecked_build_is_the_checked_word(words):
    # a word built without the check is the word the check builds from its fields,
    # so the check would refuse none of them
    for built in built_words(*words):
        assert type(built) is BraidWord
        assert type(built.strands) is int and type(built.letters) is tuple
        checked = BraidWord(built.strands, built.letters)
        assert built == checked and built.letters == checked.letters
        assert all(type(x) is int for letter in built.letters for x in letter)


class LaxWord(BraidWord):
    """A subclass, with its parent's fields, whose check accepts anything."""

    def __post_init__(self):
        pass


class PosingWord:
    """No BraidWord, though isinstance says it is one."""

    __class__ = property(lambda self: BraidWord)

    def __init__(self, strands, letters):
        self.strands, self.letters = strands, letters


@pytest.mark.parametrize("make", [SimpleNamespace, LaxWord, PosingWord],
                         ids=["duck", "subclass", "posing"])
def test_a_word_the_check_refuses_never_comes_back(make):
    bad = make(strands=3, letters=((99, 1),))
    good = BraidWord(3, ((1, 1),))
    for build in (lambda: concatenate(bad), lambda: concatenate(good, bad),
                  lambda: free_reduce(bad), lambda: rewrite_step(bad, "free_cancel", 0),
                  lambda: invariants(bad), lambda: serialize_word(bad), lambda: render_ascii(bad)):
        with pytest.raises(ModalkitError):
            build()


def test_a_subclass_word_is_rebuilt_as_a_checked_word():
    lax = LaxWord(3, [(1, 1), (1, -1), (2, 1)])
    assert isinstance(lax, BraidWord) and type(lax.letters) is list
    for built in (concatenate(lax), free_reduce(lax), rewrite_step(lax, "free_cancel", 0)):
        assert type(built) is BraidWord and type(built.letters) is tuple
    # a reader checks it again too, so it reads the int letters the check stores,
    # and refuses what the check refuses
    lax, twin = LaxWord(3, [(True, 1), (2, -1.0)]), BraidWord(3, ((1, 1), (2, -1)))
    for read in (invariants, serialize_word, render_ascii):
        assert read(lax) == read(twin)
        with pytest.raises(IndexOutOfRange, match=r"^generator index 1\.0 is not an integer$"):
            read(LaxWord(3, [(1.0, 1)]))


@given(word_strategy())
def test_serialize_parse_round_trip(w):
    assert parse_word(serialize_word(w), strands=w.strands) == w


def test_render_ascii_shape():
    w = BraidWord(3, ((1, 1), (2, -1)))
    lines = render_ascii(w).splitlines()
    assert len(lines) == 3 * len(w) + 1
    assert lines[0] == "| | |"
    assert all(len(ln) == 2 * w.strands - 1 for ln in lines)
    assert "/" in lines[2] and "\\" in lines[5]


@given(word_strategy(max_strands=12, max_len=40))
def test_invariants_match_strand_scan(w):
    assert invariants(w) == reference_invariants(w)


@given(word_strategy(max_strands=30, max_len=40))
def test_render_ascii_matches_row_drawing(w):
    assert render_ascii(w) == reference_render_ascii(w)


def reference_serialize_word(w):
    """One f-string per letter."""
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in w.letters)


@given(word_strategy(max_strands=30, max_len=40))
@example(BraidWord(1))
@example(BraidWord(3, ((2, -1),)))  # one letter: its token, not its token's characters
@example(BraidWord(3, ((1, 1), (2, -1))))  # two letters, the fewest looked up at once
@example(BraidWord(65, ((64, -1), (1, 1))))  # more strands than are tabled
def test_serialize_word_matches_one_string_per_letter(w):
    assert serialize_word(w) == reference_serialize_word(w)


def test_a_long_word_is_written_and_read_with_a_few_pointers_per_letter():
    # tracemalloc counts allocations, not time, so the figures are deterministic.
    # Writing holds the text and one sequence of tokens, a pointer per letter;
    # reading holds what str.split holds and two sequences of letters.  Each may
    # take one more pointer per letter, and no more.
    letters = 100_000
    rng = random.Random(1)
    w = BraidWord(12, tuple((rng.randrange(1, 12), rng.choice((1, -1))) for _ in range(letters)))
    text = serialize_word(w)
    assert parse_word(text, 12) == w  # first-call tables are not a per-letter cost

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pointer = struct.calcsize("P")
    assert peak(serialize_word, w) - sys.getsizeof(text) <= 2 * pointer * letters
    assert peak(parse_word, text, 12) - peak(str.split, text) <= 3 * pointer * letters
