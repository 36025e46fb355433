"""Braid words: parsing, invariants, rewriting, rendering."""

import re

import pytest
from hypothesis import example, given
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


@pytest.mark.parametrize("strands", [12, 100])  # checked by one set, and letter by letter
@pytest.mark.parametrize("equal", [(1.0, 1), (True, 1), (1, 1.0), (1, True)])
def test_a_letter_equal_to_a_valid_one_reads_as_it(monkeypatch, strands, equal):
    # accepted and kept as given; every function reads it as the integer letter
    monkeypatch.setattr(braid, "_TOKENS", braid._Table(braid._token))  # cold, so the equal
    monkeypatch.setattr(braid, "_DRAWINGS", braid._Table(braid._drawings))  # letter is derived first
    word, twin = BraidWord(strands, (equal, (2, -1))), BraidWord(strands, ((1, 1), (2, -1)))
    assert word.letters[0] is equal
    assert word == twin and hash(word) == hash(twin)
    for read in (serialize_word, render_ascii, invariants, free_reduce):
        assert read(word) == read(twin)
    assert repr(invariants(word)) == repr(invariants(twin))
    assert serialize_word(twin) == "s1 s2^-1"
    assert parse_word(serialize_word(word), strands) == twin


@pytest.mark.parametrize("count", [12.0, True, 3.0])
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
    assert BraidWord(3, twin.letters).letters is twin.letters  # a tuple is kept as given


@pytest.mark.parametrize(
    "call",
    [
        lambda: BraidWord(0),
        lambda: parse_word("s1", strands=0),
        lambda: BraidWord(3, ((1, 2),)),
        lambda: rewrite_step(BraidWord(3, ((1, 1),)), "nope", 0),
        lambda: BraidWord(3, 5),
    ],
    ids=["no-strands", "parse-no-strands", "bad-sign", "unknown-rule", "letters-no-sequence"],
)
def test_invalid_braid_requests_are_domain_errors(call):
    with pytest.raises(InvalidBraid) as info:
        call()
    assert isinstance(info.value, ModalkitError) and isinstance(info.value, ValueError)


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


@given(st.lists(st.tuples(separators, tokens), max_size=12), st.integers(1, 13), st.booleans())
@example([(" ", "s1"), (" ", "s1x"), (" ", "s1"), (" ", "s1x")], 12, True)  # a bad token repeats
@example([(" ", "s12"), (" ", "2")], 13, True)  # a bad token inside an earlier one
@example([(" ", "s11"), (" ", "s1^-1"), (" ", "1")], 12, False)
def test_parse_word_matches_the_regex_walk(pieces, strands, warm):
    text = "".join(sep + token for sep, token in pieces)
    if warm:  # the same tokens met once before, so each valid one is looked up
        parse_outcome(parse_word, text, strands)
    expected = parse_outcome(reference_parse_word, text, strands)
    assert parse_outcome(parse_word, text, strands) == expected


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
    monkeypatch.setattr(braid, "_LETTERS", {})
    # spellings that serialize_word never writes parse as before but are not kept
    assert parse_word("s01 s01^-1 s001", 12).letters == ((1, 1), (1, -1), (1, 1))
    assert braid._LETTERS == {}
    for text, strands in [("s99999", 12), ("s9", 4), ("s1 s3^-1", 3), ("s1", 0)]:
        with pytest.raises(ModalkitError):
            parse_word(text, strands)
    assert braid._LETTERS == {"s1": (1, 1)}  # from the 3-strand word, where s1 is valid
    parse_word("s3 s2^-1 s11^-1", 12)
    assert braid._LETTERS == {"s1": (1, 1), "s3": (3, 1), "s2^-1": (2, -1), "s11^-1": (11, -1)}
    # a kept token met on fewer strands is still checked by the word
    with pytest.raises(IndexOutOfRange):
        parse_word("s11^-1", 4)
    for token, letter in braid._LETTERS.items():
        assert serialize_word(BraidWord(letter[0] + 1, (letter,))) == token


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
def test_serialize_word_matches_one_string_per_letter(w):
    assert serialize_word(w) == reference_serialize_word(w)
