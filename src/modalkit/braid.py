"""Braid words over n strands: Artin generators, rewriting and invariants.

A word is a sequence of signed generators s_i (1 <= i < n); s_i crosses the
strands at positions i and i+1.  Words act on positions left to right: the
first letter is the crossing nearest the start of the braid.  The library
computes necessary conditions for braid equality (permutation and writhe);
the test suite proves equality exactly with Artin's action on a free group.
"""

from __future__ import annotations

import re

from .errors import (
    IndexOutOfRange,
    InvalidBraid,
    ParseError,
    PatternMismatch,
    StrandMismatch,
)
from .pitch import _Table, _Value

Letter = tuple[int, int]  # (generator index, sign)


class BraidWord(_Value, letters=()):
    """A word of signed generators on ``strands`` strands.

    The strand count is an integer of at least 1, and each letter is a pair
    (generator index, sign) with an index in [1, strands - 1] and a sign of
    +1 or -1.  A strand count that is no integer, such as 12.5 or '12', and
    an index that is none, such as 1.5, are refused.  A number equal to an
    integer is read as it: a strand count such as 12.0 or True is kept as
    that int, and a letter equal to a valid one, such as (1.0, 1) or
    (True, 1), is accepted and kept as given, so its word equals the word
    of integer letters, and every function reads the letter as that one.
    The letters are kept as a tuple, so a list given here shows as a tuple
    in the repr, and changing that list later changes nothing kept; letters
    that are no sequence, such as 5, are refused.
    """

    __slots__ = ("strands", "letters")

    def __post_init__(self):
        """The one validation of a word; bench/spans.py wraps it to count the letters."""
        if self.letters.__class__ is not tuple:
            try:
                object.__setattr__(self, "letters", tuple(self.letters))
            except TypeError:  # no sequence, such as 5
                raise InvalidBraid(f"letters {self.letters!r} are not a sequence") from None
        n = self.strands
        if n.__class__ is not int:
            n = _integer(n)
            if n is None:
                raise InvalidBraid(f"strand count {self.strands!r} is not an integer")
            object.__setattr__(self, "strands", n)
        if n < 1:
            raise InvalidBraid("need at least one strand")
        if n <= _TABLED_STRANDS:
            try:
                if _VALID[n].issuperset(self.letters):
                    return
            except TypeError:  # an unhashable letter, such as [1, 1]
                pass
        for letter in self.letters:  # the first letter outside the set is refused
            _check(letter, n)

    def __len__(self) -> int:
        return len(self.letters)


def _integer(value) -> int | None:
    """The int equal to ``value``, as 12 for 12.0 or 1 for True; None for 1.5 or '12'."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _check(letter, strands: int) -> None:
    """Refuse ``letter`` unless it equals a valid letter on ``strands`` strands."""
    if not (isinstance(letter, tuple) and len(letter) == 2):
        raise InvalidBraid(f"letter {letter!r} is not a (generator index, sign) pair")
    index, sign = letter
    i = _integer(index)
    if i is None:
        raise IndexOutOfRange(f"generator index {index!r} is not an integer")
    if not 1 <= i <= strands - 1:
        raise IndexOutOfRange(f"generator s{i} needs {i + 1} strands, have {strands}")
    if sign not in (1, -1):
        raise InvalidBraid(f"sign must be +1 or -1, got {sign}")


# The valid letters per strand count, so that one issuperset checks a whole
# word; up to 64 strands, so a huge strand count builds no huge set.  A word
# on more strands, or with a letter outside the set, is checked letter by letter.
_TABLED_STRANDS = 64
_VALID = _Table(lambda n: frozenset((i, sign) for i in range(1, n) for sign in (1, -1)))


class BraidInvariants(_Value):
    """Necessary conditions for braid equality: the permutation, 1-based
    (start position p ends at ``permutation[p-1]``), and the writhe."""

    __slots__ = ("permutation", "writhe")


def concatenate(first: BraidWord, *rest: BraidWord) -> BraidWord:
    """The words read one after another; all must have the same strand count."""
    for w in rest:
        if w.strands != first.strands:
            raise StrandMismatch(f"{first.strands} strands vs {w.strands}")
    return BraidWord(first.strands, tuple(letter for w in (first, *rest) for letter in w.letters))


def invariants(w: BraidWord) -> BraidInvariants:
    letters = w.letters
    try:
        occupant = _occupants(w.strands, letters)
    except TypeError:  # an index equal to an integer, such as 1.0, indexes no list
        letters = [(int(i), int(sign)) for i, sign in letters]
        occupant = _occupants(w.strands, letters)
    position = [0] * w.strands
    for slot, start in enumerate(occupant, start=1):
        position[start - 1] = slot
    writhe = int(sum(sign for _i, sign in letters))
    return BraidInvariants(tuple(position), writhe)


def _occupants(strands: int, letters) -> list[int]:
    """occupant[s-1], the start position of the strand at slot s after ``letters``."""
    occupant = list(range(1, strands + 1))
    for index, _sign in letters:
        occupant[index - 1], occupant[index] = occupant[index], occupant[index - 1]
    return occupant


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel all adjacent s_i s_i^-1 pairs (a fixed point of free_cancel)."""
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(w.strands, tuple(stack))


# Each rule's window: how many letters it reads from ``at`` on, and their name.
_WINDOWS = {"free_cancel": (2, "pair"), "p1_swap": (2, "pair"), "p2_slide": (3, "triple")}


def rewrite_step(w: BraidWord, rule: str, at: int) -> BraidWord:
    """Apply one relation at a position: free_cancel, p1_swap or p2_slide.

    free_cancel removes an adjacent inverse pair; p1_swap commutes two
    generators with |i - j| > 1; p2_slide turns s_i s_{i+1} s_i into
    s_{i+1} s_i s_{i+1} (or back), with a uniform sign.  A window of letters
    from ``at`` on that leaves the word, or does not fit the rule, is a PatternMismatch.
    """
    if rule not in _WINDOWS:
        raise InvalidBraid(f"unknown rule {rule!r}")
    width, window = _WINDOWS[rule]
    if not 0 <= at <= len(w) - width:
        raise PatternMismatch(f"no letter {window} at {at}")
    (i, si), (j, sj), *third = w.letters[at:at + width]
    if rule == "free_cancel":
        if i != j or si != -sj:
            raise PatternMismatch(f"letters at {at} are not an inverse pair")
        replacement = ()
    elif rule == "p1_swap":
        if abs(i - j) <= 1:
            raise PatternMismatch(f"generators s{i}, s{j} do not commute")
        replacement = ((j, sj), (i, si))
    else:
        if not (third == [(i, si)] and sj == si and abs(i - j) == 1):
            raise PatternMismatch(f"letters at {at} are not a braid-relation triple")
        replacement = ((j, sj), (i, si), (j, sj))
    return BraidWord(w.strands, w.letters[:at] + replacement + w.letters[at + width:])


_TOKEN = re.compile(r"s([0-9]+)(\^-1)?")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<k>`` / ``s<k>^-1``, ``k`` in ASCII digits."""
    tokens = text.split()
    try:
        letters = [_LETTERS[token] for token in tokens]
    except KeyError:  # a token not read before: read each by _TOKEN
        letters = [_letter(text, tokens, k, strands) for k in range(len(tokens))]
    return BraidWord(strands, tuple(letters))


def _letter(text: str, tokens: list[str], k: int, strands: int) -> Letter:
    """The letter of ``tokens[k]``, read by ``_TOKEN``."""
    token = tokens[k]
    m = _TOKEN.fullmatch(token)
    try:
        index = int(m.group(1)) if m else None
    except ValueError:  # more digits than int() converts, see sys.set_int_max_str_digits
        index = None
    if index is None:
        end = 0
        for earlier in tokens[:k + 1]:  # the offset of the k-th token, found left to right
            start = text.find(earlier, end)
            end = start + len(earlier)
        raise ParseError(f"bad braid token {token!r}", start)
    letter = (index, -1 if m.group(2) else 1)
    if 1 <= index < strands and m.group(1)[0] != "0":  # as serialize_word spells it
        _LETTERS[token] = letter
    return letter


def _token(letter: Letter) -> str:
    i, sign = map(int, letter)  # a letter such as (1.0, 1) is spelled as (1, 1)
    return f"s{i}" if sign > 0 else f"s{i}^-1"


def _block(n: int, letter: Letter) -> str:
    i, sign = map(int, letter)  # a letter such as (1.0, 1) is drawn as (1, 1)
    left, right = "| " * (i - 1), " |" * (n - i - 1)
    middle = " / " if sign > 0 else " \\ "
    return f"{left}\\ /{right}\n{left}{middle}{right}\n{left}/ \\{right}\n"


def _drawings(n: int) -> tuple[str, _Table]:
    """The base row of ``n`` plain strands, and a table of each letter's three rows on them."""
    return " ".join("|" * n) + "\n", _Table(lambda letter: _block(n, letter))


# One token per letter (generator index, sign), its inverse, and per strand
# count one table of three-row drawings per letter, so they hold at most the
# letters of the strand counts in use.  A token read back enters _LETTERS,
# which parse_word fills itself, only as serialize_word spells it, and only
# with a letter valid on its word's strand count.
_TOKENS = _Table(_token)
_LETTERS: dict[str, Letter] = {}
_DRAWINGS = _Table(_drawings)


def serialize_word(w: BraidWord) -> str:
    return " ".join(map(_TOKENS.__getitem__, w.letters))


def render_ascii(w: BraidWord) -> str:
    """Draw the braid top to bottom, one column of ``|`` per strand.

    Each letter takes three rows; a base row of plain strands comes first,
    so the output always has 3 * len(word) + 1 lines.  Positive crossings
    show ``/`` in the middle row, negative ones ``\\``.
    """
    base, blocks = _DRAWINGS[w.strands]
    return "".join([base, *map(blocks.__getitem__, w.letters)])
