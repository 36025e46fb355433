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
from .pitch import _Value

Letter = tuple[int, int]  # (generator index, sign)


class BraidWord(_Value, letters=()):
    __slots__ = ("strands", "letters")

    def __post_init__(self):
        """The one validation of a word; bench/spans.py wraps it to count the letters."""
        if self.strands < 1:
            raise InvalidBraid("need at least one strand")
        for index, sign in self.letters:
            if not 1 <= index <= self.strands - 1:
                raise IndexOutOfRange(
                    f"generator s{index} needs {index + 1} strands, have {self.strands}"
                )
            if sign not in (1, -1):
                raise InvalidBraid(f"sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)


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
    occupant = list(range(1, w.strands + 1))  # occupant[s-1] = start of the strand at slot s
    for index, _sign in w.letters:
        occupant[index - 1], occupant[index] = occupant[index], occupant[index - 1]
    position = [0] * w.strands
    for slot, start in enumerate(occupant, start=1):
        position[start - 1] = slot
    writhe = sum(sign for _i, sign in w.letters)
    return BraidInvariants(tuple(position), writhe)


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
    except KeyError:  # a token not read before, or no token at all: read each by _TOKEN
        letters = [_LETTERS.get(token) or _letter(text, tokens, k, strands)
                   for k, token in enumerate(tokens)]
    return BraidWord(strands, tuple(letters))


def _letter(text: str, tokens: list[str], k: int, strands: int) -> Letter:
    """The letter of ``tokens[k]``, which ``_LETTERS`` does not hold, read by ``_TOKEN``."""
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


# One token per letter (generator index, sign), its inverse, and per strand
# count one three-row drawing per letter: each filled when a word first uses
# the letter, so they hold at most the letters of the strand counts in use.
# A token read back enters _LETTERS only as serialize_word spells it, and only
# with a letter valid on its word's strand count.
_TOKENS: dict[Letter, str] = {}
_LETTERS: dict[str, Letter] = {}
_BLOCKS: dict[int, dict[Letter, str]] = {}


def _token(letter: Letter) -> str:
    i, sign = letter
    token = _TOKENS[letter] = f"s{i}" if sign > 0 else f"s{i}^-1"
    return token


def serialize_word(w: BraidWord) -> str:
    return " ".join([_TOKENS.get(letter) or _token(letter) for letter in w.letters])


def _block(blocks: dict[Letter, str], n: int, letter: Letter) -> str:
    i, sign = letter
    left, right = "| " * (i - 1), " |" * (n - i - 1)
    middle = " / " if sign > 0 else " \\ "
    block = blocks[letter] = f"{left}\\ /{right}\n{left}{middle}{right}\n{left}/ \\{right}\n"
    return block


def render_ascii(w: BraidWord) -> str:
    """Draw the braid top to bottom, one column of ``|`` per strand.

    Each letter takes three rows; a base row of plain strands comes first,
    so the output always has 3 * len(word) + 1 lines.  Positive crossings
    show ``/`` in the middle row, negative ones ``\\``.
    """
    n = w.strands
    blocks = _BLOCKS.setdefault(n, {})
    drawn = [blocks.get(letter) or _block(blocks, n, letter) for letter in w.letters]
    return " ".join("|" * n) + "\n" + "".join(drawn)
