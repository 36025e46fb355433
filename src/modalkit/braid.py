"""Braid words over n strands: Artin generators, rewriting and invariants.

A word is a sequence of signed generators s_i (1 <= i < n); s_i crosses the
strands at positions i and i+1.  Words act on positions left to right: the
first letter is the crossing nearest the start of the braid.  The library
computes necessary conditions for braid equality (permutation and writhe);
the test suite proves equality exactly with Artin's action on a free group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    InvalidBraid,
    ParseError,
    PatternMismatch,
    StrandMismatch,
)

Letter = tuple[int, int]  # (generator index, sign)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
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


@dataclass(frozen=True)
class BraidInvariants:
    """Necessary conditions for braid equality."""

    permutation: tuple[int, ...]  # 1-based: start position p ends at permutation[p-1]
    writhe: int


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
    position = 0
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.fullmatch(token)
        if not m:
            raise ParseError(f"bad braid token {token!r}", text.find(token, position))
        position = text.find(token, position) + len(token)
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return BraidWord(strands, tuple(letters))


def serialize_word(w: BraidWord) -> str:
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in w.letters)


def render_ascii(w: BraidWord) -> str:
    """Draw the braid top to bottom, one column of ``|`` per strand.

    Each letter takes three rows; a base row of plain strands comes first,
    so the output always has 3 * len(word) + 1 lines.  Positive crossings
    show ``/`` in the middle row, negative ones ``\\``.
    """
    n = w.strands
    lines = [" ".join("|" * n)]
    for i, sign in w.letters:
        left, right = "| " * (i - 1), " |" * (n - i - 1)
        middle = " / " if sign > 0 else " \\ "
        lines += (left + "\\ /" + right, left + middle + right, left + "/ \\" + right)
    return "\n".join(lines) + "\n"
