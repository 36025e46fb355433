"""Braid words over n strands: Artin generators, rewriting and invariants.

A word is a sequence of signed generators s_i (1 <= i < n); s_i crosses the
strands at positions i and i+1.  Words act on positions left to right: the
first letter is the crossing nearest the start of the braid.  Equality of
braids is only ever tested through necessary conditions (permutation and
writhe) plus syntactic equality after free reduction.
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


def concatenate(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise StrandMismatch(f"{a.strands} strands vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


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


def rewrite_step(w: BraidWord, rule: str, at: int) -> BraidWord:
    """Apply one relation at a position: free_cancel, p1_swap or p2_slide.

    free_cancel removes an adjacent inverse pair; p1_swap commutes two
    generators with |i - j| > 1; p2_slide turns s_i s_{i+1} s_i into
    s_{i+1} s_i s_{i+1} (or back), with a uniform sign.
    """
    letters = list(w.letters)
    if rule == "free_cancel":
        if at + 1 >= len(letters):
            raise PatternMismatch(f"no letter pair at {at}")
        (i, si), (j, sj) = letters[at], letters[at + 1]
        if i != j or si != -sj:
            raise PatternMismatch(f"letters at {at} are not an inverse pair")
        del letters[at:at + 2]
    elif rule == "p1_swap":
        if at + 1 >= len(letters):
            raise PatternMismatch(f"no letter pair at {at}")
        (i, si), (j, sj) = letters[at], letters[at + 1]
        if abs(i - j) <= 1:
            raise PatternMismatch(f"generators s{i}, s{j} do not commute")
        letters[at], letters[at + 1] = (j, sj), (i, si)
    elif rule == "p2_slide":
        if at + 2 >= len(letters):
            raise PatternMismatch(f"no letter triple at {at}")
        (i, si), (j, sj), (k, sk) = letters[at:at + 3]
        if not (si == sj == sk and i == k and abs(i - j) == 1):
            raise PatternMismatch(f"letters at {at} are not a braid-relation triple")
        letters[at:at + 3] = [(j, sj), (i, si), (j, sj)]
    else:
        raise InvalidBraid(f"unknown rule {rule!r}")
    return BraidWord(w.strands, tuple(letters))


_TOKEN = re.compile(r"s(\d+)(\^-1)?")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<k>`` / ``s<k>^-1`` on ``strands`` strands."""
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
