"""Crossing-free voice leadings and their braid words on 12 strands.

A voice leading between two equal-size chords assigns each source voice a
target voice so that higher voices never end up below lower ones
(p_i > p_j implies q_i >= q_j).  On pitch classes written as integers in
[0, 11] this forces the order-preserving assignment: sorted source paired
with sorted target.  For distinct notes it is the only crossing-free
bijection, which the test suite checks against a brute-force oracle.  It is
not always the smallest total arc distance: a cyclic rotation of the pairing,
which crosses in this linear order, often moves the voices less (Tymoczko
2006, "The Geometry of Musical Chords").

Braids live on 12 strands, one per pitch class; a voice moving from pitch
class p to q occupies strand slot p+1 and walks to slot q+1 through
adjacent crossings.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .braid import BraidWord, concatenate
from .errors import ParseError, SizeMismatch
from .pitch import Chord, PitchClass, parse_chord_symbol, parse_pcs, pc

STRANDS = 12


def arc_distance(a: int, b: int) -> int:
    """Shorter arc between two pitch classes on the 12-cycle."""
    return min(pc(a - b), pc(b - a))


@dataclass(frozen=True)
class VoiceLeading:
    """Order-preserving voice assignment between two sorted note lists."""

    source: tuple[PitchClass, ...]
    target: tuple[PitchClass, ...]

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise SizeMismatch(f"{len(self.source)} voices vs {len(self.target)}")

    def pairs(self) -> tuple[tuple[PitchClass, PitchClass], ...]:
        return tuple(zip(self.source, self.target))

    def total_displacement(self) -> int:
        return sum(arc_distance(s, t) for s, t in self.pairs())

    def is_crossing_free(self) -> bool:
        pairs = itertools.combinations(self.pairs(), 2)
        return not any((si - sj) * (ti - tj) < 0 for (si, ti), (sj, tj) in pairs)


def voice_leading(
    a: Chord,
    b: Chord,
    a_root: PitchClass | None = None,
    b_root: PitchClass | None = None,
) -> VoiceLeading:
    """The crossing-free leading from a to b: sorted notes paired in order.

    Unequal sizes are reconciled by doubling the smaller chord's root
    (lowest pitch class when no root is declared).
    """
    source = list(a.notes)
    target = list(b.notes)
    while len(source) < len(target):
        source.append(a_root if a_root is not None else min(source))
    while len(target) < len(source):
        target.append(b_root if b_root is not None else min(target))
    return VoiceLeading(tuple(sorted(source)), tuple(sorted(target)))


def _reduced_moves(v: VoiceLeading) -> list[tuple[int, int]]:
    """Distinct (source slot, target slot) moves realizable by strands.

    Padding can duplicate a pitch class on either side; a physical strand
    can only make one move, so duplicate sources and duplicate targets
    each keep the single move with the smallest displacement (ties go to
    ascending motion).  The result is strictly increasing in both slots.
    """

    def badness(move: tuple[int, int]) -> tuple[int, int]:
        d = move[1] - move[0]
        return (abs(d), 0 if d >= 0 else 1)

    def keep_best(moves, side: int):
        best: dict[int, tuple[int, int]] = {}
        for move in moves:
            kept = best.get(move[side])
            if kept is None or badness(move) < badness(kept):
                best[move[side]] = move
        return best.values()

    return sorted(keep_best(keep_best(((s + 1, t + 1) for s, t in v.pairs()), 0), 1))


def braid_of_leading(v: VoiceLeading) -> BraidWord:
    """Emit the braid word realizing a voice leading on 12 strands.

    Each moving voice walks from slot a to slot b through adjacent
    crossings: ascending voices emit s_a .. s_{b-1}, descending voices
    s_{a-1}^-1 .. s_b^-1.  Descending voices are emitted first in
    ascending slot order, then ascending voices in descending slot order,
    so every chord strand lands exactly on its target slot.  That order
    picks one word, not the braid: emitting the ascending voices first
    gives the same braid, which the test suite proves.
    """
    letters: list[tuple[int, int]] = []
    moves = _reduced_moves(v)
    descending = [m for m in moves if m[1] < m[0]]
    ascending = [m for m in moves if m[1] > m[0]]
    for a, b in descending:
        letters.extend((i, -1) for i in range(a - 1, b - 1, -1))
    for a, b in reversed(ascending):
        letters.extend((i, 1) for i in range(a, b))
    return BraidWord(STRANDS, tuple(letters))


@dataclass(frozen=True)
class Progression:
    """A sequence of one or more labelled chords."""

    chords: tuple[tuple[str, PitchClass, Chord], ...]

    def __post_init__(self):
        if not self.chords:
            raise ParseError("the progression has no chords", 0)

    def leadings(self) -> Iterator[VoiceLeading]:
        """Each chord transition's leading, built only as the caller asks for it."""
        for (_, ra, a), (_, rb, b) in itertools.pairwise(self.chords):
            yield voice_leading(a, b, a_root=ra, b_root=rb)


def braids_of_progression(p: Progression) -> list[BraidWord]:
    """One braid word per chord transition."""
    return [braid_of_leading(v) for v in p.leadings()]


def braid_of_progression(p: Progression) -> BraidWord:
    """Concatenation of the per-transition words; identity for one chord."""
    return concatenate(BraidWord(STRANDS), *braids_of_progression(p))


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_progression(text: str) -> Progression:
    """One chord per line: a chord symbol, or ``name: pc,pc,...``.

    Only a newline ends a line; a trailing carriage return is stripped like
    other surrounding whitespace.  Blank lines are ignored, and so is a
    ``#`` comment: a ``#`` at the start of a line or after whitespace, to the
    end of the line.  A ``#`` inside a token is a sharp, as in ``F#o7``.  A
    ParseError names its line, and its position is the character offset
    into ``text``.
    """
    chords: list[tuple[str, PitchClass, Chord]] = []
    offset = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line_start, offset = offset, offset + len(raw) + 1
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        name, colon, body = line.partition(":")
        try:
            if colon:
                values = parse_pcs(body)
                chords.append((name.strip(), values[0], Chord(values)))
            else:
                root, chord = parse_chord_symbol(line)
                chords.append((line, root, chord))
        except ParseError as exc:
            column = len(raw) - len(raw.lstrip()) + (len(name) + 1 if colon else 0)
            raise ParseError(
                f"{exc.message} on line {lineno}", line_start + column + exc.position
            ) from None
    return Progression(tuple(chords))
