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

from .braid import BraidWord, Letter
from .errors import IndexOutOfRange, ParseError, SizeMismatch
from .pitch import Chord, PitchClass, _Value, parse_chord_symbol, parse_pcs, pc

STRANDS = 12
_PITCH_CLASSES = frozenset(range(12))


def arc_distance(a: int, b: int) -> int:
    """Shorter arc between two pitch classes on the 12-cycle."""
    return min(pc(a - b), pc(b - a))


class VoiceLeading(_Value):
    """Order-preserving voice assignment between two sorted note lists.

    Both lists hold the same number of voices, and every note is a pitch
    class in 0..11, so each voice has a strand slot on 12 strands.  The
    pairing is not checked to be crossing-free: ``voice_leading`` builds
    only crossing-free leadings, but this constructor also takes a crossing
    one such as ``VoiceLeading((0, 4), (5, 2))``, whose braid word from
    ``braid_of_leading`` does not land its voices (see ``is_crossing_free``).
    """

    __slots__ = ("source", "target")

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise SizeMismatch(f"{len(self.source)} voices vs {len(self.target)}")
        notes = (*self.source, *self.target)
        if not _PITCH_CLASSES.issuperset(notes):  # then name the first note out of range
            for note in notes:
                if not 0 <= note <= 11:
                    raise IndexOutOfRange(f"pitch class {note} is not in 0..11")

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
    source, target = a.notes, b.notes  # a Chord keeps its notes sorted
    if len(source) < len(target):
        source = _padded(source, len(target), a_root)
    elif len(target) < len(source):
        target = _padded(target, len(source), b_root)
    return VoiceLeading(source, target)


def _padded(notes: tuple[PitchClass, ...], size: int, root: PitchClass | None):
    """Sorted notes with the root (the lowest note when None) doubled up to ``size``."""
    pad = min(notes) if root is None else root
    return tuple(sorted(notes + (pad,) * (size - len(notes))))


def _reduced_moves(v: VoiceLeading) -> list[tuple[int, int]]:
    """Distinct (source slot, target slot) moves realizable by strands, sorted.

    Padding can duplicate a pitch class on either side; a physical strand
    can only make one move, so duplicate sources and duplicate targets
    each keep the single move with the smallest displacement (ties go to
    ascending motion).  On a crossing-free leading, such as every one that
    ``voice_leading`` builds, equal slots sit next to each other once the
    moves are sorted, so one pass per side keeps each run's best move, and
    the result is strictly increasing in both slots.  A side whose notes
    repeat no pitch class needs no pass.
    """
    moves = sorted([(s + 1, t + 1) for s, t in zip(v.source, v.target)])
    if len(set(v.source)) < len(v.source):
        moves = _best_of_runs(moves, 0)
    if len(set(v.target)) < len(v.target):
        moves = _best_of_runs(moves, 1)
    return moves


def _best_of_runs(moves: list[tuple[int, int]], side: int) -> list[tuple[int, int]]:
    """The first move of least (|d|, d < 0) from each run sharing a slot on ``side``."""
    kept = [moves[0]]
    for move in moves[1:]:
        last = kept[-1]
        if move[side] != last[side]:
            kept.append(move)
        else:
            d, e = move[1] - move[0], last[1] - last[0]
            if (abs(d), d < 0) < (abs(e), e < 0):
                kept[-1] = move
    return kept


# The letters that walk one voice from slot a to slot b, per move (a, b):
# at most 12 x 12 entries, each filled when a move first needs it.
_WALKS: dict[tuple[int, int], tuple[Letter, ...]] = {}


def _walk(move: tuple[int, int]) -> tuple[Letter, ...]:
    a, b = move
    if b < a:
        walk = tuple((i, -1) for i in range(a - 1, b - 1, -1))
    else:
        walk = tuple((i, 1) for i in range(a, b))
    _WALKS[move] = walk
    return walk


def braid_of_leading(v: VoiceLeading) -> BraidWord:
    """Emit the braid word realizing a voice leading on 12 strands.

    Each moving voice walks from slot a to slot b through adjacent
    crossings: ascending voices emit s_a .. s_{b-1}, descending voices
    s_{a-1}^-1 .. s_b^-1.  Descending voices are emitted first in
    ascending slot order, then ascending voices in descending slot order,
    so every chord strand lands exactly on its target slot.  That order
    picks one word, not the braid: emitting the ascending voices first
    gives the same braid, which the test suite proves.

    The word realizes only a crossing-free leading.  A crossing one is not
    rejected, and its word may send a voice elsewhere: for
    ``VoiceLeading((0, 4), (5, 2))`` the word ``s4^-1 s3^-1 s1 s2 s3 s4 s5``
    sends slot 5 to slot 2, not 3.
    """
    return BraidWord(STRANDS, tuple(_add_letters([], v)))


def _add_letters(letters: list[Letter], v: VoiceLeading) -> list[Letter]:
    """Append the letters of ``braid_of_leading(v)`` to ``letters``, unchecked."""
    moves = _reduced_moves(v)
    for move in moves:
        if move[1] < move[0]:
            letters += _WALKS.get(move) or _walk(move)
    for move in reversed(moves):
        if move[1] > move[0]:
            letters += _WALKS.get(move) or _walk(move)
    return letters


class Progression(_Value):
    """A sequence of one or more labelled chords."""

    __slots__ = ("chords",)

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
    """Concatenation of the per-transition words, checked once; identity for one chord."""
    letters: list[Letter] = []
    for v in p.leadings():
        _add_letters(letters, v)
    return BraidWord(STRANDS, tuple(letters))


_COMMENT = re.compile(r"(?:^|\s)#")

# Each valid chord symbol parsed so far, shared by every line that spells it:
# at most the 21 note spellings times the symbol grammar's quality tokens.
_SYMBOLS: dict[str, tuple[PitchClass, Chord]] = {}


def _parse_symbol(line: str) -> tuple[PitchClass, Chord]:
    parsed = _SYMBOLS[line] = parse_chord_symbol(line)  # raises on a bad symbol, so it stays out
    return parsed


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
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        name, colon, body = line.partition(":")
        try:
            if colon:
                values = parse_pcs(body)
                chords.append((name.strip(), values[0], Chord(values)))
            else:
                parsed = _SYMBOLS.get(line) or _parse_symbol(line)
                chords.append((line, *parsed))
        except ParseError as exc:
            column = len(raw) - len(raw.lstrip()) + (len(name) + 1 if colon else 0)
            raise ParseError(
                f"{exc.message} on line {lineno}", line_start + column + exc.position
            ) from None
    return Progression(tuple(chords))
