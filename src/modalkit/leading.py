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
adjacent crossings.  One core, ``_letters``, turns two sorted sides of one
size into a transition's letters, and ``braid_of_leading`` sorts its
leading's sides into it once it has refused a crossing pairing.  One
generator, ``_transition_letters``, pairs a progression's sorted notes into
it, the smaller chord padded with its root, one letter tuple per
transition.  A ``Progression`` keeps that derivation once either
progression word asks for it, and both words read it; the ``braid`` verb
streams the generator and keeps nothing.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator

from .braid import BraidWord, Letter
from .errors import (
    CrossingLeading,
    IndexOutOfRange,
    InvalidProgression,
    ParseError,
    SizeMismatch,
)
from .pitch import Chord, PitchClass, _Table, _Value, parse_chord_symbol, parse_pcs, pc

STRANDS = 12
_PITCH_CLASSES = frozenset(range(12))
_ROOTS = _PITCH_CLASSES | {None}  # a progression root; None pads with the lowest note


def arc_distance(a: int, b: int) -> int:
    """Shorter arc between two pitch classes on the 12-cycle."""
    return min(pc(a - b), pc(b - a))


class VoiceLeading(_Value):
    """A voice assignment between two note lists, paired in order.

    Both lists hold the same number of voices, and every note is a pitch
    class in 0..11, so each voice has a strand slot on 12 strands.  The
    pairing may cross: ``voice_leading`` builds only crossing-free leadings,
    but this constructor also takes one such as ``VoiceLeading((0, 4), (5, 2))``,
    which ``braid_of_leading`` refuses (see ``is_crossing_free``).
    """

    __slots__ = ("source", "target")

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise SizeMismatch(f"{len(self.source)} voices vs {len(self.target)}")
        notes = (*self.source, *self.target)
        if not _PITCH_CLASSES.issuperset(notes):
            note = next(note for note in notes if note not in _PITCH_CLASSES)
            raise IndexOutOfRange(f"pitch class {note!r} is not in 0..11")

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
    return VoiceLeading(_padded(a_root, a, len(b.notes)), _padded(b_root, b, len(a.notes)))


def _padded(root: PitchClass | None, chord: Chord, size: int) -> tuple[PitchClass, ...]:
    """The chord's sorted notes, its root (its lowest note when None) doubled up to ``size``."""
    notes = chord.notes  # a Chord keeps its notes sorted
    if len(notes) >= size:
        return notes
    pad = min(notes) if root is None else root
    return tuple(sorted(notes + (pad,) * (size - len(notes))))


def _reduced_moves(source, target) -> list[tuple[int, int]]:
    """Distinct (source slot, target slot) moves realizable by strands, in order.

    Both sides are sorted and of one size, so zipping them gives the moves
    already sorted.  Padding can duplicate a pitch class on either side; a
    physical strand can only make one move, so duplicate sources and
    duplicate targets each keep the single move with the smallest
    displacement (ties go to ascending motion).  Equal slots sit next to
    each other, so one pass per side keeps each run's best move, and the
    result is strictly increasing in both slots.  A side whose notes repeat
    no pitch class needs no pass.
    """
    moves = [(s + 1, t + 1) for s, t in zip(source, target)]
    if len(set(source)) < len(source):
        moves = _best_of_runs(moves, 0)
    if len(set(target)) < len(target):
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


def _walk(move: tuple[int, int]) -> tuple[Letter, ...]:
    a, b = map(int, move)  # a slot such as 6.0 equals an integer and walks as it
    if b < a:
        return tuple((i, -1) for i in range(a - 1, b - 1, -1))
    return tuple((i, 1) for i in range(a, b))


# The letters that walk one voice from slot a to slot b, per move (a, b).
_WALKS = _Table(_walk)


def _letters(letters: list[Letter], source, target) -> list[Letter]:
    """Append the letters that walk sorted ``source`` onto sorted ``target``, unchecked.

    The one core from two sorted sides of one size to a transition's word:
    descending voices walk first, in ascending slot order, then ascending
    voices in descending slot order.
    """
    moves = _reduced_moves(source, target)
    for move in moves:
        if move[1] < move[0]:
            letters += _WALKS[move]
    for move in reversed(moves):
        if move[1] > move[0]:
            letters += _WALKS[move]
    return letters


def braid_of_leading(v: VoiceLeading) -> BraidWord:
    """Emit the braid word realizing a crossing-free voice leading on 12 strands.

    Each moving voice walks from slot a to slot b through adjacent
    crossings: ascending voices emit s_a .. s_{b-1}, descending voices
    s_{a-1}^-1 .. s_b^-1.  Descending voices are emitted first in
    ascending slot order, then ascending voices in descending slot order,
    so every chord strand lands exactly on its target slot.  That order
    picks one word, not the braid: emitting the ascending voices first
    gives the same braid, which the test suite proves.

    A crossing leading, such as ``VoiceLeading((0, 4), (5, 2))``, is a
    CrossingLeading.  A crossing-free one may list its voices in any order.
    """
    source, target = sorted(v.source), sorted(v.target)
    # both sides sorted as given is crossing-free; otherwise test each pair
    if (source != list(v.source) or target != list(v.target)) and not v.is_crossing_free():
        raise CrossingLeading(f"the pairing {v.pairs()} crosses")
    return BraidWord(STRANDS, tuple(_letters([], source, target)))


class Progression(_Value):
    """A sequence of one or more labelled chords: (label, root, Chord) each.

    Each entry is a tuple of a str label, a root and a Chord; anything else
    is an InvalidProgression.  A root is None or a pitch class in 0..11, and
    None pads with the lowest note.  The chords are kept as a tuple, so a
    list given here shows as a tuple in the repr.

    The first progression word asked for derives the letters of every
    transition, one letter tuple each, and the progression keeps them for
    its life, so the other word reads them instead of deriving them again.
    """

    __slots__ = ("chords", "_transitions")

    def __post_init__(self):
        chords = tuple(self.chords)
        object.__setattr__(self, "chords", chords)
        object.__setattr__(self, "_transitions", None)
        if not chords:
            raise ParseError("the progression has no chords", 0)
        for entry in chords:
            if not (isinstance(entry, tuple) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[2], Chord)):
                raise InvalidProgression(f"entry {entry!r} is not a (label, root, Chord) triple")
        roots = [root for _, root, _ in chords]
        if not _all_roots(roots):
            root = next(root for root in roots if not _all_roots((root,)))
            raise IndexOutOfRange(f"pitch class {root!r} is not in 0..11")

    def leadings(self) -> Iterator[VoiceLeading]:
        """Each chord transition's leading, built only as the caller asks for it."""
        for (_, ra, a), (_, rb, b) in itertools.pairwise(self.chords):
            yield voice_leading(a, b, a_root=ra, b_root=rb)


def _all_roots(roots) -> bool:
    """Whether every root is None or a pitch class; an unhashable one, such as [1], is not."""
    try:
        return _ROOTS.issuperset(roots)
    except TypeError:
        return False


def _transition_letters(p: Progression) -> Iterator[tuple[Letter, ...]]:
    """Each transition's letters, derived as the caller asks for them and kept nowhere.

    The two sides are the chords' sorted notes, the smaller chord padded with its root.
    """
    for (_, ra, a), (_, rb, b) in itertools.pairwise(p.chords):
        source, target = _padded(ra, a, len(b.notes)), _padded(rb, b, len(a.notes))
        yield tuple(_letters([], source, target))


def _transitions(p: Progression) -> tuple[tuple[Letter, ...], ...]:
    """Each transition's letters, derived on the first call and kept by ``p``."""
    kept = p._transitions
    if kept is None:
        kept = tuple(_transition_letters(p))
        object.__setattr__(p, "_transitions", kept)
    return kept


def _words(p: Progression) -> Iterator[BraidWord]:
    """Each transition's word, built only as the caller asks for it; the braid verb's stream."""
    for letters in _transition_letters(p):
        yield BraidWord(STRANDS, letters)


def braids_of_progression(p: Progression) -> list[BraidWord]:
    """One braid word per chord transition."""
    return [BraidWord(STRANDS, letters) for letters in _transitions(p)]


def braid_of_progression(p: Progression) -> BraidWord:
    """Concatenation of the per-transition words, checked once; identity for one chord."""
    return BraidWord(STRANDS, tuple(itertools.chain.from_iterable(_transitions(p))))


_COMMENT = re.compile(r"(?:^|\s)#")

# Each valid chord symbol, shared by every line that spells it; a bad symbol
# raises, so it stays out.  The lambda looks parse_chord_symbol up on each miss,
# so a wrapper installed on this module, as bench/spans.py does, sees every miss.
_SYMBOLS = _Table(lambda line: parse_chord_symbol(line))


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
                chords.append((line, *_SYMBOLS[line]))
        except ParseError as exc:
            column = len(raw) - len(raw.lstrip()) + (len(name) + 1 if colon else 0)
            raise ParseError(
                f"{exc.message} on line {lineno}", line_start + column + exc.position
            ) from None
    return Progression(tuple(chords))
