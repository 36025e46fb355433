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
adjacent crossings.  ``_WALKS`` keeps one entry per move (p, q), at most
12 x 11: the walk's letters, its tokens and its ASCII rows on 12 strands,
checked once, as one ``BraidWord``, when the entry is derived.  One core,
``_moves``, turns two sorted sides into a transition's kept moves in walk
order, padding the smaller side with its root; ``braid_of_leading`` sorts
its leading's sides into it once it has refused a crossing pairing.

One line parser, ``_entries``, yields a text's (label, root, Chord) entries
one line at a time; ``parse_progression`` keeps them in a ``Progression``.
One derivation, ``_transition_moves``, pairs any iterable of entries through
the core, one list of moves per transition.  A ``Progression`` keeps its
transitions' letters, joined from the walks, once either progression word
asks for them, and both words build and check their words from them.  The
``braid`` verb pairs the parser's entries through the same derivation and
writes each move's kept tokens and rows, so it builds no letters and no word
per transition, checks each move once, and keeps neither entries nor moves.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator

from .braid import BraidWord, Letter, render_ascii, serialize_word
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
    (lowest pitch class when no root is declared; an empty chord with no
    root is a SizeMismatch).
    """
    source, target = _padded(a_root, a.notes, len(b.notes)), _padded(b_root, b.notes, len(a.notes))
    return VoiceLeading(source, target)


def _padded(root: PitchClass | None, notes, size: int) -> tuple[PitchClass, ...]:
    """Sorted ``notes``, as a Chord keeps them, their root (their lowest note when
    None) doubled up to ``size``; an empty chord with no root is a SizeMismatch."""
    if len(notes) >= size:
        return notes
    if root is None and not notes:
        raise SizeMismatch("an empty chord with no root has no note to double")
    pad = min(notes) if root is None else root
    return tuple(sorted(notes + (pad,) * (size - len(notes))))


def _moves(source, target, source_root=None, target_root=None) -> list[tuple[int, int]]:
    """The kept moves of sorted ``source`` onto sorted ``target``, in walk order.

    The one core from two sorted sides to a transition: the smaller side is
    padded with its root (its lowest note when None) to the other's size, and
    zipped in order the two sides are the voices' (source, target) pitch-class
    moves.  A physical strand can make only one move, so where a side repeats a
    pitch class each run of equal pitch classes keeps the move of least
    displacement (ties go to ascending motion); a padded side may repeat, and an
    unpadded one is tested.  The moving moves come back in walk order:
    descending voices in ascending order, then ascending voices in descending
    order.
    """
    size, other = len(source), len(target)
    if size < other:
        source = _padded(source_root, source, other)
    elif other < size:
        target = _padded(target_root, target, size)
    moves = zip(source, target)
    if size < other or len(set(source)) < size:
        moves = _best_of_runs(moves, 0)
    if other < size or len(set(target)) < other:
        moves = _best_of_runs(moves, 1)
    down, up = [], []
    for move in moves:
        if move[1] < move[0]:
            down.append(move)
        elif move[1] > move[0]:
            up.append(move)
    up.reverse()
    return down + up


def _best_of_runs(moves: Iterable[tuple[int, int]], side: int) -> list[tuple[int, int]]:
    """The first move of least (|d|, d < 0) from each run sharing a pitch class on ``side``."""
    kept = []
    moves = iter(moves)
    best = next(moves)
    for move in moves:
        if move[side] != best[side]:
            kept.append(best)
            best = move
        else:
            d, e = move[1] - move[0], best[1] - best[0]
            if abs(d) < abs(e) or d == -e > 0:  # shorter, or as long and ascending
                best = move
    kept.append(best)
    return kept


def _walk(move: tuple[int, int]) -> tuple[tuple[Letter, ...], str, str]:
    """A voice's walk from pitch class s to t, from slot s + 1 to slot t + 1: its
    letters, its tokens and its three rows per letter on 12 strands, checked once."""
    s, t = map(int, move)  # a pitch class such as 6.0 equals an integer and walks as it
    if t < s:
        letters = tuple((i, -1) for i in range(s, t, -1))
    else:
        letters = tuple((i, 1) for i in range(s + 1, t + 1))
    word = BraidWord(STRANDS, letters)
    return letters, serialize_word(word), render_ascii(word).partition("\n")[2]


# Each voice's walk per (source, target) pitch class: (letters, tokens, rows).
_WALKS = _Table(_walk)


def _letters(moves) -> tuple[Letter, ...]:
    """The letters of ``moves``' walks, one walk after another."""
    letters = []
    for move in moves:
        letters += _WALKS[move][0]
    return tuple(letters)


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
    return BraidWord(STRANDS, _letters(_moves(source, target)))


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


def _transition_moves(entries) -> Iterator[tuple[str, str, list[tuple[int, int]]]]:
    """Each transition of the (label, root, Chord) ``entries``: (its source label,
    its target label, its moves in walk order), derived as the caller asks for it
    and kept nowhere."""
    for (la, ra, a), (lb, rb, b) in itertools.pairwise(entries):
        yield la, lb, _moves(a.notes, b.notes, ra, rb)


def _transitions(p: Progression) -> tuple[tuple[Letter, ...], ...]:
    """Each transition's letters, derived on the first call and kept by ``p``."""
    kept = p._transitions
    if kept is None:
        kept = tuple(_letters(moves) for _, _, moves in _transition_moves(p.chords))
        object.__setattr__(p, "_transitions", kept)
    return kept


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

_BLOCK = 1 << 16  # about as many characters as _lines splits at once


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``text.split("\\n")`` gives them, split one block of
    about 64 K characters at a time, so no list of all the lines exists."""
    start = 0
    while (end := text.find("\n", start + _BLOCK)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


def _entries(text: str) -> Iterator[tuple[str, PitchClass, Chord]]:
    """Each chord line's (label, root, Chord), parsed as the caller asks for it.

    One chord per line: a chord symbol, or ``name: pc,pc,...``.  Only a
    newline ends a line; a trailing carriage return is stripped like other
    surrounding whitespace.  Blank lines are ignored, and so is a ``#``
    comment: a ``#`` at the start of a line or after whitespace, to the end
    of the line.  A ``#`` inside a token is a sharp, as in ``F#o7``.  A
    ParseError names its line, and its position is the character offset
    into ``text``; text with no chord line is a ParseError once it is read.
    """
    entry = None
    for lineno, raw in enumerate(_lines(text), start=1):
        line = (_COMMENT.split(raw, 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        name, colon, body = line.partition(":")
        try:
            if colon:
                values = parse_pcs(body)
                entry = name.strip(), values[0], Chord(values)
            else:
                root, chord = _SYMBOLS[line]
                entry = line, root, chord
        except ParseError as exc:
            line_start = 0
            for _ in range(lineno - 1):  # found only on error, so no good line pays for it
                line_start = text.index("\n", line_start) + 1
            column = len(raw) - len(raw.lstrip()) + (len(name) + 1 if colon else 0)
            raise ParseError(
                f"{exc.message} on line {lineno}", line_start + column + exc.position
            ) from None
        yield entry
    if entry is None:
        raise ParseError("the progression has no chords", 0)


def parse_progression(text: str) -> Progression:
    """The progression of ``text``, one chord per line, as ``_entries`` reads them."""
    return Progression(tuple(_entries(text)))
