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

Braids live on 12 strands, one per pitch class: a voice moving from pitch
class p to q walks from strand slot p+1 to slot q+1 through adjacent
crossings.  Every path from chords to a word runs through one core,
``_moves``, and one table of walks, ``_WALKS``, so every word this module
returns is built from checked walks by ``BraidWord._make``, with no second
check.  The progression words and the ``braid`` verb's text,
``_braid_blocks``, read their transitions through one derivation,
``_transition_moves``, and a file's chords through one line parser,
``_entries``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .braid import BraidWord, Letter, render_ascii, serialize_word
from .errors import (
    CrossingLeading,
    InvalidArgument,
    InvalidProgression,
    ParseError,
    SizeMismatch,
)
from .pitch import (
    Chord, PitchClass, _chord, _pc, _Table, _Value, parse_chord_symbol, parse_pcs, pc,
)

STRANDS = 12


def arc_distance(a: int, b: int) -> int:
    """Shorter arc between two pitch classes on the 12-cycle."""
    a, b = _pc(a, "pitch class"), _pc(b, "pitch class")
    return min(pc(a - b), pc(b - a))


class VoiceLeading(_Value):
    """A voice assignment between two note lists of pitch classes, paired in order.

    Both lists hold the same number of voices, or it is a SizeMismatch, so
    each voice has a strand slot on 12 strands.  The pairing may cross:
    ``voice_leading`` builds only crossing-free leadings, but this
    constructor also takes one such as ``VoiceLeading((0, 4), (5, 2))``,
    which ``braid_of_leading`` refuses (see ``is_crossing_free``).
    """

    __slots__ = {"source": (_pc,), "target": (_pc,)}

    def _finish(self):
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
    (lowest pitch class when no root is declared; an empty chord with no
    root is a SizeMismatch).  Each root is None or a pitch class, read
    whether or not its chord is padded.  A chord that is no Chord is an
    InvalidArgument.
    """
    if not (isinstance(a, Chord) and isinstance(b, Chord)):
        raise InvalidArgument(f"voice_leading takes two Chords, not {type(a).__name__}"
                              f" and {type(b).__name__}")
    if a_root is not None:
        a_root = _pc(a_root, "root")
    if b_root is not None:
        b_root = _pc(b_root, "root")
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


def _moves(
    source, target, source_root=None, target_root=None, source_repeats=True, target_repeats=True
) -> list[tuple[int, int]]:
    """The kept moves of sorted ``source`` onto sorted ``target``, in walk order.

    The one core from two sorted sides to a transition: the smaller side is
    padded with its root (its lowest note when None) to the other's size, and
    zipped in order the two sides are the voices' (source, target) pitch-class
    moves.  A physical strand can make only one move, so where a side repeats a
    pitch class each run of equal pitch classes keeps the move of least
    displacement (ties go to ascending motion).  A padded side may repeat; an
    unpadded one repeats as its flag says, as a ``Chord``'s ``_repeats`` does,
    and with no flag given it is read as one that may.  The moving moves come
    back in walk order: descending voices in ascending order, then ascending
    voices in descending order.
    """
    size, other = len(source), len(target)
    if size < other:
        source = _padded(source_root, source, other)
    elif other < size:
        target = _padded(target_root, target, size)
    moves = zip(source, target)
    if size < other or source_repeats:
        moves = _best_of_runs(moves, 0)
    if other < size or target_repeats:
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
    best = next(moves, None)
    if best is None:  # two empty sides
        return kept
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
    s, t = move
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
    A leading that is no VoiceLeading is an InvalidArgument.
    """
    if not isinstance(v, VoiceLeading):
        raise InvalidArgument(f"braid_of_leading takes a VoiceLeading, not {type(v).__name__}")
    source, target = sorted(v.source), sorted(v.target)
    # both sides sorted as given is crossing-free; otherwise test each pair
    if (source != list(v.source) or target != list(v.target)) and not v.is_crossing_free():
        raise CrossingLeading(f"the pairing {v.pairs()} crosses")
    return BraidWord._make(STRANDS, _letters(_moves(source, target)))


class Progression(_Value):
    """A sequence of one or more labelled chords: (label, root, Chord) each.

    Each entry is a tuple of a str label, a root and a Chord; anything else
    is an InvalidProgression, and chords that are no collection, such as 5,
    are an InvalidArgument.  A root is None, which pads with the lowest
    note, or a pitch class.  The chords are stored as a tuple, so a list
    given here shows as a tuple in the repr.

    The first progression word asked for derives the letters of every
    transition, one letter tuple each, and the progression keeps them for
    its life, so the other word reads them instead of deriving them again.
    """

    __slots__ = {"chords": (object,), "_transitions": None}

    def _finish(self):
        object.__setattr__(self, "_transitions", None)
        if not self.chords:
            raise ParseError("the progression has no chords", 0)
        for entry in self.chords:
            if not (isinstance(entry, tuple) and len(entry) == 3
                    and isinstance(entry[0], str) and isinstance(entry[2], Chord)):
                raise InvalidProgression(f"entry {entry!r} is not a (label, root, Chord) triple")
        object.__setattr__(self, "chords", tuple([_stored(entry) for entry in self.chords]))

    def leadings(self) -> Iterator[VoiceLeading]:
        """Each chord transition's leading, built only as the caller asks for it."""
        for (_, ra, a), (_, rb, b) in itertools.pairwise(self.chords):
            yield voice_leading(a, b, a_root=ra, b_root=rb)


def _stored(entry: tuple) -> tuple[str, PitchClass | None, Chord]:
    """A (label, root, Chord) ``entry`` as a progression stores it: a tuple whose
    root is None or an int pitch class.  An entry stored so already is kept, so
    an entry that ``_entries`` gives for several lines stays one entry."""
    label, root, chord = entry
    if type(entry) is tuple and (root is None or type(root) is int and 0 <= root <= 11):
        return entry
    return label, root if root is None else _pc(root, "root"), chord


def _transition_moves(entries) -> Iterator[tuple[str, str, list[tuple[int, int]]]]:
    """Each transition of the (label, root, Chord) ``entries``: (its source label,
    its target label, its moves in walk order), derived as the caller asks for it
    and kept nowhere.

    Each chord's sorted notes and repeat flag go straight into the core, with no
    ``VoiceLeading`` and no second range check: a ``Chord`` holds only pitch
    classes in 0..11 and a ``Progression`` only such roots or None.
    """
    for (la, ra, a), (lb, rb, b) in itertools.pairwise(entries):
        yield la, lb, _moves(a.notes, b.notes, ra, rb, a._repeats, b._repeats)


def _transitions(p: Progression) -> tuple[tuple[Letter, ...], ...]:
    """Each transition's letters, derived on the first call and kept by ``p``; a
    ``p`` that is no Progression is an InvalidArgument."""
    if not isinstance(p, Progression):
        raise InvalidArgument(f"a progression word takes a Progression, not {type(p).__name__}")
    kept = p._transitions
    if kept is None:
        kept = tuple(_letters(moves) for _, _, moves in _transition_moves(p.chords))
        object.__setattr__(p, "_transitions", kept)
    return kept


def braids_of_progression(p: Progression) -> list[BraidWord]:
    """One braid word per chord transition."""
    return [BraidWord._make(STRANDS, letters) for letters in _transitions(p)]


def braid_of_progression(p: Progression) -> BraidWord:
    """Concatenation of the per-transition words; identity for one chord."""
    return BraidWord._make(STRANDS, tuple(itertools.chain.from_iterable(_transitions(p))))


def _uncommented(raw: str) -> str:
    """``raw`` up to its comment, a ``#`` that starts it or follows whitespace."""
    at = raw.find("#")
    while at > 0 and not raw[at - 1].isspace():  # a sharp, as in F#o7
        at = raw.find("#", at + 1)
    return raw if at < 0 else raw[:at]


# Each valid chord symbol's whole entry, (label, root, Chord) with the symbol as
# its label, keyed by that symbol and shared by every line that spells it; a bad
# symbol raises, so it stays out.  The lambda looks parse_chord_symbol up on each
# miss, so a wrapper installed on this module, as bench/spans.py does, sees every miss.
_SYMBOLS = _Table(lambda line: (line, *parse_chord_symbol(line)))

_BLOCK = 1 << 16  # about as many characters as _lines splits at once; see _braid_blocks


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
    symbol = _SYMBOLS.get
    for lineno, raw in enumerate(_lines(text), start=1):
        line = (_uncommented(raw) if "#" in raw else raw).strip()
        if not line:
            continue
        entry = symbol(line)  # a symbol line seen before: its entry by one lookup
        if entry is None:
            name, colon, body = line.partition(":")
            try:
                if colon:
                    values = parse_pcs(body)  # int pitch classes in 0..11, so checked
                    entry = name.strip(), values[0], _chord(values)
                else:
                    entry = _SYMBOLS[line]
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


def _braid_blocks(text: str, ascii: bool) -> Iterator[str]:
    """The braid verb's text: ``strands=12``, then per transition its ``a -> b: tokens``
    line and, with ``ascii``, its word as ``render_ascii`` draws it, in blocks of whole
    lines, each but the last of at least ``_BLOCK`` characters, one write per pipe
    buffer.  The header waits in the first block; a ParseError drops the unfinished one."""
    walks, block = _WALKS, _BLOCK
    # each move's tokens and rows by one lookup, from its walk, checked once
    tokens = _Table(lambda move: walks[move][1]).__getitem__
    rows = _Table(lambda move: walks[move][2]).__getitem__
    base = render_ascii(BraidWord._make(STRANDS, ()))  # the row of plain strands
    parts = [f"strands={STRANDS}\n"]
    size = len(parts[0])
    for a, b, moves in _transition_moves(_entries(text)):
        piece = f"{a} -> {b}: {' '.join(map(tokens, moves))}\n"
        if ascii:
            piece = "".join([piece, base, *map(rows, moves)])
        parts.append(piece)
        size += len(piece)
        if size >= block:
            yield "".join(parts)
            parts, size = [], 0
    yield "".join(parts)


def parse_progression(text: str) -> Progression:
    """The progression of ``text``, one chord per line, as ``_entries`` reads them;
    text that is no str, such as 5 or bytes, is an InvalidArgument.

    Every entry ``_entries`` yields is a (str, int pitch class, Chord) triple, so
    the progression is built from them by ``Progression._make``, with no letters
    derived yet and no check.
    """
    if not isinstance(text, str):
        raise InvalidArgument(f"progression text is a str, not {type(text).__name__}")
    return Progression._make(tuple(_entries(text)), None)
