"""Approximating arbitrary scales by admissible modes over a fixed base chord.

A set of pitch classes is also a 12-bit mask, bit n for pitch class n, so the
ranking counts and differences of two sets are integer operations.
"""

from __future__ import annotations

import operator

from .errors import InvalidArgument
from .graph import AdmissiblePath, build_graph, path_notes
from .pitch import ChordQuality, PitchClass, _int, _ints, _pc, _Table, _Value, pc


def hs_ws_scale(root: PitchClass) -> frozenset[PitchClass]:
    """The half-step/whole-step octatonic scale on a root, an integer."""
    root = _pc(root, "root")
    return frozenset(pc(root + k) for k in (0, 1, 3, 4, 6, 7, 9, 10))


def _mask(notes) -> int:
    """The mask of the pitch classes of int notes: bit n % 12 for each note n."""
    mask = 0
    for n in notes:
        mask |= 1 << n % 12
    return mask


# The pitch-class set of each mask, at most 4,096.  Keyed only by masks built from
# checked ints, never by the caller's values, so 7.0 cannot find the entry of 7.
_PC_SETS = _Table(lambda mask: frozenset(n for n in range(12) if mask >> n & 1))


def _candidates(
    key: tuple[ChordQuality, PitchClass],
) -> tuple[tuple[AdmissiblePath, frozenset, int], ...]:
    q, root = key
    paths = sorted(build_graph(q).paths, key=lambda path: path.name)
    masks = [_mask(path_notes(path, root)) for path in paths]
    return tuple((path, _PC_SETS[mask], mask) for path, mask in zip(paths, masks))


# Each admissible path on (quality, root pitch class) with its notes and their
# mask, in name order, so that a candidate's index breaks ranking ties by name.
_CANDIDATES = _Table(_candidates)


class ScaleApproximation(_Value, kinds=(
        frozenset, AdmissiblePath, _pc, frozenset, _int, frozenset, frozenset)):
    """One candidate's ranking against a target: its path on a root pitch class, its
    notes, the count of notes it shares with the target, and the notes it drops and
    adds, the target and each set of notes a frozenset of pitch classes."""

    __slots__ = ("target", "candidate", "root", "notes", "shared", "dropped", "added")


_last = operator.itemgetter(-1)


def approximate(
    target: frozenset[PitchClass] | set[PitchClass],
    q: ChordQuality,
    root: PitchClass,
) -> list[ScaleApproximation]:
    """Rank every admissible mode on (q, root) by shared-note count.

    Shared count descending, then fewer added tensions, then name.  Every
    target note and the root must be integers; any other is an IndexOutOfRange.
    A quality that is no ChordQuality, or a target that is no collection, is
    an InvalidArgument.  The checked target becomes a 12-bit mask, and each
    candidate's counts are bit counts of its mask against it; the target and
    the dropped and added notes are read from one table of the 4,096
    pitch-class sets.
    """
    if not isinstance(q, ChordQuality):
        raise InvalidArgument(f"approximate takes a ChordQuality, not {type(q).__name__}")
    root = _pc(root, "root")
    tm = _mask(_ints(target, "note"))
    target = _PC_SETS[tm]
    ranked = []
    # one loop, with no comprehension, and one Python call per candidate: its record is
    # built by _make, since every field is derived here and the check would refuse none
    for index, (path, notes, m) in enumerate(_CANDIDATES[q, root]):
        shared = (tm & m).bit_count()
        added = m & ~tm
        a = ScaleApproximation._make(
            target, path, root, notes, shared, _PC_SETS[tm & ~m], _PC_SETS[added])
        ranked.append((-shared, added.bit_count(), index, a))
    ranked.sort()  # the index differs in every rank, so no record is compared
    return list(map(_last, ranked))
