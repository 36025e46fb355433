"""Approximating arbitrary scales by admissible modes over a fixed base chord."""

from __future__ import annotations

from .graph import AdmissiblePath, build_graph, path_notes
from .pitch import ChordQuality, PitchClass, _pitch_classes, _root_pc, _Table, _Value, pc


def hs_ws_scale(root: PitchClass) -> frozenset[PitchClass]:
    """The half-step/whole-step octatonic scale on a root, an integer."""
    root = _root_pc(root)
    return frozenset(pc(root + k) for k in (0, 1, 3, 4, 6, 7, 9, 10))


def _candidates(
    key: tuple[ChordQuality, PitchClass],
) -> tuple[tuple[AdmissiblePath, frozenset], ...]:
    q, root = key
    paths = sorted(build_graph(q).paths, key=lambda path: path.name)
    return tuple((path, frozenset(path_notes(path, root))) for path in paths)


# Each admissible path on (quality, root pitch class) with its notes, in name
# order, so that a stable sort on the other ranking keys breaks ties by name.
_CANDIDATES = _Table(_candidates)


class ScaleApproximation(_Value):
    __slots__ = ("target", "candidate", "root", "notes", "shared", "dropped", "added")


def _rank(a: ScaleApproximation) -> tuple[int, int]:
    return -a.shared, len(a.added)


def approximate(
    target: frozenset[PitchClass] | set[PitchClass],
    q: ChordQuality,
    root: PitchClass,
) -> list[ScaleApproximation]:
    """Rank every admissible mode on (q, root) by shared-note count.

    Shared count descending, then fewer added tensions, then name.  Every
    target note and the root must be integers; any other is an IndexOutOfRange.
    """
    root = _root_pc(root)
    target = frozenset(_pitch_classes(target))
    ranked = [
        ScaleApproximation(target, path, root, notes, len(target & notes), target - notes,
                           notes - target)
        for path, notes in _CANDIDATES[q, root]
    ]
    ranked.sort(key=_rank)
    return ranked
