"""Approximating arbitrary scales by admissible modes over a fixed base chord."""

from __future__ import annotations

import functools

from .graph import AdmissiblePath, build_graph, path_notes
from .pitch import ChordQuality, PitchClass, _root_pc, _Value, pc


def hs_ws_scale(root: PitchClass) -> frozenset[PitchClass]:
    """The half-step/whole-step octatonic scale on a root."""
    return frozenset(pc(root + k) for k in (0, 1, 3, 4, 6, 7, 9, 10))


@functools.cache
def _candidates(q: ChordQuality, root: PitchClass) -> tuple[tuple[AdmissiblePath, frozenset], ...]:
    """Each admissible path on (q, root pitch class) with its notes: at most 7 x 12 entries."""
    return tuple((path, frozenset(path_notes(path, root))) for path in build_graph(q).paths)


class ScaleApproximation(_Value):
    __slots__ = ("target", "candidate", "root", "notes", "shared", "dropped", "added")


def approximate(
    target: frozenset[PitchClass] | set[PitchClass],
    q: ChordQuality,
    root: PitchClass,
) -> list[ScaleApproximation]:
    """Rank every admissible mode on (q, root) by shared-note count.

    Shared count descending, then fewer added tensions, then name.
    """
    root = _root_pc(root)
    target = frozenset(pc(n) for n in target)
    ranked = []
    for path, notes in _candidates(q, root):
        shared = len(target & notes)
        ranked.append(
            ScaleApproximation(
                target=target,
                candidate=path,
                root=root,
                notes=notes,
                shared=shared,
                dropped=target - notes,
                added=notes - target,
            )
        )
    ranked.sort(key=lambda a: (-a.shared, len(a.added), a.candidate.name))
    return ranked
