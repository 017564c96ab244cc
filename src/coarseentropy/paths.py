"""Delta-paths (pseudoorbits of the identity) and their basic calculus.

A delta-path of length n is a tuple ``(x_0, ..., x_n)`` whose consecutive
points are at distance at most delta.  Since ``d(x, x) = 0``, a path may
stand still, which is what makes padding-by-repetition work downstream.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import BudgetExceededError, CapExceededError, InvalidInputError
from .numbers import Dist

if TYPE_CHECKING:  # circular at runtime: spaces.catalog builds DeltaPath objects
    from .spaces.base import MetricSpace, PointRef

__all__ = [
    "DeltaPath",
    "PathFamily",
    "point_table",
    "OrbitSet",
    "validate_path",
    "validate_pseudoorbit",
    "concat",
    "reverse",
    "pad_path",
    "orbit_distance",
    "enumerate_orbits",
    "step_shells",
    "step_ball",
    "delta_component",
    "hop_search",
    "hop_metric",
]

# most breadth-first rounds hop_metric searches before it answers inf
_HOP_CAP = 10 ** 4


@dataclass(frozen=True, slots=True)
class DeltaPath:
    """An immutable delta-path: point tuple plus the step bound it honours."""

    points: Tuple[PointRef, ...]
    delta: Dist

    def __post_init__(self):
        if not self.points:
            raise InvalidInputError("a path needs at least one point")
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def length(self) -> int:
        """Number of steps (one less than the number of points)."""
        return len(self.points) - 1

    @property
    def start(self) -> PointRef:
        return self.points[0]

    @property
    def end(self) -> PointRef:
        return self.points[-1]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


class PathFamily(SequenceABC):
    """A read-only sequence of same-length delta-paths held as one array.

    ``ids`` is an ``(N, n+1)`` int32 matrix whose row i lists path i as
    indices into the point table ``support``; every path honours ``delta``.
    A :class:`DeltaPath` is built only when a member is indexed or iterated;
    slicing returns a family over the selected rows.
    """

    __slots__ = ("support", "ids", "delta")

    def __init__(self, support: Sequence[PointRef], ids: np.ndarray, delta: Dist):
        ids = np.asarray(ids, dtype=np.int32)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise InvalidInputError("a path family needs an (N, n+1) id matrix with n >= 0")
        ids.setflags(write=False)
        self.support = tuple(support)
        self.ids = ids
        self.delta = delta

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PathFamily(self.support, self.ids[i], self.delta)
        return DeltaPath(tuple(map(self.support.__getitem__, self.ids[i].tolist())), self.delta)

    def __iter__(self) -> Iterator[DeltaPath]:
        point = self.support.__getitem__
        for row in self.ids.tolist():
            yield DeltaPath(tuple(map(point, row)), self.delta)


def point_table(paths) -> Tuple[Tuple[PointRef, ...], np.ndarray]:
    """``(support, ids)`` of a family of same-length paths.

    A :class:`PathFamily` is returned as it stands.  Any other iterable of
    DeltaPaths or point sequences is indexed once, points numbered in order
    of first appearance.
    """
    if isinstance(paths, PathFamily):
        return paths.support, paths.ids
    index: Dict[PointRef, int] = {}
    rows = [[index.setdefault(x, len(index)) for x in p] for p in paths]
    if not rows:
        raise InvalidInputError("empty orbit family")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InvalidInputError("orbit families need equal path lengths")
    return tuple(index), np.array(rows, dtype=np.int32)


@dataclass(frozen=True)
class OrbitSet:
    """A finite set of same-length paths from a common start point.

    ``map_label`` records which map the members are pseudoorbits of
    ("identity" for plain delta-paths; transfer maps produce sets labelled
    by the mapped dynamics).  ``exhaustive`` is True only when the set is
    known to be all of P(n, delta, x0).  ``paths`` is any sequence of
    DeltaPaths: a tuple, or a :class:`PathFamily` for enumerated sets.
    """

    paths: Sequence[DeltaPath]
    x0: PointRef
    n: int
    delta: Dist
    exhaustive: bool = False
    map_label: str = "identity"

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def point_rows(self) -> List[Tuple[PointRef, ...]]:
        return [p.points for p in self.paths]


def validate_path(points: Sequence[PointRef], delta: Dist, space: MetricSpace) -> bool:
    """True iff consecutive points are within delta (up to space tolerance)."""
    pts = list(points)
    if not pts:
        return False
    for p in pts:
        space.check_point(p)
    return all(space.le(space.distance(pts[i], pts[i + 1]), delta) for i in range(len(pts) - 1))


def validate_pseudoorbit(points: Sequence[PointRef], delta: Dist, space: MetricSpace,
                         step_map) -> bool:
    """True iff ``d(f(y_i), y_{i+1}) <= delta`` for consecutive entries.

    ``step_map`` may be a mapping or a callable.  With the identity map
    this is exactly ``validate_path``.
    """
    pts = list(points)
    if not pts:
        return False
    if callable(step_map):
        fn = step_map
    else:
        def fn(y):
            if y not in step_map:
                raise InvalidInputError(f"map undefined at {y!r}")
            return step_map[y]
    for i in range(len(pts) - 1):
        if not space.le(space.distance(fn(pts[i]), pts[i + 1]), delta):
            return False
    return True


def concat(u: DeltaPath, v: DeltaPath) -> DeltaPath:
    """Concatenate u and v; v must start where u ends, deltas must agree."""
    if u.delta != v.delta:
        raise InvalidInputError(f"delta mismatch: {u.delta} vs {v.delta}")
    if u.end != v.start:
        raise InvalidInputError(f"cannot concatenate: {u.end!r} != {v.start!r}")
    return DeltaPath(u.points + v.points[1:], u.delta)


def reverse(u: DeltaPath) -> DeltaPath:
    return DeltaPath(tuple(reversed(u.points)), u.delta)


def pad_path(u: DeltaPath, length: int) -> DeltaPath:
    """Lengthen a path to exactly ``length`` steps by repeating its last point."""
    if length < u.length:
        raise InvalidInputError(f"cannot pad a length-{u.length} path down to {length}")
    return DeltaPath(u.points + (u.end,) * (length - u.length), u.delta)


def orbit_distance(u, v, space: MetricSpace) -> Dist:
    """Sup metric on same-length paths: max over coordinates of d(u_i, v_i)."""
    pu = u.points if isinstance(u, DeltaPath) else tuple(u)
    pv = v.points if isinstance(v, DeltaPath) else tuple(v)
    if len(pu) != len(pv):
        raise InvalidInputError(f"orbit distance needs equal lengths, got {len(pu) - 1} and {len(pv) - 1}")
    best: Dist = 0
    for a, b in zip(pu, pv):
        d = space.distance(a, b)
        if d > best:
            best = d
    return best


def enumerate_orbits(space: MetricSpace, x0: PointRef, n: int, delta: Dist,
                     cap: int = 10 ** 6) -> OrbitSet:
    """All delta-paths of length n starting at x0, in lexicographic order.

    Successors are ordered by sorting points, and the family is built
    level by level: each path of length k is followed by its successors in
    that order, so the output is the depth-first order over sorted
    successors.  ``neighbors`` is called once per point reached in fewer
    than n steps.  Raises CapExceededError (with the partial count) as soon
    as a level holds more than ``cap`` paths; never returns a silently
    truncated set.
    """
    if n < 0:
        raise InvalidInputError("path length must be >= 0")
    space.check_point(x0)
    if delta < 0:
        raise InvalidInputError("delta must be >= 0")

    def check_cap(rows: int) -> None:
        if rows > cap:
            raise CapExceededError(
                f"enumeration cap {cap} exceeded for n={n}, delta={delta}", partial=max(cap, 0))

    support: List[PointRef] = [x0]
    index: Dict[PointRef, int] = {x0: 0}
    successors: List[List[int]] = []

    def point_id(p: PointRef) -> int:
        k = index.get(p)
        if k is None:
            k = index[p] = len(support)
            support.append(p)
        return k

    check_cap(1)
    ids = np.zeros((1, 1), dtype=np.int32)
    for _ in range(n):
        # paths may stand still, so the last column holds every point found
        # so far; expand the ones first reached at the previous step.  Each
        # row ending at a point grows into one row per successor, so the
        # running sum below is a lower bound on the level's size
        ending = np.bincount(ids[:, -1], minlength=len(support))
        grown_rows = 0
        for k in range(len(successors), len(support)):
            x = support[k]
            # a point is always its own successor: d(x, x) = 0 <= delta
            successors.append([point_id(s) for s in sorted(space.neighbors(x, delta) + [x])])
            grown_rows += int(ending[k]) * len(successors[k])
            check_cap(grown_rows)
        if successors == [[0]]:
            # x0 has no neighbour at this scale, so the one path stands still
            ids = np.zeros((1, n + 1), dtype=np.int32)
            break
        sizes = np.fromiter(map(len, successors), dtype=np.int64, count=len(successors))
        last = ids[:, -1]
        counts = sizes[last]
        total = int(counts.sum())
        check_cap(total)
        # point k's successors are flat[starts[k]:starts[k] + sizes[k]]; each
        # row is repeated once per successor of its last point, and copy j
        # of a row takes successor j
        flat = np.fromiter(chain.from_iterable(successors), dtype=np.int32,
                           count=int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        rank = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        grown = np.empty((total, ids.shape[1] + 1), dtype=np.int32)
        grown[:, :-1] = np.repeat(ids, counts, axis=0)
        grown[:, -1] = flat[np.repeat(starts[last], counts) + rank]
        ids = grown
    return OrbitSet(paths=PathFamily(support, ids, delta), x0=x0, n=n, delta=delta,
                    exhaustive=True)


def step_shells(space: MetricSpace, x: PointRef, n: int,
                delta: Dist) -> Iterator[List[PointRef]]:
    """Breadth-first shells of the delta-hop metric around x.

    Yields ``[x]`` and then, for each of up to n steps, the points first
    reached at that step, in discovery order.  It stops after the first
    empty shell, since nothing new can follow.  n and x are checked here;
    the shells come from the space's ``walk_shells(x, n, delta)``, which
    walks as ``hop_shells`` over ``neighbors`` does without checking the
    points the walk made.  A rooted tree refuses a walk that would leave
    its depth window before the first shell, and at unit scale builds each
    shell whole: a vertex past x is reached from exactly one neighbour, so
    the next shell is x's ancestor's parent and its other children, then
    every other frontier vertex's children in order.  The walk is lazy:
    advancing to shell k only builds shell k, so every level of a step
    ball comes from one pass.
    """
    if n < 0:
        raise InvalidInputError("step count must be >= 0")
    space.check_point(x)
    yield from space.walk_shells(x, n, delta)


def step_ball(space: MetricSpace, x: PointRef, n: int, delta: Dist) -> List[PointRef]:
    """Endpoints of length-n delta-paths from x (sorted).

    Because paths may stand still, this is the radius-n ball of the
    delta-hop metric: the union of the first n + 1 step shells.
    """
    return sorted(chain.from_iterable(step_shells(space, x, n, delta)))


def delta_component(space: MetricSpace, x: PointRef, delta: Dist,
                    hop_cap: int) -> Tuple[List[PointRef], bool]:
    """Points reachable by delta-paths from x, expanded up to hop_cap rounds.

    Returns ``(points, complete)`` where ``complete`` is True iff a fixed
    point of expansion was reached within the cap.
    """
    shells = step_shells(space, x, max(hop_cap, 0), delta)
    points = next(shells)[:]
    for shell in shells:
        points.extend(shell)
        if not shell:
            return sorted(points), True
    return sorted(points), False


def hop_search(space: MetricSpace, a: PointRef, b: PointRef, delta: Dist, budget: int,
               node_cap: Optional[int] = None) -> Optional[int]:
    """Least number of delta-steps from a to b if it is at most budget, else None.

    Breadth-first from a, returning as soon as b is discovered.  It stops
    partway through a shell on purpose: finishing the shell would query
    ``neighbors`` of points beyond the target, which in a windowed space can
    raise where the answer is already known.  With ``node_cap`` set, more
    than that many visited points raise BudgetExceededError.
    """
    if a == b:
        return 0
    seen: Set[PointRef] = {a}
    frontier: List[PointRef] = [a]
    for hops in range(1, budget + 1):
        nxt: List[PointRef] = []
        for y in frontier:
            for z in space.neighbors(y, delta):
                if z in seen:
                    continue
                if z == b:
                    return hops
                seen.add(z)
                nxt.append(z)
                if node_cap is not None and len(seen) > node_cap:
                    raise BudgetExceededError(f"hop search exceeded {node_cap} visited points")
        if not nxt:
            return None
        frontier = nxt
    return None


def hop_metric(space: MetricSpace, a: PointRef, b: PointRef, delta: Dist) -> Dist:
    """Least number of delta-steps from a to b (inf when not reached in cap).

    Uses a closed form when the space provides one, else breadth-first
    search capped at ``_HOP_CAP`` rounds (:func:`hop_search`).
    """
    space.check_point(a)
    space.check_point(b)
    if a == b:
        return 0
    exact = space.hop_distance(a, b, delta)
    if exact is not None:
        return exact
    hops = hop_search(space, a, b, delta, _HOP_CAP)
    return math.inf if hops is None else hops
