"""Delta-paths (pseudoorbits of the identity) and their basic calculus.

A delta-path of length n is a tuple ``(x_0, ..., x_n)`` whose consecutive
points are at distance at most delta.  Since ``d(x, x) = 0``, a path may
stand still, which is what makes padding-by-repetition work downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceededError, CapExceededError, InvalidInputError
from .numbers import Dist

if TYPE_CHECKING:  # circular at runtime: spaces.catalog builds DeltaPath objects
    from .spaces.base import MetricSpace, PointRef

__all__ = [
    "DeltaPath",
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
    "hop_metric",
]


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


@dataclass(frozen=True)
class OrbitSet:
    """A finite set of same-length paths from a common start point.

    ``map_label`` records which map the members are pseudoorbits of
    ("identity" for plain delta-paths; transfer maps produce sets labelled
    by the mapped dynamics).  ``exhaustive`` is True only when the set is
    known to be all of P(n, delta, x0).
    """

    paths: Tuple[DeltaPath, ...]
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


def _successor_cache(space: MetricSpace, delta: Dist):
    cache: Dict[PointRef, Tuple[PointRef, ...]] = {}

    def successors(x: PointRef) -> Tuple[PointRef, ...]:
        got = cache.get(x)
        if got is None:
            # a point is always its own successor: d(x, x) = 0 <= delta
            got = tuple(sorted(space.neighbors(x, delta) + [x]))
            cache[x] = got
        return got

    return successors


def enumerate_orbits(space: MetricSpace, x0: PointRef, n: int, delta: Dist,
                     cap: int = 10 ** 6) -> OrbitSet:
    """All delta-paths of length n starting at x0, in depth-first order.

    Successors are visited in sorted point order, so the output order is
    deterministic.  Raises CapExceededError (with the partial count) as
    soon as the cap is crossed; never returns a silently truncated set.
    """
    if n < 0:
        raise InvalidInputError("path length must be >= 0")
    space.check_point(x0)
    if delta < 0:
        raise InvalidInputError("delta must be >= 0")
    successors = _successor_cache(space, delta)
    out: List[DeltaPath] = []
    prefix: List[PointRef] = [x0]

    def rec():
        if len(prefix) == n + 1:
            if len(out) >= cap:
                raise CapExceededError(
                    f"enumeration cap {cap} exceeded for n={n}, delta={delta}", partial=len(out))
            out.append(DeltaPath(tuple(prefix), delta))
            return
        for s in successors(prefix[-1]):
            prefix.append(s)
            rec()
            prefix.pop()

    rec()
    return OrbitSet(paths=tuple(out), x0=x0, n=n, delta=delta, exhaustive=True)


def step_shells(space: MetricSpace, x: PointRef, n: int,
                delta: Dist) -> Iterator[List[PointRef]]:
    """Breadth-first shells of the delta-hop metric around x.

    Yields ``[x]`` and then, for each of up to n steps, the points first
    reached at that step, in discovery order.  It stops after the first
    empty shell, since nothing new can follow.  ``neighbors`` is called
    lazily: advancing to shell k only queries shell k-1, so every level of
    a step ball comes from one pass.
    """
    if n < 0:
        raise InvalidInputError("step count must be >= 0")
    space.check_point(x)
    seen: Set[PointRef] = {x}
    frontier: List[PointRef] = [x]
    yield frontier
    for _ in range(n):
        if not frontier:
            return
        nxt: List[PointRef] = []
        for y in frontier:
            for z in space.neighbors(y, delta):
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        yield nxt
        frontier = nxt


def step_ball(space: MetricSpace, x: PointRef, n: int, delta: Dist) -> List[PointRef]:
    """Endpoints of length-n delta-paths from x (sorted).

    Because paths may stand still, this is the radius-n ball of the
    delta-hop metric: the union of the first n + 1 step shells.
    """
    return sorted(chain.from_iterable(step_shells(space, x, n, delta)))


def delta_component(space: MetricSpace, x: PointRef, delta: Dist, hop_cap: int = 64,
                    max_points: Optional[int] = None) -> Tuple[List[PointRef], bool]:
    """Points reachable by delta-paths from x, expanded up to hop_cap rounds.

    Returns ``(points, complete)`` where ``complete`` is True iff a fixed
    point of expansion was reached within the cap.  ``max_points`` turns a
    runaway component into a BudgetExceededError instead of a long walk.
    """
    shells = step_shells(space, x, max(hop_cap, 0), delta)
    points = next(shells)[:]
    for shell in shells:
        points.extend(shell)
        if max_points is not None and len(points) > max_points:
            raise BudgetExceededError(
                f"delta-component of {x!r} exceeded {max_points} points")
        if not shell:
            return sorted(points), True
    return sorted(points), False


def hop_metric(space: MetricSpace, a: PointRef, b: PointRef, delta: Dist,
               hop_cap: int = 10 ** 4) -> Dist:
    """Least number of delta-steps from a to b (inf when not reached in cap).

    Uses a closed form when the space provides one, else breadth-first
    expansion capped at hop_cap rounds.
    """
    space.check_point(a)
    space.check_point(b)
    if a == b:
        return 0
    exact = space.hop_distance(a, b, delta)
    if exact is not None:
        return exact
    seen: Set[PointRef] = {a}
    frontier: List[PointRef] = [a]
    for hops in range(1, hop_cap + 1):
        nxt: List[PointRef] = []
        for y in frontier:
            for z in space.neighbors(y, delta):
                if z == b:
                    return hops
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        if not nxt:
            return math.inf
        frontier = nxt
    return math.inf
