"""Separated/dense counts over truncated path families and their rates.

``separated_count`` and ``dense_count`` enumerate the family P(n, delta, x0)
of delta-paths from a basepoint and solve the packing/covering problem at
scale R under the sup (orbit) distance.  Counts carry certificates from the
underlying solver; rates are natural logarithms divided by n.

A bounded-component shortcut avoids enumeration entirely when the whole
delta-component of the basepoint has diameter below R: every path then
stays within one ball, so both extremal counts are exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..errors import BudgetExceededError, InvalidInputError
from ..extremal import MetricItems, max_separated, min_dense
from ..numbers import Dist, dist_to_jsonable, is_finite
from ..paths import enumerate_orbits, step_shells
from ..spaces.base import MetricSpace, PointRef

__all__ = ["RatePoint", "separated_count", "dense_count", "rate_series", "covering_bound"]

# largest delta-component the bounded-component shortcut walks
_COMPONENT_POINTS = 512


@dataclass(frozen=True)
class RatePoint:
    """One (n, count) sample of a growth-of-paths experiment.

    ``certificate``: "exact", "lower-bound" (greedy packing) or
    "upper-bound" (greedy covering).  ``rate`` is ln(count)/n, 0.0 at n=0.
    """

    mode: str
    n: int
    delta: Dist
    R: Dist
    count: int
    certificate: str
    rate: float
    stats: Dict[str, int] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "delta": dist_to_jsonable(self.delta),
            "R": dist_to_jsonable(self.R),
            "count": self.count,
            "certificate": self.certificate,
            "rate": self.rate,
            "stats": dict(sorted(self.stats.items())),
        }


def _validate_args(n: int, delta: Dist, R: Dist) -> None:
    if not isinstance(n, int) or n < 0:
        raise InvalidInputError(f"n must be a nonnegative integer: {n!r}")
    if not delta > 0:
        raise InvalidInputError(f"delta must be positive: {delta!r}")
    if not R > 0:
        raise InvalidInputError(f"R must be positive: {R!r}")


def _bounded_component_is_small(space: MetricSpace, x0: PointRef, delta: Dist,
                                R: Dist) -> Optional[int]:
    """Return the component size when the delta-component of x0 is complete
    and has diameter strictly below R; None when the shortcut is unusable.

    The walk goes shell by shell, up to ``4 * _COMPONENT_POINTS`` hops and
    ``_COMPONENT_POINTS`` points, and stops at the first point not strictly
    within R of x0: that pair already fails the diameter test.  Only a
    component walked to its end has its other pairs compared.
    """
    shells = step_shells(space, x0, 4 * _COMPONENT_POINTS, delta)
    try:
        points = next(shells)[:]
        for shell in shells:
            if not shell:
                break
            points.extend(shell)
            if len(points) > _COMPONENT_POINTS:
                return None
            if not all(space.lt(space.distance(x0, p), R) for p in shell):
                return None
        else:
            return None  # the hop cap ended the walk
    except BudgetExceededError:
        return None
    for i, a in enumerate(points[1:], 1):
        for b in points[i + 1:]:
            if not space.lt(space.distance(a, b), R):
                return None
    return len(points)


def _rate(count: int, n: int) -> float:
    if n == 0 or count <= 0:
        return 0.0
    return math.log(count) / n


def _count(space: MetricSpace, x0: PointRef, n: int, delta: Dist, R: Dist, mode: str,
           cap: int, exact_limit: Optional[int]) -> RatePoint:
    _validate_args(n, delta, R)
    space.check_point(x0)
    if n > 0:
        size = _bounded_component_is_small(space, x0, delta, R)
        if size is not None:
            return RatePoint(mode, n, delta, R, 1, "exact", 0.0,
                             {"component_points": size, "shortcut": 1})
    orbits = enumerate_orbits(space, x0, n, delta, cap=cap)
    items = MetricItems.from_orbits(space, orbits.paths)
    solve = max_separated if mode == "separated" else min_dense
    # each solver keeps its own default limit
    res = solve(items, R) if exact_limit is None else solve(items, R, exact_limit=exact_limit)
    stats = {"paths": len(orbits.paths)}
    stats.update(res.stats)
    return RatePoint(mode, n, delta, R, res.size, res.certificate,
                     _rate(res.size, n), stats)


def separated_count(space: MetricSpace, x0: PointRef, n: int, delta: Dist, R: Dist,
                    cap: int = 10 ** 6, exact_limit: Optional[int] = None) -> RatePoint:
    """Largest number of pairwise R-separated delta-paths of length n from x0."""
    return _count(space, x0, n, delta, R, "separated", cap, exact_limit)


def dense_count(space: MetricSpace, x0: PointRef, n: int, delta: Dist, R: Dist,
                cap: int = 10 ** 6, exact_limit: Optional[int] = None) -> RatePoint:
    """Smallest R-dense subfamily of the delta-paths of length n from x0."""
    return _count(space, x0, n, delta, R, "dense", cap, exact_limit)


def covering_bound(space: MetricSpace, x0: PointRef, delta: Dist, R: Dist,
                   ns: Sequence[int]) -> Optional[dict]:
    """Ball-volume upper bound for dense counts when R = (k+1) * delta.

    With k = R/delta - 1 a positive integer and V the size of the step ball
    of radius k, the dense count at length n is at most V ** (n/k + 1).
    The bound is certified for vertex-transitive spaces (the basepoint ball
    attains the supremum); otherwise it is reported as basepoint-only.
    An infinite R has no such k.  When k divides n the bound is an exact
    int.  A bound past the float range, 2 ** 1024 or more, is ``math.inf``.
    V is the sum of the space's ``shell_counts`` over the k-step walk, the
    size of ``step_ball`` without its points.
    """
    if not is_finite(R):
        return None
    if isinstance(R, (int, Fraction)) and isinstance(delta, (int, Fraction)):
        ratio = Fraction(R) / Fraction(delta)
        if ratio.denominator != 1:
            return None
        k = int(ratio) - 1
    else:
        k_float = R / delta - 1
        k = int(round(k_float))
        if abs(k_float - k) > 1e-9:
            return None
    if k < 1:
        return None
    space.check_point(x0)
    V = sum(space.shell_counts(x0, k, delta))
    bounds = {}
    for n in ns:
        if n % k == 0:
            # decided before the power, which could hold millions of digits
            exponent = n // k + 1
            bounds[n] = math.inf if exponent * math.log2(V) >= 1024 else V ** exponent
        else:
            try:
                bounds[n] = float(V) ** (n / k + 1)
            except OverflowError:
                bounds[n] = math.inf
    return {
        "k": k,
        "ball_size": V,
        "certified": bool(space.vertex_transitive),
        "ball_scope": "transitive-exact" if space.vertex_transitive else "basepoint-only",
        "bounds": bounds,
    }


def rate_series(space: MetricSpace, x0: PointRef, delta: Dist, R: Dist, ns: Sequence[int],
                mode: str = "separated", cap: int = 10 ** 6,
                exact_limit: Optional[int] = None) -> dict:
    """Counts and rates across several lengths, plus the covering bound
    (dense mode, when R/delta - 1 is a positive integer)."""
    if mode not in ("separated", "dense"):
        raise InvalidInputError(f"mode must be 'separated' or 'dense': {mode!r}")
    pts: List[RatePoint] = []
    for n in ns:
        fn = separated_count if mode == "separated" else dense_count
        pts.append(fn(space, x0, n, delta, R, cap=cap, exact_limit=exact_limit))
    out = {"mode": mode, "points": pts}
    if mode == "dense":
        bound = covering_bound(space, x0, delta, R, list(ns))
        if bound is not None:
            out["covering_bound"] = bound
            for p in pts:
                limit = bound["bounds"][p.n]
                # an upper-bound count below the volume bound certifies that
                # the true minimum also satisfies it
                out.setdefault("bound_satisfied", {})[p.n] = bool(p.count <= limit)
    return out
