"""Step-ball growth series: cardinality V_delta(l) or measure vol_delta(l).

The series records the size (or total measure) of the step ball of radius
l at a basepoint, for l = 0..l_max.  On vertex-transitive spaces the value
at any point equals the supremum over basepoints (scope
"transitive-exact"); otherwise the series maximizes over an explicit
finite window of basepoints and is only a lower bound for the supremum
(scope "window-lower-bound").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import InvalidInputError
from ..numbers import Dist, dist_to_jsonable
from ..spaces.base import MeasuredSpace, MetricSpace, PointRef

__all__ = ["GrowthSeries", "growth_series", "fit_log_slope"]

Value = Union[int, Fraction]


@dataclass(frozen=True)
class GrowthSeries:
    """l -> V_delta(l) (counting) or vol_delta(l) (measured) over a window."""

    space: str
    delta: Dist
    basepoint: PointRef
    levels: Tuple[int, ...]
    values: Tuple[Value, ...]
    measure: str  # "counting" | "measured"
    sup_mode: str  # "transitive-exact" | "window-lower-bound"
    window_size: int = 1

    def __post_init__(self):
        for a, b in zip(self.values, self.values[1:]):
            if b < a:
                raise InvalidInputError("growth values must be nondecreasing")

    def to_jsonable(self) -> dict:
        return {
            "space": self.space,
            "delta": dist_to_jsonable(self.delta),
            "basepoint": repr(self.basepoint),
            "levels": list(self.levels),
            "values": [dist_to_jsonable(v) for v in self.values],
            "measure": self.measure,
            "sup_mode": self.sup_mode,
            "window_size": self.window_size,
        }


def growth_series(space: MetricSpace, x: Optional[PointRef] = None, delta: Dist = 1,
                  l_max: int = 8, window: Optional[Sequence[PointRef]] = None,
                  measured: Optional[bool] = None) -> GrowthSeries:
    """Step-ball growth at a basepoint (or maximized over a window).

    ``measured`` defaults to True exactly when the space carries a measure;
    pass False to force the counting variant on a measured space.  A ball's
    value is the running total of its shells: their sizes from the space's
    ``shell_counts``, or their masses from ``shell_masses``, so a space that
    counts its shells in closed form never builds one.  The walks keep
    their errors: a tree refuses a walk past its window at the call, and
    the walk-limit error rises at the level where the walk would raise it.
    """
    if l_max < 1:
        raise InvalidInputError(f"l_max must be >= 1: {l_max!r}")
    if x is None:
        x = space.basepoint
    space.check_point(x)
    if measured is None:
        measured = isinstance(space, MeasuredSpace)
    if measured and not isinstance(space, MeasuredSpace):
        raise InvalidInputError("measured growth requires a measured space")
    levels = tuple(range(l_max + 1))
    if space.vertex_transitive:
        bases: List[PointRef] = [x]
        sup_mode = "transitive-exact"
    else:
        bases = [x, *(window or [])]
        sup_mode = "window-lower-bound"
        for p in bases:
            space.check_point(p)
        bases = list(dict.fromkeys(bases))  # each base walked once, first occurrence first
    def walk(base):
        # made at its first level, so a tree's refusal of a base's walk comes
        # after the earlier bases' first shells, as a step_shells walk's did
        yield from (space.shell_masses(base, l_max, delta) if measured
                    else space.shell_counts(base, l_max, delta))

    # one lazy walk per base, counted shell by shell; levels run in the outer
    # loop, so an error fires at the first (level, base) needing it.  The
    # bases are checked and the walks make only points of the space, so the
    # shells are weighed without a check
    walks = [walk(b) for b in bases]
    totals: List[Value] = [Fraction(0) if measured else 0] * len(bases)
    values = []
    for _ in levels:
        for i, walk in enumerate(walks):
            totals[i] += next(walk, 0)  # 0 once the ball stops growing
        values.append(max(totals))
    return GrowthSeries(space=space.name, delta=delta, basepoint=x, levels=levels,
                        values=tuple(values), measure="measured" if measured else "counting",
                        sup_mode=sup_mode, window_size=len(bases))


def fit_log_slope(series: GrowthSeries) -> float:
    """Least-squares slope of (l, ln value) over the top half of the window.

    The top half discards small-l transients; the slope is in nats per
    level and feeds the growth classification thresholds.
    """
    half = len(series.levels) // 2
    ls = series.levels[half:]
    vs = series.values[half:]
    if len(ls) < 2:
        raise InvalidInputError("need at least two levels in the top half to fit a slope")
    ys = []
    for v in vs:
        fv = float(v)
        if fv <= 0:
            raise InvalidInputError("growth values must be positive to fit a log slope")
        ys.append(math.log(fv))
    n = len(ls)
    mean_l = sum(ls) / n
    mean_y = sum(ys) / n
    num = sum((l - mean_l) * (y - mean_y) for l, y in zip(ls, ys))
    den = sum((l - mean_l) ** 2 for l in ls)
    return num / den
