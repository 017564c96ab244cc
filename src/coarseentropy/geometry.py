"""Structural probes: bounded-geometry evidence, quasi-geodesicity, Rips
graphs, and net retractions.

Everything here is a finite-window check.  Unboundedness can never be
proven from a finite window, so the evidence verdicts are explicitly
"evidence"; certification happens only when a catalog space supplies its
own verified witness families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidInputError, UnknownPointError
from .extremal import POINT_LIMIT, _net_cells, max_band_clique
from .numbers import Dist, dist_to_jsonable, is_finite
from .paths import hop_search
from .spaces.base import Graph, MetricSpace, PointRef, ball, build_graph

__all__ = [
    "BGEvidence",
    "bounded_geometry_evidence",
    "quasi_geodesic_check",
    "rips_graph",
    "net_retraction",
]

# default_sample_pairs tries x0 + 2**i for i up to this
_SAMPLE_SCALES = 20


@dataclass(frozen=True)
class BGEvidence:
    """Cardinalities of s-separated, diameter <= D sets found at each depth.

    verdict: "unbounded-evidence" when the cardinalities strictly increase
    across all depths, "bounded-evidence" when they are all equal, else
    "inconclusive".  Every recorded set passed an independent separation
    and diameter check.  ``witnessed`` marks families supplied (and
    verified) by the space's own catalog construction.
    """

    space: str
    s: Dist
    D: Dist
    depths: Tuple[int, ...]
    sizes: Tuple[int, ...]
    verdict: str
    witnessed: bool
    certificates: Tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "space": self.space,
            "s": dist_to_jsonable(self.s),
            "D": dist_to_jsonable(self.D),
            "depths": list(self.depths),
            "sizes": list(self.sizes),
            "verdict": self.verdict,
            "witnessed": self.witnessed,
            "certificates": list(self.certificates),
        }


def _check_family(space: MetricSpace, points: Sequence[PointRef], s: Dist, D: Dist) -> None:
    """Independent check: pairwise distances within [s, D]."""
    pts = list(points)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            d = space.distance(a, b)
            if not space.ge(d, s):
                raise InvalidInputError(
                    f"witness points {a!r},{b!r} at distance {d} are not {s}-separated")
            if not space.le(d, D):
                raise InvalidInputError(
                    f"witness points {a!r},{b!r} at distance {d} exceed the diameter bound {D}")


def _verdict(sizes: Sequence[int]) -> str:
    if len(sizes) >= 2 and all(b > a for a, b in zip(sizes, sizes[1:])):
        return "unbounded-evidence"
    # a trailing plateau means deepening the window stopped finding larger
    # families: evidence that the [s, D] family size is bounded
    if len(sizes) >= 2 and sizes[-1] == sizes[-2]:
        return "bounded-evidence"
    return "inconclusive"


def bounded_geometry_evidence(space: MetricSpace, s: Optional[Dist] = None,
                              D: Optional[Dist] = None,
                              window_depths: Optional[Sequence[int]] = None) -> BGEvidence:
    """Largest s-separated diameter-<=D families found at increasing depths.

    Catalog spaces with their own witness constructions supply verified
    families directly; otherwise the search runs ``max_band_clique``, exact
    or greedy by its own limit, over the ball of each depth.  A ball of
    more than ``POINT_LIMIT`` points raises :class:`BudgetExceededError`
    before the search starts.
    """
    defaults = space.bg_evidence_defaults()
    if defaults is not None:
        ds, dD, ddepths = defaults
        s = ds if s is None else s
        D = dD if D is None else D
        window_depths = list(ddepths) if window_depths is None else list(window_depths)
    if s is None or D is None:
        raise InvalidInputError("s and D are required for spaces without catalog defaults")
    if window_depths is None:
        window_depths = [1, 2, 3, 4]
    if not (s > 0 and D > 0):
        raise InvalidInputError("s and D must be positive")
    depths = [int(d) for d in window_depths]
    if depths != sorted(depths) or len(set(depths)) != len(depths):
        raise InvalidInputError("window depths must be strictly increasing")

    sizes: List[int] = []
    certs: List[str] = []
    witnessed = False
    for depth in depths:
        family = space.bg_witness_family(s, depth)
        if family is not None:
            points, _diam_bound = family
            _check_family(space, points, s, D)
            sizes.append(len(points))
            certs.append("witness")
            witnessed = True
            continue
        window = ball(space, space.basepoint, depth)
        if len(window) > POINT_LIMIT:
            raise BudgetExceededError(
                f"the depth-{depth} window holds {len(window)} points; band-clique "
                f"searches are capped at {POINT_LIMIT} points")
        res = max_band_clique(space, window, s, D)
        _check_family(space, [window[i] for i in res.selected], s, D)
        sizes.append(res.size)
        certs.append(res.certificate)
    return BGEvidence(space=space.name, s=s, D=D, depths=tuple(depths), sizes=tuple(sizes),
                      verdict=_verdict(sizes), witnessed=witnessed,
                      certificates=tuple(certs))


def _ceil_dist(d: Dist) -> int:
    return int(math.ceil(d))


def quasi_geodesic_check(space: MetricSpace, delta: Dist,
                         sample_pairs: Optional[Sequence[Tuple[PointRef, PointRef]]] = None,
                         node_cap: int = 200_000) -> dict:
    """For each pair, decide whether a delta-path of length <= ceil(d) joins it.

    Uses the space's closed-form hop distance or hop lower bound when
    available, falling back to breadth-first search capped at ceil(d)
    rounds.  Overall verdict "consistent" iff every pair passes.
    """
    if not delta > 0:
        raise InvalidInputError("delta must be positive")
    if sample_pairs is None:
        sample_pairs = default_sample_pairs(space)
    rows = []
    all_ok = True
    for a, b in sample_pairs:
        space.check_point(a)
        space.check_point(b)
        d = space.distance(a, b)
        if not is_finite(d):
            raise InvalidInputError(
                f"{a!r} and {b!r} lie in different components: no path length to check")
        budget = _ceil_dist(d)
        hops: Optional[int] = None
        method = "bfs"
        closed = space.hop_distance(a, b, delta)
        if closed is not None:
            hops = closed
            method = "closed-form"
        else:
            lower = space.hop_lower_bound(a, b, delta)
            if lower is not None and lower > budget:
                hops = lower
                method = "lower-bound"
            else:
                hops = hop_search(space, a, b, delta, budget, node_cap=node_cap)
        ok = hops is not None and hops <= budget
        all_ok = all_ok and ok
        rows.append({
            "pair": [repr(a), repr(b)],
            "distance": dist_to_jsonable(d),
            "budget": budget,
            "hops": hops if hops is not None else f"> {budget}",
            "method": method,
            "ok": bool(ok),
        })
    return {
        "space": space.name,
        "delta": dist_to_jsonable(delta),
        "pairs": rows,
        "verdict": "consistent" if all_ok else "fails",
    }


def default_sample_pairs(space: MetricSpace):
    """Pairs (x0, x0 + 2**i), i = 0..``_SAMPLE_SCALES``, from the basepoint
    x0 of an integer-coded space, up to the first target outside it."""
    x0 = space.basepoint
    if not isinstance(x0, int):
        raise InvalidInputError(
            "default sampling needs an integer-coded space; pass sample_pairs explicitly")
    pairs = []
    for i in range(_SAMPLE_SCALES + 1):
        target = x0 + 2 ** i
        try:
            space.check_point(target)
        except UnknownPointError:
            break
        pairs.append((x0, target))
    if not pairs:
        raise InvalidInputError("no sample pairs within the space bounds")
    return pairs


def rips_graph(space: MetricSpace, delta: Dist, window: Sequence[PointRef]) -> Graph:
    """Graph on the window with edges exactly the pairs at distance in (0, delta]."""
    pts = list(dict.fromkeys(window))
    for p in pts:
        space.check_point(p)
    table = space.distance_table(pts)
    # row-major over the pairs i < j: the order of a loop over the pairs
    near = np.triu((table > 0) & space.le(table, delta), 1)
    return build_graph([(pts[i], pts[j]) for i, j in zip(*np.nonzero(near))], vertices=pts)


def net_retraction(space: MetricSpace, r: Dist, window: Sequence[PointRef]):
    """Maximal 3r-separated net (seeded at the window's first point) plus
    the closest-point retraction, ties broken by net construction order.

    Every preimage sits inside the closed 3r-ball of its net point, and
    contains the r-ball of the net point within the window.
    """
    if not r > 0:
        raise InvalidInputError("r must be positive")
    pts = list(dict.fromkeys(window))
    if not pts:
        raise InvalidInputError("window must be nonempty")
    scale = 3 * r
    net, cell, near = _net_cells(space, pts, scale)
    net = [pts[i] for i in net]
    retraction: Dict[PointRef, PointRef] = {}
    for p, idx, d in zip(pts, cell.tolist(), near.tolist()):
        if not space.le(d, scale):
            raise InvalidInputError(
                f"net is not {scale}-dense on the window: {p!r} is {d} away")
        retraction[p] = net[idx]
    return net, retraction
