"""Coding maps: subsampled Voronoi itineraries that bound separated counts.

Fix R > 0, write r = R/4, and let A be a maximal r-separated net of the
window that contains all points reachable in n delta-steps.  Each point of
the window falls in the Voronoi cell of its nearest net element (ties by
net construction order).  Sampling a path's cells every q = floor(r/delta)
steps gives its code.  The key finite check: any two paths sharing a code
stay uniformly close, so R-separated paths receive distinct codes and the
number of realized codes bounds the separated count from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import InvalidInputError
from ..extremal import _net_cells
from ..numbers import Dist, dist_to_jsonable
from ..paths import PathFamily, enumerate_orbits
from ..spaces.base import MetricSpace, PointRef, ball

__all__ = ["CodingScheme", "build_coding", "code_paths", "coding_injectivity_check"]


def _quarter(R: Dist) -> Dist:
    if isinstance(R, int):
        return Fraction(R, 4)
    if isinstance(R, Fraction):
        return R / 4
    return R / 4.0


@dataclass(frozen=True)
class CodingScheme:
    """A net-based coding of the n-step path family at scale R."""

    space: MetricSpace
    x0: PointRef
    n: int
    delta: Dist
    R: Dist
    r: Dist
    q: int
    net: Tuple[PointRef, ...]
    cells: Dict[PointRef, int]

    def sample_times(self) -> List[int]:
        """Times jq for j = 0..floor(n/q); positions between samples are
        within (q-1)*delta of the previous sample, which the fiber bound
        2r + 2(q-1)*delta < R already absorbs."""
        return list(range(0, self.n + 1, self.q))

    def code(self, points: Sequence[PointRef]) -> Tuple[int, ...]:
        if len(points) != self.n + 1:
            raise InvalidInputError(
                f"path has {len(points) - 1} steps, coding expects {self.n}")
        return tuple(self.cells[points[t]] for t in self.sample_times())

    def to_jsonable(self) -> dict:
        return {
            "space": self.space.name,
            "n": self.n,
            "delta": dist_to_jsonable(self.delta),
            "R": dist_to_jsonable(self.R),
            "r": dist_to_jsonable(self.r),
            "q": self.q,
            "net_size": len(self.net),
        }


def build_coding(space: MetricSpace, x0: PointRef, n: int, delta: Dist, R: Dist) -> CodingScheme:
    """Construct the net and Voronoi cells for coding n-step paths from x0.

    Requires q = floor(r/delta) >= 1, i.e. R >= 4*delta; the headline
    regime is R > 8*delta where codes change slowly enough for the fiber
    bound to beat R.  The window is the ball of radius n*delta + 2r, which
    contains every point of every n-step path together with its net center.
    """
    if n < 0:
        raise InvalidInputError(f"n must be nonnegative: {n!r}")
    if not delta > 0 or not R > 0:
        raise InvalidInputError("delta and R must be positive")
    r = _quarter(R)
    q = int(r / delta)
    if q < 1:
        raise InvalidInputError(
            f"R={R} is too small relative to delta={delta}: need floor(R/(4*delta)) >= 1")
    radius = n * delta + 2 * r
    # basepoint first so the net is seeded at x0, rest in sorted order
    window = [x0] + [p for p in ball(space, x0, radius) if p != x0]
    net, cell, _ = _net_cells(space, window, r)
    return CodingScheme(space=space, x0=x0, n=n, delta=delta, R=R, r=r, q=q,
                        net=tuple(window[i] for i in net),
                        cells=dict(zip(window, cell.tolist())))


def code_paths(scheme: CodingScheme, paths: Sequence) -> Dict[Tuple[int, ...], List[int]]:
    """Group path indices by code word, words in order of first appearance.

    The paths are read as ``PathFamily.of(paths, scheme.delta)``, so an
    OrbitSet's family is read as it stands and no DeltaPath is built.  Each
    sampled point's cell is looked up once and the codes are the rows of
    ``cell[ids[:, sample_times]]``.  A family of the wrong length raises
    ``path has k steps, coding expects n`` and a sampled point outside the
    window raises the KeyError of ``scheme.code``; paths of unequal lengths
    raise ``PathFamily.of``'s error.
    """
    if not len(paths):
        return {}
    family = PathFamily.of(paths, scheme.delta)
    support, ids = family.support, family.ids
    if ids.shape[1] != scheme.n + 1:
        raise InvalidInputError(
            f"path has {ids.shape[1] - 1} steps, coding expects {scheme.n}")
    sampled = ids[:, scheme.sample_times()]
    # cells in order of first appearance, so the first point outside the
    # window is the one scheme.code would meet first
    used, first = np.unique(sampled, return_index=True)
    used = used[np.argsort(first)].tolist()
    cell = np.zeros(len(support), dtype=np.int64)
    cell[used] = [scheme.cells[support[i]] for i in used]
    words, first, inverse = np.unique(cell[sampled], axis=0, return_index=True,
                                      return_inverse=True)
    inverse = inverse.ravel()  # numpy 2.x may keep the axis as a second dimension
    members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    return {tuple(words[g].tolist()): members[g].tolist() for g in np.argsort(first).tolist()}


def coding_injectivity_check(space: MetricSpace, x0: PointRef, n: int, delta: Dist,
                             R: Dist) -> dict:
    """Enumerate all n-step paths, code them, and verify the coding
    separates R-separated paths: every fiber's diameter stays below R.

    A fiber is a set of rows of the family's id matrix.  The orbit distance
    maximizes over positions independently for each pair, so a fiber's
    diameter is the largest diameter of the set of points occurring at any
    single position.  Those diameters are gathers from one
    ``space.distance_table`` over the family's support, one gather for all
    the position sets of one size.

    Returns the scheme summary, the number of realized codes (an upper
    bound for the separated count), and the worst fiber diameter.
    """
    scheme = build_coding(space, x0, n, delta, R)
    orbits = enumerate_orbits(space, x0, n, delta)
    support, ids = orbits.paths.support, orbits.paths.ids
    groups = code_paths(scheme, orbits.paths)
    table = space.distance_table(support)
    # the distinct points at each (fiber, position) slot, as runs of the
    # sorted keys slot * |support| + point
    fiber = np.empty(len(ids), dtype=np.int64)
    for g, members in enumerate(groups.values()):
        fiber[members] = g
    slots = fiber[:, None] * ids.shape[1] + np.arange(ids.shape[1])
    slot, point = np.divmod(np.unique(slots * len(support) + ids), len(support))
    first, count = np.unique(slot, return_index=True, return_counts=True)[1:]
    worst: Dist = 0
    # one gather of every pair within every run of c points
    for c in np.unique(count[count > 1]).tolist():
        runs = point[first[count == c][:, None] + np.arange(c)]
        diam = max(table[runs[:, :, None], runs[:, None, :]].max(axis=(1, 2)).tolist())
        if diam > worst:
            worst = diam
    separated_ok = space.lt(worst, R)
    return {
        "scheme": scheme.to_jsonable(),
        "paths": len(orbits.paths),
        "codes": len(groups),
        "largest_fiber": max(map(len, groups.values())),
        "max_fiber_diameter": dist_to_jsonable(worst),
        "fibers_below_R": bool(separated_ok),
    }
