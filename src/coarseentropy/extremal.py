"""Exact and greedy solvers for packing (R-separated) and covering (R-dense).

The solvers work on :class:`MetricItems`, an indexed finite family with a
pairwise distance.  Exact solving happens below ``exact_limit`` (maximum
independent set in the conflict graph for packing, minimum set cover over
open R-balls for covering); above the limit deterministic greedy versions
return certified one-sided bounds instead of silently pretending to be
exact.  Tie-breaking everywhere: lowest index first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError
from .numbers import Dist
from .paths import PathFamily, point_table
from .spaces.base import MetricSpace, PointRef

__all__ = [
    "MetricItems",
    "ExtremalResult",
    "max_separated",
    "min_dense",
    "greedy_net",
    "max_band_clique",
    "verify_separated",
    "verify_dense",
]


class MetricItems:
    """A finite indexed family of items with a cached pairwise distance.

    When the item family embeds into a small point table with integer (or
    float) distances, ``vectors``/``dmat`` hold a row-of-point-ids matrix
    and the point-pair distance table; greedy passes then run vectorized.
    Exact comparisons always go through the exact ``dist`` callable.
    """

    def __init__(self, items: Sequence, dist_fn: Callable[[int, int], Dist], tol: float = 0.0,
                 vectors: Optional[np.ndarray] = None, dmat: Optional[np.ndarray] = None):
        self.items = items if isinstance(items, PathFamily) else tuple(items)
        self._dist_fn = dist_fn
        self._cache: Dict[Tuple[int, int], Dist] = {}
        self.tol = tol
        self.vectors = vectors
        self.dmat = dmat

    def __len__(self):
        return len(self.items)

    def dist(self, i: int, j: int) -> Dist:
        if i == j:
            return 0
        key = (i, j) if i < j else (j, i)
        got = self._cache.get(key)
        if got is None:
            got = self._dist_fn(key[0], key[1])
            self._cache[key] = got
        return got

    @classmethod
    def from_points(cls, points: Sequence[PointRef], space_or_fn, tol: Optional[float] = None):
        """Items are points of a space (or a plain symmetric distance function)."""
        pts = list(points)
        if isinstance(space_or_fn, MetricSpace):
            fn = space_or_fn.distance
            tol = space_or_fn.tol if tol is None else tol
        else:
            fn = space_or_fn
            tol = 0.0 if tol is None else tol
        return cls(pts, lambda i, j: fn(pts[i], pts[j]), tol=tol)

    @classmethod
    def from_orbits(cls, space: MetricSpace, orbits, point_limit: int = 4096):
        """Items are paths under the orbit (sup) distance.

        ``orbits`` is a :class:`PathFamily`, whose id matrix is used as it
        stands, or any sequence of DeltaPaths or point sequences, which is
        indexed into a point table once.  The vectorized representation is
        kept when the paths touch at most ``point_limit`` distinct points
        and all point distances are exact in float64 (integers below 2**52,
        or the float metric itself).
        """
        support, ids = point_table(orbits)
        items = orbits if isinstance(orbits, PathFamily) else \
            tuple(tuple(support[k] for k in row) for row in ids.tolist())
        rows: List[List[int]] = []

        def dist(i: int, j: int) -> Dist:
            if not rows:
                rows.extend(ids.tolist())
            best: Dist = 0
            for a, b in zip(rows[i], rows[j]):
                d = space.distance(support[a], support[b])
                if d > best:
                    best = d
            return best

        vectors = dmat = None
        if len(support) <= point_limit:
            table = np.zeros((len(support), len(support)))
            exact = True
            for a_i, a in enumerate(support):
                for b_i in range(a_i + 1, len(support)):
                    d = space.distance(a, support[b_i])
                    if isinstance(d, Fraction):
                        exact = False
                        break
                    if isinstance(d, int) and abs(d) > 2 ** 52:
                        exact = False
                        break
                    table[a_i, b_i] = table[b_i, a_i] = float(d)
                if not exact:
                    break
            if exact:
                vectors = ids
                dmat = table
        return cls(items, dist, tol=space.tol, vectors=vectors, dmat=dmat)


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a packing/covering solve.

    ``certificate`` is "exact" when the optimum was proven, "lower-bound"
    for greedy packings and "upper-bound" for greedy coverings.  ``stats``
    holds solver counters (no wall-clock times: reports must be
    byte-identical across runs).
    """

    mode: str
    R: Dist
    size: int
    selected: Tuple[int, ...]
    certificate: str
    stats: Dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# bitset maximum independent set


def _greedy_independent(n: int, conflict: List[int]) -> List[int]:
    chosen: List[int] = []
    banned = 0
    for v in range(n):
        if not banned >> v & 1:
            chosen.append(v)
            banned |= conflict[v] | 1 << v
    return chosen


def _mis_bitset(n: int, conflict: List[int], node_budget: int = 20_000_000):
    """Maximum independent set via branch and bound on bitmasks.

    Deterministic: branches on the highest-degree candidate (ties: lowest
    index), include branch first, strict improvements only.
    """
    seed = _greedy_independent(n, conflict)
    best_mask = 0
    for v in seed:
        best_mask |= 1 << v
    best = [len(seed), best_mask]
    nodes = [0]
    full = (1 << n) - 1

    def expand(cand: int, size: int, mask: int):
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise InvalidInputError("independent-set search exceeded its node budget")
        # pull in candidates with no conflicts among the rest, branch on the rest
        while cand:
            free = -1
            busy_best = -1
            busy_deg = -1
            c = cand
            while c:
                v = (c & -c).bit_length() - 1
                c &= c - 1
                deg = (conflict[v] & cand).bit_count()
                if deg == 0:
                    free = v
                    break
                if deg > busy_deg:
                    busy_deg = deg
                    busy_best = v
            if free >= 0:
                cand &= ~(1 << free)
                size += 1
                mask |= 1 << free
                continue
            if size + cand.bit_count() <= best[0]:
                return
            v = busy_best
            bit = 1 << v
            expand(cand & ~conflict[v] & ~bit, size + 1, mask | bit)
            cand &= ~bit
            if size + cand.bit_count() <= best[0]:
                return
        if size > best[0]:
            best[0] = size
            best[1] = mask

    expand(full, 0, 0)
    sel = [v for v in range(n) if best[1] >> v & 1]
    return sel, nodes[0]


def _conflict_masks(items: MetricItems, R: Dist) -> List[int]:
    n = len(items)
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if items.dist(i, j) < R - items.tol:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    return conflict


def max_separated(items: MetricItems, R: Dist, exact_limit: int = 40) -> ExtremalResult:
    """Largest subfamily with pairwise distance >= R.

    Exact (maximum independent set in the conflict graph) up to
    ``exact_limit`` items; greedy maximal beyond, certified lower-bound.
    """
    if not R > 0:
        raise InvalidInputError("R must be positive")
    n = len(items)
    if n == 0:
        return ExtremalResult("separated", R, 0, (), "exact")
    if n <= exact_limit:
        conflict = _conflict_masks(items, R)
        sel, nodes = _mis_bitset(n, conflict)
        result = ExtremalResult("separated", R, len(sel), tuple(sel), "exact", {"nodes": nodes})
    else:
        sel = _greedy_separated(items, R)
        result = ExtremalResult("separated", R, len(sel), tuple(sel), "lower-bound",
                                {"greedy_passes": len(sel)})
    verify_separated(items, R, result.selected)
    return result


def _greedy_separated(items: MetricItems, R: Dist) -> List[int]:
    n = len(items)
    if items.vectors is not None:
        alive = np.ones(n, dtype=bool)
        chosen: List[int] = []
        threshold = float(R) - items.tol
        while True:
            rest = np.flatnonzero(alive)
            if rest.size == 0:
                break
            pick = int(rest[0])
            chosen.append(pick)
            dists = items.dmat[items.vectors[rest], items.vectors[pick][None, :]].max(axis=1)
            alive[rest] = dists >= threshold
            alive[pick] = False
        return chosen
    chosen = []
    for i in range(n):
        if all(items.dist(i, j) >= R - items.tol for j in chosen):
            chosen.append(i)
    return chosen


def verify_separated(items: MetricItems, R: Dist, selected: Sequence[int],
                     pair_cap: int = 4_000_000) -> None:
    """Independent pairwise check of an R-separated selection (raises)."""
    sel = list(selected)
    if items.vectors is not None and len(sel) > 1:
        rows = items.vectors[np.array(sel)]
        threshold = float(R) - items.tol
        width = max(1, rows.shape[1])
        block = max(1, pair_cap // max(1, len(sel) * width))
        for lo in range(0, len(sel), block):
            part = rows[lo:lo + block]
            dists = items.dmat[part[:, None, :], rows[None, :, :]].max(axis=2)
            np.fill_diagonal(dists[:, lo:lo + part.shape[0]], np.inf)
            if dists.min() < threshold:
                raise InvalidInputError("separation check failed on the returned set")
        return
    if len(sel) * len(sel) > pair_cap:
        sel = sel[: int(math.isqrt(pair_cap))]
    for a_i, i in enumerate(sel):
        for j in sel[a_i + 1:]:
            if not items.dist(i, j) >= R - items.tol:
                raise InvalidInputError(
                    f"separation check failed: items {i} and {j} at distance {items.dist(i, j)}")


# ---------------------------------------------------------------------------
# minimum dense subfamily (set cover over open R-balls)


def _cover_masks(items: MetricItems, R: Dist) -> List[int]:
    n = len(items)
    cov = [0] * n
    if items.vectors is not None:
        threshold = float(R) - items.tol
        rows = items.vectors
        for i in range(n):
            dists = items.dmat[rows, rows[i][None, :]].max(axis=1)
            mask = 0
            for j in np.flatnonzero(dists < threshold):
                mask |= 1 << int(j)
            cov[i] = mask
        return cov
    for i in range(n):
        mask = 1 << i
        for j in range(n):
            if j != i and items.dist(i, j) < R - items.tol:
                mask |= 1 << j
        cov[i] = mask
    return cov


def _exact_cover(n: int, cov: List[int], node_budget: int = 20_000_000):
    """Minimum set cover by iterative deepening on the cover size.

    Branches on the lowest-index uncovered element; candidate centers in
    index order, so the first optimum found is the canonical witness.
    """
    full = (1 << n) - 1
    coverers: List[List[int]] = [[] for _ in range(n)]
    for c in range(n):
        m = cov[c]
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            coverers[e].append(c)
    maxcov = max(c.bit_count() for c in cov)
    greedy = _greedy_cover_masks(n, cov)
    lower = -(-n // maxcov)
    nodes = [0]

    def dfs(uncov: int, budget: int, chosen: List[int]) -> bool:
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise InvalidInputError("set-cover search exceeded its node budget")
        if uncov == 0:
            return True
        if budget == 0 or -(-uncov.bit_count() // maxcov) > budget:
            return False
        e = (uncov & -uncov).bit_length() - 1
        for c in coverers[e]:
            chosen.append(c)
            if dfs(uncov & ~cov[c], budget - 1, chosen):
                return True
            chosen.pop()
        return False

    for budget in range(lower, len(greedy)):
        chosen: List[int] = []
        if dfs(full, budget, chosen):
            return sorted(chosen), nodes[0]
    return sorted(greedy), nodes[0]


def _greedy_cover_masks(n: int, cov: List[int]) -> List[int]:
    full = (1 << n) - 1
    uncovered = full
    chosen: List[int] = []
    while uncovered:
        best_c, best_gain = -1, -1
        for c in range(n):
            gain = (cov[c] & uncovered).bit_count()
            if gain > best_gain:
                best_gain, best_c = gain, c
        chosen.append(best_c)
        uncovered &= ~cov[best_c]
    return chosen


def _mask_assignment(n: int, cov: List[int], selected: Sequence[int]) -> List[int]:
    """For each item, the lowest-index selected center whose mask covers it
    (-1 where none does, which the verifier then rejects)."""
    assignment = [-1] * n
    open_items = (1 << n) - 1
    for c in sorted(selected):
        m = cov[c] & open_items
        open_items &= ~m
        while m:
            e = (m & -m).bit_length() - 1
            m &= m - 1
            assignment[e] = c
    return assignment


def _greedy_net_cover(items: MetricItems, R: Dist) -> Tuple[List[int], List[int]]:
    """First-uncovered greedy: centers form a maximal R-separated set,
    hence an R-dense one; scales to large families.

    Centers are picked in increasing index order, so the center that first
    covers an item is the lowest-index one covering it; that is the item's
    entry in the returned assignment.
    """
    n = len(items)
    threshold_lt = float(R) - items.tol
    if items.vectors is not None:
        assignment = np.full(n, -1, dtype=np.int64)
        chosen: List[int] = []
        while True:
            rest = np.flatnonzero(assignment < 0)
            if rest.size == 0:
                break
            pick = int(rest[0])
            chosen.append(pick)
            dists = items.dmat[items.vectors[rest], items.vectors[pick][None, :]].max(axis=1)
            assignment[rest[dists < threshold_lt]] = pick
            assignment[pick] = pick
        return chosen, assignment.tolist()
    assigned = [-1] * n
    chosen = []
    for i in range(n):
        if assigned[i] < 0:
            chosen.append(i)
            for j in range(i, n):
                if assigned[j] < 0 and items.dist(i, j) < R - items.tol:
                    assigned[j] = i
    return chosen, assigned


def min_dense(items: MetricItems, R: Dist, exact_limit: int = 25,
              greedy_limit: int = 1500) -> ExtremalResult:
    """Smallest subfamily with every item strictly within R of a member.

    Exact set cover up to ``exact_limit`` items (cover sizes tried in
    ascending order); max-coverage greedy up to ``greedy_limit``; beyond
    that a first-uncovered pass whose centers are both R-separated and
    R-dense.  Non-exact certificates are "upper-bound".  Every solver also
    assigns each item its lowest-index covering center, and the verifier
    checks that assignment.
    """
    if not R > 0:
        raise InvalidInputError("R must be positive")
    n = len(items)
    if n == 0:
        return ExtremalResult("dense", R, 0, (), "exact")
    if n <= exact_limit:
        cov = _cover_masks(items, R)
        sel, nodes = _exact_cover(n, cov)
        assignment = _mask_assignment(n, cov, sel)
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "exact", {"nodes": nodes})
    elif n <= greedy_limit and (items.vectors is not None or n <= 400):
        cov = _cover_masks(items, R)
        sel = sorted(_greedy_cover_masks(n, cov))
        assignment = _mask_assignment(n, cov, sel)
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "upper-bound",
                                {"strategy_max_coverage": 1})
    else:
        sel, assignment = _greedy_net_cover(items, R)
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "upper-bound",
                                {"strategy_first_uncovered": 1})
    verify_dense(items, R, result.selected, assignment)
    return result


def verify_dense(items: MetricItems, R: Dist, selected: Sequence[int],
                 assignment: Optional[Sequence[int]] = None,
                 work_cap: int = 8_000_000) -> None:
    """Independent check that the selection is R-dense (raises on failure).

    With an ``assignment`` (item i's center is ``assignment[i]``), the
    check is complete and costs one distance per item: every assigned
    center must be selected and each item strictly within R of it.
    Without one, every item is compared with every center (the scalar
    check spot-checks a prefix past ``work_cap`` comparisons).
    """
    sel = list(selected)
    n = len(items)
    if not sel:
        if n:
            raise InvalidInputError("empty selection cannot cover a nonempty family")
        return
    if assignment is not None:
        _verify_assignment(items, R, sel, assignment)
        return
    if items.vectors is not None:
        threshold = float(R) - items.tol
        centers = items.vectors[np.array(sel)]
        width = max(1, centers.shape[1])
        block = max(1, work_cap // max(1, len(sel) * width))
        for lo in range(0, n, block):
            rows = items.vectors[lo:lo + block]
            dists = items.dmat[rows[:, None, :], centers[None, :, :]].max(axis=2)
            if dists.min(axis=1).max() >= threshold:
                raise InvalidInputError("covering check failed on the returned set")
        return
    if n * len(sel) > work_cap:
        # construction already guarantees covering; spot-check a prefix
        n = work_cap // len(sel)
    for i in range(n):
        if not any(items.dist(i, c) < R - items.tol for c in sel):
            raise InvalidInputError(f"covering check failed: item {i} is not within {R} of the cover")


def _verify_assignment(items: MetricItems, R: Dist, sel: List[int],
                       assignment: Sequence[int]) -> None:
    n = len(items)
    if len(assignment) != n:
        raise InvalidInputError(
            f"cover assignment has {len(assignment)} entries for {n} items")
    chosen = set(sel)
    stray = next((i for i, c in enumerate(assignment) if c not in chosen), None)
    if stray is not None:
        raise InvalidInputError(
            f"covering check failed: item {stray} is assigned to {assignment[stray]}, "
            f"which is not in the cover")
    if items.vectors is not None:
        rows = items.vectors
        centers = rows[np.asarray(assignment, dtype=np.int64)]
        worst = np.zeros(n)
        for k in range(rows.shape[1]):
            np.maximum(worst, items.dmat[rows[:, k], centers[:, k]], out=worst)
        far = np.flatnonzero(worst >= float(R) - items.tol)
        if far.size:
            i = int(far[0])
            raise InvalidInputError(
                f"covering check failed: item {i} is not within {R} of its center "
                f"{assignment[i]}")
        return
    for i, c in enumerate(assignment):
        if not items.dist(i, c) < R - items.tol:
            raise InvalidInputError(
                f"covering check failed: item {i} is not within {R} of its center {c}")


# ---------------------------------------------------------------------------
# greedy nets on spaces and band cliques (geometry support)


def greedy_net(space: MetricSpace, window: Sequence[PointRef], s: Dist) -> List[PointRef]:
    """Maximal s-separated subset of the window containing its first point.

    The first window entry seeds the net; remaining points are scanned in
    sorted order.  The returned list keeps construction order, which
    downstream retractions use for deterministic tie-breaking.
    """
    pts = list(window)
    if not pts:
        return []
    first = pts[0]
    net = [first]
    for p in sorted(pts[1:]):
        if p == first:
            continue
        if all(space.ge(space.distance(p, z), s) for z in net):
            net.append(p)
    return net


def max_band_clique(items: MetricItems, low: Dist, high: Dist, exact_limit: int = 40,
                    anchor_cap: int = 64) -> ExtremalResult:
    """Largest subfamily with all pairwise distances in [low, high].

    This is a maximum clique in the band graph, solved as an independent
    set of its complement below ``exact_limit``; above it a deterministic
    anchored greedy reports a lower bound.
    """
    n = len(items)
    if n == 0:
        return ExtremalResult("band-clique", low, 0, (), "exact")

    def in_band(i, j):
        d = items.dist(i, j)
        return d >= low - items.tol and d <= high + items.tol

    if n <= exact_limit:
        conflict = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not in_band(i, j):
                    conflict[i] |= 1 << j
                    conflict[j] |= 1 << i
        sel, nodes = _mis_bitset(n, conflict)
        return ExtremalResult("band-clique", low, len(sel), tuple(sel), "exact", {"nodes": nodes})
    best: List[int] = []
    for anchor in range(min(n, anchor_cap)):
        clique = [anchor]
        for j in range(n):
            if j != anchor and all(in_band(j, c) for c in clique):
                clique.append(j)
        if len(clique) > len(best):
            best = clique
    return ExtremalResult("band-clique", low, len(best), tuple(sorted(best)), "lower-bound",
                          {"anchors": min(n, anchor_cap)})
