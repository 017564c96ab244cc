"""Exact and greedy solvers for packing (R-separated) and covering (R-dense).

The solvers work on :class:`MetricItems`, an indexed finite family over a
table of points.  Each scale R is compared once, in exact arithmetic, into
a boolean table that every solver and verifier reads.  Exact solving
happens below ``exact_limit`` (maximum independent set in the conflict
graph for packing, minimum set cover over open R-balls for covering);
above the limit deterministic greedy versions return certified one-sided
bounds instead of silently pretending to be exact.  Tie-breaking
everywhere: lowest index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .numbers import Dist
from .paths import PathFamily, point_table
from .spaces.base import MetricSpace, PointRef, pair_table

__all__ = [
    "MetricItems",
    "ExtremalResult",
    "max_separated",
    "min_dense",
    "greedy_net",
    "nearest_net",
    "max_band_clique",
    "verify_separated",
    "verify_dense",
]


# largest point table a family may use: its distance table has this many
# squared entries, and every boolean table per scale as many bytes
POINT_LIMIT = 4096

# bytes of packed row sets the first-fit pass and the separation check may
# hold; each drops them all when the next ones might not fit
_NEAR_MEMO_BYTES = 64 << 20

# item pairs one block of a close-pair gather holds; blocks bound memory,
# never which pairs are checked
_BLOCK_CELLS = 4_000_000

# branch-and-bound nodes an exact search may expand before it gives up
_NODE_BUDGET = 20_000_000

# largest family min_dense covers by max-coverage greedy; larger ones get
# the first-uncovered pass
_GREEDY_LIMIT = 1500

# largest family max_band_clique solves exactly
_BAND_EXACT_LIMIT = 40


def _check_point_limit(size: int) -> None:
    if size > POINT_LIMIT:
        raise BudgetExceededError(
            f"the family spans {size} points; its distance table is capped at "
            f"{POINT_LIMIT} points")


class MetricItems:
    """A finite indexed family of items over a table of points.

    ``vectors`` is an ``(N, w)`` matrix of point ids: item i is the point
    sequence ``vectors[i]``, and two items are as far apart as their
    farthest aligned points (the orbit sup distance).  For the plain
    constructor, w = 1 and the points are the items.  ``dmat`` is the exact
    point-distance table (ints, Fractions or floats), built on first use
    for plain families, and ``close(R)`` the boolean table
    ``dmat < R - tol``, compared exactly once per scale.  Every distance,
    packing, covering and verify query reads them.
    """

    def __init__(self, items: Sequence, dist_fn: Callable[[int, int], Dist], tol: Dist = 0):
        self.items = items if isinstance(items, PathFamily) else tuple(items)
        self.tol = tol
        self.vectors = np.arange(len(self.items)).reshape(-1, 1)
        self._dist_fn = dist_fn
        self._dmat: Optional[np.ndarray] = None
        self._close: Dict[Dist, np.ndarray] = {}

    def __len__(self):
        return len(self.items)

    @property
    def dmat(self) -> np.ndarray:
        if self._dmat is None:
            _check_point_limit(len(self.items))
            self._dmat = pair_table(len(self.items), self._dist_fn)
        return self._dmat

    def dist(self, i: int, j: int) -> Dist:
        v = self.vectors
        return max(self.dmat[v[i], v[j]].tolist())

    def close(self, R: Dist) -> np.ndarray:
        """Boolean point table ``dmat < R - tol``, built once per scale."""
        threshold = R - self.tol
        table = self._close.get(threshold)
        if table is None:
            table = self._close[threshold] = np.less(self.dmat, threshold)
        return table

    @classmethod
    def from_orbits(cls, space: MetricSpace, orbits):
        """Items are paths under the orbit (sup) distance.

        ``orbits`` is a :class:`PathFamily`, whose id matrix is used as it
        stands, or any sequence of DeltaPaths or point sequences, which is
        indexed into a point table once.  The point-distance table is built
        here by ``space.distance_table``; a family over more than
        ``POINT_LIMIT`` points raises :class:`BudgetExceededError` before it
        is allocated.
        """
        support, ids = point_table(orbits)
        items = orbits if isinstance(orbits, PathFamily) else \
            tuple(tuple(support[k] for k in row) for row in ids.tolist())
        family = cls(items, None, tol=space.tol)
        family.vectors = ids
        _check_point_limit(len(support))
        family._dmat = space.distance_table(support)
        return family


def _close_blocks(items: MetricItems, R: Dist, rows: np.ndarray,
                  cols: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yields ``(lo, out)`` for consecutive row blocks: ``out[r, c]`` says
    items ``rows[lo + r]`` and ``cols[c]`` are strictly within R, that is,
    every aligned pair of their points is close.  Every pair is gathered;
    a block holds about ``_BLOCK_CELLS`` of them."""
    close, v = items.close(R), items.vectors
    step = max(1, _BLOCK_CELLS // len(cols))
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        out = close[v[part, 0][:, None], v[cols, 0]]
        for k in range(1, v.shape[1]):
            out &= close[v[part, k][:, None], v[cols, k]]
        yield lo, out


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


def _mis_bitset(n: int, conflict: List[int]):
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
        if nodes[0] > _NODE_BUDGET:
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


def max_separated(items: MetricItems, R: Dist, exact_limit: int = 40) -> ExtremalResult:
    """Largest subfamily with pairwise distance >= R.

    Exact (maximum independent set in the conflict graph) up to
    ``exact_limit`` items; beyond, the first-uncovered pass that
    :func:`min_dense` also uses, certified lower-bound.
    """
    if not R > 0:
        raise InvalidInputError("R must be positive")
    n = len(items)
    if n == 0:
        return ExtremalResult("separated", R, 0, (), "exact")
    if n <= exact_limit:
        conflict = [mask & ~(1 << i) for i, mask in enumerate(_cover_masks(items, R))]
        sel, nodes = _mis_bitset(n, conflict)
        result = ExtremalResult("separated", R, len(sel), tuple(sel), "exact", {"nodes": nodes})
    else:
        sel, _ = _first_fit(items, R)
        result = ExtremalResult("separated", R, len(sel), tuple(sel), "lower-bound",
                                {"greedy_passes": len(sel)})
    verify_separated(items, R, result.selected)
    return result


def _pack_rows(rows: np.ndarray, words: int) -> np.ndarray:
    """A boolean row vector as ``words`` little-endian 64-bit words: row i
    is bit ``i % 64`` of word ``i // 64``, and the bits past the rows are 0."""
    out = np.zeros(8 * words, dtype=np.uint8)
    packed = np.packbits(rows, bitorder="little")
    out[:packed.size] = packed
    return out.view("<u8")


def _unpack_rows(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the set bits of a packed row set."""
    octets = words.view(np.uint8)
    nonzero = np.flatnonzero(octets)
    byte, bit = np.nonzero(np.unpackbits(octets[nonzero, None], axis=1, bitorder="little"))
    return nonzero[byte] * 8 + bit


def _first_fit(items: MetricItems, R: Dist) -> Tuple[List[int], np.ndarray]:
    """First-uncovered greedy: each pick is the lowest item no earlier pick
    is strictly within R of, so the picks are a maximal R-separated set,
    hence R-dense.  Also returns each item's lowest-index covering pick,
    which is the first pick to cover it.

    Row sets are packed 64 rows to a word.  ``near(k, a)``, the rows whose
    column-k point is strictly within R of point ``a``, is packed once per
    ``(k, a)`` and memoised within ``_NEAR_MEMO_BYTES``.  A pick covers the
    uncovered rows in every ``near(k, v[pick, k])``, and itself.  No row
    below a pick is uncovered, so each pick only reads the words from its own.
    """
    close, v = items.close(R), items.vectors
    n = len(items)
    words = -(-n // 64)
    columns = np.ascontiguousarray(v.T)  # contiguous gathers for the row sets
    uncovered = _pack_rows(np.ones(n, dtype=bool), words)
    assignment = np.full(n, -1, dtype=np.int64)
    memo: Dict[Tuple[int, int], np.ndarray] = {}
    memo_cap = _NEAR_MEMO_BYTES // (8 * words) if words else 0
    picks: List[int] = []
    w = 0
    for _ in range(n):  # at most one pick per row: each pick covers itself
        while w < words and not uncovered[w]:
            w += 1
        if w == words:
            break
        word = int(uncovered[w])
        bit = (word & -word).bit_length() - 1
        pick = 64 * w + bit
        picks.append(pick)
        cover = uncovered[w:].copy()
        for k, a in enumerate(v[pick].tolist()):
            near = memo.get((k, a))
            if near is None:
                near = _pack_rows(close[:, a].take(columns[k]), words)
                if len(memo) >= memo_cap:
                    memo.clear()
                if memo_cap:
                    memo[k, a] = near
            cover &= near[w:]
        cover[0] |= np.uint64(1 << bit)
        uncovered[w:] &= ~cover
        assignment[_unpack_rows(cover) + 64 * w] = pick
    return picks, assignment


def verify_separated(items: MetricItems, R: Dist, selected: Sequence[int]) -> None:
    """Independent check of an R-separated selection (raises).

    Reads only ``close(R)`` and the selection.  Selection positions are
    packed 64 to a word.  For a column k and a point a that a selected item
    has there, the positions whose column-k point is strictly within R of a
    form one packed set.  The AND of a position's sets over the columns
    holds the positions strictly within R of it, which must be only itself.
    The ANDs are taken in row blocks of about ``_BLOCK_CELLS`` pairs; each
    block packs the sets its rows need that are not yet held.  The held
    sets are all dropped when a block's sets for the next column might not
    fit in ``_NEAR_MEMO_BYTES`` (they always fit when nothing else is held).
    A selection of one word gathers its pairs directly, which costs less
    than packing them.  Either way the failing pair reported is the first
    position, in selection order, with another position strictly within R,
    and the lowest such other position.
    """
    sel = np.asarray(selected, dtype=np.int64)
    m = sel.size
    if m < 2:
        return
    close, columns = items.close(R), items.vectors[sel].T
    if m <= 64:
        hit = close[columns[0][:, None], columns[0]]
        for col in columns[1:]:
            hit &= close[col[:, None], col]
        np.fill_diagonal(hit, False)
        if hit.any():
            p, q = np.argwhere(hit)[0]
            _separation_failure(items, int(sel[p]), int(sel[q]))
        return
    words, octets = -(-m // 64), -(-m // 8)
    step = max(1, _BLOCK_CELLS // (64 * words))  # positions per row block
    points = len(close)
    slot = np.full((len(columns), points), -1, dtype=np.int64)  # -1: set not held
    held = min(len(columns) * min(points, m) + min(step, m),
               max(step, _NEAR_MEMO_BYTES // (8 * words)))
    sets = np.zeros((held, words), dtype="<u8")  # bytes past the positions stay 0
    filled = 0
    for lo in range(0, m, step):
        rows = np.arange(lo, min(m, lo + step))
        hit = None
        for col, at in zip(columns, slot):
            need = col[rows]
            if filled + need.size > held:  # at most one new set per row
                slot.fill(-1)
                filled = 0
            fresh = np.zeros(points, dtype=bool)
            fresh[need] = at[need] < 0
            new = np.flatnonzero(fresh)
            if new.size:
                packed = np.packbits(close[new][:, col], axis=1, bitorder="little")
                sets[filled:filled + new.size].view(np.uint8)[:, :octets] = packed
                at[new] = np.arange(filled, filled + new.size)
                filled += new.size
            if hit is None:
                hit = sets[at[need]]
            else:
                hit &= sets[at[need]]
        hit[rows - lo, rows >> 6] &= ~(np.uint64(1) << (rows & 63).astype(np.uint64))
        bad = np.flatnonzero(hit.any(axis=1))
        if bad.size:
            r = int(bad[0])
            _separation_failure(items, int(sel[lo + r]), int(sel[_unpack_rows(hit[r])[0]]))


def _separation_failure(items: MetricItems, i: int, j: int) -> None:
    raise InvalidInputError(
        f"separation check failed: items {i} and {j} at distance {items.dist(i, j)}")


# ---------------------------------------------------------------------------
# minimum dense subfamily (set cover over open R-balls)


def _cover_masks(items: MetricItems, R: Dist) -> List[int]:
    """Bitmask of the items strictly within R of each item."""
    every = np.arange(len(items))
    cov: List[int] = []
    for _, rows in _close_blocks(items, R, every, every):
        bits = np.packbits(rows, axis=1, bitorder="little")
        cov.extend(int.from_bytes(row.tobytes(), "little") for row in bits)
    return cov


def _exact_cover(n: int, cov: List[int]):
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
        if nodes[0] > _NODE_BUDGET:
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


def min_dense(items: MetricItems, R: Dist, exact_limit: int = 25) -> ExtremalResult:
    """Smallest subfamily with every item strictly within R of a member.

    Exact set cover up to ``exact_limit`` items (cover sizes tried in
    ascending order); max-coverage greedy up to ``_GREEDY_LIMIT``; beyond
    that a first-uncovered pass whose centers are both R-separated and
    R-dense.  Non-exact certificates are "upper-bound".  The verifier
    checks every item against every center of the exact and max-coverage
    covers; the first-uncovered pass hands it each item's first covering
    pick, which costs one comparison per item.
    """
    if not R > 0:
        raise InvalidInputError("R must be positive")
    if not R > items.tol:
        # no item would be strictly within R of itself, so nothing covers
        raise InvalidInputError(
            f"R must exceed the comparison tolerance {items.tol}; got {R}")
    n = len(items)
    if n == 0:
        return ExtremalResult("dense", R, 0, (), "exact")
    assignment = None
    if n <= exact_limit:
        sel, nodes = _exact_cover(n, _cover_masks(items, R))
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "exact", {"nodes": nodes})
    elif n <= _GREEDY_LIMIT:
        sel = sorted(_greedy_cover_masks(n, _cover_masks(items, R)))
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "upper-bound",
                                {"strategy_max_coverage": 1})
    else:
        sel, assignment = _first_fit(items, R)
        result = ExtremalResult("dense", R, len(sel), tuple(sel), "upper-bound",
                                {"strategy_first_uncovered": 1})
    verify_dense(items, R, result.selected, assignment)
    return result


def verify_dense(items: MetricItems, R: Dist, selected: Sequence[int],
                 assignment: Optional[Sequence[int]] = None) -> None:
    """Independent check that the selection is R-dense (raises on failure).

    Without an ``assignment``, every item is compared with every center,
    in row blocks of about ``_BLOCK_CELLS`` pairs.  With one (item i's
    center is ``assignment[i]``), the check costs one comparison per item:
    every assigned center must be selected and each item strictly within R
    of it.
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
    centers = np.asarray(sel, dtype=np.int64)
    for lo, near in _close_blocks(items, R, np.arange(n), centers):
        covered = near.any(axis=1)
        if not covered.all():
            raise InvalidInputError(f"covering check failed: item {lo + int(np.argmin(covered))} "
                                    f"is not within {R} of the cover")


def _verify_assignment(items: MetricItems, R: Dist, sel: List[int],
                       assignment: Sequence[int]) -> None:
    n = len(items)
    if len(assignment) != n:
        raise InvalidInputError(
            f"cover assignment has {len(assignment)} entries for {n} items")
    centers = np.asarray(assignment)
    strays = np.flatnonzero(~np.isin(centers, sel))
    if strays.size:
        stray = int(strays[0])
        raise InvalidInputError(
            f"covering check failed: item {stray} is assigned to {assignment[stray]}, "
            f"which is not in the cover")
    v = items.vectors
    far = np.flatnonzero(~items.close(R)[v, v[centers.astype(np.int64)]].all(axis=1))
    if far.size:
        i = int(far[0])
        raise InvalidInputError(
            f"covering check failed: item {i} is not within {R} of its center {assignment[i]}")


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


def nearest_net(space: MetricSpace, window: Sequence[PointRef],
                net: Sequence[PointRef]) -> List[Tuple[int, Dist]]:
    """For each window point, the index of its nearest point in the
    (nonempty) net and the distance to it.  Ties go to the earliest net
    point: a later one wins only when ``space.lt`` puts it strictly closer.
    """
    out = []
    for p in window:
        best = None
        for idx, z in enumerate(net):
            d = space.distance(p, z)
            if best is None or space.lt(d, best[1]):
                best = (idx, d)
        out.append(best)
    return out


def max_band_clique(space: MetricSpace, points: Sequence[PointRef], low: Dist,
                    high: Dist) -> ExtremalResult:
    """Largest subset of ``points`` with all pairwise distances in [low, high]
    up to the space tolerance; ``selected`` holds indices into ``points``.

    This is a maximum clique in the band graph, solved as an independent
    set of its complement up to ``_BAND_EXACT_LIMIT`` points; above it a deterministic
    greedy grown from each of the first 64 points reports a lower bound.
    Each pair is asked of the space once, when first needed, and its answer kept.
    """
    n = len(points)
    if n == 0:
        return ExtremalResult("band-clique", low, 0, (), "exact")
    known: Dict[Tuple[int, int], bool] = {}

    def in_band(i, j):
        key = (i, j) if i < j else (j, i)
        got = known.get(key)
        if got is None:
            d = space.distance(points[key[0]], points[key[1]])
            got = known[key] = space.ge(d, low) and space.le(d, high)
        return got

    if n <= _BAND_EXACT_LIMIT:
        conflict = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not in_band(i, j):
                    conflict[i] |= 1 << j
                    conflict[j] |= 1 << i
        sel, nodes = _mis_bitset(n, conflict)
        return ExtremalResult("band-clique", low, len(sel), tuple(sel), "exact", {"nodes": nodes})
    best: List[int] = []
    anchors = min(n, 64)
    for anchor in range(anchors):
        clique = [anchor]
        for j in range(n):
            if j != anchor and all(in_band(j, c) for c in clique):
                clique.append(j)
        if len(clique) > len(best):
            best = clique
    return ExtremalResult("band-clique", low, len(best), tuple(sorted(best)), "lower-bound",
                          {"anchors": anchors})
