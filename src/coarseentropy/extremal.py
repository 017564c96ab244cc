"""Exact and greedy solvers for packing (R-separated) and covering (R-dense).

The solvers work on :class:`MetricItems`, an indexed finite family over a
table of points.  Each scale R is compared once, in exact arithmetic, into
a boolean table, ``close(R)``.  The exact searches read one boolean item
table gathered from it, the AND over the columns of the paths; their
Python-int masks are packed once from that table.  The greedy solvers and
every verifier read ``close(R)`` through one kind of store: for a family, a
scale and some column items, the packed sets of column positions strictly
within R of each point, per column of the paths, gathered when first
needed.  Each verifier builds its own store and reads neither a solver's
store nor the item table: every pair of picks is checked for packing, and
every item against every centre for covering.  Exact solving happens below
``exact_limit`` (maximum independent set in the conflict graph for
packing, minimum set cover over open R-balls for covering); above the
limit deterministic greedy versions return certified one-sided bounds
instead of silently pretending to be exact.  Tie-breaking everywhere:
lowest index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    "max_band_clique",
    "verify_separated",
    "verify_dense",
]


# largest point table a family may use: its distance table has this many
# squared entries, and every boolean table per scale as many bytes
POINT_LIMIT = 4096

# bytes of packed near sets one store may hold; it drops them all when the
# next ones might not fit
_NEAR_MEMO_BYTES = 64 << 20

# item pairs one row block of a store's AND holds; blocks bound memory,
# never which pairs are checked
_BLOCK_CELLS = 4_000_000

# branch-and-bound nodes an exact search may expand before it gives up
_NODE_BUDGET = 20_000_000

# largest family min_dense covers by max-coverage greedy; larger ones get
# the first-uncovered pass
_GREEDY_LIMIT = 1500

# largest family max_band_clique solves exactly
_BAND_EXACT_LIMIT = 40

# the types numpy reads as integers but a selection may not hold
_BOOLS = frozenset({bool, np.bool_})


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


class _NearSets:
    """Packed near sets of one family at scale R over its items, or ``cols``.

    ``near(k, a)`` holds the positions j of the column items whose column-k
    point is strictly within R of point ``a``, as bit ``j % 64`` of word
    ``j // 64`` (0 past the columns).  A set is gathered from ``close(R)``,
    over the columns' points only, when first needed.  The held sets share
    ``_NEAR_MEMO_BYTES`` and are all dropped together when the next ones
    might not fit; one row block's sets for one column always fit.
    """

    def __init__(self, items: MetricItems, R: Dist, cols: Union[slice, np.ndarray] = slice(None)):
        self.close, self.vectors = items.close(R), items.vectors
        self.cols = np.ascontiguousarray(self.vectors[cols].T)  # contiguous gathers
        (width, size), points = self.cols.shape, len(self.close)
        self.words = -(-size // 64)
        self.step = max(1, _BLOCK_CELLS // (64 * self.words))  # rows per block
        # rows of one gather: its booleans take about the bytes of one packed block
        self.gather = max(1, _BLOCK_CELLS // (8 * (points + size)))
        self.slot = np.full((width, points), -1, dtype=np.int64)  # -1: not held
        held = max(self.step, _NEAR_MEMO_BYTES // (8 * self.words))
        # allocated, not written: a row's pages are touched when its set is packed
        self.sets = np.empty((min(held, width * points), self.words), dtype="<u8")
        self.octets = self.sets.view(np.uint8)
        self.filled = 0

    def _pack(self, k: int, new: np.ndarray, needed: np.ndarray) -> None:
        """Packs ``near(k, a)`` for each new point a, or each needed one on a drop."""
        if self.filled + new.size > len(self.sets):
            self.slot.fill(-1)
            self.filled, new = 0, needed
        col, start = self.cols[k], self.filled
        for lo in range(start, start + new.size, self.gather):
            part = new[lo - start:lo - start + self.gather]
            bits = np.packbits(self.close.take(part, axis=0).take(col, axis=1), axis=1,
                               bitorder="little")
            self.octets[lo:lo + part.size, :bits.shape[1]] = bits
            self.octets[lo:lo + part.size, bits.shape[1]:] = 0  # no bits past the columns
        self.filled = start + new.size
        self.slot[k][new] = np.arange(start, self.filled)

    def near(self, k: int, a: int) -> np.ndarray:
        at = self.slot.item(k, a)
        if at < 0:
            self._pack(k, np.array([a]), np.array([a]))
            at = self.slot.item(k, a)
        return self.sets[at]

    def blocks(self, rows: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Yields ``(lo, hit)`` for consecutive blocks of about ``_BLOCK_CELLS``
        pairs: ``hit[r]`` is the AND over the columns k of ``near(k, a)`` for
        the column-k point a of item ``rows[lo + r]``, the column positions
        strictly within R of that item."""
        for lo in range(0, len(rows), self.step):
            part = self.vectors.take(rows[lo:lo + self.step], axis=0)
            hit = None
            for k, slot in enumerate(self.slot):
                need = part[:, k]
                wanted = np.zeros(slot.size, dtype=bool)
                wanted[need] = True
                points = wanted.nonzero()[0]
                new = points[slot[points] < 0] if self.filled else points
                if new.size:
                    self._pack(k, new, points)
                sets = self.sets.take(slot[need], axis=0)
                hit = sets if hit is None else np.bitwise_and(hit, sets, out=hit)
            yield lo, hit


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a packing/covering solve.

    ``certificate`` is "exact" when the optimum was proven, "lower-bound"
    for greedy packings and "upper-bound" for greedy coverings, except for
    greedy answers nothing can beat: all the items or points, or one centre.
    ``stats`` holds solver counters (no wall-clock times: reports must be
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


def _row_masks(table: np.ndarray) -> List[int]:
    """Bit j of mask i is entry (i, j) of a boolean table, packed once."""
    n = table.shape[1]
    width = 8 * -(-n // 64)
    rows = np.zeros((len(table), width), dtype=np.uint8)
    rows[:, :-(-n // 8)] = np.packbits(table, axis=1, bitorder="little")
    return (rows.view("<u8").ravel().tolist() if width == 8 else  # one word a row is one mask
            [int.from_bytes(row, "little") for row in rows])


def _item_table(items: MetricItems, R: Dist) -> np.ndarray:
    """Boolean ``(N, N)`` item table: entry (i, j) holds when item j is
    strictly within R of item i, the AND over the columns k of ``close(R)``
    gathered by the column-k points on both axes."""
    close, table = items.close(R), None
    for col in items.vectors.T:
        part = close.take(col, axis=0).take(col, axis=1)
        table = part if table is None else np.logical_and(table, part, out=table)
    return table


def _mis_bitset(conflict: np.ndarray):
    """Maximum independent set via branch and bound on bitmasks, bounded by
    a greedy colouring (Tomita and Seki's MCQ, in San Segundo et al.'s
    bitset form, BBMC).

    ``conflict`` is a symmetric boolean table with an empty diagonal.  The
    items are renumbered by ascending conflict degree (ties: lowest index)
    once, by one gather of the table on both axes, and each ranked row is
    packed into one Python-int mask.  At each node the candidates are
    coloured in that order: each colour class takes the lowest uncoloured
    candidate, then the lowest one that conflicts with every member so far,
    until none is left.  A class is pairwise conflicting, so it holds at
    most one pick, and the candidates up to one of colour c add at most c
    to the set.  Candidates are taken from the highest colour down, include
    branch first, and a node stops as soon as its size plus the next colour
    cannot beat the best.  The lowest-index greedy pass, run over the
    ranked masks in index order, seeds the best; only strict improvements
    replace it.
    """
    n = len(conflict)
    order = np.argsort(conflict.sum(axis=1), kind="stable")
    adj = _row_masks(conflict.take(order, axis=0).take(order, axis=1))  # conflict rows by rank
    banned = seed = 0
    for r in order.argsort().tolist():  # each item's rank, in index order
        if not banned >> r & 1:
            seed |= 1 << r
            banned |= adj[r] | 1 << r
    best = [seed.bit_count(), seed]  # size, rank mask
    nodes = [0]

    def expand(cand: int, size: int, mask: int):
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise BudgetExceededError("independent-set search exceeded its node budget")
        # (rank, colour) of the candidates whose colour could beat the best
        coloured: List[Tuple[int, int]] = []
        floor = best[0] - size
        uncoloured, colour = cand, 0
        while uncoloured:
            colour += 1
            open_ = uncoloured
            while open_:
                low = open_ & -open_
                v = low.bit_length() - 1
                uncoloured ^= low
                open_ &= adj[v]
                if colour > floor:
                    coloured.append((v, colour))
        for v, colour in reversed(coloured):
            if size + colour <= best[0]:
                return
            bit = 1 << v
            rest = cand & ~adj[v] & ~bit
            if rest:
                expand(rest, size + 1, mask | bit)
            elif size + 1 > best[0]:
                best[0], best[1] = size + 1, mask | bit
            cand &= ~bit

    expand((1 << n) - 1, 0, 0)
    sel = sorted(v for r, v in enumerate(order.tolist()) if best[1] >> r & 1)
    return sel, nodes[0]


def max_separated(items: MetricItems, R: Dist, exact_limit: int = 40) -> ExtremalResult:
    """Largest subfamily with pairwise distance >= R.

    Exact (maximum independent set in the conflict graph) up to
    ``exact_limit`` items; beyond, the first-uncovered pass that
    :func:`min_dense` also uses, certified lower-bound unless it packs all.
    """
    if not R > 0:
        raise InvalidInputError("R must be positive")
    n = len(items)
    if n == 0:
        return ExtremalResult("separated", R, 0, (), "exact")
    if n <= exact_limit:
        conflict = _item_table(items, R)
        np.fill_diagonal(conflict, False)
        sel, nodes = _mis_bitset(conflict)
        result = ExtremalResult("separated", R, len(sel), tuple(sel), "exact", {"nodes": nodes})
    else:
        sel = _first_fit(items, R)
        result = ExtremalResult("separated", R, len(sel), tuple(sel),
                                "exact" if len(sel) == n else "lower-bound",
                                {"greedy_passes": len(sel)})
    verify_separated(items, R, result.selected)
    return result


def _unpack_rows(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the set bits of a packed row set."""
    octets = words.view(np.uint8)
    nonzero = np.flatnonzero(octets)
    byte, bit = np.nonzero(np.unpackbits(octets[nonzero, None], axis=1, bitorder="little"))
    return nonzero[byte] * 8 + bit


def _first_fit(items: MetricItems, R: Dist) -> List[int]:
    """First-uncovered greedy: each pick is the lowest item no earlier pick
    is strictly within R of, so the picks are a maximal R-separated set,
    hence R-dense.

    Rows are packed 64 to a word.  ``near(k, a)``, the rows whose column-k
    point is strictly within R of point ``a``, comes from a store of near
    sets over all the items, which packs each set once while it is held.
    A pick covers the uncovered rows in every ``near(k, v[pick, k])``, and
    itself.  No row below a pick is uncovered, so each pick only reads the
    words from its own.
    """
    n = len(items)
    store = _NearSets(items, R)
    uncovered = np.full(store.words, np.uint64(2 ** 64 - 1))
    uncovered[-1] >>= np.uint64(-n % 64)  # no bits past the rows
    picks: List[int] = []
    for w in range(store.words):
        while uncovered[w]:  # each pick covers itself
            word = int(uncovered[w])
            bit = (word & -word).bit_length() - 1
            pick = 64 * w + bit
            picks.append(pick)
            cover = uncovered[w:].copy()
            for k, a in enumerate(items.vectors[pick].tolist()):
                cover &= store.near(k, a)[w:]
            cover[0] |= np.uint64(1 << bit)
            uncovered[w:] &= ~cover
    return picks


def _indices(items: MetricItems, selected: Sequence[int]) -> np.ndarray:
    """The selection as an index array.  Raises unless every entry is an
    integer, not a bool, from 0 to N - 1: numpy would wrap a negative index
    and truncate a float."""
    n, sel = len(items), np.asarray(selected)
    if sel.size and not (sel.ndim == 1 and sel.dtype.kind in "iu"
                         and _BOOLS.isdisjoint(map(type, selected))
                         and 0 <= min(selected) and max(selected) < n):
        bad = next((x for x in selected if type(x) in _BOOLS
                    or not isinstance(x, (int, np.integer)) or not 0 <= x < n), selected)
        raise InvalidInputError(f"selections hold item indices from 0 to {n - 1}; got {bad!r}")
    return sel


def verify_separated(items: MetricItems, R: Dist, selected: Sequence[int]) -> None:
    """Independent check of an R-separated selection (raises).

    Reads only ``close(R)`` and the selection, through a store of near sets
    of its own over the selection's positions: the AND of a position's sets
    over the columns holds the positions strictly within R of it, which
    must be only itself.  Every table puts 0 on its diagonal, so a position
    holds itself exactly when ``close(R)`` does on its diagonal, and a row
    fails when it holds more bits than that.  The ANDs are taken in row
    blocks of about ``_BLOCK_CELLS`` pairs, and only the selection's columns
    are gathered.  The failing pair reported is the first position, in
    selection order, with another position strictly within R, and the
    lowest such other position.  Every entry must be an item index.
    """
    sel = _indices(items, selected)
    if sel.size < 2:
        return
    store = _NearSets(items, R, sel)
    own = store.close.item(0)  # whether every point is strictly within R of itself
    for lo, hit in store.blocks(sel):
        bad = (np.bitwise_count(hit).sum(axis=1) > own).nonzero()[0]
        if bad.size:
            at = lo + int(bad[0])
            i, j = int(sel[at]), int(sel[next(p for p in _unpack_rows(hit[bad[0]]) if p != at)])
            raise InvalidInputError(
                f"separation check failed: items {i} and {j} at distance {items.dist(i, j)}")


# ---------------------------------------------------------------------------
# minimum dense subfamily (set cover over open R-balls)


def _cover_masks(items: MetricItems, R: Dist) -> List[int]:
    """Bitmask of the items strictly within R of each item, from a store of
    near sets: the max-coverage greedy's input."""
    every = np.arange(len(items))
    cov: List[int] = []
    for _, hit in _NearSets(items, R).blocks(every):
        data, size = hit.tobytes(), 8 * hit.shape[1]  # one word a row is one mask
        cov.extend(hit.ravel().tolist() if size == 8 else
                   (int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)))
    return cov


def _exact_cover(table: np.ndarray):
    """Minimum set cover by iterative deepening on the cover size.

    Centre c covers the items of row c of the boolean ``table``, packed into
    one mask.  Branches on the lowest-index uncovered element; candidate
    centers in index order, so the first optimum found is the canonical
    witness.
    """
    n, cov = len(table), _row_masks(table)
    full = (1 << n) - 1
    coverers = [np.flatnonzero(col).tolist() for col in table.T]  # by item, centres ascending
    maxcov = int(table.sum(axis=1).max())
    greedy = _greedy_cover_masks(n, cov)
    lower = -(-n // maxcov)
    nodes = [0]

    def dfs(uncov: int, budget: int, chosen: List[int]) -> bool:
        nodes[0] += 1
        if nodes[0] > _NODE_BUDGET:
            raise BudgetExceededError("set-cover search exceeded its node budget")
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
    R-dense.  Their covers are "upper-bound", or "exact" with one centre.
    :func:`verify_dense` checks every item against every centre of each
    cover.
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
    if n <= exact_limit:
        sel, nodes = _exact_cover(_item_table(items, R))
        certificate, stats = "exact", {"nodes": nodes}
    elif n <= _GREEDY_LIMIT:
        sel = sorted(_greedy_cover_masks(n, _cover_masks(items, R)))
        certificate, stats = "upper-bound", {"strategy_max_coverage": 1}
    else:
        sel = _first_fit(items, R)
        certificate, stats = "upper-bound", {"strategy_first_uncovered": 1}
    if len(sel) == 1:  # a nonempty family needs a centre
        certificate = "exact"
    result = ExtremalResult("dense", R, len(sel), tuple(sel), certificate, stats)
    verify_dense(items, R, result.selected)
    return result


def verify_dense(items: MetricItems, R: Dist, selected: Sequence[int]) -> None:
    """Independent check that the selection is R-dense (raises on failure).

    Every item is compared with every centre through a store of its own
    over the centres: an item is covered when the AND of its near sets over
    the columns holds a centre.  The ANDs are taken in row blocks of about
    ``_BLOCK_CELLS`` pairs.  Every entry must be an item index.
    """
    sel, n = _indices(items, selected), len(items)
    if not sel.size:
        if n:
            raise InvalidInputError("empty selection cannot cover a nonempty family")
        return
    for lo, hit in _NearSets(items, R, sel).blocks(np.arange(n)):
        covered = hit.any(axis=1)
        if not covered.all():
            raise InvalidInputError(f"covering check failed: item {lo + int(np.argmin(covered))} "
                                    f"is not within {R} of the cover")


# ---------------------------------------------------------------------------
# greedy nets on spaces and band cliques (geometry support)


def _below(row: np.ndarray, bound: Dist) -> np.ndarray:
    """``row < bound`` entry by entry, exactly.  Against a Fraction num/den,
    a row of Python ints and Fractions is compared as ``row * den < num``,
    which needs no Fraction comparison per entry."""
    if isinstance(bound, Fraction) and set(map(type, row.tolist())) <= {int, Fraction}:
        return row * bound.denominator < bound.numerator
    return row < bound


def _net_cells(space: MetricSpace, window: Sequence[PointRef],
               s: Dist) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """A maximal s-separated net of the (nonempty) window, and each point's
    cell in it, read off one ``space.distance_table(window)``.

    The net holds window indices: the first point, then the others in
    sorted order, each unless it is within s of an earlier net point, below
    ``s - space.tol`` as ``space.lt`` compares.  A point's cell is the
    earliest net index, unless a later net point is closer by ``space.lt``;
    the third value holds each point's distance to its cell's net point, as
    ``distance`` gives it.
    """
    pts = list(window)
    table = space.distance_table(pts)
    bound = s - space.tol
    net = [0]
    blocked = _below(table[0], bound)
    for i in sorted(range(1, len(pts)), key=pts.__getitem__):
        if not blocked[i] and pts[i] != pts[0]:
            net.append(i)
            blocked |= _below(table[i], bound)
    cell = np.zeros(len(pts), dtype=np.int64)
    near = table[:, 0]
    for k, z in enumerate(net[1:], 1):
        closer = space.lt(table[:, z], near)
        cell[closer] = k
        near = np.where(closer, table[:, z], near)
    return net, cell, near


def greedy_net(space: MetricSpace, window: Sequence[PointRef], s: Dist) -> List[PointRef]:
    """Maximal s-separated subset of the window containing its first point.

    The first window entry seeds the net; remaining points are scanned in
    sorted order.  The returned list keeps construction order, which
    downstream retractions use for deterministic tie-breaking.  This is the
    net of ``_net_cells``, so it reads the window's whole distance table.
    """
    pts = list(window)
    return [pts[i] for i in _net_cells(space, pts, s)[0]] if pts else []


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
        conflict = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                conflict[i, j] = conflict[j, i] = not in_band(i, j)
        sel, nodes = _mis_bitset(conflict)
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
    return ExtremalResult("band-clique", low, len(best), tuple(sorted(best)),
                          "exact" if len(best) == n else "lower-bound", {"anchors": anchors})
