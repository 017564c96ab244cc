"""Exact and greedy solvers for packing (R-separated) and covering (R-dense).

The solvers work on :class:`MetricItems`, an indexed finite family over a
table of points.  Each scale R is compared once, in exact arithmetic, into
a boolean table, ``close(R)``.  The exact searches read one boolean item
table gathered from it, the AND over the columns of the paths; their
Python-int masks are packed once from that table.  The max-coverage greedy
and every verifier read ``close(R)`` through one helper, ``_near_words``:
for some rows and some column items, one table per column of the paths
holds the packed set of column positions strictly within R of each point,
and a row's set is the AND over the columns of one table row each.  The
first-uncovered greedy packs the same near sets over all the items as
Python-int masks of its own, under the same memory budget.  Each verifier
builds its own tables and reads neither a solver's sets nor the item
table: every pair of picks is checked for packing, and every item against
every centre for covering.  Exact solving happens below
``exact_limit`` (maximum independent set in the conflict graph for
packing, minimum set cover over open R-balls for covering); above the
limit deterministic greedy versions return certified one-sided bounds
instead of silently pretending to be exact.  Tie-breaking everywhere:
lowest index first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .numbers import Dist
from .paths import OrbitSet, PathFamily
from .spaces.base import _INT_TABLE_BOUND, MetricSpace, PointRef, pair_table

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

# bytes of packed near sets held at once: the tables of one chunk of
# positions in _near_words, the Python ints of _first_fit
_NEAR_MEMO_BYTES = 64 << 20

# item pairs one row block of _near_words holds; blocks bound memory, never
# which pairs are checked
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
    point-distance table, int64 or object, built on first use for plain
    families, and ``close(R)`` the boolean table ``dmat < R - tol``,
    compared once per scale by ``_below``.  Every distance, packing,
    covering and verify query reads them.
    """

    def __init__(self, items: Sequence, dist_fn: Callable[[int, int], Dist], tol: Dist = 0):
        self.items = tuple(items)
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
            table = self._close[threshold] = _below(self.dmat, threshold)
        return table

    @classmethod
    def from_orbits(cls, space: MetricSpace, orbits):
        """Items are paths under the orbit (sup) distance.

        An OrbitSet's family and a PathFamily are taken as they stand; any
        other paths are indexed once, by ``PathFamily.of(orbits, None)``.
        ``vectors`` is the family's id matrix and ``dmat`` is
        ``space.distance_table`` over its support; a family over more than
        ``POINT_LIMIT`` points raises :class:`BudgetExceededError` before the
        table is allocated.
        """
        paths = PathFamily.of(orbits.paths if isinstance(orbits, OrbitSet) else orbits, None)
        family = cls((), None, tol=space.tol)
        family.items, family.vectors = paths, paths.ids
        _check_point_limit(len(paths.support))
        family._dmat = space.distance_table(paths.support)
        return family


def _near_words(items: MetricItems, R: Dist, rows: Union[slice, np.ndarray],
                cols: Union[slice, np.ndarray]) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yields ``(word, lo, hit)``: ``hit[r]`` holds words ``word`` onwards of
    the packed set of positions j of the column items ``cols`` strictly
    within R of item ``rows[lo + r]`` (bit ``j % 64`` of word ``j // 64``).

    Per chunk of positions, column k's table holds the near sets of points
    0 to m_k - 1 (1 + the rows' largest column-k point, or every point when
    that packs faster than a pass over the rows), or of only the points the
    rows use when it is large, packed from ``close(R)`` gathered by the
    positions' column-k points in pieces of about ``_BLOCK_CELLS / 8``
    booleans; a row's hit is the AND over the columns of one table row each.
    Chunks of whole words keep the tables within ``_NEAR_MEMO_BYTES`` (one
    word at least), and row blocks hold about ``_BLOCK_CELLS`` pairs.
    """
    close, vectors = items.close(R), items.vectors[rows]
    # the positions' ids, one row per column for contiguous gathers
    targets = np.ascontiguousarray((vectors if cols is rows else items.vectors[cols]).T)
    size, columns = targets.shape[1], []  # per column: the points packed, each row's table row
    for at in vectors.T:
        m = len(close)
        if m * size > len(at):  # packing costs more than a pass over the rows
            m = int(at.max()) + 1
        points = np.arange(m)
        if m * size > 64 * len(at):  # a row's scatter costs about 64 packed bits
            used = np.zeros(m, dtype=bool)
            used[at] = True
            points, at = used.nonzero()[0], (np.cumsum(used) - 1)[at]
        columns.append((points, at))
    chunk = max(1, _NEAR_MEMO_BYTES // (8 * sum(len(points) for points, _ in columns)))  # words
    for word in range(0, -(-size // 64), chunk):
        part = targets[:, 64 * word:64 * (word + chunk)]
        width, octets = -(-part.shape[1] // 64), -(-part.shape[1] // 8)
        piece = max(1, _BLOCK_CELLS // (8 * (len(close) + part.shape[1])))  # table rows
        tables = []
        for (points, _), target in zip(columns, part):
            table = np.zeros((len(points), 8 * width), dtype=np.uint8)
            for lo in range(0, len(points), piece):
                bits = close.take(points[lo:lo + piece], axis=0).take(target, axis=1)
                table[lo:lo + piece, :octets] = np.packbits(bits, axis=1, bitorder="little")
            tables.append(table.view("<u8"))
        step = max(1, _BLOCK_CELLS // (64 * width))  # rows per block
        for lo in range(0, len(vectors), step):
            hit = None
            for table, (_, at) in zip(tables, columns):
                sets = table.take(at[lo:lo + step], axis=0)
                hit = sets if hit is None else np.bitwise_and(hit, sets, out=hit)
            yield word, lo, hit


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


def _first_fit(items: MetricItems, R: Dist) -> List[int]:
    """First-uncovered greedy: each pick is the lowest item no earlier pick
    is strictly within R of, so the picks are a maximal R-separated set,
    hence R-dense.

    The uncovered rows are one Python-int mask.  The near set of column k
    and point a, the rows whose column-k point is strictly within R of a,
    is packed into one more, straight from row a of ``close(R)`` gathered by
    the column, when a pick first needs it.  The held sets are dropped all
    together when the next one would pass ``_NEAR_MEMO_BYTES``.  A pick
    covers itself and the uncovered rows in the AND of its columns' sets.
    """
    n, close = len(items), items.close(R)
    cols = np.ascontiguousarray(items.vectors.T)  # contiguous gathers
    octets = -(-n // 8)  # bytes of one packed set
    held: Dict[Tuple[int, int], int] = {}  # (k, a): the near set of column k and point a
    uncovered = (1 << n) - 1
    picks: List[int] = []
    while uncovered:
        pick = (uncovered & -uncovered).bit_length() - 1
        picks.append(pick)
        uncovered ^= 1 << pick
        hit = uncovered
        for key in enumerate(items.vectors[pick].tolist()):
            near = held.get(key)
            if near is None:
                if (len(held) + 1) * octets > _NEAR_MEMO_BYTES:
                    held.clear()
                k, a = key
                near = held[key] = int.from_bytes(
                    np.packbits(close[a].take(cols[k]), bitorder="little").tobytes(), "little")
            hit &= near
        uncovered ^= hit  # hit lies within uncovered
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

    Reads only ``close(R)`` and the selection, through ``_near_words`` over
    the selection's positions with the selection as rows: a row's set holds
    the positions strictly within R of it, which must be only itself.
    Every table puts 0 on its diagonal, so a position holds itself exactly
    when ``close(R)`` does on its diagonal, and a row fails when its set,
    counted over every chunk of positions, holds more bits than that.  The
    failing pair reported is the first position, in selection order, with
    another position strictly within R, and the lowest such other position,
    read for that one row from ``close(R)``.  Every entry must be an item
    index.
    """
    sel = _indices(items, selected)
    if sel.size < 2:
        return
    close = items.close(R)
    count = np.zeros(sel.size, dtype=np.uint64)  # positions strictly within R of each
    for _, lo, hit in _near_words(items, R, sel, sel):
        count[lo:lo + len(hit)] += np.bitwise_count(hit).sum(axis=1)
    bad = (count > close.item(0)).nonzero()[0]  # item(0): whether a point holds itself
    if bad.size:
        at, v = int(bad[0]), items.vectors
        near = np.logical_and.reduce(close[v[sel[at], :, None], v[sel].T])
        near[at] = False
        i, j = int(sel[at]), int(sel[near.argmax()])
        raise InvalidInputError(
            f"separation check failed: items {i} and {j} at distance {items.dist(i, j)}")


# ---------------------------------------------------------------------------
# minimum dense subfamily (set cover over open R-balls)


def _cover_masks(items: MetricItems, R: Dist) -> List[int]:
    """Bitmask of the items strictly within R of each item, from
    ``_near_words`` over all the items: the max-coverage greedy's input.
    Each chunk of positions adds its words to every mask, shifted to the
    chunk's first word."""
    cov: List[int] = []
    for word, lo, hit in _near_words(items, R, slice(None), slice(None)):
        data, size = hit.tobytes(), 8 * hit.shape[1]  # one word a row is one mask
        masks = (hit.ravel().tolist() if size == 8 else
                 [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)])
        if word:  # a later chunk of positions: its words go above the first chunk's
            for r, mask in enumerate(masks, lo):
                cov[r] |= mask << 64 * word
        else:
            cov.extend(masks)
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

    Every item is compared with every centre through ``_near_words`` over
    the centres, with every item as a row: an item is covered when its set
    holds a centre in some chunk of positions, and the first uncovered item
    is reported.  Every entry must be an item index.
    """
    sel, n = _indices(items, selected), len(items)
    if not sel.size:
        if n:
            raise InvalidInputError("empty selection cannot cover a nonempty family")
        return
    covered = np.zeros(n, dtype=bool)
    for _, lo, hit in _near_words(items, R, slice(None), sel):
        covered[lo:lo + len(hit)] |= hit.any(axis=1)
    if not covered.all():
        raise InvalidInputError(f"covering check failed: item {int(np.argmin(covered))} "
                                f"is not within {R} of the cover")


# ---------------------------------------------------------------------------
# greedy nets on spaces and band cliques (geometry support)


def _below(table: np.ndarray, bound: Dist) -> np.ndarray:
    """``table < bound`` entry by entry, exactly.  An object table, or a bound
    of ±inf or NaN, is compared plainly; an int64 table, within 2**53 of 0,
    with ``ceil(bound)`` clamped to ±(2**53 + 1), an int any numpy compares in int64."""
    if table.dtype == object or isinstance(bound, float) and not math.isfinite(bound):
        return table < bound
    top = _INT_TABLE_BOUND + 1
    return table < min(top, max(-top, math.ceil(bound)))


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
