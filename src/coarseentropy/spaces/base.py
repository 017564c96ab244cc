"""Space handles: finite metric spaces, graphs, weighted graphs.

A space handle is an immutable object exposing two queries:

* ``distance(a, b)`` -> exact rational distance (or ``math.inf`` between
  components),
* ``neighbors(x, delta)`` -> the sorted finite list of points ``y != x``
  with ``d(x, y) <= delta``,

and ``distance_table(points)``, the table of ``distance`` between the given
points, which spaces with a closed form compute without a call per pair.

Handles never mutate after construction; distance caches are internal,
write-once-per-key and observationally transparent, so handles may be
shared across threads.  Generated (infinite) spaces live in
:mod:`coarseentropy.spaces.catalog`; they subclass :class:`MetricSpace`
and add an explicit budget window.
"""

from __future__ import annotations

import csv
import functools
import heapq
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat, starmap
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..errors import BudgetExceededError, InvalidInputError, UnknownPointError
from ..numbers import INF, Dist, as_dist

__all__ = [
    "PointRef",
    "MetricSpace",
    "FiniteMetricSpace",
    "Graph",
    "WeightedGraph",
    "MeasuredSpace",
    "build_graph",
    "build_weighted_graph",
    "build_finite_space",
    "subspace",
    "load_edges_csv",
    "ball",
    "validate_metric",
]

PointRef = Hashable

# cells of one row block of a closed-form distance table, which bounds the
# temporaries a block's rows are computed through
_TABLE_BLOCK_CELLS = 1 << 20

# an int64 distance table holds values within this of 0, which float64 holds exactly
_INT_TABLE_BOUND = 2 ** 53

# a pair table of up to this many points is one gather from its values;
# its pair positions, at most 255 * 256 / 2, fit int16
_PAIR_SIDE = 256

# most points one breadth-first walk may hold.  The depth-9 step ball of
# branch_tree holds 4,037,913; its depth-10 shell alone holds 11! ~ 39.9M
_WALK_POINTS = 1 << 22


@functools.lru_cache(maxsize=64)
def _pair_positions(size: int) -> np.ndarray:
    """Read-only int16 matrix, ``size`` square: 0 on the diagonal, and at
    (a, b) and (b, a) for a < b the place of pair (a, b) in the row-major
    pair list after a leading 0.  An n-point matrix holds 2n**2 bytes, so
    the cache holds at most 64 * 128 KiB = 8 MiB; the 2- to 40-point tables
    of random metrics take 43 KiB."""
    positions = np.zeros((size, size), dtype=np.int16)
    upper = np.triu_indices(size, 1)
    positions[upper] = np.arange(1, len(upper[0]) + 1)
    positions.T[upper] = positions[upper]
    positions.setflags(write=False)
    return positions


def pair_table(size: int, dist: Callable[[int, int], Dist]) -> np.ndarray:
    """Symmetric object table of the exact distances ``dist(a, b)`` between
    indices, one call per pair ``a < b`` in row-major order; int 0 on the
    diagonal.  Each value goes through numpy once, by ``np.fromiter``.

    Up to ``_PAIR_SIDE`` points, one ``starmap`` over the pairs takes the
    values, after a 0, and the table is one gather from them, by
    ``_pair_positions(size)``.  Larger tables take each row's values by one
    ``np.fromiter`` and write them to the row and its mirror column in
    place, so the peak stays one table and a row.
    """
    if size <= _PAIR_SIDE:
        values = np.fromiter(chain((0,), starmap(dist, combinations(range(size), 2))), object,
                             size * (size - 1) // 2 + 1)
        return values[_pair_positions(size)]
    table = np.zeros((size, size), dtype=object)
    for a in range(size - 1):
        row = np.fromiter(map(dist, repeat(a), range(a + 1, size)), object, size - a - 1)
        table[a, a + 1:] = row
        table[a + 1:, a] = row
    return table


def _number_type(table: np.ndarray) -> np.ndarray:
    """A distance table in its one number type: int64 when every value is an
    int within ``_INT_TABLE_BOUND`` of 0, else the values as objects."""
    if table.dtype == object:
        if not set(map(type, table.flat)) <= {int}:
            return table
        try:
            table = table.astype(np.int64)
        except OverflowError:  # an int past int64 is past the bound too
            return table
    if max(-table.min(initial=0), table.max(initial=0)) <= _INT_TABLE_BOUND:
        return table
    return table.astype(object)


def block_table(size: int, rows: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Distance table filled in row blocks, in the dtype of ``rows(lo, hi)``,
    the integer array (int64 or of Python ints) of table rows lo..hi-1."""
    table = np.empty((size, size), dtype=rows(0, 0).dtype)
    step = max(1, _TABLE_BLOCK_CELLS // max(size, 1))
    for lo in range(0, size, step):
        hi = min(size, lo + step)
        table[lo:hi] = rows(lo, hi)
    return _number_type(table)


def check_scale(delta: Dist) -> None:
    """A NaN is no scale at all: raise InvalidInputError."""
    if delta != delta:
        raise InvalidInputError(f"delta must be a number: {delta!r}")


def walk_limit_error(x: PointRef, limit: int) -> BudgetExceededError:
    """The error of a walk around x that holds more than ``limit`` points."""
    return BudgetExceededError(f"walk around {x!r} holds more than {limit} points")


def hop_shells(adjacent: Callable[[PointRef], Iterable[PointRef]], x: PointRef,
               n: int) -> Iterator[List[PointRef]]:
    """Breadth-first shells around x over the neighbour function ``adjacent``.

    Yields ``[x]`` and then, for each of up to n steps, the points first
    reached at that step, in discovery order.  It stops after the first
    empty shell, since nothing new can follow.  ``adjacent`` is called
    lazily: advancing to shell k only expands shell k-1.  A walk that holds
    more than ``_WALK_POINTS`` points after expanding a point raises
    BudgetExceededError.
    """
    limit = _WALK_POINTS
    seen = {x}
    frontier = [x]
    yield frontier
    for _ in range(n):
        if not frontier:
            return
        nxt = []
        for y in frontier:
            for z in adjacent(y):
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
            if len(seen) > limit:
                raise walk_limit_error(x, limit)
        yield nxt
        frontier = nxt


def count_by_key(points: Sequence[PointRef],
                 key: Callable[[PointRef], Hashable]) -> Dict[Hashable, Tuple[PointRef, int]]:
    """``{key: (first point, count)}`` over the points, keys in order of
    their first point."""
    keys = list(map(key, points))
    # going backwards, the last write to a key is its first point
    first = dict(zip(reversed(keys), reversed(points)))
    return {k: (first[k], count) for k, count in Counter(keys).items()}


class MetricSpace:
    """Base class for every space handle.

    Subclasses must implement ``distance`` and ``neighbors``.  ``tol`` is
    the comparison tolerance: an exact 0 everywhere except the float-backed
    logarithmic line, so that ``bound + tol`` keeps an exact threshold
    exact.
    """

    name: str = "space"
    tol: Dist = 0
    vertex_transitive: bool = False
    growth_tag: Optional[str] = None
    annotations: frozenset = frozenset()
    basepoint: PointRef = None

    def distance(self, a: PointRef, b: PointRef) -> Dist:
        raise NotImplementedError

    def neighbors(self, x: PointRef, delta: Dist) -> List[PointRef]:
        raise NotImplementedError

    def check_point(self, x: PointRef) -> None:
        """Raise UnknownPointError if x is not a point of this space."""

    def step_distance(self, a: PointRef, b: PointRef) -> Dist:
        """``distance`` between two points that ``check_point`` has passed.

        This default is ``distance``, which may check them again.  Spaces
        whose ``distance`` checks both points override it without the check.
        """
        return self.distance(a, b)

    def distance_table(self, points: Sequence[PointRef]) -> np.ndarray:
        """Symmetric table of ``distance`` between the given points, int 0
        on the diagonal, in the number type ``_number_type`` gives it.

        This default makes one ``distance`` call per pair.  Spaces with a
        closed form override it and check each point once.
        """
        pts = list(points)
        return _number_type(pair_table(len(pts), lambda a, b: self.distance(pts[a], pts[b])))

    def _checked(self, points: Iterable[PointRef]) -> List[PointRef]:
        """The points as a list, each passed through ``check_point``."""
        pts = list(points)
        for p in pts:
            self.check_point(p)
        return pts

    # -- comparison helpers honouring the space tolerance ------------------

    def le(self, d: Dist, bound: Dist) -> bool:
        """d <= bound up to the space tolerance."""
        return d <= bound + self.tol

    def lt(self, d: Dist, bound: Dist) -> bool:
        """d < bound up to the space tolerance."""
        return d < bound - self.tol

    def ge(self, d: Dist, bound: Dist) -> bool:
        """d >= bound up to the space tolerance."""
        return d >= bound - self.tol

    # -- optional hooks used by higher layers when available ---------------

    def hop_lower_bound(self, a: PointRef, b: PointRef, delta: Dist) -> Optional[int]:
        """A proven lower bound on the number of delta-steps from a to b."""
        return None

    def hop_distance(self, a: PointRef, b: PointRef, delta: Dist) -> Optional[int]:
        """Exact delta-step distance when the space has a closed form."""
        return None

    def walk_shells(self, x: PointRef, n: int, delta: Dist) -> Iterator[List[PointRef]]:
        """The breadth-first shells of up to n delta-steps around a checked
        point x, as ``hop_shells`` over ``neighbors(y, delta)`` yields them:
        the same shells in the same order, and the same errors at the same
        point.  Points the walk made are not checked again.  This default is
        that walk; a windowed space may raise at the call, before any shell,
        for a walk that would leave its window."""
        return hop_shells(lambda y: self.neighbors(y, delta), x, n)

    def shell_counts(self, x: PointRef, n: int, delta: Dist,
                     key: Optional[Callable[[PointRef], Hashable]] = None) -> Iterator:
        """For each shell of ``walk_shells(x, n, delta)``, lazily: its size, or
        with a key, ``count_by_key(shell, key)``.  The counts come with the
        walk's errors at the same advance, and a walk refused at the call is
        refused here at the call.  This default counts the walked shells; a
        space with a closed form counts without building them."""
        shells = self.walk_shells(x, n, delta)
        if key is None:
            return map(len, shells)
        return (count_by_key(shell, key) for shell in shells)

    def bg_witness_family(self, s: Dist, depth: int):
        """Catalog-provided s-separated bounded-diameter family, or None.

        Returns ``(points, diameter_bound)`` for the witness family at the
        given depth when the space declares one.
        """
        return None

    def bg_evidence_defaults(self):
        """Default (s, D, depths) for bounded-geometry evidence, or None."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class _FiniteSpace(MetricSpace):
    """A finite point set, measured by one cached row of distances per
    source: the subclasses give ``_search`` and the noun of their unknown
    point message."""

    _noun = "point"

    def __init__(self, points: Iterable[PointRef], name: str, annotations: Iterable[str]):
        self._points = tuple(sorted(set(points)))
        if not self._points:
            raise InvalidInputError("a finite space needs at least one point")
        self._point_set = frozenset(self._points)
        self._rows: Dict[PointRef, Dict[PointRef, Dist]] = {}
        self.name = name
        self.annotations = frozenset(annotations)
        self.basepoint = self._points[0]

    @property
    def points(self) -> Tuple[PointRef, ...]:
        return self._points

    def check_point(self, x):
        if x not in self._point_set:
            raise UnknownPointError(f"{x!r} is not a {self._noun} of {self.name}")

    def _search(self, source) -> Dict[PointRef, Dist]:
        """Distance from source to the points it reaches; a point left out
        is infinitely far."""
        raise NotImplementedError

    def _distances_from(self, source) -> Dict[PointRef, Dist]:
        row = self._rows.get(source)
        if row is None:
            row = self._rows[source] = self._search(source)
        return row

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return 0
        return self._distances_from(a).get(b, INF)

    def neighbors(self, x, delta):
        self.check_point(x)
        check_scale(delta)
        row = self._distances_from(x)
        return sorted(y for y, d in row.items() if y != x and self.le(d, delta))


class FiniteMetricSpace(_FiniteSpace):
    """A finite point set with an explicit metric.

    ``dist_fn`` is only trusted after ``validate_metric`` passes it in the
    builder; the class itself just caches values, one row per source.
    """

    def __init__(self, points: Sequence[PointRef], dist_fn: Callable[[PointRef, PointRef], Dist],
                 name: str = "finite", annotations: Iterable[str] = (),
                 vertex_transitive: bool = False):
        super().__init__(points, name, annotations)
        self._dist_fn = dist_fn
        self.vertex_transitive = vertex_transitive

    def _search(self, source):
        return {p: as_dist(self._dist_fn(source, p)) for p in self._points if p != source}

    def diameter(self) -> Dist:
        return max(self.distance_table(self._points).max(axis=0).tolist())


class Graph(_FiniteSpace):
    """Finite unweighted graph with the shortest-path (hop) metric."""

    _noun = "vertex"

    def __init__(self, adjacency: Dict[PointRef, Tuple[PointRef, ...]], name: str = "graph",
                 annotations: Iterable[str] = (), vertex_transitive: bool = False):
        self._adj = {v: tuple(sorted(ns)) for v, ns in adjacency.items()}
        # a finite graph trivially has bounded degree; the flags matter when
        # a handle stands in for a whole family, which catalog spaces declare
        super().__init__(self._adj, name, {"graph", "bounded-degree"} | set(annotations))
        self.vertex_transitive = vertex_transitive

    def adjacency(self, x):
        self.check_point(x)
        return self._adj[x]

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def _search(self, source):
        # no shortest path has more than one step per vertex
        shells = hop_shells(self._adj.__getitem__, source, len(self._points))
        return {v: hops for hops, shell in enumerate(shells) for v in shell}

    def is_connected(self) -> bool:
        return len(self._distances_from(self._points[0])) == len(self._points)


class WeightedGraph(_FiniteSpace):
    """Finite graph with positive rational edge weights, Dijkstra metric."""

    _noun = "vertex"

    def __init__(self, adjacency: Dict[PointRef, Tuple[Tuple[PointRef, Dist], ...]],
                 name: str = "weighted_graph", annotations: Iterable[str] = ()):
        self._adj = {v: tuple(sorted(ns)) for v, ns in adjacency.items()}
        super().__init__(self._adj, name, {"weighted-graph"} | set(annotations))

    def _search(self, source):
        dist: Dict[PointRef, Dist] = {}
        heap = [(0, 0, source)]
        counter = 0
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for w, weight in self._adj[v]:
                if w not in dist:
                    counter += 1
                    heapq.heappush(heap, (d + weight, counter, w))
        return dist


class MeasuredSpace(MetricSpace):
    """A space handle together with a point measure (exact rationals).

    Every metric query, ``check_point`` included, is the wrapped space's
    own method, bound at construction; adds ``mass`` for a single point and
    ``mass_of`` for a finite point set.

    ``mass_key``, when given, declares that ``mass_fn(x)`` depends only on
    ``mass_key(x)`` (a hashable class label, e.g. the depth of a tree
    vertex).  The validated mass is then computed once per key and reused,
    and ``mass_of`` counts its points by key.  ``mass`` and ``mass_of``
    check every point with ``check_point``; ``weigh`` is ``mass_of`` for
    points the space made itself and skips that check, and
    ``shell_masses`` weighs the shells of a walk as ``weigh`` would.  A key
    that lumps points of different mass gives wrong totals, so leave it out
    unless the mass is a function of the key.
    """

    def __init__(self, space: MetricSpace, mass_fn: Callable[[PointRef], Fraction],
                 name: Optional[str] = None, annotations: Iterable[str] = (),
                 mass_key: Optional[Callable[[PointRef], Hashable]] = None):
        self.space = space
        self._mass_fn = mass_fn
        self._mass_key = mass_key
        self._mass_by_key: Dict[Hashable, Fraction] = {}
        self.name = name or (space.name + "/measured")
        self.tol = space.tol
        self.vertex_transitive = space.vertex_transitive
        self.growth_tag = space.growth_tag
        self.annotations = space.annotations | frozenset(annotations) | frozenset({"measured"})
        self.basepoint = space.basepoint
        # the wrapped space's own check and queries, bound once: mass and
        # mass_of run the check on every point without a forwarding frame
        for query in ("check_point", "distance", "step_distance", "neighbors", "distance_table",
                      "hop_lower_bound", "hop_distance", "walk_shells", "shell_counts",
                      "bg_witness_family", "bg_evidence_defaults"):
            setattr(self, query, getattr(space, query))

    def shell_masses(self, x, n, delta) -> Iterator[Fraction]:
        """For each shell of ``walk_shells(x, n, delta)``, lazily: its mass,
        as ``weigh`` gives it, with ``mass_fn`` called on the same points in
        the same order.  With a key the shells are counted by key and never
        built where the space counts them in closed form."""
        if self._mass_key is None:
            return map(self.weigh, self.space.walk_shells(x, n, delta))
        return map(self._weigh_classes, self.space.shell_counts(x, n, delta, self._mass_key))

    def _checked_mass(self, x) -> Fraction:
        value = self._mass_fn(x)
        if value < 0:
            raise InvalidInputError(f"negative mass at {x!r}")
        return Fraction(value)

    def _keyed_mass(self, key, x) -> Fraction:
        got = self._mass_by_key.get(key)
        if got is None:
            got = self._mass_by_key[key] = self._checked_mass(x)
        return got

    def mass(self, x) -> Fraction:
        self.check_point(x)
        if self._mass_key is None:
            return self._checked_mass(x)
        return self._keyed_mass(self._mass_key(x), x)

    def mass_of(self, points: Iterable[PointRef]) -> Fraction:
        return self.weigh(self._checked(points))

    def weigh(self, points: Sequence[PointRef]) -> Fraction:
        """Total mass of points of this space, which are not checked again:
        ``mass_of`` for points the space made itself, such as a walk's.

        Points are counted by key, or by mass without a key, so a large ball
        pays one Fraction product per class instead of a sum per point.
        """
        if self._mass_key is None:
            counts = Counter(map(self._checked_mass, points))
            return sum((value * count for value, count in counts.items()), Fraction(0))
        return self._weigh_classes(count_by_key(points, self._mass_key))

    def _weigh_classes(self, classes: Dict[Hashable, Tuple[PointRef, int]]) -> Fraction:
        """Total mass of ``count_by_key`` classes: a new key's mass comes
        from its first point, keys taken in order."""
        return sum((self._keyed_mass(key, first) * count
                    for key, (first, count) in classes.items()), Fraction(0))


# ---------------------------------------------------------------------------
# builders


def _normalize_edges(edges):
    out = []
    for edge in edges:
        if len(edge) < 2:
            raise InvalidInputError(f"edge needs two endpoints: {edge!r}")
        a, b = edge[0], edge[1]
        if a == b:
            raise InvalidInputError(f"loop edge rejected: {edge!r}")
        rest = tuple(edge[2:])
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        out.append((key, rest))
    return out


def build_graph(edges: Iterable[Sequence[PointRef]], vertices: Iterable[PointRef] = (),
                name: str = "graph", require_connected: bool = False,
                vertex_transitive: bool = False) -> Graph:
    """Build an unweighted graph handle from an edge list.

    Duplicate edges collapse; loops are rejected.  Disconnected input is
    accepted (distance across components is infinity) unless
    ``require_connected`` is set.
    """
    adj: Dict[PointRef, set] = {v: set() for v in vertices}
    for (a, b), rest in _normalize_edges(edges):
        if rest:
            raise InvalidInputError("unweighted edge must be a pair; got extra fields")
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if not adj:
        raise InvalidInputError("graph needs at least one vertex")
    graph = Graph({v: tuple(ns) for v, ns in adj.items()}, name=name,
                  vertex_transitive=vertex_transitive)
    if require_connected and not graph.is_connected():
        raise InvalidInputError("graph is disconnected and connectivity was required")
    return graph


def build_weighted_graph(edges: Iterable[Sequence], vertices: Iterable[PointRef] = (),
                         name: str = "weighted_graph") -> WeightedGraph:
    """Build a weighted graph; weights are positive exact rationals.

    Parallel edges keep the minimum weight.
    """
    best: Dict[Tuple[PointRef, PointRef], Dist] = {}
    for (a, b), rest in _normalize_edges(edges):
        if len(rest) != 1:
            raise InvalidInputError(f"weighted edge must be (src, dst, weight): {(a, b) + rest!r}")
        w = as_dist(rest[0])
        if not w > 0:
            raise InvalidInputError(f"edge weight must be positive: {(a, b, w)!r}")
        key = (a, b)
        if key not in best or w < best[key]:
            best[key] = w
    adj: Dict[PointRef, set] = {v: set() for v in vertices}
    for (a, b), w in best.items():
        adj.setdefault(a, set()).add((b, w))
        adj.setdefault(b, set()).add((a, w))
    if not adj:
        raise InvalidInputError("graph needs at least one vertex")
    return WeightedGraph({v: tuple(ns) for v, ns in adj.items()}, name=name)


def build_finite_space(points: Sequence[PointRef], dist_fn, name: str = "finite",
                       **kwargs) -> FiniteMetricSpace:
    """Wrap an explicit finite metric and verify the axioms."""
    space = FiniteMetricSpace(points, dist_fn, name=name, **kwargs)
    validate_metric(space)
    return space


def validate_metric(space: FiniteMetricSpace) -> None:
    """Exhaustively check metric axioms on a finite space (raises on failure).

    The diagonal is asked of the metric itself: ``distance`` answers 0 for
    a point and itself without consulting it.
    """
    pts = space.points
    for a in pts:
        if space._dist_fn(a, a) != 0:
            raise InvalidInputError(f"d({a!r},{a!r}) != 0")
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            d = space.distance(a, b)
            if not d > 0:
                raise InvalidInputError(f"d({a!r},{b!r}) = {d} is not positive")
            if space.distance(b, a) != d:
                raise InvalidInputError(f"d not symmetric on ({a!r},{b!r})")
    for a in pts:
        for b in pts:
            for c in pts:
                if space.distance(a, c) > space.distance(a, b) + space.distance(b, c) + space.tol:
                    raise InvalidInputError(f"triangle inequality fails on ({a!r},{b!r},{c!r})")


def subspace(space: MetricSpace, points: Sequence[PointRef], name: Optional[str] = None) -> FiniteMetricSpace:
    """Finite metric subspace: the induced distance on a subset of points."""
    pts = tuple(sorted(set(points)))
    for p in pts:
        space.check_point(p)
    sub = FiniteMetricSpace(pts, space.distance, name=name or (space.name + "/sub"))
    sub.tol = space.tol
    return sub


def ball(space: MetricSpace, x: PointRef, radius: Dist) -> List[PointRef]:
    """Closed metric ball as a sorted point list (center included)."""
    if radius < 0:
        return []
    return sorted(space.neighbors(x, radius) + [x])


def load_edges_csv(path: str):
    """Read an edge list CSV with header ``src,dst`` or ``src,dst,weight``.

    Node labels parse to int when every label is an integer literal,
    otherwise they stay strings.  Weights parse exactly ("3", "1/2",
    "0.25" are all exact rationals).  Returns ``(edges, weighted)``.  A
    file that is not UTF-8, or a weight that does not parse, raises
    InvalidInputError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"edge file {path!r} is not UTF-8: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"empty edge file: {path}")
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:2] != ["src", "dst"]:
        raise InvalidInputError("edge CSV must start with header src,dst[,weight]")
    weighted = len(header) >= 3 and header[2] == "weight"
    raw = []
    for row in rows[1:]:
        if len(row) < 2 + (1 if weighted else 0):
            raise InvalidInputError(f"short edge row: {row!r}")
        raw.append([cell.strip() for cell in row])
    labels = {cell for row in raw for cell in row[:2]}

    def _intlike(s):
        try:
            int(s)
            return True
        except ValueError:
            return False

    to_label = (lambda s: int(s)) if all(_intlike(s) for s in labels) else (lambda s: s)
    edges = []
    for row in raw:
        a, b = to_label(row[0]), to_label(row[1])
        if weighted:
            try:
                weight = as_dist(row[2])
            except ValueError as exc:
                raise InvalidInputError(f"bad weight in edge row {row!r}: {exc}") from exc
            edges.append((a, b, weight))
        else:
            edges.append((a, b))
    return edges, weighted
