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
import heapq
from collections import Counter
from fractions import Fraction
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

# cells of one row block of a closed-form distance table: each block goes
# through an int64 array of this many entries on its way into the table
_TABLE_BLOCK_CELLS = 1 << 20

# most points one breadth-first walk may hold.  The depth-9 step ball of
# branch_tree holds 4,037,913; its depth-10 shell alone holds 11! ~ 39.9M
_WALK_POINTS = 1 << 22


def pair_table(size: int, dist: Callable[[int, int], Dist]) -> np.ndarray:
    """Symmetric object table of the exact distances ``dist(a, b)`` between
    indices, one call per pair ``a < b``; int 0 on the diagonal."""
    table = np.zeros((size, size), dtype=object)
    for a in range(size - 1):
        row = [dist(a, b) for b in range(a + 1, size)]
        table[a, a + 1:] = row
        table[a + 1:, a] = row
    return table


def block_table(size: int, rows: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Object table filled in row blocks: ``rows(lo, hi)`` is the integer
    array of table rows lo..hi-1, and each entry becomes a Python int."""
    table = np.empty((size, size), dtype=object)
    step = max(1, _TABLE_BLOCK_CELLS // max(size, 1))
    for lo in range(0, size, step):
        hi = min(size, lo + step)
        table[lo:hi] = rows(lo, hi)
    return table


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

    def distance_table(self, points: Sequence[PointRef]) -> np.ndarray:
        """Symmetric object table of ``distance`` between the given points,
        with the same values and types and int 0 on the diagonal.

        This default makes one ``distance`` call per pair.  Spaces with a
        closed form override it and check each point once.
        """
        pts = list(points)
        return pair_table(len(pts), lambda a, b: self.distance(pts[a], pts[b]))

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
        that walk; a space with a closed form may build its shells itself,
        and a windowed space may raise at the call, before any shell, for a
        walk that would leave its window."""
        return hop_shells(lambda y: self.neighbors(y, delta), x, n)

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


def _pairkey(a, b):
    return (a, b) if repr(a) <= repr(b) else (b, a)


class FiniteMetricSpace(MetricSpace):
    """A finite point set with an explicit metric.

    ``dist_fn`` is only trusted after ``validate_metric`` passes it in the
    builder; the class itself just caches values.
    """

    def __init__(self, points: Sequence[PointRef], dist_fn: Callable[[PointRef, PointRef], Dist],
                 name: str = "finite", annotations: Iterable[str] = (),
                 vertex_transitive: bool = False):
        self._points = tuple(sorted(set(points)))
        if not self._points:
            raise InvalidInputError("a finite space needs at least one point")
        self._point_set = frozenset(self._points)
        self._dist_fn = dist_fn
        self._cache: Dict[Tuple[PointRef, PointRef], Dist] = {}
        self.name = name
        self.annotations = frozenset(annotations)
        self.vertex_transitive = vertex_transitive
        self.basepoint = self._points[0]

    @property
    def points(self) -> Tuple[PointRef, ...]:
        return self._points

    def check_point(self, x):
        if x not in self._point_set:
            raise UnknownPointError(f"{x!r} is not a point of {self.name}")

    def distance(self, a, b):
        if a == b:
            self.check_point(a)
            return 0
        self.check_point(a)
        self.check_point(b)
        key = _pairkey(a, b)
        got = self._cache.get(key)
        if got is None:
            got = as_dist(self._dist_fn(a, b))
            self._cache[key] = got
        return got

    def neighbors(self, x, delta):
        self.check_point(x)
        check_scale(delta)
        return sorted(y for y in self._points if y != x and self.le(self.distance(x, y), delta))

    def diameter(self) -> Dist:
        return self.distance_table(self._points).max()


class _FiniteGraph(MetricSpace):
    """Finite graph over a sorted adjacency, measured by one cached
    single-source search per source.  The subclasses give ``_search``."""

    def __init__(self, adjacency: Dict[PointRef, tuple], name: str, annotations: Iterable[str]):
        self._adj = {v: tuple(sorted(ns)) for v, ns in sorted(adjacency.items(), key=lambda kv: kv[0])}
        self._vertices = tuple(sorted(self._adj))
        self._vertex_set = frozenset(self._vertices)
        self._dist_cache: Dict[PointRef, Dict[PointRef, Dist]] = {}
        self.name = name
        self.annotations = frozenset(annotations)
        self.basepoint = self._vertices[0]

    @property
    def points(self):
        return self._vertices

    def check_point(self, x):
        if x not in self._vertex_set:
            raise UnknownPointError(f"{x!r} is not a vertex of {self.name}")

    def _search(self, source) -> Dict[PointRef, Dist]:
        """Distance from source to every vertex of its component."""
        raise NotImplementedError

    def _distances_from(self, source) -> Dict[PointRef, Dist]:
        done = self._dist_cache.get(source)
        if done is None:
            done = self._dist_cache[source] = self._search(source)
        return done

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return 0
        return self._distances_from(a).get(b, INF)

    def neighbors(self, x, delta):
        self.check_point(x)
        check_scale(delta)
        dist = self._distances_from(x)
        return sorted(y for y, d in dist.items() if y != x and self.le(d, delta))


class Graph(_FiniteGraph):
    """Finite unweighted graph with the shortest-path (hop) metric."""

    def __init__(self, adjacency: Dict[PointRef, Tuple[PointRef, ...]], name: str = "graph",
                 annotations: Iterable[str] = (), vertex_transitive: bool = False):
        # a finite graph trivially has bounded degree; the flags matter when
        # a handle stands in for a whole family, which catalog spaces declare
        super().__init__(adjacency, name, {"graph", "bounded-degree"} | set(annotations))
        self.vertex_transitive = vertex_transitive

    def adjacency(self, x):
        self.check_point(x)
        return self._adj[x]

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def _search(self, source):
        # no shortest path has more than one step per vertex
        shells = hop_shells(self._adj.__getitem__, source, len(self._vertices))
        return {v: hops for hops, shell in enumerate(shells) for v in shell}

    def is_connected(self) -> bool:
        return len(self._distances_from(self._vertices[0])) == len(self._vertices)


class WeightedGraph(_FiniteGraph):
    """Finite graph with positive rational edge weights, Dijkstra metric."""

    def __init__(self, adjacency: Dict[PointRef, Tuple[Tuple[PointRef, Dist], ...]],
                 name: str = "weighted_graph", annotations: Iterable[str] = ()):
        super().__init__(adjacency, name, {"weighted-graph"} | set(annotations))

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

    Delegates every metric query to the wrapped space, whose ``check_point``
    is its own; adds ``mass`` for a single point and ``mass_of`` for a
    finite point set.

    ``mass_key``, when given, declares that ``mass_fn(x)`` depends only on
    ``mass_key(x)`` (a hashable class label, e.g. the depth of a tree
    vertex).  The validated mass is then computed once per key and reused,
    and ``mass_of`` counts its points by key.  ``mass`` and ``mass_of``
    check every point with ``check_point``; ``weigh`` is ``mass_of`` for
    points the space made itself and skips that check.  A key
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
        # the wrapped space's own check, bound once: mass and mass_of run it
        # on every point without a forwarding frame
        self.check_point = space.check_point

    def distance(self, a, b):
        return self.space.distance(a, b)

    def neighbors(self, x, delta):
        return self.space.neighbors(x, delta)

    def distance_table(self, points):
        return self.space.distance_table(points)

    def hop_lower_bound(self, a, b, delta):
        return self.space.hop_lower_bound(a, b, delta)

    def hop_distance(self, a, b, delta):
        return self.space.hop_distance(a, b, delta)

    def walk_shells(self, x, n, delta):
        return self.space.walk_shells(x, n, delta)

    def bg_witness_family(self, s, depth):
        return self.space.bg_witness_family(s, depth)

    def bg_evidence_defaults(self):
        return self.space.bg_evidence_defaults()

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
        counts = Counter(map(self._mass_key, points))
        if not self._mass_by_key.keys() >= counts.keys():
            # a new key's mass comes from its first point: going backwards,
            # the last write to a key is its first point
            backwards = points[::-1]
            first = dict(zip(map(self._mass_key, backwards), backwards))
            for key in counts:
                self._keyed_mass(key, first[key])
        by_key = self._mass_by_key
        return sum((by_key[key] * count for key, count in counts.items()), Fraction(0))


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
    """Exhaustively check metric axioms on a finite space (raises on failure)."""
    pts = space.points
    for a in pts:
        if space.distance(a, a) != 0:
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
    "0.25" are all exact rationals).  Returns ``(edges, weighted)``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
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
            edges.append((a, b, as_dist(row[2])))
        else:
            edges.append((a, b))
    return edges, weighted
