"""Catalog of lazily generated example spaces.

Each space here is an infinite object truncated to an explicit finite
window (its budget); queries whose answer would depend on points outside
the window raise :class:`BudgetExceededError` instead of silently
truncating.  Point encodings are canonical and totally ordered:

* ``ultrametric_product``: value tuples ``(v_1, ..., v_K)`` with
  ``v_k in {0, k}`` (finite support window of size K),
* ``log_line`` / ``int_line``: plain integers,
* ``regular_tree`` / ``branch_tree``: child-index tuples from the root,
* ``tree_line``: ``("line", m)`` and ``("tree", n, bits)``,
* ``prime_cycle``: ``("line", m)`` and ``("cyc", p, k, i)``,
* ``coarse_union``: ``("part", index, point)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExceededError, InvalidInputError, UnknownPointError
from ..numbers import INF, Dist, is_finite
from ..paths import DeltaPath
from . import base as _base
from .base import (Graph, MeasuredSpace, MetricSpace, block_table, build_graph, check_scale,
                   hop_shells, walk_limit_error)

__all__ = [
    "UltrametricProduct",
    "LogLine",
    "IntLine",
    "RegularTree",
    "TreeLine",
    "BranchTree",
    "PrimeCycle",
    "CoarseUnion",
    "branch_tree_measured",
    "make_example",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "CATALOG_TAGS",
]


# LogLine.max_step computes steps of up to this many bits; the integer
# grows with delta, so a larger delta raises BudgetExceededError
_LOG_STEP_BITS = 4096


def _floor_int(delta: Dist) -> int:
    """``floor(delta)`` as an int.  ``-inf`` gives -1: like any negative
    delta it allows no step.  ``inf`` raises: its ball leaves every window.
    A NaN raises InvalidInputError."""
    check_scale(delta)
    if delta == INF:
        raise BudgetExceededError(f"a delta={delta} ball leaves every finite window")
    if delta == -INF:
        return -1
    return int(math.floor(delta))


def _hop_ball(adjacent, x, r: int) -> List:
    """Sorted points y != x within r >= 1 hops of x over a tree adjacency.

    A tree adjacency never lists x itself or a point twice, so the radius-1
    ball is the adjacency list; larger radii walk the hop shells.
    """
    if r == 1:
        return sorted(adjacent(x))
    shells = hop_shells(adjacent, x, r)
    next(shells)  # [x]
    return sorted(itertools.chain.from_iterable(shells))


def _prefix_hops(a: Tuple, b: Tuple) -> int:
    """Tree distance between two child-index tuples below a common root:
    up from each to their longest common prefix."""
    cp = 0
    for u, v in zip(a, b):
        if u != v:
            break
        cp += 1
    return (len(a) - cp) + (len(b) - cp)


# ---------------------------------------------------------------------------
# ultrametric product


class UltrametricProduct(MetricSpace):
    """Product over k of the pairs {0, k} with the sup metric.

    Points are finite-support choice tuples truncated to ``max_index``
    coordinates; coordinate k carries either 0 or the value k, so the
    distance between two points is the largest coordinate where they
    disagree.  The metric is an ultrametric and every delta-component is
    the finite subproduct over k <= delta, hence bounded.
    """

    vertex_transitive = True
    growth_tag = "exponential"

    def __init__(self, max_index: int = 16):
        if max_index < 1:
            raise InvalidInputError("max_index must be >= 1")
        self.max_index = max_index
        self.name = f"ultrametric_product[K={max_index}]"
        self.annotations = frozenset({"ultrametric", "bounded-components"})
        self.basepoint = (0,) * max_index

    def check_point(self, x):
        if (not isinstance(x, tuple)) or len(x) != self.max_index:
            raise UnknownPointError(f"point must be a {self.max_index}-tuple: {x!r}")
        for i, v in enumerate(x):
            if v not in (0, i + 1):
                raise UnknownPointError(f"coordinate {i + 1} must be 0 or {i + 1}, got {v!r}")

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        best = 0
        for i in range(self.max_index - 1, -1, -1):
            if a[i] != b[i]:
                best = i + 1
                break
        return best

    def neighbors(self, x, delta):
        self.check_point(x)
        kmax = _floor_int(delta)
        if kmax < 1:
            return []
        if kmax > self.max_index:
            raise BudgetExceededError(
                f"delta={delta} reaches coordinates beyond the window K={self.max_index}")
        out = []
        base = list(x)
        for mask in range(1, 1 << kmax):
            pt = base[:]
            for i in range(kmax):
                if mask >> i & 1:
                    pt[i] = (i + 1) - pt[i]  # flip between 0 and i+1
            out.append(tuple(pt))
        return sorted(out)


# ---------------------------------------------------------------------------
# the two lines


class _IntegerLine(MetricSpace):
    """Integers x with |x| <= max_abs, where one delta-step moves at most
    ``max_step(delta)`` in coordinates.  The subclasses give ``distance``
    and ``max_step``."""

    vertex_transitive = True
    basepoint = 0

    def __init__(self, max_abs: int, tag: str, annotations=()):
        if max_abs < 1:
            raise InvalidInputError("max_abs must be >= 1")
        self.max_abs = max_abs
        self.name = f"{tag}[N={max_abs}]"
        self.annotations = frozenset(annotations)

    def check_point(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or abs(x) > self.max_abs:
            raise UnknownPointError(f"point must be an integer with |x| <= {self.max_abs}: {x!r}")

    def max_step(self, delta: Dist) -> int:
        """Largest coordinate move allowed in one delta-step."""
        raise NotImplementedError

    def neighbors(self, x, delta):
        self.check_point(x)
        s = self.max_step(delta)
        if s < 1:
            return []
        if x - s < -self.max_abs or x + s > self.max_abs:
            raise BudgetExceededError(
                f"delta-ball around {x} leaves the window [-{self.max_abs}, {self.max_abs}]")
        return [x + off for off in range(-s, s + 1) if off != 0]

    def hop_lower_bound(self, a, b, delta):
        s = self.max_step(delta)
        gap = abs(a - b)
        if gap == 0:
            return 0
        if s < 1:
            return None
        return -(-gap // s)


class LogLine(_IntegerLine):
    """Integers with d(m, n) = log2(1 + |m - n|).

    The only float-backed catalog space; comparisons use a 1e-9 tolerance.
    One step of size delta moves at most 2**delta - 1 in coordinates,
    which is what breaks quasi-geodesicity at large scales.
    """

    tol = 1e-9
    growth_tag = "exponential"

    def __init__(self, max_abs: int = 2 ** 21):
        super().__init__(max_abs, "log_line")

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        return math.log2(1 + abs(a - b))

    def max_step(self, delta):
        if delta < 0:
            return 0
        k = _floor_int(delta)  # rejects an infinite delta
        if k > _LOG_STEP_BITS:
            raise BudgetExceededError(
                f"a delta={delta} step moves more than 2**{_LOG_STEP_BITS} points")

        def fits(s):
            return self.le(math.log2(1 + s), delta)

        # 2**delta - 1, rounded down, in integers: the float 2.0 ** delta
        # overflows from delta = 1024 on.  It fits, since its one rounding is
        # far inside the tolerance; the tolerance can put the last s that fits
        # about 2**delta / 1e9 further, so bracket it with doubling steps and
        # bisect
        lo = max(0, (int(2.0 ** (delta - k) * 2 ** 52) << k >> 52) - 1)
        hi, step = lo + 1, 1
        while fits(hi):
            lo, hi = hi, hi + step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo


class IntLine(_IntegerLine):
    """The standard integer line: unit edges, d(m, n) = |m - n|."""

    def __init__(self, max_abs: int = 10 ** 6):
        super().__init__(max_abs, "int_line", {"graph", "bounded-degree", "quasi-geodesic"})

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        return abs(a - b)

    def distance_table(self, points):
        pts = self._checked(points)
        if self.max_abs >= 2 ** 62:  # |a - b| might not fit in int64
            return super().distance_table(pts)
        x = np.array(pts, dtype=np.int64)
        return block_table(len(x), lambda lo, hi: np.abs(x[lo:hi, None] - x[None, :]))

    def max_step(self, delta):
        return _floor_int(delta)

    def hop_distance(self, a, b, delta):
        # the bound is attained: full strides of max_step, then the rest
        return self.hop_lower_bound(a, b, delta)


# ---------------------------------------------------------------------------
# rooted trees


class _RootedTree(MetricSpace):
    """Rooted tree on child-index tuples, truncated at depth ``max_depth``.

    A depth-n vertex has ``_width(n)`` children.  The subclasses give
    ``_width`` and their own ``check_point``.
    """

    basepoint = ()

    def __init__(self, max_depth: int, name: str, annotations):
        if not isinstance(max_depth, int) or isinstance(max_depth, bool):
            raise InvalidInputError(f"max_depth must be an integer: {max_depth!r}")
        if max_depth < 1:
            raise InvalidInputError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.name = name
        self.annotations = frozenset(annotations)

    def _width(self, depth: int) -> int:
        raise NotImplementedError

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        return _prefix_hops(a, b)

    def distance_table(self, points):
        # depth(a) + depth(b) - 2 * common-prefix length.  Column k of the
        # padded matrix numbers the length-(k+1) prefixes, -1 past a point's
        # depth, so equal entries in column k mean a common prefix longer than k
        pts = self._checked(points)
        width = max(map(len, pts), default=0)
        number: Dict[Tuple, int] = {}
        prefixes = np.array([[number.setdefault(p[:k + 1], len(number)) for k in range(len(p))]
                             + [-1] * (width - len(p)) for p in pts],
                            dtype=np.int64).reshape(len(pts), width)
        depth = np.array([len(p) for p in pts], dtype=np.int64)

        def rows(lo, hi):
            out = depth[lo:hi, None] + depth[None, :]
            for k in range(width):
                col = prefixes[lo:hi, k, None]
                out -= 2 * ((col == prefixes[None, :, k]) & (col >= 0))
            return out

        return block_table(len(pts), rows)

    def _adjacency(self, v):
        # sorted: the parent is a prefix of v, and the children come in index
        # order.  Nothing expands a vertex at max_depth: the window check
        # stops every ball one level short of the window's edge
        out = [v[:-1]] if v else []
        out += [v + (c,) for c in range(self._width(len(v)))]
        return out

    def neighbors(self, x, delta):
        self.check_point(x)
        r = _floor_int(delta)
        if r < 1:
            return []
        if len(x) + r > self.max_depth:
            raise BudgetExceededError(
                f"radius {r} ball around depth-{len(x)} vertex exceeds depth window {self.max_depth}")
        return _hop_ball(self._adjacency, x, r)

    def walk_shells(self, x, n, delta):
        # each step reaches r levels deeper, and the walk expands every vertex
        # of its first n shells but the last, down to len(x) + (n-1)r.  A walk
        # that would leave the window is refused here, so none reaches its edge
        if n >= 1:
            r = _floor_int(delta)
            if r >= 1 and len(x) + n * r > self.max_depth:
                raise BudgetExceededError(
                    f"{n}-step ball of radius {r} around depth-{len(x)} vertex exceeds "
                    f"depth window {self.max_depth}")
        # any other scale keeps hop_shells over neighbors and its errors
        if not 1 <= delta < 2:
            return super().walk_shells(x, n, delta)
        return self._unit_shells(x, n)

    def _unit_shells(self, x, n):
        # A vertex past x is reached from exactly one neighbour, so no seen
        # set is needed.  Shell k+1 is the parent and the other children of
        # lead = x[:len(x)-k], the ancestor that leads shell k, then the
        # children of the rest of shell k in order: hop_shells' discovery
        # order.  ``depths`` counts shell k by depth, which gives the next
        # shell's size before it is built; a walk that would then hold more
        # than _WALK_POINTS points raises at that advance, as hop_shells does
        limit = _base._WALK_POINTS
        width = self._width
        kids: Dict[int, List[Tuple[int]]] = {}
        frontier, held, depths = [x], 1, {len(x): 1}
        yield frontier
        for k in range(n):
            lead = x[:len(x) - k] if k <= len(x) else None
            grown = {t + 1: count * width(t) for t, count in depths.items()}
            if lead is not None:
                if k:  # less the child the walk came from
                    grown[len(lead) + 1] -= 1
                if lead:  # and the lead's parent
                    grown[len(lead) - 1] = grown.get(len(lead) - 1, 0) + 1
            held += sum(grown.values())
            if held > limit:
                raise walk_limit_error(x, limit)
            for t in depths:
                if t not in kids:
                    kids[t] = [(c,) for c in range(width(t))]
            if lead is None:
                nxt = [y + c for y in frontier for c in kids[len(y)]]
            else:
                came_from = x[len(lead):len(lead) + 1]  # () at k = 0
                nxt = [lead[:-1]] if lead else []
                nxt += [lead + c for c in kids[len(lead)] if c != came_from]
                nxt += [y + c for y in frontier[1:] for c in kids[len(y)]]
            yield nxt
            frontier = nxt
            depths = {t: count for t, count in grown.items() if count}


class RegularTree(_RootedTree):
    """The infinite degree-d tree (every vertex has exactly d neighbors).

    Encoded from a root: the root has d children, every other vertex has
    d - 1 children; ball sizes have the closed form
    |B(x, l)| = 1 + d * ((d-1)**l - 1) / (d - 2) for d > 2.
    """

    vertex_transitive = True

    def __init__(self, degree: int = 3, max_depth: int = 16):
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise InvalidInputError(f"degree must be an integer: {degree!r}")
        if degree < 3:
            raise InvalidInputError("degree must be >= 3 (smaller cases are lines/points)")
        self.degree = degree
        super().__init__(max_depth, f"regular_tree[d={degree},depth<={max_depth}]",
                         {"graph", "bounded-degree", "quasi-geodesic"})

    def check_point(self, x):
        if not isinstance(x, tuple) or len(x) > self.max_depth:
            raise UnknownPointError(f"point must be a child-index tuple within depth {self.max_depth}: {x!r}")
        for j, c in enumerate(x):
            limit = self.degree if j == 0 else self.degree - 1
            if not isinstance(c, int) or not 0 <= c < limit:
                raise UnknownPointError(f"bad child index at level {j}: {x!r}")

    def _width(self, depth):
        return self.degree if depth == 0 else self.degree - 1


# ---------------------------------------------------------------------------
# tree-decorated half line


def _named_schedule(spec) -> Tuple[List[int], str]:
    if isinstance(spec, str):
        if spec == "4^n":
            return None, spec
        if spec == "2^n":
            return None, spec
        raise InvalidInputError(f"unknown schedule name {spec!r} (use '4^n', '2^n' or a list)")
    values = [int(v) for v in spec]
    if any(v <= 0 for v in values):
        raise InvalidInputError("schedule values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InvalidInputError("schedule must be strictly increasing")
    return values, "explicit"


class TreeLine(MetricSpace):
    """Half line of integers with a full binary tree of height n rooted at x_n.

    The attachment schedule x_n (default x_n = 4**n) must be strictly
    increasing; trees are indexed n = 1..max_tree.  This is a connected
    graph of degree at most 4, so it has bounded geometry, yet balls
    centred at deep roots contain whole binary trees, which makes the
    basepoint-free ball growth exponential (tag ``exponential-sup``).
    """

    growth_tag = "exponential-sup"

    def __init__(self, max_tree: int = 8, schedule="4^n", max_line: Optional[int] = None):
        if max_tree < 1:
            raise InvalidInputError("max_tree must be >= 1")
        values, label = _named_schedule(schedule)
        if values is None:
            base = 4 if label == "4^n" else 2
            values = [base ** n for n in range(1, max_tree + 1)]
        if len(values) < max_tree:
            raise InvalidInputError(f"schedule provides {len(values)} values, need {max_tree}")
        self.max_tree = max_tree
        self._x = {n: values[n - 1] for n in range(1, max_tree + 1)}
        self._attach = {v: n for n, v in self._x.items()}
        self.max_line = max_line if max_line is not None else values[max_tree - 1] + 64
        if self.max_line < values[max_tree - 1]:
            raise InvalidInputError("max_line must cover the last attachment point")
        self.name = f"tree_line[{label},max_tree={max_tree}]"
        self.annotations = frozenset({"graph", "bounded-degree", "quasi-geodesic"})
        self.basepoint = ("line", 0)

    def attachment(self, n: int) -> int:
        if not 1 <= n <= self.max_tree:
            raise BudgetExceededError(f"tree index {n} outside window 1..{self.max_tree}")
        return self._x[n]

    def check_point(self, x):
        if isinstance(x, tuple) and len(x) == 2 and x[0] == "line":
            m = x[1]
            if isinstance(m, int) and 0 <= m <= self.max_line:
                return
            raise UnknownPointError(f"line coordinate outside window 0..{self.max_line}: {x!r}")
        if isinstance(x, tuple) and len(x) == 3 and x[0] == "tree":
            n, bits = x[1], x[2]
            if (isinstance(n, int) and 1 <= n <= self.max_tree and isinstance(bits, tuple)
                    and 1 <= len(bits) <= n and all(b in (0, 1) for b in bits)):
                return
            raise UnknownPointError(f"bad tree vertex: {x!r}")
        raise UnknownPointError(f"not a tree_line point: {x!r}")

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        if a[0] == "line" and b[0] == "line":
            return abs(a[1] - b[1])
        if a[0] == "line":
            a, b = b, a
        if b[0] == "line":
            # tree vertex to line point: climb to the root, walk the line
            return len(a[2]) + abs(self._x[a[1]] - b[1])
        if a[1] != b[1]:
            return len(a[2]) + abs(self._x[a[1]] - self._x[b[1]]) + len(b[2])
        return _prefix_hops(a[2], b[2])

    def _adjacency(self, v):
        out = []
        if v[0] == "line":
            m = v[1]
            if m > 0:
                out.append(("line", m - 1))
            if m + 1 > self.max_line:
                raise BudgetExceededError(f"line window 0..{self.max_line} exceeded at {m}")
            out.append(("line", m + 1))
            n = self._attach.get(m)
            if n is not None:
                out.append(("tree", n, (0,)))
                out.append(("tree", n, (1,)))
        else:
            _, n, bits = v
            if len(bits) == 1:
                out.append(("line", self._x[n]))
            else:
                out.append(("tree", n, bits[:-1]))
            if len(bits) < n:
                out.append(("tree", n, bits + (0,)))
                out.append(("tree", n, bits + (1,)))
        return out

    def neighbors(self, x, delta):
        self.check_point(x)
        r = _floor_int(delta)
        if r < 1:
            return []
        return _hop_ball(self._adjacency, x, r)

    # -- witness helpers used by the entropy layer --------------------------

    def level_vertices(self, n: int, level: int) -> List[Tuple]:
        """All tree-n vertices at the given level, in sorted order."""
        self.attachment(n)
        if not 1 <= level <= n:
            raise InvalidInputError(f"level must be in 1..{n}")
        return [("tree", n, bits) for bits in itertools.product((0, 1), repeat=level)]

    def pingpong_arms(self, delta: Dist, R: int) -> Tuple[DeltaPath, List[DeltaPath]]:
        """Base path to the tree at x_{2R} plus one arm per level-R vertex.

        The base is the straight line path from 0 to the attachment point;
        each arm descends from the root through a level-R vertex to its
        leftmost leaf, so distinct arm endpoints are at distance >= 2R + 2.
        """
        if not is_finite(R) or R < 1 or int(R) != R:
            raise InvalidInputError("R must be a positive integer for the tree witness")
        R = int(R)
        step = _floor_int(delta)
        if step < 1:
            raise InvalidInputError("delta must be >= 1")
        n = 2 * R
        x_att = self.attachment(n)
        if x_att > self.max_line:
            raise BudgetExceededError("attachment point outside the line window")
        L = -(-x_att // step)
        base = DeltaPath(tuple(("line", min(i * step, x_att)) for i in range(L + 1)), delta)
        # geodesic from the root to a leaf below y has one vertex per level
        depth = -(-n // step)
        arms = []
        for y in self.level_vertices(n, R):
            bits = y[2] + (0,) * (n - R)
            chain = [("line", x_att)] + [("tree", n, bits[:j]) for j in range(1, n + 1)]
            pts = tuple(chain[min(i * step, n)] for i in range(depth + 1))
            arms.append(DeltaPath(pts, delta))
        return base, arms


# ---------------------------------------------------------------------------
# branching tree with factorial measure


class BranchTree(_RootedTree):
    """Rooted tree where every depth-n vertex has n + 2 children.

    Degrees are unbounded: the children of one vertex are pairwise at
    distance 2 with diameter 2, giving arbitrarily large 2-separated sets
    of bounded diameter (the declared bounded-geometry obstruction).
    """

    def __init__(self, max_depth: int = 10):
        super().__init__(max_depth, f"branch_tree[depth<={max_depth}]",
                         {"graph", "quasi-geodesic", "not-coarsely-bounded-geometry"})

    def check_point(self, x):
        if not isinstance(x, tuple) or len(x) > self.max_depth:
            raise UnknownPointError(f"point must be a child-index tuple within depth {self.max_depth}: {x!r}")
        for j, c in enumerate(x, start=1):
            # the parent sits at depth j-1 and has (j-1)+2 children
            if not isinstance(c, int) or not 0 <= c <= j:
                raise UnknownPointError(f"bad child index at step {j}: {x!r}")

    def _width(self, depth):
        return depth + 2

    def children(self, v) -> List[Tuple]:
        self.check_point(v)
        if len(v) >= self.max_depth:
            raise BudgetExceededError(f"children of a depth-{len(v)} vertex exceed the window")
        return [v + (c,) for c in range(self._width(len(v)))]

    def leftmost_at_depth(self, depth: int) -> Tuple:
        if depth > self.max_depth:
            raise BudgetExceededError(f"depth {depth} outside window {self.max_depth}")
        return (0,) * depth

    def bg_witness_family(self, s, depth):
        # children of a depth-k vertex: k+2 points, pairwise distance exactly 2
        if s > 2 or depth < 0 or depth + 1 > self.max_depth:
            return None
        parent = self.leftmost_at_depth(depth)
        return self.children(parent), 2

    def bg_evidence_defaults(self):
        return 2, 2, list(range(1, min(8, self.max_depth - 1) + 1))


def _branch_mass(v) -> Fraction:
    n = len(v)
    return Fraction(2 ** n, math.factorial(n + 1))


def branch_tree_measured(max_depth: int = 10) -> MeasuredSpace:
    """Branching tree with the depth measure mu(v) = 2**n / (n+1)!.

    The children of any vertex carry twice its mass, subtree masses have
    the closed form (2**(l+1) - 1) * mu(v), and ball masses are bounded by
    2**(l+2); the catalog therefore tags the measured space as volume
    finite with exponential volume growth.
    """
    tree = BranchTree(max_depth=max_depth)
    # the mass depends only on the depth, so it is computed once per depth
    measured = MeasuredSpace(tree, _branch_mass, name=f"branch_tree_measured[depth<={max_depth}]",
                             annotations={"vol-finite"}, mass_key=len)
    measured.growth_tag = "exponential"
    return measured


# ---------------------------------------------------------------------------
# prime-cycle decorated half line


def _prime_powers(limit: int) -> Dict[int, Tuple[int, int]]:
    """Map q -> (p, k) for every prime power q = p**k <= limit."""
    sieve = list(range(limit + 1))
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i] == i:
            for j in range(i * i, limit + 1, i):
                if sieve[j] == j:
                    sieve[j] = i
    out: Dict[int, Tuple[int, int]] = {}
    for q in range(2, limit + 1):
        p = sieve[q]
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        if rest == 1:
            out[q] = (p, k)
    return out


class PrimeCycle(MetricSpace):
    """Half line of integers with the cycle G_{p^k} glued at each prime power.

    G_{p^k} is a cycle on p*k vertices (unit edges) whose vertex 0 is the
    line point p**k, plus a chord of weight p between every pair of
    distinct cycle vertices; each decoration has diameter at most p.  The
    space is 1-connected but not quasi-geodesic, and its decorations carry
    arbitrarily large p-separated sets of diameter p.
    """

    def __init__(self, max_line: int = 512):
        if max_line < 2:
            raise InvalidInputError("max_line must be >= 2")
        self.max_line = max_line
        self._powers = _prime_powers(max_line)
        self.name = f"prime_cycle[N={max_line}]"
        self.annotations = frozenset(
            {"weighted-graph", "not-coarsely-bounded-geometry", "coding-map-zero"})
        self.basepoint = ("line", 0)

    def check_point(self, x):
        if isinstance(x, tuple) and len(x) == 2 and x[0] == "line":
            m = x[1]
            if isinstance(m, int) and 0 <= m <= self.max_line:
                return
            raise UnknownPointError(f"line coordinate outside window 0..{self.max_line}: {x!r}")
        if isinstance(x, tuple) and len(x) == 4 and x[0] == "cyc":
            _, p, k, i = x
            ok = (isinstance(p, int) and isinstance(k, int) and isinstance(i, int)
                  and 2 <= p <= self.max_line and 1 <= k <= self.max_line.bit_length())
            if ok and self._powers.get(p ** k) == (p, k) and 1 <= i <= p * k - 1:
                return
            raise UnknownPointError(f"bad cycle vertex: {x!r}")
        raise UnknownPointError(f"not a prime_cycle point: {x!r}")

    @staticmethod
    def _exit_cost(p: int, k: int, i: int) -> int:
        # walk the cycle to vertex 0 or take the chord straight there
        return min(i, p * k - i, p)

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        if a == b:
            return 0
        if a[0] == "line" and b[0] == "line":
            return abs(a[1] - b[1])
        if a[0] == "line":
            a, b = b, a
        _, p, k, i = a
        if b[0] == "line":
            return self._exit_cost(p, k, i) + abs(p ** k - b[1])
        _, p2, k2, j = b
        if (p, k) == (p2, k2):
            arc = abs(i - j)
            return min(arc, p * k - arc, p)
        return (self._exit_cost(p, k, i) + abs(p ** k - p2 ** k2)
                + self._exit_cost(p2, k2, j))

    def _cycle_vertex(self, p: int, k: int, pos: int):
        pos %= p * k
        return ("line", p ** k) if pos == 0 else ("cyc", p, k, pos)

    def _adjacency(self, v):
        """Lazy weighted adjacency; raises when the line window is exceeded."""
        out = []
        if v[0] == "line":
            m = v[1]
            if m > 0:
                out.append((("line", m - 1), 1))
            if m + 1 > self.max_line:
                raise BudgetExceededError(f"line window 0..{self.max_line} exceeded at {m}")
            out.append((("line", m + 1), 1))
            pk = self._powers.get(m)
            if pk is not None:
                p, k = pk
                cyc = p * k
                arc = {self._cycle_vertex(p, k, 1), self._cycle_vertex(p, k, cyc - 1)}
                for w in sorted(arc):
                    if w != v:
                        out.append((w, 1))
                for j in range(1, cyc):
                    out.append((("cyc", p, k, j), p))
        else:
            _, p, k, i = v
            cyc = p * k
            for w in {self._cycle_vertex(p, k, i - 1), self._cycle_vertex(p, k, i + 1)}:
                if w != v:
                    out.append((w, 1))
            for j in range(cyc):
                w = self._cycle_vertex(p, k, j)
                if w != v:
                    out.append((w, p))
        return out

    def neighbors(self, x, delta):
        self.check_point(x)
        if delta < 1:
            return []
        radius = _floor_int(delta)  # all edge weights are integers
        dist = {x: 0}
        heap = [(0, x)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist.get(v, INF):
                continue
            if d + 1 > radius:
                continue
            for w, weight in self._adjacency(v):
                nd = d + weight
                if nd <= radius and nd < dist.get(w, INF):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        dist.pop(x, None)
        return sorted(dist)

    def cycle_points(self, p: int, k: int) -> List[Tuple]:
        q = p ** k
        if q not in self._powers or self._powers[q] != (p, k):
            raise InvalidInputError(f"{p}**{k} is not a prime power within the window")
        return [self._cycle_vertex(p, k, pos) for pos in range(p * k)]

    def bg_witness_family(self, s, depth):
        # every p-th vertex of G_{p^depth} for the smallest prime p > s:
        # pairwise weighted distance exactly p, diameter p
        if depth < 1:
            return None
        p = 2
        while not (p > s and self._powers.get(p) == (p, 1)):
            p += 1
            if p > self.max_line:
                return None
        if p ** depth > self.max_line:
            return None
        return [self._cycle_vertex(p, depth, j * p) for j in range(depth)], p

    def bg_evidence_defaults(self):
        s = 2
        p = 3
        depths = []
        k = 1
        while p ** k <= self.max_line:
            depths.append(k)
            k += 1
        return s, p, depths


# ---------------------------------------------------------------------------
# coarse union of finite pieces


class CoarseUnion(MetricSpace):
    """Disjoint union of finite bounded spaces under the max-formula metric.

    Points of distinct parts n != m are at distance
    max(n, m, diam X_n, diam X_m); inside a part the original metric is
    kept.  Every delta-component is contained in finitely many parts, so
    the catalog annotates the space bounded-components.
    """

    def __init__(self, parts: Sequence[MetricSpace], name: str = "coarse_union"):
        if not parts:
            raise InvalidInputError("coarse union needs at least one part")
        self._parts = tuple(parts)
        self._diams: List[Dist] = []
        for idx, part in enumerate(self._parts, start=1):
            pts = getattr(part, "points", None)
            if pts is None:
                raise InvalidInputError("coarse union parts must be finite spaces")
            diam = part.distance_table(pts).max()
            if not diam < INF:
                raise InvalidInputError(f"part {idx} is unbounded (disconnected?)")
            self._diams.append(diam)
        self._points = tuple(("part", idx, p)
                             for idx, part in enumerate(self._parts, start=1)
                             for p in part.points)
        self.name = name
        self.annotations = frozenset({"bounded-components"})
        self.basepoint = self._points[0]

    @property
    def points(self):
        return self._points

    @property
    def part_diameters(self):
        return tuple(self._diams)

    def check_point(self, x):
        if not (isinstance(x, tuple) and len(x) == 3 and x[0] == "part"):
            raise UnknownPointError(f"not a coarse_union point: {x!r}")
        idx = x[1]
        if not isinstance(idx, int) or not 1 <= idx <= len(self._parts):
            raise UnknownPointError(f"part index out of range: {x!r}")
        self._parts[idx - 1].check_point(x[2])

    def distance(self, a, b):
        self.check_point(a)
        self.check_point(b)
        if a[1] == b[1]:
            return self._parts[a[1] - 1].distance(a[2], b[2])
        return max(a[1], b[1], self._diams[a[1] - 1], self._diams[b[1] - 1])

    def neighbors(self, x, delta):
        self.check_point(x)
        check_scale(delta)
        return sorted(y for y in self._points if y != x and self.le(self.distance(x, y), delta))


# ---------------------------------------------------------------------------
# small graph builders and the catalog front door


def path_graph(n: int, name: Optional[str] = None) -> Graph:
    """Path on vertices 0..n-1."""
    if n < 1:
        raise InvalidInputError("need at least one vertex")
    if n == 1:
        return Graph({0: ()}, name=name or "path[1]")
    return build_graph([(i, i + 1) for i in range(n - 1)], name=name or f"path[{n}]")


def cycle_graph(n: int, name: Optional[str] = None) -> Graph:
    """Cycle on vertices 0..n-1 (n >= 3), vertex transitive."""
    if n < 3:
        raise InvalidInputError("a cycle needs at least 3 vertices")
    return build_graph([(i, (i + 1) % n) for i in range(n)], name=name or f"cycle[{n}]",
                       vertex_transitive=True)


def complete_graph(n: int, name: Optional[str] = None) -> Graph:
    if n < 2:
        raise InvalidInputError("a complete graph needs at least 2 vertices")
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)],
                       name=name or f"complete[{n}]", vertex_transitive=True)


def _union_part(spec) -> MetricSpace:
    if isinstance(spec, MetricSpace):
        return spec
    if not isinstance(spec, dict) or len(spec) != 1:
        raise InvalidInputError(f"coarse_union part must be a one-key dict: {spec!r}")
    key, value = next(iter(spec.items()))
    if key == "path":
        return path_graph(int(value))
    if key == "cycle":
        return cycle_graph(int(value))
    if key == "complete":
        return complete_graph(int(value))
    if key == "edges":
        return build_graph([tuple(e) for e in value], require_connected=True)
    raise InvalidInputError(f"unknown coarse_union part kind {key!r}")


CATALOG_TAGS = ("ultrametric_product", "log_line", "int_line", "regular_tree",
                "tree_line", "branch_tree", "prime_cycle", "coarse_union")


def make_example(tag: str, params: Optional[dict] = None) -> MetricSpace:
    """Build a catalog space by tag.

    Parameters (all optional, with defaults):

    * ``ultrametric_product``: ``max_index``
    * ``log_line``: ``max_abs``
    * ``int_line``: ``max_abs``
    * ``regular_tree``: ``degree``, ``max_depth``
    * ``tree_line``: ``max_tree``, ``schedule`` ("4^n", "2^n" or a list), ``max_line``
    * ``branch_tree``: ``max_depth``, ``measured`` (bool)
    * ``prime_cycle``: ``max_line``
    * ``coarse_union``: ``parts`` (list of one-key dicts, see ``_union_part``)
    """
    params = dict(params or {})
    try:
        if tag == "ultrametric_product":
            return UltrametricProduct(**params)
        if tag == "log_line":
            return LogLine(**params)
        if tag == "int_line":
            return IntLine(**params)
        if tag == "regular_tree":
            return RegularTree(**params)
        if tag == "tree_line":
            return TreeLine(**params)
        if tag == "branch_tree":
            measured = params.pop("measured", False)
            if not isinstance(measured, bool):
                raise InvalidInputError(f"measured must be a bool: {measured!r}")
            if measured:
                return branch_tree_measured(**params)
            return BranchTree(**params)
        if tag == "prime_cycle":
            return PrimeCycle(**params)
        if tag == "coarse_union":
            parts = params.pop("parts", None)
            if not parts:
                raise InvalidInputError("coarse_union needs a nonempty 'parts' list")
            return CoarseUnion([_union_part(p) for p in parts], **params)
    except TypeError as exc:
        raise InvalidInputError(f"bad parameters for {tag!r}: {exc}") from exc
    raise InvalidInputError(f"unknown catalog tag {tag!r}; known: {', '.join(CATALOG_TAGS)}")
