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

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BudgetExceededError, InvalidInputError, UnknownPointError
from ..numbers import INF, Dist, is_finite
from ..paths import DeltaPath
from . import base as _base
from .base import (Graph, MeasuredSpace, MetricSpace, _FiniteSpace, block_table, build_graph,
                   check_scale, count_by_key, hop_shells, walk_limit_error)

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
    MAX_INDEX = 20  # a ball holds up to 2**max_index points

    def __init__(self, max_index: int = 16):
        if not 1 <= max_index <= self.MAX_INDEX:
            raise InvalidInputError(f"max_index must be between 1 and {self.MAX_INDEX}")
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
        # every choice of the low kmax coordinates but x's own; with the
        # rest fixed, product's order is the sorted order
        low, high = x[:kmax], x[kmax:]
        return [pt + high for pt in itertools.product(*((0, k) for k in range(1, kmax + 1)))
                if pt != low]


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

    def _window_error(self, x: int) -> BudgetExceededError:
        return BudgetExceededError(
            f"delta-ball around {x} leaves the window [-{self.max_abs}, {self.max_abs}]")

    def neighbors(self, x, delta):
        self.check_point(x)
        s = self.max_step(delta)
        if s < 1:
            return []
        if x - s < -self.max_abs or x + s > self.max_abs:
            raise self._window_error(x)
        # a walk that expands x holds these 2s points and x: refuse more than
        # the walk limit of them before building them
        if 2 * s >= _base._WALK_POINTS:
            raise walk_limit_error(x, _base._WALK_POINTS)
        return [x + off for off in range(-s, s + 1) if off != 0]

    def shell_counts(self, x, n, delta, key=None):
        if key is not None:
            return super().shell_counts(x, n, delta, key)
        return self._interval_counts(x, n, delta)

    def _interval_counts(self, x, n, delta):
        # With s = max_step(delta), shell k >= 1 is the two intervals
        # [x-ks, x-(k-1)s) and (x+(k-1)s, x+ks].  hop_shells expands a shell
        # left to right: its leftmost point reaches the whole next left
        # interval, then each point of its right interval one more point.  So
        # the walk fails at the first point whose step leaves the window,
        # unless it held more than _WALK_POINTS points before that
        limit, far = _base._WALK_POINTS, self.max_abs
        yield 1
        if n < 1:
            return
        s = max(self.max_step(delta), 0)  # raises where the first neighbors call does
        if x - s < -far or x + s > far:
            raise self._window_error(x)
        held = 1 + 2 * s
        if held > limit:
            raise walk_limit_error(x, limit)
        yield 2 * s
        for k in range(1, n if s else 0):  # with no step, nothing follows the empty shell
            if x - (k + 1) * s < -far:
                raise self._window_error(x - k * s)
            inside = min(s, far - x - k * s)  # right points whose step stays inside
            if held + s + inside > limit:
                raise walk_limit_error(x, limit)
            if inside < s:
                raise self._window_error(far - s + 1)
            held += 2 * s
            yield 2 * s

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
        # |a - b| fits int64 below 2**62, and is a Python int past it
        x = np.array(self._checked(points), dtype=np.int64 if self.max_abs < 2 ** 62 else object)
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
        # every vertex has two or more children, so the ball holds the
        # 2**(r+1) - 1 vertices down to r levels below x: refuse a walk of
        # more than the walk limit before it starts (r = 1 lists, not walks)
        limit = _base._WALK_POINTS
        if r > 1 and r >= limit.bit_length():
            raise walk_limit_error(x, limit)
        return _hop_ball(self._adjacency, x, r)

    def _walk_radius(self, x, n, delta) -> Optional[int]:
        """floor(delta) for a walk of n >= 1 steps around x, None for n < 1.

        Each step reaches r levels deeper, and the walk expands every vertex
        of its first n shells but the last, down to len(x) + (n-1)r.  A walk
        that would leave the window is refused here, so none reaches its edge.
        """
        if n < 1:
            return None
        r = _floor_int(delta)
        if r >= 1 and len(x) + n * r > self.max_depth:
            raise BudgetExceededError(
                f"{n}-step ball of radius {r} around depth-{len(x)} vertex exceeds "
                f"depth window {self.max_depth}")
        return r

    def walk_shells(self, x, n, delta):
        # at unit steps the sorted adjacency is neighbors(y, 1) without the
        # point check and the scale parse; any other scale walks neighbors
        if self._walk_radius(x, n, delta) != 1:
            return super().walk_shells(x, n, delta)
        return hop_shells(self._adjacency, x, n)

    def shell_counts(self, x, n, delta, key=None):
        # by depth only at unit steps, where each depth of a shell is one
        # distance from x; a depth of a wider shell comes from several, and
        # another key needs the points, so those shells are walked.  The
        # bands advance first, so the walk-limit error rises before the walk
        # builds the shell that passes the limit
        r = self._walk_radius(x, n, delta)
        if r is None or r < 1:
            return super().shell_counts(x, n, delta, key)
        shells = self._bands(x, n, delta, r)
        if key is None:
            return (sum(count for _, count, _ in groups) for groups in shells)
        if key is len and r == 1:
            return ({depth: (first, count) for depth, count, first in groups}
                    for groups in shells)
        return (count_by_key(shell, key)
                for _, shell in zip(shells, self.walk_shells(x, n, delta)))

    def _below(self, depth: int, m: int) -> int:
        """Vertices m levels below a depth-``depth`` vertex."""
        return math.prod(map(self._width, range(depth, depth + m)))

    def _sphere(self, x, d: int) -> List[Tuple[int, int, Tuple]]:
        """The vertices at distance d >= 1 from x as ``(depth, count, first)``
        groups, shallowest first; the counts depend only on len(x).

        Group j <= d goes up j levels to the ancestor a = x[:len(x)-j]: it is
        a itself when j = d, else a's descendants d-j levels down, less those
        below the child towards x.  A unit walk finds the groups shallowest
        first, and first in each the vertex with the lowest child indices.
        """
        h = len(x)
        out = []
        for j in range(min(d, h), -1, -1):
            a = x[:h - j]
            if j == d:
                out.append((h - j, 1, a))
                continue
            count, child = self._below(h - j, d - j), 0
            if j:
                count -= self._below(h - j + 1, d - j - 1)
                child = 1 if x[h - j] == 0 else 0
            if count:
                out.append((h + d - 2 * j, count, a + (child,) + (0,) * (d - j - 1)))
        return out

    def _bands(self, x, n: int, delta, r: int) -> Iterator[List[Tuple[int, int, Tuple]]]:
        """Shells 0..n of an r-step walk around x as ``_sphere`` groups.

        A tree is geodesic, so shell k >= 1 holds the vertices at distance
        (k-1)r < d <= kr.  hop_shells ends the advance to shell k with the
        walk-limit error exactly when shells 0..k hold more than
        _WALK_POINTS points, so that error rises here at the same advance,
        before the shell is yielded.  At r >= 2 each neighbors call walks
        an r-ball itself, which fails first, naming its centre, when it
        alone passes the limit; where a vertex of the expanded shell has
        such a ball, walking the advance tells which error comes first.
        """
        limit = _base._WALK_POINTS
        held, groups = 1, [(len(x), 1, x)]
        yield groups
        for k in range(1, n + 1):
            expanded = groups
            groups = [g for d in range((k - 1) * r + 1, k * r + 1) for g in self._sphere(x, d)]
            held += sum(count for _, count, _ in groups)
            if held > limit:
                # at k = 1 the only ball walked is x's, and both errors name x
                if r > 1 and k > 1 and any(self._ball_size(t, r) > limit for t, _, _ in expanded):
                    for _ in super().walk_shells(x, k, delta):
                        pass
                raise walk_limit_error(x, limit)
            yield groups

    def _ball_size(self, depth: int, r: int) -> int:
        """Points within r of a depth-``depth`` vertex."""
        x = (0,) * depth
        return 1 + sum(count for d in range(1, r + 1) for _, count, _ in self._sphere(x, d))


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
        # a radius-1 ball is the adjacency list, which no walk sees: it holds
        # degree + 1 points, at most the walk limit
        if degree >= _base._WALK_POINTS:
            raise InvalidInputError(f"degree must be at most {_base._WALK_POINTS - 1}")
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
    # the largest max_tree whose 4^n window, line and trees, fits under the
    # walk limit: 1,052,713 points
    MAX_TREE = 10

    def __init__(self, max_tree: int = 8, schedule="4^n", max_line: Optional[int] = None):
        if max_tree < 1:
            raise InvalidInputError("max_tree must be >= 1")
        if max_tree > self.MAX_TREE:
            raise InvalidInputError(f"max_tree must be at most {self.MAX_TREE}")
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
        # line points, then 2 + 4 + ... + 2**n tree vertices per tree n
        self._window_size = self.max_line + 1 + 2 ** (max_tree + 2) - 4 - 2 * max_tree
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
        return self.step_distance(a, b)

    def step_distance(self, a, b):
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
        # the walk raises when it expands the last line point, which it does
        # exactly when that point is nearer than r.  A window that fits under
        # _WALK_POINTS cannot meet the walk limit first: say so before walking
        to_last = self.distance(x, ("line", self.max_line))
        limit = _base._WALK_POINTS
        if self._window_size <= limit and to_last < r:
            raise BudgetExceededError(
                f"line window 0..{self.max_line} exceeded at {self.max_line}")
        # the walk holds the line points from x's exit, e away, up to
        # min(r, to_last) away before it ends or expands the last one:
        # refuse more than the walk limit of them before walking
        if min(r, to_last) - (0 if x[0] == "line" else len(x[2])) >= limit:
            raise walk_limit_error(x, limit)
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
        # an explicit schedule may attach far out: refuse a base of more
        # points than the walk limit before building it
        if -(-x_att // step) >= _base._WALK_POINTS:
            raise BudgetExceededError(
                f"the base path to {x_att} holds more than {_base._WALK_POINTS} points")
        # ceil(x_att / step) steps of `step`, the last cut short at x_att
        base = DeltaPath(tuple(zip(itertools.repeat("line"), range(0, x_att, step)))
                         + (("line", x_att),), delta)
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


# most divisors one prime-power test tries: every number below 2**32 is
# settled, and a larger one with no factor up to this bound is refused
_TRIAL_DIVISORS = 1 << 16


def _prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, k) when q = p**k for a prime p, else None.  p is q's smallest
    prime factor, found by trial division up to the integer square root;
    raises BudgetExceededError when that root passes ``_TRIAL_DIVISORS``
    and no divisor up to the bound is found."""
    if q < 2:
        return None
    root = math.isqrt(q)
    p = next((d for d in range(2, min(root, _TRIAL_DIVISORS) + 1) if q % d == 0), None)
    if p is None:
        if root > _TRIAL_DIVISORS:
            raise BudgetExceededError(
                f"testing {q} for a prime power needs trial division past {_TRIAL_DIVISORS}")
        p = q
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


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
        # q -> _prime_power(q), for the q in the window a run has asked about
        self._powers: Dict[int, Optional[Tuple[int, int]]] = {}
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
            if ok and self._power(p ** k) == (p, k) and 1 <= i <= p * k - 1:
                return
            raise UnknownPointError(f"bad cycle vertex: {x!r}")
        raise UnknownPointError(f"not a prime_cycle point: {x!r}")

    def _power(self, q: int) -> Optional[Tuple[int, int]]:
        """(p, k) when q = p**k <= max_line for a prime p, else None;
        memoised, so each q costs one trial division per space."""
        try:
            return self._powers[q]
        except KeyError:
            pk = self._powers[q] = _prime_power(q) if q <= self.max_line else None
            return pk

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

    def distance_table(self, points):
        # each point reaches the line at q after e steps: a line point m at
        # q = m with e = 0, a cycle vertex at q = p**k with its exit cost.
        # Two vertices of one cycle are min(arc, p*k - arc, p) apart, every
        # other pair e + |q - q'| + e'.  Every value is at most 3 max(q), so
        # int64 holds them below that bound, and Python ints above it
        pts = self._checked(points)
        cols = [(x[1], 0, 0, 0, 0) if x[0] == "line" else
                (x[1] ** x[2], self._exit_cost(*x[1:]), x[3], x[1] * x[2], x[1]) for x in pts]
        top = max((c[0] for c in cols), default=0)
        q, e, pos, length, p = np.array(cols, dtype=np.int64 if 3 * top < 2 ** 63 else object
                                        ).reshape(len(pts), 5).T
        on_cycle = length > 0

        def rows(lo, hi):
            arc = np.abs(pos[lo:hi, None] - pos[None, :])
            inside = np.minimum(np.minimum(arc, length[lo:hi, None] - arc), p[lo:hi, None])
            across = e[lo:hi, None] + np.abs(q[lo:hi, None] - q[None, :]) + e[None, :]
            same = (q[lo:hi, None] == q[None, :]) & on_cycle[lo:hi, None] & on_cycle[None, :]
            return np.where(same, inside, across)

        return block_table(len(pts), rows)

    def _cycle_vertex(self, p: int, k: int, pos: int):
        pos %= p * k
        return ("line", p ** k) if pos == 0 else ("cyc", p, k, pos)

    def neighbors(self, x, delta):
        self.check_point(x)
        if delta < 1:
            return []
        radius = _floor_int(delta)  # all distances are integers
        # x meets the line at q0 after exit_cost steps, and the ball holds the
        # line points within reach of q0
        if x[0] == "line":
            q0, exit_cost, cycles = x[1], 0, []
        else:
            _, p, k, i = x
            q0, exit_cost = p ** k, self._exit_cost(p, k, i)
            cycles = [(p, k, i, radius)]  # x's own, measured from x
        reach = radius - exit_cost
        # the ball passes the window when the last line point is nearer
        if q0 + reach > self.max_line:
            raise BudgetExceededError(
                f"line window 0..{self.max_line} exceeded at {self.max_line}")
        # cycles holds (p, k, centre, room) for each cycle in the ball: its
        # vertices within room of the centre, every one once a chord reaches
        # (p <= room).  held counts the ball with x as the cycles are found:
        # the line points, x's own cycle without its line point q0, and each
        # cycle glued at q, t < reach steps along the line, with room
        # reach - t.  Past the limit the ball is refused before the next
        # prime-power test, and the line points are tested q0, then q0 - t
        # before q0 + t
        limit = _base._WALK_POINTS
        held = max(0, reach + min(q0, reach) + 1)
        if x[0] != "line":
            # at most an arc of 2 radius + 1, less q0 when it reaches the line
            held += p * k - 1 if p <= radius else min(p * k - 1, 2 * radius + 1 - (reach >= 0))
        if held > limit:
            raise walk_limit_error(x, limit)
        for t in range(max(reach, 0)):
            for m in (q0 - t, q0 + t) if t else (q0,):
                pk = self._power(m) if m >= 0 else None
                if pk is not None and (m != q0 or x[0] == "line"):
                    cp, ck = pk
                    room = reach - t
                    held += cp * ck - 1 if cp <= room else min(cp * ck - 1, 2 * room)
                    if held > limit:
                        raise walk_limit_error(x, limit)
                    cycles.append((cp, ck, 0, room))
        ball = []  # sorted: cycle vertices (position 0 is the line point q), lines
        for cp, ck, centre, room in sorted(cycles):
            n = cp * ck
            span = range(n) if cp <= room else range(centre - room, centre + room + 1)
            ball += [("cyc", cp, ck, j) for j in sorted({j % n for j in span}) if j]
        ball += [("line", m) for m in range(max(0, q0 - reach), q0 + reach + 1)]
        ball.remove(x)
        return ball

    def cycle_points(self, p: int, k: int) -> List[Tuple]:
        if self._power(p ** k) != (p, k):
            raise InvalidInputError(f"{p}**{k} is not a prime power within the window")
        return [self._cycle_vertex(p, k, pos) for pos in range(p * k)]

    def bg_witness_family(self, s, depth):
        # every p-th vertex of G_{p^depth} for the smallest prime p > s:
        # pairwise weighted distance exactly p, diameter p
        if depth < 1 or not s < self.max_line:
            return None
        p = max(2, math.floor(s) + 1)
        # the prime found is no smaller, so its power is too large whenever
        # this one's is: say so before the search
        if depth >= self.max_line.bit_length() or p ** depth > self.max_line:
            return None
        while self._power(p) != (p, 1):
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


class CoarseUnion(_FiniteSpace):
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
            diam = max(part.distance_table(pts).max(axis=0).tolist())
            if not diam < INF:
                raise InvalidInputError(f"part {idx} is unbounded (disconnected?)")
            self._diams.append(diam)
        super().__init__((("part", idx, p) for idx, part in enumerate(self._parts, start=1)
                          for p in part.points), name, {"bounded-components"})

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

    def _search(self, source):
        _, idx, p = source
        part, diam = self._parts[idx - 1], self._diams[idx - 1]
        return {y: part.distance(p, y[2]) if y[1] == idx
                else max(idx, y[1], diam, self._diams[y[1] - 1]) for y in self._points}


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
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad parameters for {tag!r}: {exc}") from exc
    raise InvalidInputError(f"unknown catalog tag {tag!r}; known: {', '.join(CATALOG_TAGS)}")
