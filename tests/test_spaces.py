"""Catalog spaces and finite-space builders, checked against independent
BFS/Dijkstra oracles built straight from each space's definition."""

import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseentropy import (
    BranchTree,
    BudgetExceededError,
    CATALOG_TAGS,
    CoarseUnion,
    FiniteMetricSpace,
    Graph,
    IntLine,
    InvalidInputError,
    LogLine,
    MeasuredSpace,
    PrimeCycle,
    RegularTree,
    TreeLine,
    UltrametricProduct,
    UnknownPointError,
    ball,
    branch_tree_measured,
    build_finite_space,
    build_graph,
    build_weighted_graph,
    complete_graph,
    cycle_graph,
    enumerate_orbits,
    load_edges_csv,
    make_example,
    path_graph,
    step_ball,
    subspace,
    validate_metric,
)

from coarseentropy.spaces import base as spaces_base

from conftest import bfs_oracle, dijkstra_oracle


# ---------------------------------------------------------------------------
# ultrametric product


def up_points(max_index):
    return st.tuples(*(st.sampled_from([0, k]) for k in range(1, max_index + 1)))


class TestUltrametricProduct:
    def test_distance_is_largest_disagreeing_coordinate(self):
        sp = UltrametricProduct(max_index=6)
        a = (0, 2, 0, 4, 0, 0)
        b = (1, 2, 0, 0, 0, 0)
        assert sp.distance(a, b) == 4
        assert sp.distance(a, a) == 0

    @settings(max_examples=60, deadline=None)
    @given(up_points(6), up_points(6), up_points(6))
    def test_ultrametric_inequality(self, a, b, c):
        sp = UltrametricProduct(max_index=6)
        assert sp.distance(a, b) <= max(sp.distance(a, c), sp.distance(c, b))

    @settings(max_examples=60, deadline=None)
    @given(up_points(6), up_points(6))
    def test_distance_matches_definition(self, a, b):
        sp = UltrametricProduct(max_index=6)
        expect = max((k for k in range(1, 7) if a[k - 1] != b[k - 1]), default=0)
        assert sp.distance(a, b) == expect
        assert sp.distance(b, a) == expect

    def test_neighbors_flip_low_coordinates(self):
        sp = UltrametricProduct(max_index=8)
        x = sp.basepoint
        for delta in (1, 2, 3):
            nbrs = sp.neighbors(x, delta)
            assert len(nbrs) == 2 ** delta - 1
            assert all(sp.distance(x, y) <= delta for y in nbrs)
            assert nbrs == sorted(nbrs)

    def test_ball_doubles_per_radius_step(self):
        sp = UltrametricProduct(max_index=8)
        for n in range(0, 7):
            assert len(ball(sp, sp.basepoint, n)) == 2 ** n

    def test_window_overflow_raises(self):
        sp = UltrametricProduct(max_index=4)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(sp.basepoint, 5)

    def test_bad_points_rejected(self):
        sp = UltrametricProduct(max_index=3)
        for bad in [(0, 0), (0, 0, 0, 0), (1, 1, 0), (0, 2, 4), "nope"]:
            with pytest.raises(UnknownPointError):
                sp.check_point(bad)

    def test_annotations(self):
        sp = UltrametricProduct()
        assert {"ultrametric", "bounded-components"} <= set(sp.annotations)
        assert sp.vertex_transitive


# ---------------------------------------------------------------------------
# the two lines


class TestLogLine:
    def test_distance(self):
        sp = LogLine(max_abs=1024)
        assert sp.distance(0, 0) == 0
        assert sp.distance(0, 1) == 1.0
        assert sp.distance(0, 7) == 3.0
        assert abs(sp.distance(-3, 4) - math.log2(8)) < 1e-12

    @pytest.mark.parametrize("delta,expect", [(0, 0), (1, 1), (2, 3), (3, 7), (10, 1023)])
    def test_max_step_integer_deltas(self, delta, expect):
        sp = LogLine(max_abs=4096)
        assert sp.max_step(delta) == expect

    # from 1024 on 2.0 ** delta overflows; near 50 and above the step is
    # about 2**delta / 1e9 past its float estimate
    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5, 2.7, 3.1, 5.0, 50, 60, 1023.5, 1024, 2000])
    def test_max_step_is_the_largest_allowed_move(self, delta):
        sp = LogLine(max_abs=1 << 12)
        s = sp.max_step(delta)
        if s > 0:
            assert sp.le(math.log2(1 + s), delta)
        assert not sp.le(math.log2(2 + s), delta)
        if isinstance(delta, int):
            assert 2 ** delta - 1 <= s <= 2 ** delta + (2 ** delta >> 26)

    def test_neighbors_are_the_full_interval(self):
        sp = LogLine(max_abs=64)
        nbrs = sp.neighbors(5, 2)
        assert nbrs == [5 + off for off in range(-3, 4) if off != 0]

    def test_hop_lower_bound(self):
        sp = LogLine(max_abs=1 << 21)
        assert sp.hop_lower_bound(0, 0, 8) == 0
        s = sp.max_step(8)
        gap = 2 ** 20
        assert sp.hop_lower_bound(0, gap, 8) == -(-gap // s)

    def test_a_huge_step_leaves_the_window(self):
        with pytest.raises(BudgetExceededError, match="leaves the window"):
            LogLine().neighbors(0, 1024)
        with pytest.raises(BudgetExceededError, match="moves more than 2\\*\\*4096 points"):
            LogLine().max_step(5000)

    def test_window_overflow_raises(self):
        sp = LogLine(max_abs=16)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(15, 2)
        with pytest.raises(UnknownPointError):
            sp.check_point(17)


class TestLineMessages:
    """The two lines share their window check and point check."""

    @pytest.mark.parametrize("cls", [IntLine, LogLine])
    @pytest.mark.parametrize("x", [10, -10])
    def test_ball_leaving_the_window(self, cls, x):
        with pytest.raises(BudgetExceededError) as err:
            cls(max_abs=10).neighbors(x, 1)
        assert str(err.value) == f"delta-ball around {x} leaves the window [-10, 10]"

    @pytest.mark.parametrize("cls", [IntLine, LogLine])
    @pytest.mark.parametrize("bad", [11, -11, True, 1.0, "3"])
    def test_point_must_be_an_integer(self, cls, bad):
        with pytest.raises(UnknownPointError) as err:
            cls(max_abs=10).check_point(bad)
        assert str(err.value) == f"point must be an integer with |x| <= 10: {bad!r}"

    @pytest.mark.parametrize("cls", [IntLine, LogLine])
    def test_step_below_one_gives_no_hop_count(self, cls):
        sp = cls(max_abs=10)
        assert sp.neighbors(0, Fraction(1, 2)) == []
        assert sp.hop_lower_bound(0, 5, Fraction(1, 2)) is None
        assert sp.hop_lower_bound(3, 3, Fraction(1, 2)) == 0

    def test_int_line_hop_distance_below_one_step(self):
        sp = IntLine(max_abs=10)
        assert sp.hop_distance(0, 5, Fraction(1, 2)) is None
        assert sp.hop_distance(0, 5, Fraction(5, 2)) == 3
        assert sp.hop_lower_bound(0, 5, Fraction(5, 2)) == 3
        assert LogLine(max_abs=10).hop_distance(0, 5, 3) is None


class TestIntLine:
    def test_distance_and_neighbors(self):
        sp = IntLine(max_abs=100)
        assert sp.distance(-3, 4) == 7
        assert sp.neighbors(0, 2) == [-2, -1, 1, 2]
        assert sp.neighbors(0, Fraction(5, 2)) == [-2, -1, 1, 2]
        assert sp.neighbors(0, 0) == []

    def test_hop_distance_closed_form(self):
        sp = IntLine(max_abs=1000)
        assert sp.hop_distance(0, 10, 3) == 4
        assert sp.hop_distance(0, 9, 3) == 3
        assert sp.hop_distance(5, 5, 3) == 0

    def test_window_overflow_raises(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(10, 1)
        with pytest.raises(UnknownPointError):
            sp.check_point(11)
        with pytest.raises(UnknownPointError):
            sp.check_point(True)


# ---------------------------------------------------------------------------
# regular tree


def tree_adjacency(degree, max_depth):
    def adj(v):
        out = []
        if v:
            out.append(v[:-1])
        if len(v) < max_depth:
            width = degree if not v else degree - 1
            out.extend(v + (c,) for c in range(width))
        return out
    return adj


class TestRegularTree:
    def test_distance_matches_bfs_oracle(self):
        sp = RegularTree(degree=3, max_depth=4)
        dist = bfs_oracle(tree_adjacency(3, 4), ())
        for v, d in dist.items():
            assert sp.distance((), v) == d
        a = (0, 1, 0)
        dist_a = bfs_oracle(tree_adjacency(3, 4), a)
        for v, d in dist_a.items():
            assert sp.distance(a, v) == d

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_ball_closed_form(self, degree):
        sp = RegularTree(degree=degree, max_depth=7)
        for l in range(0, 5):
            expect = 1 + degree * ((degree - 1) ** l - 1) // (degree - 2)
            assert len(ball(sp, sp.basepoint, l)) == expect

    @pytest.mark.parametrize("degree", [3, 4])
    def test_neighbors_match_oracle_ball(self, degree):
        sp = RegularTree(degree=degree, max_depth=6)
        adj = tree_adjacency(degree, 6)
        for r in (1, 2, 3):
            # the root, an inner vertex, and a vertex whose ball reaches the
            # window's last level
            for x in [(), (1, 0), (degree - 1,) + (1,) * (5 - r)]:
                dist = bfs_oracle(adj, x)
                expect = sorted(y for y, d in dist.items() if 0 < d <= r)
                assert sp.neighbors(x, r) == expect, (x, r)

    def test_neighbors_next_to_the_window(self):
        sp = RegularTree(degree=3, max_depth=6)
        x = (2, 1, 0, 1, 1)
        assert sp.neighbors(x, 1) == [(2, 1, 0, 1), x + (0,), x + (1,)]
        with pytest.raises(BudgetExceededError) as err:
            sp.neighbors(x, 2)
        assert str(err.value) == "radius 2 ball around depth-5 vertex exceeds depth window 6"
        assert sp.neighbors(x, Fraction(1, 2)) == []

    def test_homogeneous_degree(self):
        sp = RegularTree(degree=3, max_depth=8)
        for v in [(), (0,), (2, 1), (0, 0, 1, 1)]:
            assert len(sp.neighbors(v, 1)) == 3

    def test_depth_budget(self):
        sp = RegularTree(degree=3, max_depth=3)
        with pytest.raises(BudgetExceededError):
            sp.neighbors((0, 0), 2)
        with pytest.raises(UnknownPointError):
            sp.check_point((0, 0, 0, 0))
        with pytest.raises(UnknownPointError):
            sp.check_point((3,))

    def test_small_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            RegularTree(degree=2)

    @pytest.mark.parametrize("make, message", [
        (lambda: RegularTree(degree=3.5), "degree must be an integer: 3.5"),
        (lambda: RegularTree(degree=True), "degree must be an integer: True"),
        (lambda: RegularTree(max_depth=6.5), "max_depth must be an integer: 6.5"),
        (lambda: BranchTree(max_depth=True), "max_depth must be an integer: True"),
    ], ids=["float-degree", "bool-degree", "float-depth", "bool-depth"])
    def test_non_integer_parameters_rejected(self, make, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("bad, level", [
        ((3,), 0), ((0, 2), 1), ((0, -1), 1), ((0, 1.0), 1), ((0, 1, "a"), 2), (((),), 0)])
    def test_bad_child_index_names_its_level(self, bad, level):
        with pytest.raises(UnknownPointError) as err:
            RegularTree(degree=3, max_depth=4).check_point(bad)
        assert str(err.value) == f"bad child index at level {level}: {bad!r}"


# ---------------------------------------------------------------------------
# line with attached binary trees


def treeline_points(xs, max_line):
    pts = [("line", m) for m in range(max_line + 1)]
    for n in xs:
        for level in range(1, n + 1):
            for bits in _all_bits(level):
                pts.append(("tree", n, bits))
    return pts


def _all_bits(level):
    out = [()]
    for _ in range(level):
        out = [b + (bit,) for b in out for bit in (0, 1)]
    return out


def treeline_adjacency(xs, max_line):
    attach = {v: n for n, v in xs.items()}

    def adj(x):
        out = []
        if x[0] == "line":
            m = x[1]
            if m > 0:
                out.append(("line", m - 1))
            if m + 1 <= max_line:
                out.append(("line", m + 1))
            n = attach.get(m)
            if n is not None:
                out.extend([("tree", n, (0,)), ("tree", n, (1,))])
        else:
            _, n, bits = x
            out.append(("tree", n, bits[:-1]) if len(bits) > 1 else ("line", xs[n]))
            if len(bits) < n:
                out.extend([("tree", n, bits + (0,)), ("tree", n, bits + (1,))])
        return out
    return adj


class TestTreeLine:
    def test_all_pairs_match_bfs_oracle(self):
        xs = {1: 2, 2: 5, 3: 9}
        sp = TreeLine(max_tree=3, schedule=[2, 5, 9], max_line=12)
        pts = treeline_points(xs, 12)
        adj = treeline_adjacency(xs, 12)
        for a in pts:
            dist = bfs_oracle(adj, a)
            for b in pts:
                assert sp.distance(a, b) == dist[b], (a, b)

    def test_neighbors_match_oracle_ball(self):
        xs = {1: 2, 2: 5, 3: 9}
        sp = TreeLine(max_tree=3, schedule=[2, 5, 9], max_line=12)
        adj = treeline_adjacency(xs, 12)
        for x in [("line", 5), ("tree", 3, (1,)), ("line", 0)]:
            for r in (1, 2, 3):
                dist = bfs_oracle(adj, x)
                expect = sorted(y for y, d in dist.items() if 0 < d <= r)
                assert sp.neighbors(x, r) == expect

    def test_default_schedule_is_powers_of_four(self):
        sp = TreeLine(max_tree=5)
        assert [sp.attachment(n) for n in range(1, 6)] == [4, 16, 64, 256, 1024]
        assert sp.max_line == 1024 + 64

    def test_schedule_validation(self):
        with pytest.raises(InvalidInputError):
            TreeLine(max_tree=2, schedule=[4, 4])
        with pytest.raises(InvalidInputError):
            TreeLine(max_tree=3, schedule=[4, 16])
        with pytest.raises(InvalidInputError):
            TreeLine(max_tree=2, schedule="3^n")
        with pytest.raises(InvalidInputError):
            TreeLine(max_tree=2, schedule=[2, 5], max_line=3)

    def test_level_vertices(self):
        sp = TreeLine(max_tree=2, schedule="2^n")
        lv = sp.level_vertices(2, 1)
        assert lv == [("tree", 2, (0,)), ("tree", 2, (1,))]
        with pytest.raises(InvalidInputError):
            sp.level_vertices(2, 3)
        with pytest.raises(BudgetExceededError):
            sp.attachment(3)

    def test_pingpong_arms_are_valid_and_far_apart(self):
        from coarseentropy import validate_path
        sp = TreeLine(max_tree=4, schedule="2^n")
        for delta, R in [(1, 1), (1, 2), (2, 2)]:
            base, arms = sp.pingpong_arms(delta, R)
            assert base.start == ("line", 0)
            assert base.end == ("line", sp.attachment(2 * R))
            assert validate_path(base.points, delta, sp)
            assert len(arms) == 2 ** R
            for arm in arms:
                assert arm.start == base.end
                assert validate_path(arm.points, delta, sp)
            ends = [arm.end for arm in arms]
            for i, u in enumerate(ends):
                for v in ends[i + 1:]:
                    assert sp.distance(u, v) >= 2 * R + 2

    def test_tag(self):
        sp = TreeLine(max_tree=2, schedule="2^n")
        assert sp.growth_tag == "exponential-sup"
        assert "bounded-degree" in sp.annotations


# ---------------------------------------------------------------------------
# branching tree (+ measured variant)


def branch_adjacency(max_depth):
    def adj(v):
        out = []
        if v:
            out.append(v[:-1])
        if len(v) < max_depth:
            out.extend(v + (c,) for c in range(len(v) + 2))
        return out
    return adj


class TestBranchTree:
    def test_distance_matches_bfs_oracle(self):
        sp = BranchTree(max_depth=4)
        dist = bfs_oracle(branch_adjacency(4), (0, 1))
        for v, d in dist.items():
            assert sp.distance((0, 1), v) == d

    def test_neighbors_match_oracle_ball(self):
        sp = BranchTree(max_depth=6)
        adj = branch_adjacency(6)
        for r in (1, 2, 3):
            # the root, an inner vertex, and a vertex whose ball reaches the
            # window's last level
            for x in [(), (1, 2), (1, 2, 3, 4, 5)[:6 - r]]:
                dist = bfs_oracle(adj, x)
                expect = sorted(y for y, d in dist.items() if 0 < d <= r)
                assert sp.neighbors(x, r) == expect, (x, r)

    def test_neighbors_next_to_the_window(self):
        sp = BranchTree(max_depth=6)
        x = (1, 0, 3, 2, 5)
        assert sp.neighbors(x, 1) == [(1, 0, 3, 2)] + [x + (c,) for c in range(7)]
        with pytest.raises(BudgetExceededError) as err:
            sp.neighbors(x, 2)
        assert str(err.value) == "radius 2 ball around depth-5 vertex exceeds depth window 6"
        assert sp.neighbors(x, Fraction(1, 2)) == []

    def test_children_count_grows_with_depth(self):
        sp = BranchTree(max_depth=6)
        assert sp.children(()) == [(0,), (1,)]
        assert len(sp.children((0,))) == 3
        assert len(sp.children((0, 2, 1))) == 5
        with pytest.raises(UnknownPointError):
            sp.check_point((5,))  # root has children 0 and 1 only

    def test_bg_witness_family(self):
        sp = BranchTree(max_depth=6)
        family, diam = sp.bg_witness_family(2, 3)
        assert diam == 2
        assert len(family) == 5
        for i, a in enumerate(family):
            for b in family[i + 1:]:
                assert sp.distance(a, b) == 2

    def test_depth_budget(self):
        sp = BranchTree(max_depth=2)
        with pytest.raises(BudgetExceededError):
            sp.children((0, 0))
        with pytest.raises(BudgetExceededError):
            sp.leftmost_at_depth(3)

    def test_measured_masses(self):
        ms = branch_tree_measured(max_depth=5)
        assert isinstance(ms, MeasuredSpace)
        assert ms.mass(()) == Fraction(1)
        assert ms.mass((0,)) == Fraction(1)
        assert ms.mass((0, 0)) == Fraction(2, 3)
        tree = ms.space
        for v in [(), (0,), (1, 2), (0, 1, 1)]:
            kids = tree.children(v)
            assert ms.mass_of(kids) == 2 * ms.mass(v)
            assert isinstance(ms.mass_of(kids), Fraction)
        assert "measured" in ms.annotations and "vol-finite" in ms.annotations
        assert ms.growth_tag == "exponential"

    @pytest.mark.parametrize("bad, step", [
        ((2,), 1), ((0, -1), 2), ((0, 1.0), 2), ((0, "a"), 2), (((),), 1)])
    def test_bad_child_index_names_its_step(self, bad, step):
        with pytest.raises(UnknownPointError) as err:
            BranchTree(max_depth=4).check_point(bad)
        assert str(err.value) == f"bad child index at step {step}: {bad!r}"

    @pytest.mark.parametrize("bad", [[0], (0, 0, 0, 0, 0)])
    def test_non_tuple_or_too_deep_point(self, bad):
        with pytest.raises(UnknownPointError) as err:
            BranchTree(max_depth=4).check_point(bad)
        assert str(err.value) == f"point must be a child-index tuple within depth 4: {bad!r}"


def depth_mass(v):
    return Fraction(2 ** len(v), math.factorial(len(v) + 1))


def package_subclasses(cls):
    """Every subclass of cls defined in the package, at any depth."""
    out = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("coarseentropy."):
            out.append(sub)
        out.extend(package_subclasses(sub))
    return out


def test_measured_space_forwards_every_overridden_method():
    # a hook the wrapper does not forward falls back to the MetricSpace
    # default, which answers right but may take the slow path
    public = [name for name, attr in vars(spaces_base.MetricSpace).items()
              if callable(attr) and not name.startswith("_")]
    overridden = {name for sub in package_subclasses(spaces_base.MetricSpace)
                  if sub is not MeasuredSpace for name in public if name in vars(sub)}
    assert {"distance", "neighbors", "check_point", "distance_table", "walk_shells"} <= overridden
    measured = branch_tree_measured(max_depth=4)
    missing = {name for name in overridden
               if name not in vars(MeasuredSpace) and name not in vars(measured)}
    assert missing == set()


class TestMassKey:
    def test_keyed_and_unkeyed_masses_agree_to_depth_8(self):
        keyed = branch_tree_measured(max_depth=8)
        unkeyed = MeasuredSpace(BranchTree(max_depth=8), depth_mass)
        for depth in range(9):
            steps = range(1, depth + 1)
            for v in [(0,) * depth, tuple(steps), tuple(j // 2 for j in steps)]:
                assert keyed.mass(v) == unkeyed.mass(v) == depth_mass(v)
                if depth <= 6:
                    pts = ball(keyed, v, 2)
                    assert keyed.mass_of(pts) == unkeyed.mass_of(pts)
                    assert isinstance(keyed.mass_of(pts), Fraction)

    def test_mass_is_computed_once_per_key(self):
        calls = []

        def mass_fn(v):
            calls.append(v)
            return depth_mass(v)

        ms = MeasuredSpace(BranchTree(max_depth=6), mass_fn, mass_key=len)
        pts = ball(ms, (), 4)
        assert ms.mass_of(pts) == 2 ** 5 - 1
        assert sorted(len(v) for v in calls) == [0, 1, 2, 3, 4]
        assert ms.mass((1, 2, 3)) == Fraction(8, 24) and len(calls) == 5

    @pytest.mark.parametrize("key", [None, abs])
    def test_negative_mass_raises(self, key):
        ms = MeasuredSpace(IntLine(max_abs=5), lambda x: Fraction(-1), mass_key=key)
        for _ in range(2):  # a failed key is not memoised
            with pytest.raises(InvalidInputError, match="negative mass at 3"):
                ms.mass(3)
        with pytest.raises(InvalidInputError, match="negative mass at 1"):
            ms.mass_of([1, 2, -1])

    @pytest.mark.parametrize("key", [None, len])
    def test_invalid_point_inside_mass_of(self, key):
        ms = MeasuredSpace(BranchTree(max_depth=4), depth_mass, mass_key=key)
        # (5,) has the depth of a valid point, so its key alone proves nothing
        with pytest.raises(UnknownPointError):
            ms.mass_of([(), (0,), (5,), (1,)])
        assert ms.mass_of([]) == Fraction(0)
        assert isinstance(ms.mass_of([]), Fraction)

    @pytest.mark.parametrize("key", [None, len])
    def test_weigh_is_mass_of_without_the_check(self, key, monkeypatch):
        ms = MeasuredSpace(BranchTree(max_depth=6), depth_mass, mass_key=key)
        balls = [ball(ms, v, 2) for v in [(), (1,), (0, 2, 1)]]
        expected = [ms.mass_of(pts) for pts in balls]

        def no_check(x):
            raise AssertionError(f"checked {x!r}")

        monkeypatch.setattr(ms, "check_point", no_check)
        for pts, mass in zip(balls, expected):
            got = ms.weigh(pts)
            assert got == mass and isinstance(got, Fraction)
        assert ms.weigh([]) == 0 and isinstance(ms.weigh(()), Fraction)

    @pytest.mark.parametrize("key", [None, abs])
    def test_weigh_keeps_the_negative_mass_check(self, key):
        ms = MeasuredSpace(IntLine(max_abs=5), lambda x: Fraction(-1), mass_key=key)
        with pytest.raises(InvalidInputError, match="^negative mass at 1$"):
            ms.weigh([1, 2, -1])

    def test_weigh_computes_a_new_key_at_its_first_point(self):
        calls = []

        def mass_fn(v):
            calls.append(v)
            return depth_mass(v)

        ms = MeasuredSpace(BranchTree(max_depth=6), mass_fn, mass_key=len)
        assert ms.weigh([(1,), (0, 2), (0,), (1, 1), ()]) == 1 + 2 * 1 + 2 * Fraction(2, 3)
        assert calls == [(1,), (0, 2), ()]
        assert ms.weigh([(1, 0, 3), (0, 2)]) == Fraction(2, 3) + Fraction(8, 24)
        assert calls == [(1,), (0, 2), (), (1, 0, 3)]


# ---------------------------------------------------------------------------
# prime-decorated half line


def prime_powers_oracle(limit):
    out = {}
    for q in range(2, limit + 1):
        for p in range(2, q + 1):
            if q % p == 0:
                k = 0
                rest = q
                while rest % p == 0:
                    rest //= p
                    k += 1
                if rest == 1:
                    out[q] = (p, k)
                break
    return out


def prime_cycle_graph(max_line):
    """Explicit weighted adjacency per the construction: a half line with
    the cycle-plus-chords gadget glued at each prime power."""
    powers = prime_powers_oracle(max_line)

    def vertex(p, k, pos):
        pos %= p * k
        return ("line", p ** k) if pos == 0 else ("cyc", p, k, pos)

    def adj(v):
        out = []
        if v[0] == "line":
            m = v[1]
            if m > 0:
                out.append((("line", m - 1), 1))
            if m + 1 <= max_line:
                out.append((("line", m + 1), 1))
            pk = powers.get(m)
            if pk is not None:
                p, k = pk
                out.extend((vertex(p, k, pos), 1) for pos in (1, p * k - 1)
                           if vertex(p, k, pos) != v)
                out.extend((("cyc", p, k, j), p) for j in range(1, p * k))
        else:
            _, p, k, i = v
            out.extend((vertex(p, k, pos), 1) for pos in (i - 1, i + 1)
                       if vertex(p, k, pos) != v)
            out.extend((vertex(p, k, j), p) for j in range(p * k) if vertex(p, k, j) != v)
        return out

    pts = [("line", m) for m in range(max_line + 1)]
    for q, (p, k) in powers.items():
        pts.extend(("cyc", p, k, i) for i in range(1, p * k))
    return pts, adj


class TestPrimeCycle:
    def test_prime_power_table(self):
        sp = PrimeCycle(max_line=128)
        assert sp._powers == prime_powers_oracle(128)

    def test_all_pairs_match_dijkstra_oracle(self):
        sp = PrimeCycle(max_line=16)
        pts, adj = prime_cycle_graph(16)
        for a in pts:
            dist = dijkstra_oracle(adj, a)
            for b in pts:
                assert sp.distance(a, b) == dist[b], (a, b)

    def test_neighbors_match_oracle_ball(self):
        sp = PrimeCycle(max_line=16)
        pts, adj = prime_cycle_graph(16)
        for x in [("line", 4), ("cyc", 3, 1, 1), ("line", 0)]:
            for r in (1, 2, 5):
                dist = dijkstra_oracle(adj, x)
                expect = sorted(y for y, d in dist.items() if 0 < d <= r)
                assert sp.neighbors(x, r) == expect

    def test_cycle_points(self):
        sp = PrimeCycle(max_line=32)
        pts = sp.cycle_points(2, 4)  # q = 16, cycle on 8 vertices
        assert pts[0] == ("line", 16)
        assert len(pts) == 8
        with pytest.raises(InvalidInputError):
            sp.cycle_points(6, 1)

    def test_decoration_diameter_at_most_p(self):
        sp = PrimeCycle(max_line=128)
        for p, k in [(2, 5), (5, 2), (11, 1)]:
            pts = sp.cycle_points(p, k)
            diam = max(sp.distance(a, b) for i, a in enumerate(pts) for b in pts[i + 1:])
            assert diam <= p

    def test_bg_witness_family(self):
        sp = PrimeCycle(max_line=512)
        family, sep = sp.bg_witness_family(2, 3)
        assert sep == 3 and len(family) == 3
        for i, a in enumerate(family):
            for b in family[i + 1:]:
                assert sp.distance(a, b) == 3

    def test_bad_points_rejected(self):
        sp = PrimeCycle(max_line=32)
        for bad in [("line", 33), ("line", -1), ("cyc", 6, 1, 1), ("cyc", 2, 2, 4), ("x",)]:
            with pytest.raises(UnknownPointError):
                sp.check_point(bad)

    def test_line_window_budget(self):
        sp = PrimeCycle(max_line=8)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(("line", 8), 1)


# ---------------------------------------------------------------------------
# coarse union


class TestCoarseUnion:
    def test_distance_formula(self):
        cu = CoarseUnion([path_graph(3), cycle_graph(4), complete_graph(2)])
        # inside a part the original metric survives
        assert cu.distance(("part", 1, 0), ("part", 1, 2)) == 2
        assert cu.distance(("part", 2, 0), ("part", 2, 2)) == 2
        # across parts: max(indices, diameters); diam path(3)=2, cycle(4)=2, K2=1
        assert cu.distance(("part", 1, 0), ("part", 2, 3)) == 2
        assert cu.distance(("part", 1, 0), ("part", 3, 1)) == 3
        assert cu.part_diameters == (2, 2, 1)

    def test_points_and_neighbors(self):
        cu = CoarseUnion([path_graph(2), path_graph(3)])
        assert len(cu.points) == 5
        # delta below the cross-part distance keeps neighbors inside the part
        nbrs = cu.neighbors(("part", 1, 0), 1)
        assert nbrs == [("part", 1, 1)]

    def test_rejects_infinite_parts(self):
        with pytest.raises(InvalidInputError):
            CoarseUnion([IntLine(max_abs=4)])
        with pytest.raises(InvalidInputError):
            CoarseUnion([])

    def test_rejects_disconnected_parts(self):
        g = build_graph([(0, 1)], vertices=[0, 1, 2])
        with pytest.raises(InvalidInputError):
            CoarseUnion([g])

    def test_disconnected_part_is_named(self):
        parts = [path_graph(2), build_graph([(0, 1), (2, 3)])]
        with pytest.raises(InvalidInputError, match=r"^part 2 is unbounded \(disconnected\?\)$"):
            CoarseUnion(parts)


# ---------------------------------------------------------------------------
# graph builders, finite spaces, csv ingestion


class TestGraphBuilders:
    def test_path_cycle_complete_distances(self):
        p = path_graph(5)
        assert all(p.distance(i, j) == abs(i - j) for i in range(5) for j in range(5))
        c = cycle_graph(6)
        assert all(c.distance(i, j) == min(abs(i - j), 6 - abs(i - j))
                   for i in range(6) for j in range(6))
        k = complete_graph(4)
        assert all(k.distance(i, j) == (0 if i == j else 1)
                   for i in range(4) for j in range(4))

    def test_graph_metadata(self):
        c = cycle_graph(5)
        assert c.max_degree() == 2
        assert c.is_connected()
        assert c.vertex_transitive
        assert {"graph", "bounded-degree"} <= set(c.annotations)

    def test_loops_rejected_duplicates_collapse(self):
        with pytest.raises(InvalidInputError):
            build_graph([(0, 0)])
        g = build_graph([(0, 1), (1, 0), (0, 1)])
        assert g.distance(0, 1) == 1
        assert len(g.points) == 2

    def test_disconnected_distance_is_infinite(self):
        g = build_graph([(0, 1), (2, 3)])
        assert g.distance(0, 3) == math.inf
        assert not g.is_connected()
        with pytest.raises(InvalidInputError):
            build_graph([(0, 1), (2, 3)], require_connected=True)

    def test_weighted_graph_against_dijkstra_oracle(self, rng):
        edges = []
        n = 12
        for i in range(n):
            edges.append((i, (i + 1) % n, rng.randint(1, 9)))
        for _ in range(8):
            a, b = rng.sample(range(n), 2)
            edges.append((a, b, rng.randint(1, 9)))
        g = build_weighted_graph(edges)
        best = {}
        for a, b, w in edges:
            key = (min(a, b), max(a, b))
            best[key] = min(w, best.get(key, w))
        adj_map = {}
        for (a, b), w in best.items():
            adj_map.setdefault(a, []).append((b, w))
            adj_map.setdefault(b, []).append((a, w))
        for src in range(n):
            dist = dijkstra_oracle(lambda v: adj_map.get(v, ()), src)
            for dst in range(n):
                assert g.distance(src, dst) == dist[dst]

    @pytest.mark.parametrize("components", [1, 3])
    def test_graph_against_dijkstra_oracle(self, rng, components):
        # unit weights: hop distances; inf between components
        n = 15
        part = {v: v % components for v in range(n)}
        edges = set()
        for _ in range(18):
            a, b = rng.sample(range(n), 2)
            if part[a] == part[b]:
                edges.add((min(a, b), max(a, b)))
        g = build_graph(sorted(edges), vertices=range(n))
        adj_map = {v: [] for v in range(n)}
        for a, b in edges:
            adj_map[a].append((b, 1))
            adj_map[b].append((a, 1))
        for src in range(n):
            dist = dijkstra_oracle(adj_map.__getitem__, src)
            for dst in range(n):
                assert g.distance(src, dst) == dist.get(dst, math.inf)
        if components > 1:
            assert not g.is_connected()

    def test_weighted_parallel_edges_keep_min(self):
        g = build_weighted_graph([(0, 1, 5), (1, 0, 2)])
        assert g.distance(0, 1) == 2

    def test_weighted_rational_weights_stay_exact(self):
        g = build_weighted_graph([(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 6))])
        assert g.distance(0, 2) == Fraction(1, 2)
        with pytest.raises(InvalidInputError):
            build_weighted_graph([(0, 1, 0)])
        with pytest.raises(InvalidInputError):
            build_weighted_graph([(0, 1)])

    def test_weighted_ball_at_an_exact_rational_radius(self):
        g = build_weighted_graph([(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3))])
        assert g.neighbors(0, Fraction(2, 3)) == [1, 2]
        assert g.neighbors(0, Fraction(1, 3)) == [1]
        assert ball(g, 2, Fraction(2, 3)) == [0, 1, 2]

    def test_graph_neighbors_use_metric_balls(self):
        g = path_graph(6)
        assert g.neighbors(2, 2) == [0, 1, 3, 4]
        assert g.neighbors(2, Fraction(1, 2)) == []
        assert g.neighbors(2, Fraction(3, 2)) == [1, 3]
        assert g.neighbors(2, 0) == []

    def test_unknown_vertex_messages(self):
        g = path_graph(3)
        w = build_weighted_graph([(0, 1, 2)], name="w")
        for space, call in [(g, lambda: g.check_point(7)), (g, lambda: g.distance(0, 7)),
                            (g, lambda: g.neighbors(7, 1)), (w, lambda: w.check_point(7)),
                            (w, lambda: w.distance(7, 0)), (w, lambda: w.neighbors(7, 1))]:
            with pytest.raises(UnknownPointError) as err:
                call()
            assert str(err.value) == f"7 is not a vertex of {space.name}"


class TestFiniteSpaces:
    def test_build_finite_space_validates(self):
        pts = ("a", "b", "c")

        def broken(x, y):
            # violates the triangle inequality: d(a,c) = 5 > 1 + 1
            if x == y:
                return 0
            if {x, y} == {"a", "c"}:
                return 5
            return 1

        with pytest.raises(InvalidInputError):
            build_finite_space(pts, broken)
        space = FiniteMetricSpace(pts, broken)
        assert space.distance("a", "c") == 5

    def test_exact_thirds_satisfy_the_triangle_inequality(self):
        space = build_finite_space([0, 1, 2], lambda a, b: Fraction(abs(a - b), 3))
        assert space.distance(0, 2) == Fraction(2, 3)
        assert space.neighbors(0, Fraction(2, 3)) == [1, 2]
        assert space.tol == 0 and isinstance(space.tol, int)

    def test_validate_metric_catches_zero_off_diagonal(self):
        pts = (0, 1, 2)

        def degenerate(x, y):
            # distinct points 0 and 1 collapse to distance 0
            return 0 if {x, y} <= {0, 1} else 1

        with pytest.raises(InvalidInputError):
            validate_metric(FiniteMetricSpace(pts, degenerate))

    def test_subspace_induces_distances(self):
        sp = IntLine(max_abs=50)
        sub = subspace(sp, [0, 3, 10])
        assert sub.points == (0, 3, 10)
        assert sub.distance(3, 10) == 7
        assert sub.diameter() == 10

    def test_ball_is_sorted_and_contains_center(self):
        sp = IntLine(max_abs=50)
        assert ball(sp, 5, 2) == [3, 4, 5, 6, 7]
        assert ball(sp, 5, -1) == []

    def test_finite_space_diameter(self):
        sub = subspace(path_graph(4), [0, 1, 2, 3])
        assert sub.diameter() == 3
        # points on a line at 1/3, 0, 5/4: the diameter is the Fraction 5/4,
        # between the second and the third point
        coords = {"a": Fraction(1, 3), "b": Fraction(0), "c": Fraction(5, 4)}
        sp = build_finite_space(list(coords), lambda x, y: abs(coords[x] - coords[y]))
        assert sp.diameter() == Fraction(5, 4)
        assert type(sp.diameter()) is Fraction
        assert type(build_finite_space(["x"], lambda x, y: 0).diameter()) is int


class TestEdgeCsv:
    def test_unweighted_int_labels(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("src,dst\n0,1\n1,2\n")
        edges, weighted = load_edges_csv(str(f))
        assert not weighted
        assert edges == [(0, 1), (1, 2)]

    def test_weighted_rationals(self, tmp_path):
        f = tmp_path / "edges.csv"
        f.write_text("src,dst,weight\na,b,1/2\nb,c,0.25\n")
        edges, weighted = load_edges_csv(str(f))
        assert weighted
        assert edges == [("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 4))]

    def test_empty_file_raises(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(InvalidInputError):
            load_edges_csv(str(f))


# ---------------------------------------------------------------------------
# catalog front door


class TestMakeExample:
    def test_all_tags_build(self):
        params = {"coarse_union": {"parts": [{"path": 3}, {"cycle": 4}]},
                  "log_line": {"max_abs": 64},
                  "int_line": {"max_abs": 64},
                  "regular_tree": {"max_depth": 4},
                  "tree_line": {"max_tree": 2, "schedule": "2^n"},
                  "branch_tree": {"max_depth": 4},
                  "prime_cycle": {"max_line": 16},
                  "ultrametric_product": {"max_index": 4}}
        for tag in CATALOG_TAGS:
            sp = make_example(tag, params.get(tag))
            sp.check_point(sp.basepoint)

    def test_unknown_tag_raises(self):
        with pytest.raises(InvalidInputError):
            make_example("moebius_strip")

    def test_bad_params_raise(self):
        with pytest.raises(InvalidInputError):
            make_example("int_line", {"radius": 3})

    def test_measured_variant(self):
        ms = make_example("branch_tree", {"measured": True, "max_depth": 4})
        assert isinstance(ms, MeasuredSpace)
        assert isinstance(make_example("branch_tree", {"measured": False}), BranchTree)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_measured_must_be_a_bool(self, value):
        with pytest.raises(InvalidInputError, match=f"^measured must be a bool: {value!r}$"):
            make_example("branch_tree", {"measured": value})

    def test_union_part_specs(self):
        cu = make_example("coarse_union",
                          {"parts": [{"edges": [[0, 1], [1, 2]]}, {"complete": 3}]})
        assert isinstance(cu, CoarseUnion)
        with pytest.raises(InvalidInputError):
            make_example("coarse_union", {"parts": []})
        with pytest.raises(InvalidInputError):
            make_example("coarse_union", {"parts": [{"klein": 4}]})


class TestInfiniteStep:
    """An infinite delta-ball leaves every finite window; only the finite
    coarse union still answers."""

    @pytest.mark.parametrize("tag", CATALOG_TAGS)
    def test_infinite_delta(self, tag):
        params = {"parts": [{"path": 3}, {"cycle": 4}]} if tag == "coarse_union" else None
        sp = make_example(tag, params)
        x0 = sp.basepoint
        if tag == "coarse_union":
            assert len(sp.neighbors(x0, math.inf)) == len(sp.points) - 1
            assert len(enumerate_orbits(sp, x0, 1, math.inf).paths) == len(sp.points)
            return
        with pytest.raises(BudgetExceededError, match="leaves every finite window"):
            sp.neighbors(x0, math.inf)
        with pytest.raises(BudgetExceededError, match="leaves every finite window"):
            enumerate_orbits(sp, x0, 1, math.inf)

    @pytest.mark.parametrize("tag", CATALOG_TAGS)
    def test_negative_infinite_delta_reaches_nothing(self, tag):
        # as every finite negative delta does
        params = {"parts": [{"path": 3}, {"cycle": 4}]} if tag == "coarse_union" else None
        sp = make_example(tag, params)
        assert sp.neighbors(sp.basepoint, -math.inf) == sp.neighbors(sp.basepoint, -2) == []

    def test_negative_infinite_step_gives_no_hop_count(self):
        assert IntLine().max_step(-math.inf) < 1
        assert IntLine().hop_lower_bound(0, 3, -math.inf) is None
        assert LogLine().max_step(-math.inf) == 0

    @pytest.mark.parametrize("line", [IntLine, LogLine])
    def test_infinite_max_step(self, line):
        with pytest.raises(BudgetExceededError, match="leaves every finite window"):
            line().max_step(math.inf)


@pytest.mark.parametrize("tag", CATALOG_TAGS)
def test_nan_delta_is_rejected(tag):
    params = {"parts": [{"path": 3}, {"cycle": 4}]} if tag == "coarse_union" else None
    sp = make_example(tag, params)
    for call in (lambda: step_ball(sp, sp.basepoint, 2, math.nan),
                 lambda: sp.neighbors(sp.basepoint, math.nan)):
        with pytest.raises(InvalidInputError, match="^delta must be a number: nan$"):
            call()


@pytest.mark.parametrize("sp", [
    path_graph(3),
    build_finite_space([0, 1, 2], lambda a, b: abs(a - b)),
    build_weighted_graph([(0, 1, Fraction(1, 2)), (1, 2, 1)]),
], ids=["graph", "finite", "weighted_graph"])
def test_nan_delta_is_rejected_on_finite_spaces(sp):
    # le(d, nan) is always false: unchecked, a NaN would read as a scale with no step
    for call in (lambda: step_ball(sp, 0, 2, math.nan), lambda: sp.neighbors(0, math.nan)):
        with pytest.raises(InvalidInputError, match="^delta must be a number: nan$"):
            call()


# ---------------------------------------------------------------------------
# walks


def window_vertices(tree):
    """Every vertex of a depth-windowed tree, level by level: the children
    of a vertex are the indices check_point accepts, counted up from 0."""
    levels = [[()]]
    for _ in range(tree.max_depth):
        level = []
        for v in levels[-1]:
            c = 0
            while True:
                try:
                    tree.check_point(v + (c,))
                except UnknownPointError:
                    break
                level.append(v + (c,))
                c += 1
        levels.append(level)
    return [v for level in levels for v in level]


def walked(shells):
    """The shells a walk yields, and the message of the error that ended it
    (None when it ran to its end)."""
    out = []
    try:
        for shell in shells:
            out.append(list(shell))
    except BudgetExceededError as err:
        return out, str(err)
    return out, None


class TestWalkStep:
    """A space's ``walk_shells`` steps as ``hop_shells`` over ``neighbors``."""

    @pytest.mark.parametrize("space, size", [
        (RegularTree(degree=3, max_depth=5), 94), (BranchTree(max_depth=5), 873),
        (branch_tree_measured(max_depth=5), 873)],
        ids=["regular_tree", "branch_tree", "branch_tree_measured"])
    @pytest.mark.parametrize("delta", [Fraction(1, 2), 1, 1.0, Fraction(3, 2), Fraction(199, 100),
                                       2, math.inf, -math.inf],
                             ids=["1/2", "1", "1.0", "3/2", "199/100", "2", "inf", "-inf"])
    def test_step_is_neighbors_in_order(self, space, size, delta, monkeypatch):
        vertices = window_vertices(getattr(space, "space", space))
        assert len(vertices) == size
        longest = 2 * 5 + 1  # one step past the window's diameter
        r = math.floor(delta) if math.isfinite(delta) else delta
        for limit in (spaces_base._WALK_POINTS, 3, 10, 50):
            monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
            for v in vertices:
                # hop_shells is lazy, so its walk of n steps is the first n + 1
                # shells of the longest walk, or that walk's error if it came
                # sooner; past len(want) steps every walk ends the same way
                want, error = walked(
                    spaces_base.hop_shells(lambda y: space.neighbors(y, delta), v, longest))
                for n in range(longest + 1):
                    if n == 0 or r < 1 or len(v) + n * r <= 5:
                        expected = (want[:n + 1], error if len(want) <= n else None)
                        # no walk inside the window meets its edge
                        assert expected[1] is None or expected[1].startswith("walk around")
                        assert walked(space.walk_shells(v, n, delta)) == expected, (limit, v, n)
                        continue
                    # every other walk leaves the window and is refused at the call
                    if r == math.inf:
                        message = "a delta=inf ball leaves every finite window"
                    else:
                        message = (f"{n}-step ball of radius {r} around depth-{len(v)} vertex "
                                   "exceeds depth window 5")
                    with pytest.raises(BudgetExceededError) as got:
                        space.walk_shells(v, n, delta)
                    assert str(got.value) == message, (limit, v, n)

    def test_other_scales_step_through_neighbors(self, monkeypatch):
        sp = BranchTree(max_depth=5)
        calls = []
        real = sp.neighbors
        monkeypatch.setattr(sp, "neighbors", lambda x, delta: calls.append(delta) or real(x, delta))
        for delta in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            walked(sp.walk_shells((0,), 1, delta))
        assert calls == [Fraction(1, 2), 2]

    def test_the_walk_limit_is_checked_before_a_shell_is_built(self, monkeypatch):
        # shells 0..5 around the root hold 873 points; shell 6 alone holds 7!
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 1000)
        sp = BranchTree()
        shell_6 = math.factorial(7) * sys.getsizeof((0,) * 6)
        tracemalloc.start()
        try:
            shells, error = walked(sp.walk_shells((), 8, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(s) for s in shells] == [1, 2, 6, 24, 120, 720]
        assert error == "walk around () holds more than 1000 points"
        assert peak < shell_6


class TestWalkBudget:
    def test_walk_raises_after_the_vertex_that_passes_the_budget(self, monkeypatch):
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 3)
        expanded = []

        def adjacent(y):
            expanded.append(y)
            return [y - 1, y + 1]

        shells = spaces_base.hop_shells(adjacent, 0, 10)
        assert next(shells) == [0] and next(shells) == [-1, 1]
        with pytest.raises(BudgetExceededError, match="^walk around 0 holds more than 3 points$"):
            next(shells)
        # -1 brought the fourth point; 1 was never expanded
        assert expanded == [0, -1]

    def test_a_walk_at_the_budget_answers(self, monkeypatch):
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 5)
        sp = IntLine(max_abs=100)
        assert step_ball(sp, 0, 2, 1) == [-2, -1, 0, 1, 2]
        with pytest.raises(BudgetExceededError, match="holds more than 5 points"):
            step_ball(sp, 0, 3, 1)

    def test_budget_holds_the_depth_9_branch_tree_ball_but_not_the_next_shell(self):
        # balls of l steps around the root: 1! + ... + (l+1)! points
        ball_9 = sum(math.factorial(j + 1) for j in range(10))
        assert ball_9 == 4_037_913
        assert ball_9 <= spaces_base._WALK_POINTS < ball_9 + math.factorial(11)


# ---------------------------------------------------------------------------
# distance tables


def table_spaces():
    """(label, space, points): every catalog space on a ball around its
    basepoint plus a few far points, the measured tree, a Fraction-weighted
    cycle and a graph of two components."""
    far = {"int_line": [10 ** 6, -10 ** 6, 999_999],
           "log_line": [2 ** 21, -2 ** 21],
           "regular_tree": [(2,) + (1,) * 15, (0, 1, 0, 1)],
           "branch_tree": [(1, 2, 3), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)],
           "ultrametric_product": [tuple(range(1, 17)), (1,) + (0,) * 14 + (16,)]}
    radius = {"ultrametric_product": 4, "tree_line": 6, "prime_cycle": 6, "int_line": 5,
              "log_line": 3}
    out = []
    for tag in CATALOG_TAGS:
        params = {"parts": [{"path": 3}, {"cycle": 4}]} if tag == "coarse_union" else None
        sp = make_example(tag, params)
        if tag == "coarse_union":
            points = list(sp.points)
        else:
            points = ball(sp, sp.basepoint, radius.get(tag, 3)) + far.get(tag, [])
        # discovery order, as a path family's support comes, not sorted
        out.append((tag, sp, points[1::2] + points[::2]))
    measured = branch_tree_measured(max_depth=6)
    out.append(("branch_tree_measured", measured, ball(measured, (), 3)))
    weights = [Fraction(51 + 37 * v % 50, 100) for v in range(20)]
    cycle = build_weighted_graph([(v, (v + 1) % 20, w) for v, w in enumerate(weights)])
    out.append(("fraction_cycle", cycle, list(reversed(cycle.points))))
    two = build_graph([(0, 1), (1, 2), (2, 3), (10, 11)], vertices=[20])
    out.append(("two_components", two, [11, 0, 20, 3, 10, 1, 2]))
    return out


TABLE_SPACES = table_spaces()
TABLE_IDS = [label for label, _, _ in TABLE_SPACES]


class TestDistanceTable:
    @pytest.mark.parametrize("label, sp, points", TABLE_SPACES, ids=TABLE_IDS)
    def test_matches_distance_entry_by_entry(self, label, sp, points):
        table = sp.distance_table(points)
        assert table.shape == (len(points), len(points)) and table.dtype == object
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                # the diagonal is int 0, also where distance(a, a) is 0.0
                d = 0 if i == j else sp.distance(a, b)
                assert table[i, j] == d and type(table[i, j]) is type(d), (label, a, b)

    def test_types_cover_int_fraction_float_and_inf(self):
        seen = {type(d) for _, sp, points in TABLE_SPACES
                for d in sp.distance_table(points).flat}
        assert seen == {int, Fraction, float}
        two = dict((label, (sp, pts)) for label, sp, pts in TABLE_SPACES)["two_components"]
        assert two[0].distance_table(two[1])[0, 1] == math.inf  # 11 and 0

    @pytest.mark.parametrize("label, sp, points", TABLE_SPACES, ids=TABLE_IDS)
    def test_one_point_and_no_points(self, label, sp, points):
        empty = sp.distance_table([])
        assert empty.shape == (0, 0) and empty.dtype == object
        one = sp.distance_table(points[:1])
        assert one.shape == (1, 1) and one[0, 0] == 0 and type(one[0, 0]) is int

    @pytest.mark.parametrize("sp, bad", [
        (IntLine(), 10 ** 6 + 1),
        (IntLine(), "0"),
        (RegularTree(), (3,)),
        (RegularTree(max_depth=4), (0, 0, 0, 0, 0)),
        (BranchTree(), (2,)),
    ], ids=["int_line-far", "int_line-str", "regular_tree-index", "regular_tree-deep",
            "branch_tree"])
    def test_invalid_point_raises(self, sp, bad):
        good = [sp.basepoint] * 3
        for points in ([bad], good + [bad], [bad] + good):
            with pytest.raises(UnknownPointError):
                sp.distance_table(points)

    def test_huge_int_line_keeps_exact_ints(self):
        sp = IntLine(max_abs=2 ** 70)
        table = sp.distance_table([-2 ** 70, 2 ** 70, 0])
        assert table[0, 1] == 2 ** 71 and type(table[0, 1]) is int

    @pytest.mark.parametrize("label", ["int_line", "regular_tree", "branch_tree"])
    def test_closed_forms_check_each_point_once(self, monkeypatch, label):
        sp, points = {lbl: (s, pts) for lbl, s, pts in TABLE_SPACES}[label]
        checked = []
        real = type(sp).check_point
        monkeypatch.setattr(type(sp), "check_point",
                            lambda self, x: checked.append(x) or real(self, x))
        monkeypatch.setattr(type(sp), "distance", lambda self, a, b: 1 / 0)
        sp.distance_table(points)
        assert checked == points

    @pytest.mark.parametrize("cells", [1, 50])
    def test_row_blocks(self, monkeypatch, cells):
        # one row per block, and blocks that end off the last row
        expected = [sp.distance_table(points).tolist() for _, sp, points in TABLE_SPACES]
        monkeypatch.setattr(spaces_base, "_TABLE_BLOCK_CELLS", cells)
        assert [sp.distance_table(points).tolist() for _, sp, points in TABLE_SPACES] == expected
