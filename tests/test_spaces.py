"""Catalog spaces and finite-space builders, checked against independent
BFS/Dijkstra oracles built straight from each space's definition."""

import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseentropy import (
    BranchTree,
    BudgetExceededError,
    CATALOG_TAGS,
    CoarseEntropyError,
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
from coarseentropy.spaces import catalog

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

    def test_neighbors_match_brute_force(self):
        sp = UltrametricProduct(max_index=6)
        points = list(itertools.product(*((0, k) for k in range(1, 7))))
        assert len(points) == 64
        for delta in range(7):
            for x in points:
                assert sp.neighbors(x, delta) == sorted(
                    y for y in points if y != x and sp.distance(x, y) <= delta)

    def test_ball_doubles_per_radius_step(self):
        sp = UltrametricProduct(max_index=8)
        for n in range(0, 7):
            assert len(ball(sp, sp.basepoint, n)) == 2 ** n

    def test_window_overflow_raises(self):
        sp = UltrametricProduct(max_index=4)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(sp.basepoint, 5)

    def test_window_beyond_the_bound_is_refused(self):
        assert UltrametricProduct(max_index=20).basepoint == (0,) * 20
        for bad in (0, 21, 10 ** 30):
            with pytest.raises(InvalidInputError, match="^max_index must be between 1 and 20$"):
                UltrametricProduct(max_index=bad)

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

    @pytest.mark.parametrize("cls, delta", [(IntLine, 4), (LogLine, Fraction(233, 100))])
    def test_a_step_past_the_walk_limit_is_refused_as_the_walk_would(
            self, cls, delta, monkeypatch):
        # one step moves 4 either way: a walk that expands 0 holds 9 points
        sp = cls(max_abs=100)
        for limit in (9, 8):
            monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
            outcomes = []
            for call in (lambda: sp.neighbors(0, delta),
                         lambda: list(spaces_base.hop_shells(
                             lambda y: sp.neighbors(y, delta), 0, 1))):
                try:
                    outcomes.append(call())
                except BudgetExceededError as exc:
                    outcomes.append(str(exc))
            if limit == 9:
                assert outcomes == [[-4, -3, -2, -1, 1, 2, 3, 4],
                                    [[0], [-4, -3, -2, -1, 1, 2, 3, 4]]]
            else:
                assert outcomes == ["walk around 0 holds more than 8 points"] * 2

    @pytest.mark.parametrize("cls, delta", [(IntLine, 10 ** 299), (LogLine, 900)])
    def test_a_huge_step_in_a_huge_window_is_refused_at_once(self, cls, delta):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=f"^walk around 0 holds more than {spaces_base._WALK_POINTS} points$"):
            cls(max_abs=10 ** 300).neighbors(0, delta)
        assert time.perf_counter() - start < 1

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

    def test_degree_is_bounded_by_the_walk_limit(self, monkeypatch):
        # a radius-1 ball holds degree + 1 points, at most the walk limit
        limit = spaces_base._WALK_POINTS
        for degree in (limit, 10 ** 8, 10 ** 300):
            with pytest.raises(InvalidInputError, match=f"^degree must be at most {limit - 1}$"):
                RegularTree(degree=degree)
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 10)
        assert len(RegularTree(degree=9).neighbors((0,), 1)) == 9
        with pytest.raises(InvalidInputError, match="^degree must be at most 9$"):
            RegularTree(degree=10)

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

    @pytest.mark.parametrize("limit", [None, 20])
    def test_ball_that_expands_the_last_line_point_is_refused_as_the_walk_would(
            self, monkeypatch, limit):
        # the walk raises when it expands the last line point, which it does
        # exactly when that point is nearer than floor(delta).  neighbors says
        # so without walking while the 35-point window fits under the walk
        # limit; under a limit of 20 the walk's own error must still come first
        xs = {1: 2, 2: 5, 3: 9}
        sp = TreeLine(max_tree=3, schedule=[2, 5, 9], max_line=12)
        pts = treeline_points(xs, 12)
        assert len(pts) == 35
        if limit is not None:
            monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
        walk, expanded = sp._adjacency, []
        monkeypatch.setattr(sp, "_adjacency", lambda v: expanded.append(v) or walk(v))

        def outcome(call):
            try:
                return call()
            except BudgetExceededError as exc:
                return str(exc)

        refused = "line window 0..12 exceeded at 12"
        seen = set()
        for x in pts:
            for delta in (*range(1, 15), Fraction(5, 2), 10 ** 300):
                r = int(delta)
                expected = outcome(lambda: catalog._hop_ball(walk, x, r))
                expanded.clear()
                assert outcome(lambda: sp.neighbors(x, delta)) == expected, (x, delta)
                # the walk refuses exactly when the last line point is near,
                # unless its limit fails it first
                near = sp.distance(x, ("line", 12)) < r
                if near and limit is None:
                    assert expected == refused, (x, delta)
                elif near:
                    assert expected == refused or expected.startswith("walk around"), (x, delta)
                else:
                    assert expected != refused, (x, delta)
                if limit is None:
                    assert bool(expanded) != near, (x, delta)
                seen.add((near, expected if isinstance(expected, str) else "ball"))
        assert (False, "ball") in seen
        if limit is None:
            assert seen == {(False, "ball"), (True, refused)}
        else:
            assert (True, refused) in seen
            assert (True, "walk around ('line', 0) holds more than 20 points") in seen

    @pytest.mark.parametrize("limit", [6, 12])
    def test_a_walk_past_its_limit_before_the_last_line_point_is_refused_first(
            self, monkeypatch, limit):
        # a window past the walk limit: the walk meets its limit before it
        # expands the last line point once the line points from x's exit up
        # to that point, or up to floor(delta) if nearer, pass the limit.
        # neighbors says so without walking, and otherwise walks as before
        xs = {1: 2, 2: 5, 3: 9}
        sp = TreeLine(max_tree=3, schedule=[2, 5, 9], max_line=40)
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
        walk, expanded = sp._adjacency, []
        monkeypatch.setattr(sp, "_adjacency", lambda v: expanded.append(v) or walk(v))

        def outcome(call):
            try:
                return call()
            except BudgetExceededError as exc:
                return str(exc)

        unwalked = set()
        for x in treeline_points(xs, 40):
            exit_cost = 0 if x[0] == "line" else len(x[2])
            for delta in (*range(1, 50), 10 ** 300):
                expected = outcome(lambda: catalog._hop_ball(walk, x, delta))
                expanded.clear()
                assert outcome(lambda: sp.neighbors(x, delta)) == expected, (x, delta)
                if min(delta, sp.distance(x, ("line", 40))) - exit_cost >= limit:
                    assert expected == f"walk around {x!r} holds more than {limit} points"
                    assert not expanded
                    unwalked.add(sp.distance(x, ("line", 40)) < delta)
        assert unwalked == {False, True}

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

    def test_max_tree_is_bounded(self):
        # at 10 the 4^n window, line and trees, holds fewer points than the
        # walk limit; at 11 it holds more
        assert TreeLine(max_tree=10)._window_size == 1_052_713 < spaces_base._WALK_POINTS
        for max_tree in (11, 10 ** 8, 10 ** 300):
            start = time.perf_counter()
            with pytest.raises(InvalidInputError, match="^max_tree must be at most 10$"):
                TreeLine(max_tree=max_tree)
            assert time.perf_counter() - start < 1

    def test_a_base_path_past_the_walk_limit_is_refused_before_it_is_built(
            self, monkeypatch):
        sp = TreeLine(max_tree=2, schedule=[4, 10 ** 12])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=(
                f"^the base path to {10 ** 12} holds more than "
                f"{spaces_base._WALK_POINTS} points$")):
            sp.pingpong_arms(1, 1)
        assert time.perf_counter() - start < 1
        # the base to 12 in steps of 2 holds 7 points
        sp = TreeLine(max_tree=2, schedule=[4, 12])
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 7)
        assert len(sp.pingpong_arms(2, 1)[0].points) == 7
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 6)
        with pytest.raises(BudgetExceededError, match="^the base path to 12 holds more than 6 points$"):
            sp.pingpong_arms(2, 1)

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
    assert {"distance", "neighbors", "check_point", "distance_table", "walk_shells",
            "shell_counts"} <= overridden
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
        # shell masses counted by depth compute each new depth at its first
        # vertex in the walk's order, as weighing the walked shells does
        calls.clear()
        ms = MeasuredSpace(BranchTree(max_depth=6), mass_fn, mass_key=len)
        assert list(ms.shell_masses((1, 0), 3, 1)) == [
            Fraction(2, 3), 1 + 4 * Fraction(1, 3), 1 + 2 * Fraction(2, 3) + 20 * Fraction(2, 15),
            1 + 8 * Fraction(1, 3) + 120 * Fraction(2, 45)]
        assert calls == [(1, 0), (1,), (1, 0, 0), (), (1, 0, 0, 0), (1, 0, 0, 0, 0)]
        walked = []
        ms = MeasuredSpace(BranchTree(max_depth=6), lambda v: walked.append(v) or depth_mass(v),
                           mass_key=len)
        for shell in ms.walk_shells((1, 0), 3, 1):
            ms.weigh(shell)
        assert walked == calls


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


def prime_cycle_oracle_balls(max_line, radius, depth):
    """Yield (x, [(y, d), ...]) for the points x of the window at most
    ``depth`` from the line (every point when None): the points y within
    radius of x on the oracle graph, sorted, at distance d."""
    pts, adj = prime_cycle_graph(max_line)
    short = {}

    def within(v):
        # no path within radius takes a longer edge
        if v not in short:
            short[v] = [(w, d) for w, d in adj(v) if d <= radius]
        return short[v]

    for x in pts:
        exit_cost = 0 if x[0] == "line" else min(x[3], x[1] * x[2] - x[3], x[1])
        if depth is None or exit_cost <= depth:
            yield x, sorted(dijkstra_oracle(within, x, radius).items())


class TestPrimeCycle:
    def test_prime_power_table(self):
        # the memoised test answers as the oracle's table does, and nothing
        # past the window is a prime power of the space
        sp = PrimeCycle(max_line=128)
        oracle = prime_powers_oracle(128)
        assert {q: sp._power(q) for q in range(-2, 260)} == {
            q: oracle.get(q) for q in range(-2, 260)}

    def test_a_huge_window_tests_only_the_numbers_a_run_reaches(self):
        sp = PrimeCycle(max_line=10 ** 300)
        assert sp._powers == {}
        # the search expands the line points 0..9, each asked about once
        ball = sp.neighbors(("line", 0), 10)
        assert ("cyc", 3, 2, 1) in ball and ("cyc", 11, 1, 1) not in ball
        assert sorted(sp._powers) == list(range(10))
        # trial division stops at the smallest prime factor or the root;
        # 2**997 is past the window
        for q, pk in ((10 ** 9 + 7, (10 ** 9 + 7, 1)), (3 ** 19, (3, 19)),
                      (3 * (10 ** 9 + 7), None), (2 ** 996, (2, 996)), (2 ** 997, None)):
            assert sp._power(q) == pk
        assert sp.cycle_points(3, 19)[1] == ("cyc", 3, 19, 1)
        assert sp.bg_witness_family(10 ** 9, 1) == ([("line", 10 ** 9 + 7)], 10 ** 9 + 7)

    def test_a_prime_power_test_past_the_trial_bound_is_refused(self):
        sp = PrimeCycle(max_line=10 ** 300)
        # 2**61 - 1 is prime, so no divisor up to the bound shows
        m61 = 2 ** 61 - 1
        with pytest.raises(BudgetExceededError):
            sp._power(m61)
        assert m61 not in sp._powers
        # a small factor settles a larger number, and the bound settles
        # every number below 2**32, the largest prime there included
        assert sp._power(3 * m61) is None and sp._power(3 ** 100) == (3, 100)
        assert sp._power(2 ** 32 - 5) == (2 ** 32 - 5, 1)
        # past 10**40 the search for a prime meets the bound, unless the
        # power of 10**40 + 1 already leaves the window
        sp = PrimeCycle(max_line=10 ** 300)
        assert sp.bg_witness_family(10 ** 40, 8) is None and sp._powers == {}
        with pytest.raises(BudgetExceededError):
            sp.bg_witness_family(10 ** 40, 7)

    def test_a_ball_past_the_walk_limit_is_refused(self, monkeypatch):
        x = ("cyc", 2, 3, 4)
        balls = {r: PrimeCycle(max_line=10 ** 300).neighbors(x, r) for r in range(1, 66)}
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 64)
        error = f"walk around {x!r} holds more than 64 points"
        # x is 2 from its exit ("line", 8), so the ball of radius 66 holds
        # the 65 line points 8..72: refused before the search asks about any
        sp = PrimeCycle(max_line=10 ** 300)
        assert sp.distance(x, ("line", 8)) == 2
        with pytest.raises(BudgetExceededError) as exc:
            sp.neighbors(x, 66)
        assert str(exc.value) == error and sorted(sp._powers) == [8]
        with pytest.raises(BudgetExceededError):
            sp.neighbors(("line", 0), 64)
        # below that bound the search refuses exactly the balls that hold
        # more than 64 points with x
        refused = 0
        for r, ball in balls.items():
            if len(ball) + 1 > 64:
                with pytest.raises(BudgetExceededError) as exc:
                    sp.neighbors(x, r)
                assert str(exc.value) == error
                refused += 1
            else:
                assert sp.neighbors(x, r) == ball
        assert 0 < refused < len(balls)

    @pytest.mark.parametrize("max_line, depth", [(64, None), (512, 21)])
    def test_every_ball_matches_the_oracle_graph(self, monkeypatch, max_line, depth):
        # radii 1-20 around every point of the 64 window, and around every
        # point of the 512 window at most 21 from the line: deeper balls are
        # two arcs in their own cycle, as around the 64 window's deepest
        # points.  The window's end is refused first, then a ball that
        # holds more than the walk limit with x
        last = ("line", max_line)
        past = f"line window 0..{max_line} exceeded at {max_line}"
        sp = PrimeCycle(max_line=max_line)
        for x, near in prime_cycle_oracle_balls(max_line, 20, depth):
            dist = dict(near)
            for limit in (3, 12, 80, spaces_base._WALK_POINTS):
                with monkeypatch.context() as patch:
                    patch.setattr(spaces_base, "_WALK_POINTS", limit)
                    for r in range(1, 21):
                        try:
                            got = sp.neighbors(x, r)
                        except BudgetExceededError as exc:
                            got = str(exc)
                        ball = [y for y, d in near if 0 < d <= r]
                        if dist.get(last, r) < r:
                            assert got == past, (x, r, limit)
                        elif len(ball) + 1 > limit:
                            walk = f"walk around {x!r} holds more than {limit} points"
                            assert got == walk, (x, r, limit)
                        else:
                            assert got == ball, (x, r, limit)

    def test_the_walk_limit_is_met_exactly(self, monkeypatch):
        # a ball answers under a limit of its size with x and is refused
        # under one point less, around every point of the window
        sp = PrimeCycle(max_line=64)
        checks = 0
        for x in prime_cycle_graph(64)[0]:
            for r in range(1, 21):
                try:
                    ball = sp.neighbors(x, r)
                except BudgetExceededError as exc:
                    assert str(exc) == "line window 0..64 exceeded at 64"
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(spaces_base, "_WALK_POINTS", len(ball) + 1)
                    assert sp.neighbors(x, r) == ball, (x, r)
                    patch.setattr(spaces_base, "_WALK_POINTS", len(ball))
                    with pytest.raises(BudgetExceededError) as exc:
                        sp.neighbors(x, r)
                    assert str(exc.value) == (
                        f"walk around {x!r} holds more than {len(ball)} points")
                checks += 2
        assert checks == 22_740

    # outcomes on a huge window, where a prime-power test can be refused.
    # Near 2**61: 2**61 - 1 is prime, past the trial bound, and 2**61 glues
    # a 122-vertex cycle of chord weight 2.  At 257**8 no chord reaches
    # within 5: the cycle adds its two arcs of 5 when it is found, past a
    # limit of 13 before any other test, while under 40 the test of
    # 257**8 - 2 is refused.  Ints are line offsets from base; "walk" is the
    # walk-limit error, and an offset alone the refusal of base + offset.
    @pytest.mark.parametrize("base, offset, delta, limit, outcome, asked", [
        (2 ** 61, 0, 1, 6, [("cyc", 2, 61, 1), ("cyc", 2, 61, 121), -1, 1], [0]),
        (2 ** 61, 1, 2, 13, [("cyc", 2, 61, 1), ("cyc", 2, 61, 121), -1, 0, 2, 3], [0, 1, 2]),
        (2 ** 61, -3, 2, 6, [-5, -4, -2, -1], [-4, -3, -2]),
        (2 ** 61, 2, 3, 13, [("cyc", 2, 61, 1), ("cyc", 2, 61, 121), -1, 0, 1, 3, 4, 5],
         [0, 1, 2, 3, 4]),
        (2 ** 61, 0, 2, 13, "walk", [0]),
        (2 ** 61, 1, 2, 6, "walk", [0, 1]),
        (2 ** 61, -2, 2, 6, -1, [-3, -2]),
        (2 ** 61, -3, 3, 6, "walk", []),
        (257 ** 8, 0, 5, 13, "walk", [0]),
        (257 ** 8, 0, 5, 40, -2, [-1, 0, 1]),
    ])
    def test_huge_window_outcomes_follow_the_running_count(
            self, monkeypatch, base, offset, delta, limit, outcome, asked):
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
        sp = PrimeCycle(max_line=10 ** 300)
        x = ("line", base + offset)
        if isinstance(outcome, list):
            assert sp.neighbors(x, delta) == sorted(
                ("line", base + y) if isinstance(y, int) else y for y in outcome)
        else:
            with pytest.raises(BudgetExceededError) as exc:
                sp.neighbors(x, delta)
            assert str(exc.value) == (
                f"walk around {x!r} holds more than {limit} points" if outcome == "walk" else
                f"testing {base + outcome} for a prime power needs trial division past 65536")
        assert sorted(sp._powers) == [base + q for q in asked]

    def test_a_wide_ball_in_a_large_window_is_quick(self):
        # a weighted search listed every vertex of a glued cycle again at
        # each vertex of it that it expanded: past a minute at radius 4000
        sp = PrimeCycle(max_line=10 ** 6)
        start = time.perf_counter()
        ball = sp.neighbors(("line", 0), 4000)
        assert time.perf_counter() - start < 1
        assert len(ball) == 699_870 and ball[-1] == ("line", 4000)
        assert len(sp.neighbors(("line", 0), 1000)) == 53_778

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

    def test_ball_that_expands_the_last_line_point_is_refused(self):
        # the search expands every point nearer than the radius, and the last
        # line point has no successor in the window: the ball is refused
        # exactly when that point is nearer than floor(delta)
        sp = PrimeCycle(max_line=16)
        pts, adj = prime_cycle_graph(16)
        for x in pts:
            dist = dijkstra_oracle(adj, x)
            for delta in (1, Fraction(5, 2), 4, 9, 17, 20, 10 ** 300):
                if dist[("line", 16)] < int(delta):
                    with pytest.raises(BudgetExceededError) as exc:
                        sp.neighbors(x, delta)
                    assert str(exc.value) == "line window 0..16 exceeded at 16"
                else:
                    assert sp.neighbors(x, delta) == sorted(
                        y for y, d in dist.items() if 0 < d <= delta), (x, delta)


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
        assert list(map(type, cu.part_diameters)) == [int, int, int]

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

    @pytest.mark.parametrize("bad, message", [
        ((1, 0), "not a coarse_union point: (1, 0)"),
        (("part", 1), "not a coarse_union point: ('part', 1)"),
        (("node", 1, 0), "not a coarse_union point: ('node', 1, 0)"),
        (("part", 0, 0), "part index out of range: ('part', 0, 0)"),
        (("part", 4, 0), "part index out of range: ('part', 4, 0)"),
        (("part", "1", 0), "part index out of range: ('part', '1', 0)"),
        (("part", 1, 7), "7 is not a vertex of path[3]"),
        (("part", 3, 2), "2 is not a vertex of w"),
    ])
    def test_check_point_messages(self, bad, message):
        cu = CoarseUnion([path_graph(3), cycle_graph(4),
                          build_weighted_graph([(0, 1, Fraction(1, 2))], name="w")])
        good = ("part", 1, 0)
        for call in (lambda: cu.check_point(bad), lambda: cu.distance(good, bad),
                     lambda: cu.distance(bad, good), lambda: cu.neighbors(bad, 1)):
            with pytest.raises(UnknownPointError) as err:
                call()
            assert str(err.value) == message

    def test_neighbors_and_table_across_parts_match_the_formula(self):
        # diameters 2, 2, 1/2 and 3: across parts the max-formula decides,
        # inside a part the part's own metric
        parts = [path_graph(3), cycle_graph(4),
                 build_weighted_graph([(0, 1, Fraction(1, 2))]),
                 complete_graph(2), path_graph(4)]
        cu = CoarseUnion(parts)
        diams = [2, 2, Fraction(1, 2), 1, 3]
        assert cu.part_diameters == tuple(diams)
        assert list(map(type, cu.part_diameters)) == list(map(type, diams))
        pts = [("part", i, p) for i, part in enumerate(parts, start=1) for p in part.points]
        assert cu.points == tuple(pts)

        def expected(a, b):
            if a[1] == b[1]:
                return parts[a[1] - 1].distance(a[2], b[2])
            return max(a[1], b[1], diams[a[1] - 1], diams[b[1] - 1])

        table = cu.distance_table(pts)
        assert [[(v, type(v)) for v in row] for row in table.tolist()] == [
            [(expected(a, b), type(expected(a, b))) for b in pts] for a in pts]
        for delta in (-math.inf, 0, Fraction(1, 2), 1, 2, Fraction(5, 2), 3, 4, 5, 6,
                      math.inf):
            for x in pts:
                assert cu.neighbors(x, delta) == [y for y in pts
                                                  if y != x and expected(x, y) <= delta]
        # part 5's diameter 3 keeps every other part at least 5 away from it
        assert cu.neighbors(("part", 5, 0), 4) == [("part", 5, 1), ("part", 5, 2),
                                                   ("part", 5, 3)]
        assert cu.distance(("part", 3, 0), ("part", 3, 1)) == Fraction(1, 2)
        assert cu.distance(("part", 1, 2), ("part", 1, 2)) == 0


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

    def test_a_nonzero_diagonal_is_refused(self):
        # distance() answers 0 for a point and itself, so only the metric
        # itself can show d(b, b) = 1
        def positive_diagonal(x, y):
            return 1 if x == y == "b" else int(x != y)

        with pytest.raises(InvalidInputError, match=r"^d\('b','b'\) != 0$"):
            build_finite_space(["a", "b", "c"], positive_diagonal)
        assert build_finite_space(["a", "b"], lambda x, y: int(x != y)).distance("b", "b") == 0

    def test_subspace_induces_distances(self):
        sp = IntLine(max_abs=50)
        sub = subspace(sp, [0, 3, 10])
        assert sub.points == (0, 3, 10)
        assert sub.distance(3, 10) == 7
        assert sub.diameter() == 10 and type(sub.diameter()) is int

    def test_ball_is_sorted_and_contains_center(self):
        sp = IntLine(max_abs=50)
        assert ball(sp, 5, 2) == [3, 4, 5, 6, 7]
        assert ball(sp, 5, -1) == []

    @staticmethod
    def asymmetric(a, b):
        # the line metric on 0, 1, 2, except that d(1, 0) reads 2
        return 2 if (a, b) == (1, 0) else abs(a - b)

    def test_an_asymmetric_metric_is_refused(self):
        with pytest.raises(InvalidInputError, match=r"^d not symmetric on \(0,1\)$"):
            build_finite_space([0, 1, 2], self.asymmetric)

    def test_a_distance_does_not_depend_on_the_pairs_asked_before(self):
        fresh = FiniteMetricSpace([0, 1, 2], self.asymmetric)
        assert fresh.distance(1, 0) == 2
        asked = FiniteMetricSpace([0, 1, 2], self.asymmetric)
        assert asked.distance(0, 1) == 1
        assert asked.distance(1, 0) == 2
        assert asked.neighbors(1, 1) == [2]
        assert asked.neighbors(0, 1) == [1]

    def test_unknown_point_messages(self):
        space = build_finite_space(["a", "b"], lambda x, y: int(x != y), name="pair")
        for call in (lambda: space.check_point("c"), lambda: space.distance("a", "c"),
                     lambda: space.distance("c", "a"), lambda: space.distance("c", "c"),
                     lambda: space.neighbors("c", 1)):
            with pytest.raises(UnknownPointError) as err:
                call()
            assert str(err.value) == "'c' is not a point of pair"

    def test_finite_space_diameter(self):
        sub = subspace(path_graph(4), [0, 1, 2, 3])
        assert sub.diameter() == 3 and type(sub.diameter()) is int
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


# ---------------------------------------------------------------------------
# shell counts


SHELL_DELTAS = [Fraction(1, 2), 1, 1.0, Fraction(3, 2), Fraction(199, 100), 2, 3,
                math.inf, -math.inf]
SHELL_DELTA_IDS = ["1/2", "1", "1.0", "3/2", "199/100", "2", "3", "inf", "-inf"]
WALK_LIMITS = [spaces_base._WALK_POINTS, 3, 10, 50]


def up_to_depth(tree, depth, deep):
    """The vertices of a tree down to ``depth``, then the ``deep`` ones."""
    return [v for v in window_vertices(tree) if len(v) <= depth] + deep


def shell_spaces():
    """(label, space, bases, steps, keys): every catalog space in a small
    window, with bases that reach its edges and the keys to count by."""
    edges = [-20, -16, -13, -1, 0, 4, 16, 17, 20]
    trees = {"regular_tree": RegularTree(degree=3, max_depth=4),
             "branch_tree": BranchTree(max_depth=4)}
    union = make_example("coarse_union", {"parts": [{"path": 3}, {"cycle": 4}]})
    tree_line = TreeLine(max_tree=3, schedule="2^n")
    return [
        ("ultrametric_product", UltrametricProduct(max_index=4),
         [(0, 0, 0, 0), (1, 0, 3, 0), (1, 2, 3, 4)], 3, [None, sum]),
        ("log_line", LogLine(max_abs=20), edges, 5, [None, abs]),
        ("int_line", IntLine(max_abs=20), edges, 5, [None, abs]),
        *((tag, tree, up_to_depth(tree, 2, [(0, 1, 1), (2, 0, 1, 0), (1, 2, 3, 4)]), 9,
           [None, len, sum]) for tag, tree in trees.items()),
        ("tree_line", tree_line,
         [("line", 0), ("line", 4), ("tree", 2, (1, 0)), ("line", tree_line.max_line)], 4,
         [None, lambda p: p[0]]),
        ("prime_cycle", PrimeCycle(max_line=20), [("line", 0), ("line", 9), ("cyc", 3, 1, 2)], 3,
         [None, lambda p: p[0]]),
        ("coarse_union", union, list(union.points), 3, [None, lambda p: p[1]]),
    ]


SHELL_SPACES = shell_spaces()


def outcome(make):
    """What a lazy walk gives: ``("call", error)`` when making it fails, else
    the values it yields and the error that ended it (None when it ran to
    its end), an error as its type and message."""
    try:
        values = make()
    except CoarseEntropyError as err:
        return "call", (type(err), str(err))
    out = []
    try:
        for value in values:
            out.append(value)
    except CoarseEntropyError as err:
        return out, (type(err), str(err))
    return out, None


def by_key(shell, key):
    """``{key: (first point, count)}`` of a shell, keys in order of their
    first point, counted one point at a time."""
    out = {}
    for p in shell:
        first, count = out.get(key(p), (p, 0))
        out[key(p)] = (first, count + 1)
    return out


def recording(space, mass_fn, mass_key=None):
    """A measured space whose ``mass_fn`` calls are listed in ``.calls``."""
    calls = []
    measured = MeasuredSpace(space, lambda x: calls.append(x) or mass_fn(x), mass_key=mass_key)
    measured.calls = calls
    return measured


def line_mass(x):
    return Fraction(-1) if abs(x) == 9 else Fraction(1, 1 + abs(x))


MEASURED_SPACES = {
    # label -> (fresh space with recorded mass calls, bases, steps)
    "branch_tree_measured": (lambda: recording(BranchTree(max_depth=4), depth_mass, len),
                             up_to_depth(BranchTree(max_depth=4), 2, [(1, 2, 3), (2, 0, 1, 0)]),
                             9),
    "keyless": (lambda: recording(BranchTree(max_depth=4), depth_mass),
                [(), (1,), (0, 2), (1, 2, 3)], 9),
    "abs_keyed": (lambda: recording(IntLine(max_abs=20), line_mass, abs), [-20, -4, 0, 5, 17], 5),
    "keyless_line": (lambda: recording(IntLine(max_abs=20), line_mass), [-4, 0, 5, 20], 5),
}


class TestShellCounts:
    """``shell_counts`` counts the shells of ``walk_shells``, and a measured
    space's ``shell_masses`` weighs them as ``weigh`` does, with the same
    errors at the same advance."""

    @pytest.mark.parametrize("label, sp, bases, steps, keys", SHELL_SPACES,
                             ids=[s[0] for s in SHELL_SPACES])
    @pytest.mark.parametrize("delta", SHELL_DELTAS, ids=SHELL_DELTA_IDS)
    def test_counts_are_the_walked_shells_counted(self, label, sp, bases, steps, keys, delta,
                                                  monkeypatch):
        for limit in WALK_LIMITS:
            monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
            for x in bases:
                for n in range(steps + 1):
                    for key in keys:
                        count = len if key is None else (lambda shell: by_key(shell, key))
                        want = outcome(lambda: map(count, sp.walk_shells(x, n, delta)))
                        got = outcome(lambda: sp.shell_counts(x, n, delta, key))
                        assert got == want, (limit, x, n, key)

    @pytest.mark.parametrize("label", list(MEASURED_SPACES))
    @pytest.mark.parametrize("delta", SHELL_DELTAS, ids=SHELL_DELTA_IDS)
    def test_masses_are_the_walked_shells_weighed(self, label, delta, monkeypatch):
        make, bases, steps = MEASURED_SPACES[label]
        for limit in WALK_LIMITS:
            monkeypatch.setattr(spaces_base, "_WALK_POINTS", limit)
            # one space per side, so each memo of masses by key fills in step
            walked, counted = make(), make()
            for x in bases:
                for n in range(steps + 1):
                    want = outcome(lambda: map(walked.weigh, walked.walk_shells(x, n, delta)))
                    got = outcome(lambda: counted.shell_masses(x, n, delta))
                    assert got == want, (limit, x, n)
                    assert counted.calls == walked.calls, (limit, x, n)
                    key = counted._mass_key
                    count = len if key is None else (lambda shell: by_key(shell, key))
                    assert outcome(lambda: counted.shell_counts(x, n, delta, key)) == outcome(
                        lambda: map(count, walked.walk_shells(x, n, delta)))

    @pytest.mark.parametrize("make, x, n, delta, key", [
        (lambda: BranchTree(max_depth=6), (1, 0), 4, 1, None),
        (lambda: BranchTree(max_depth=6), (1, 0), 4, 1, len),
        (lambda: BranchTree(max_depth=6), (1, 0), 2, 2, None),
        (lambda: RegularTree(degree=4, max_depth=9), (3, 1, 0), 2, 3, None),
        (lambda: LogLine(max_abs=2000), 5, 3, 8, None),
        (lambda: IntLine(max_abs=50), -3, 6, Fraction(9, 2), None),
    ], ids=["branch_tree", "branch_tree-len", "branch_tree-2", "regular_tree-3", "log_line",
            "int_line"])
    def test_closed_forms_walk_nothing(self, make, x, n, delta, key, monkeypatch):
        count = len if key is None else (lambda shell: by_key(shell, key))
        want = [count(shell) for shell in make().walk_shells(x, n, delta)]
        sp = make()

        def fail(*args):
            raise AssertionError("a shell was walked")

        for hook in ("neighbors", "walk_shells"):
            monkeypatch.setattr(sp, hook, fail)
        assert list(sp.shell_counts(x, n, delta, key)) == want


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


def assert_follows_the_rule(table, expected):
    """``table`` holds the rows ``expected`` with their types, as ``.tolist()``
    reads them, and is int64 exactly when every value is an int within 2**53
    of 0, object otherwise."""
    cells = table.tolist()
    assert cells == expected
    assert [list(map(type, row)) for row in cells] == [list(map(type, row)) for row in expected]
    exact = all(type(d) is int and abs(d) <= 2 ** 53 for row in expected for d in row)
    assert table.dtype == (np.int64 if exact else object)


class TestDistanceTable:
    @pytest.mark.parametrize("label, sp, points", TABLE_SPACES, ids=TABLE_IDS)
    def test_matches_distance_entry_by_entry(self, label, sp, points):
        table = sp.distance_table(points)
        assert table.shape == (len(points), len(points))
        # the diagonal is int 0, also where distance(a, a) is 0.0
        assert_follows_the_rule(table, pairwise_table(sp, points))

    def test_types_cover_int_fraction_float_and_inf(self):
        seen = {type(d) for _, sp, points in TABLE_SPACES
                for d in sp.distance_table(points).ravel().tolist()}
        assert seen == {int, Fraction, float}
        two = dict((label, (sp, pts)) for label, sp, pts in TABLE_SPACES)["two_components"]
        assert two[0].distance_table(two[1])[0, 1] == math.inf  # 11 and 0

    def test_only_the_fraction_float_and_inf_tables_stay_objects(self):
        objects = {label for label, sp, points in TABLE_SPACES
                   if sp.distance_table(points).dtype == object}
        assert objects == {"log_line", "fraction_cycle", "two_components"}

    @pytest.mark.parametrize("label, sp, points", TABLE_SPACES, ids=TABLE_IDS)
    def test_one_point_and_no_points(self, label, sp, points):
        empty = sp.distance_table([])
        # no value breaks the rule
        assert empty.shape == (0, 0) and empty.dtype == np.int64
        one = sp.distance_table(points[:1])
        assert one.shape == (1, 1) and one.dtype == np.int64
        assert_follows_the_rule(one, [[0]])

    @pytest.mark.parametrize("max_abs", [2 ** 53, 2 ** 61, 2 ** 70])
    def test_the_rule_at_2_to_the_53(self, max_abs):
        # computed in int64 below 2**62, in Python ints past it: a pair at
        # 2**53 is int64 either way, and a pair at 2**53 + 1 is object
        sp = IntLine(max_abs=max_abs)
        for points, dtype in [([0, 2 ** 53], np.int64), ([-7, 2 ** 53 - 7, 0], np.int64),
                              ([2 ** 53, -1], object), ([0, -2 ** 53 + 1, 2], object)]:
            table = sp.distance_table(points)
            assert table.dtype == dtype, points
            assert_follows_the_rule(table, pairwise_table(sp, points))

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

    @pytest.mark.parametrize("label", ["int_line", "regular_tree", "branch_tree",
                                       "prime_cycle"])
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


def pairwise_table(sp, points):
    """The table of ``sp.distance`` over the points, int 0 on the diagonal."""
    return [[0 if i == j else sp.distance(a, b) for j, b in enumerate(points)]
            for i, a in enumerate(points)]


class TestPrimeCycleTable:
    """PrimeCycle.distance_table's closed form against pairwise distance."""

    @staticmethod
    def assert_matches(sp, points):
        table = sp.distance_table(points)
        assert table.shape == (len(points), len(points))
        expected = pairwise_table(sp, points)
        assert all(type(d) is int for row in expected for d in row)
        assert_follows_the_rule(table, expected)

    @pytest.mark.parametrize("x0, radius", [(("line", 0), 12), (("cyc", 5, 2, 7), 9),
                                            (("cyc", 2, 5, 4), 11)])
    def test_random_subsets_of_balls(self, x0, radius):
        sp = PrimeCycle(max_line=512)
        window = ball(sp, x0, radius)
        rng = random.Random(repr(x0))
        for size in (1, 2, 5, 17, len(window)):
            self.assert_matches(sp, rng.sample(window, size))

    def test_two_cycles_and_their_line_points(self):
        # G_8 and G_9 with their glued line points 8 and 9, and the line
        # between and beside them
        sp = PrimeCycle(max_line=64)
        points = (sp.cycle_points(2, 3) + sp.cycle_points(3, 2)
                  + [("line", m) for m in (0, 7, 10, 64)])
        rng = random.Random(89)
        for _ in range(5):
            self.assert_matches(sp, rng.sample(points, len(points)))

    # the table goes through int64 while three times the largest attach
    # point fits, and through Python ints past that: 2**61 and the first
    # line point fit, the second line point, 2**63 and 257**8 do not
    @pytest.mark.parametrize("p, k, far", [(2, 61, 2 ** 63 // 3), (2, 61, 2 ** 63 // 3 + 1),
                                           (2, 63, 1), (257, 8, 2 ** 64)])
    def test_huge_windows_keep_exact_ints(self, p, k, far):
        sp = PrimeCycle(max_line=10 ** 300)
        q = p ** k
        points = (sp.cycle_points(p, k)[::p * k // 20 + 1] + [("cyc", p, k, p * k - 1)]
                  + [("line", q + d) for d in (-3, -1, 1, 2)] + [("line", 0), ("line", far)])
        self.assert_matches(sp, random.Random(k).sample(points, len(points)))

    @pytest.mark.parametrize("bad", [("line", 65), ("line", -1), ("cyc", 2, 3, 6),
                                     ("cyc", 4, 1, 1), ("cyc", 2, 3, 0), ("tree", 1), "x"])
    def test_unknown_point_raises_as_distance_does(self, bad):
        sp = PrimeCycle(max_line=64)
        good = [("line", 3), ("cyc", 2, 3, 2)]
        for points in ([bad], good + [bad, ("line", 99)], [bad, ("cyc", 7, 1, 9)] + good):
            with pytest.raises(UnknownPointError) as expected:
                sp.distance(bad, good[0])
            with pytest.raises(UnknownPointError) as got:
                sp.distance_table(points)
            assert str(got.value) == str(expected.value)


def typed_distance(a, b):
    """A pair's distance, cycling through int, Fraction, float and inf."""
    return (a * 41 + b, Fraction(a + 1, b + 3), (a + b) / 7, math.inf)[(a + 2 * b) % 4]


class TestBallsPastTheWalkLimit:
    """A ball refused before its walk carries the error the walk raises."""

    @pytest.mark.parametrize("space, x", [
        (RegularTree(max_depth=10 ** 8), ()),
        (RegularTree(degree=5, max_depth=10 ** 8), (2, 0, 3)),
        (BranchTree(max_depth=10 ** 300), ()),
        (BranchTree(max_depth=10 ** 8), (1, 0)),
        (TreeLine(max_tree=3, max_line=10 ** 300), ("line", 0)),
        (TreeLine(max_tree=3, max_line=10 ** 8), ("tree", 3, (1, 0))),
    ], ids=["regular", "regular-deep", "branch", "branch-deep", "tree_line", "tree_line-tree"])
    def test_matches_the_walk(self, monkeypatch, space, x):
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 64)
        refused = 0
        for r in range(1, 70):
            walked = outcome(lambda: sorted(
                y for shell in list(spaces_base.hop_shells(space._adjacency, x, r))[1:]
                for y in shell))
            assert outcome(lambda: space.neighbors(x, r)) == walked, r
            refused += walked[0] == "call"
        assert refused
        # past the window or the limit, at once
        with pytest.raises(BudgetExceededError):
            space.neighbors(x, 10 ** 300)


def row_list_pair_table(size, dist):
    """The fill ``pair_table`` had for up to 256 points, kept as the
    reference: Python row lists, each pair's value written to both cells."""
    rows = [[0] * size for _ in range(size)]
    for a, row in enumerate(rows):
        for b in range(a + 1, size):
            row[b] = rows[b][a] = dist(a, b)
    return rows


class TestPairTable:
    # 300 points are more than one gather serves; a limit of 0 sends every
    # size but 0 to the in-place fill
    @pytest.mark.parametrize("side", [None, 0], ids=["default", "in-place"])
    @pytest.mark.parametrize("size", [0, 1, 2, 40, 300])
    def test_one_call_per_pair_in_row_major_order(self, monkeypatch, size, side):
        if side is not None:
            monkeypatch.setattr(spaces_base, "_PAIR_SIDE", side)
        calls = []
        table = spaces_base.pair_table(
            size, lambda a, b: calls.append((a, b)) or typed_distance(a, b))
        assert calls == [(a, b) for a in range(size) for b in range(a + 1, size)]
        assert table.shape == (size, size) and table.dtype == object
        cells = table.tolist()
        for a in range(size):
            assert cells[a][a] == 0 and type(cells[a][a]) is int
            for b in range(a + 1, size):
                d = typed_distance(a, b)
                assert cells[a][b] == d and type(cells[a][b]) is type(d)
                assert cells[b][a] is cells[a][b]

    def test_fills_match_the_row_list_fill_at_every_size(self):
        # sizes 0 to 300 take the gather, the switch at 256 and the in-place
        # fill: the values, their types, the shared cells and the call order
        values = [[typed_distance(a, b) for b in range(300)] for a in range(300)]
        for size in range(301):
            calls, expected_calls = [], []
            table = spaces_base.pair_table(
                size, lambda a, b: calls.append((a, b)) or values[a][b])
            expected = row_list_pair_table(
                size, lambda a, b: expected_calls.append((a, b)) or values[a][b])
            assert calls == expected_calls
            assert table.shape == (size, size) and table.dtype == object
            cells = table.tolist()
            assert cells == expected
            assert [list(map(type, row)) for row in cells] == [
                list(map(type, row)) for row in expected]
            assert all(cells[b][a] is cells[a][b] for a, b in calls)

    def test_typed_distance_covers_every_kind(self):
        seen = {type(typed_distance(a, b)) for a in range(2) for b in range(a + 1, 40)}
        assert seen == {int, Fraction, float}
        assert any(typed_distance(a, b) == math.inf for a in range(2) for b in range(a + 1, 40))

    def test_large_table_peaks_within_half_a_table_of_itself(self):
        # the table's own pointers are the floor of any fill's peak: row
        # lists of the whole table would double it.  Distances are small
        # ints, which Python shares, so the values allocate nothing
        size = 1000
        tracemalloc.start()
        try:
            table = spaces_base.pair_table(size, lambda a, b: (a + b) & 255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 8 * size * size
        assert peak <= 1.5 * table.nbytes

    def test_large_fill_peaks_at_one_table_and_a_row(self):
        # each row goes through one array of its values, so the fill holds
        # the table and one row; a whole triangle alive beside the table
        # would take half a table more
        size = 600
        tracemalloc.start()
        try:
            table = spaces_base.pair_table(size, lambda a, b: (a + b) & 255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * table.nbytes
