"""Path objects, path calculus, enumeration, and hop machinery, checked
against brute-force enumeration and BFS oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseentropy import (
    BranchTree,
    BudgetExceededError,
    CapExceededError,
    DeltaPath,
    IntLine,
    InvalidInputError,
    OrbitSet,
    PathFamily,
    RegularTree,
    TreeLine,
    branch_tree_measured,
    build_graph,
    build_weighted_graph,
    concat,
    cycle_graph,
    delta_component,
    enumerate_orbits,
    hop_metric,
    make_example,
    orbit_distance,
    pad_path,
    path_graph,
    reverse,
    step_ball,
    step_shells,
    validate_path,
    validate_pseudoorbit,
)

from conftest import bfs_oracle


class TestDeltaPath:
    def test_basic_accessors(self):
        p = DeltaPath((0, 1, 2, 2), 1)
        assert p.length == 3
        assert p.start == 0
        assert p.end == 2
        assert list(p) == [0, 1, 2, 2]
        assert len(p) == 4

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidInputError):
            DeltaPath((), 1)

    def test_paths_hash_by_value(self):
        assert DeltaPath((0, 1), 1) == DeltaPath((0, 1), 1)
        assert len({DeltaPath((0, 1), 1), DeltaPath((0, 1), 1)}) == 1


class TestPathCalculus:
    def test_concat(self):
        u = DeltaPath((0, 1, 2), 1)
        v = DeltaPath((2, 3), 1)
        assert concat(u, v).points == (0, 1, 2, 3)

    def test_concat_requires_matching_ends_and_delta(self):
        with pytest.raises(InvalidInputError):
            concat(DeltaPath((0, 1), 1), DeltaPath((2, 3), 1))
        with pytest.raises(InvalidInputError):
            concat(DeltaPath((0, 1), 1), DeltaPath((1, 2), 2))

    def test_reverse(self):
        assert reverse(DeltaPath((0, 1, 2), 1)).points == (2, 1, 0)

    def test_pad_path_repeats_last_point(self):
        p = pad_path(DeltaPath((0, 1), 1), 4)
        assert p.points == (0, 1, 1, 1, 1)
        assert p.length == 4
        with pytest.raises(InvalidInputError):
            pad_path(DeltaPath((0, 1, 2), 1), 1)

    def test_concat_reverse_stay_valid(self):
        sp = IntLine(max_abs=20)
        u = DeltaPath((0, 2, 3), 2)
        v = DeltaPath((3, 1, 0), 2)
        w = concat(u, v)
        assert validate_path(w.points, 2, sp)
        assert validate_path(reverse(w).points, 2, sp)


class TestValidation:
    def test_validate_path(self):
        sp = IntLine(max_abs=20)
        assert validate_path((0, 1, 2), 1, sp)
        assert validate_path((5,), 1, sp)
        assert not validate_path((0, 2), 1, sp)
        assert not validate_path((), 1, sp)

    def test_validate_path_checks_points(self):
        sp = IntLine(max_abs=3)
        with pytest.raises(Exception):
            validate_path((0, 99), 1, sp)

    def test_validate_pseudoorbit_with_mapping(self):
        sp = IntLine(max_abs=20)
        shift = {i: i + 1 for i in range(-10, 10)}
        # y_{i+1} must be within delta of f(y_i)
        assert validate_pseudoorbit((0, 1, 2, 3), 0, sp, shift)
        assert validate_pseudoorbit((0, 2, 3), 1, sp, shift)
        assert not validate_pseudoorbit((0, 3), 1, sp, shift)
        with pytest.raises(InvalidInputError):
            validate_pseudoorbit((15, 0), 1, sp, shift)

    def test_validate_pseudoorbit_with_callable_identity(self):
        sp = IntLine(max_abs=20)
        pts = (0, 1, 1, 0)
        assert validate_pseudoorbit(pts, 1, sp, lambda x: x) == validate_path(pts, 1, sp)


class TestOrbitDistance:
    def test_sup_metric(self):
        sp = IntLine(max_abs=20)
        u = DeltaPath((0, 1, 2), 1)
        v = DeltaPath((0, 0, -1), 1)
        assert orbit_distance(u, v, sp) == 3
        assert orbit_distance(u, u, sp) == 0
        assert orbit_distance((0, 5), (1, 1), sp) == 4

    def test_length_mismatch_raises(self):
        sp = IntLine(max_abs=20)
        with pytest.raises(InvalidInputError):
            orbit_distance((0, 1), (0, 1, 2), sp)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_triangle_inequality(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
        sp = IntLine(max_abs=20)
        assert (orbit_distance(a, b, sp)
                <= orbit_distance(a, c, sp) + orbit_distance(c, b, sp))


def brute_paths(space, points, x0, n, delta):
    """All delta-paths from x0 by filtering the full product (oracle)."""
    out = set()
    for combo in itertools.product(points, repeat=n):
        pts = (x0,) + combo
        if all(space.distance(pts[i], pts[i + 1]) <= delta for i in range(n)):
            out.add(pts)
    return out


class TestEnumerateOrbits:
    def test_matches_product_filter_oracle(self):
        g = path_graph(4)
        orbits = enumerate_orbits(g, 0, 3, 1)
        assert {p.points for p in orbits.paths} == brute_paths(g, g.points, 0, 3, 1)
        assert orbits.exhaustive
        assert orbits.map_label == "identity"
        assert orbits.x0 == 0 and orbits.n == 3 and orbits.delta == 1

    def test_int_line_count_closed_form(self):
        sp = IntLine(max_abs=100)
        for n, delta in [(0, 1), (1, 1), (3, 1), (2, 2), (3, 2)]:
            orbits = enumerate_orbits(sp, 0, n, delta)
            assert len(orbits) == (2 * delta + 1) ** n

    def test_deterministic_depth_first_order(self):
        sp = IntLine(max_abs=10)
        orbits = enumerate_orbits(sp, 0, 2, 1)
        assert orbits.paths[0].points == (0, -1, -2)
        assert orbits.paths[-1].points == (0, 1, 2)
        again = enumerate_orbits(sp, 0, 2, 1)
        assert [p.points for p in again.paths] == [p.points for p in orbits.paths]

    def test_cap_raises_with_partial_count(self):
        sp = IntLine(max_abs=100)
        with pytest.raises(CapExceededError) as exc:
            enumerate_orbits(sp, 0, 4, 1, cap=10)
        assert exc.value.partial == 10

    def test_rejects_bad_arguments(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            enumerate_orbits(sp, 0, -1, 1)
        with pytest.raises(InvalidInputError):
            enumerate_orbits(sp, 0, 2, -1)

    def test_zero_delta_paths_stand_still(self):
        sp = IntLine(max_abs=10)
        orbits = enumerate_orbits(sp, 3, 4, 0)
        assert len(orbits) == 1
        assert orbits.paths[0].points == (3, 3, 3, 3, 3)


def dfs_paths(space, x0, n, delta):
    """All delta-paths from x0 by recursive depth-first search over sorted
    successors (order oracle)."""
    out = []

    def rec(prefix):
        if len(prefix) == n + 1:
            out.append(tuple(prefix))
            return
        x = prefix[-1]
        for s in sorted(space.neighbors(x, delta) + [x]):
            rec(prefix + [s])

    rec([x0])
    return out


def fraction_weighted_graph():
    return build_weighted_graph([(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 4)),
                                 (2, 0, Fraction(1, 3)), (2, 3, Fraction(2, 3)),
                                 (3, 4, Fraction(5, 4))])


class TestEnumerationOrder:
    @pytest.mark.parametrize("space, x0, n, delta", [
        (IntLine(max_abs=50), 0, 5, 1),
        (IntLine(max_abs=50), 3, 3, 2),
        (make_example("regular_tree"), (), 4, 1),
        (cycle_graph(5), 0, 5, 1),
        (cycle_graph(5), 2, 3, 2),
        (fraction_weighted_graph(), 0, 5, Fraction(3, 4)),
        (fraction_weighted_graph(), 3, 4, Fraction(5, 4)),
    ])
    def test_order_matches_depth_first_oracle(self, space, x0, n, delta):
        orbits = enumerate_orbits(space, x0, n, delta)
        assert [p.points for p in orbits.paths] == dfs_paths(space, x0, n, delta)
        assert all(p.delta == delta for p in orbits.paths)

    def test_cap_equal_to_family_size_passes(self):
        sp = IntLine(max_abs=50)
        assert len(enumerate_orbits(sp, 0, 4, 1, cap=81)) == 81

    @pytest.mark.parametrize("n, cap", [(4, 80), (4, 2), (0, 0)])
    def test_cap_one_below_raises_with_partial_count(self, n, cap):
        sp = IntLine(max_abs=50)
        with pytest.raises(CapExceededError) as exc:
            enumerate_orbits(sp, 0, n, 1, cap=cap)
        assert exc.value.partial == cap
        assert str(exc.value) == f"enumeration cap {cap} exceeded for n={n}, delta=1"

    def test_cap_is_met_while_a_level_is_expanded(self):
        # level 2 holds 201 rows per second-step point: the cap is passed
        # five points in, not after all 200 are expanded
        sp = IntLine()
        reached = []
        neighbors = sp.neighbors
        sp.neighbors = lambda x, delta: reached.append(x) or neighbors(x, delta)
        with pytest.raises(CapExceededError) as exc:
            enumerate_orbits(sp, 0, 2, 100, cap=1000)
        assert str(exc.value) == "enumeration cap 1000 exceeded for n=2, delta=100"
        assert exc.value.partial == 1000
        assert len(reached) <= 6

    def test_window_still_raises_budget_error(self):
        with pytest.raises(BudgetExceededError, match="around -3"):
            enumerate_orbits(IntLine(max_abs=3), 0, 5, 1)

    def test_length_zero_is_the_base_point(self):
        orbits = enumerate_orbits(make_example("regular_tree"), (), 0, 1)
        assert [p.points for p in orbits.paths] == [((),)]
        assert orbits.paths.ids.shape == (1, 1)

    def test_long_single_path_has_no_recursion_limit(self):
        orbits = enumerate_orbits(make_example("int_line"), 0, 5000, Fraction(1, 2))
        assert len(orbits) == 1
        assert orbits.paths[0].points == (0,) * 5001
        orbits = enumerate_orbits(make_example("int_line"), 0, 40_000, Fraction(1, 2))
        assert orbits.paths.ids.shape == (1, 40_001)
        assert not orbits.paths.ids.any()
        assert orbits.paths.support == (0,)

    @pytest.mark.parametrize("make, x0", [
        (lambda: IntLine(max_abs=50), 0),
        (lambda: make_example("regular_tree"), ()),
        (lambda: cycle_graph(5), 2),
    ], ids=["int_line", "regular_tree", "cycle"])
    def test_a_path_that_cannot_move_fills_every_level(self, monkeypatch, make, x0):
        # nothing is within 1/2 of x0: the family is the level-by-level one,
        # a single path standing still, found with one neighbors call
        space, delta = make(), Fraction(1, 2)
        expected = dfs_paths(space, x0, 50, delta)
        calls = []
        real = type(space).neighbors
        monkeypatch.setattr(type(space), "neighbors",
                            lambda self, x, d: calls.append(x) or real(self, x, d))
        orbits = enumerate_orbits(space, x0, 50, delta)
        assert [p.points for p in orbits.paths] == expected == [(x0,) * 51]
        assert orbits.paths.ids.tolist() == [[0] * 51]
        assert calls == [x0]

    def test_neighbors_only_on_points_reached_before_the_last_step(self):
        calls = []

        class Recording(IntLine):
            def neighbors(self, x, delta):
                calls.append(x)
                return super().neighbors(x, delta)

        enumerate_orbits(Recording(max_abs=50), 0, 3, 1)
        assert sorted(calls) == [-2, -1, 0, 1, 2]


class TestPathFamily:
    def _family(self):
        return enumerate_orbits(IntLine(max_abs=50), 0, 3, 1).paths

    def test_members_are_built_on_access(self):
        fam = self._family()
        assert isinstance(fam, PathFamily)
        assert len(fam) == 27 and fam.ids.shape == (27, 4)
        rows = [tuple(fam.support[k] for k in r) for r in fam.ids.tolist()]
        assert [p.points for p in fam] == rows
        assert [fam[i].points for i in range(-27, 27)] == rows + rows
        assert fam[5] == DeltaPath(rows[5], 1)
        with pytest.raises(IndexError):
            fam[27]

    def test_slices_are_families(self):
        fam = self._family()
        part = fam[3:9:2]
        assert isinstance(part, PathFamily)
        assert [p.points for p in part] == [p.points for p in list(fam)[3:9:2]]

    def test_id_matrix_is_read_only(self):
        fam = self._family()
        with pytest.raises(ValueError):
            fam.ids[0, 0] = 1

    def test_rejects_a_non_matrix(self):
        with pytest.raises(InvalidInputError):
            PathFamily((0,), np.zeros(3, dtype=np.int32), 1)


class TestStepBall:
    def test_int_line_interval(self):
        sp = IntLine(max_abs=100)
        assert step_ball(sp, 0, 3, 2) == list(range(-6, 7))
        assert step_ball(sp, 5, 0, 2) == [5]

    def test_matches_endpoint_set_of_enumeration(self):
        g = cycle_graph(7)
        for n in (1, 2, 3):
            orbits = enumerate_orbits(g, 0, n, 1)
            assert step_ball(g, 0, n, 1) == sorted({p.end for p in orbits.paths})

    def test_frontier_stops_on_finite_graph(self):
        g = path_graph(3)
        assert step_ball(g, 0, 50, 1) == [0, 1, 2]

    @pytest.mark.parametrize("space", [RegularTree(degree=3, max_depth=5), BranchTree(max_depth=4),
                                       branch_tree_measured(max_depth=4)],
                             ids=["regular_tree", "branch_tree", "branch_tree_measured"])
    def test_tree_refuses_before_the_walk_exactly_when_the_walk_would(self, space):
        for x in [(), (0,), (1, 0), (0, 1, 1)]:
            for n in range(7):
                for delta in (Fraction(1, 2), 1, 2, Fraction(5, 2)):
                    try:
                        walked = sorted(itertools.chain.from_iterable(
                            step_shells(space, x, n, delta)))
                    except BudgetExceededError:
                        walked = None
                    try:
                        ball = step_ball(space, x, n, delta)
                    except BudgetExceededError as err:
                        assert walked is None and "step ball" in str(err), (x, n, delta)
                    else:
                        assert ball == walked, (x, n, delta)

    def test_tree_ball_past_the_window_walks_nothing(self, monkeypatch):
        sp = BranchTree(max_depth=10)

        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(sp, "neighbors", no_walk)
        with pytest.raises(BudgetExceededError, match="^999999-step ball of radius 1 around "
                                                      "depth-0 vertex exceeds depth window 10$"):
            step_ball(sp, (), 999_999, 1)
        assert step_ball(sp, (), 0, math.inf) == [()]


class TestStepShells:
    def test_shells_are_bfs_levels(self):
        g = cycle_graph(9)
        hops = bfs_oracle(lambda v: g.neighbors(v, 1), 0)
        shells = list(step_shells(g, 0, 8, 1))
        for k, shell in enumerate(shells[:-1]):
            assert sorted(shell) == sorted(v for v, d in hops.items() if d == k)
        # one empty shell past the far side of the cycle, then nothing
        assert len(shells) == 6 and shells[-1] == []
        assert len(list(step_shells(g, 0, 3, 1))) == 4

    def test_union_of_first_shells_is_the_step_ball(self):
        sp = IntLine(max_abs=100)
        shells = list(step_shells(sp, 0, 4, 2))
        for n in range(5):
            assert sorted(itertools.chain(*shells[:n + 1])) == step_ball(sp, 0, n, 2)

    def test_neighbors_are_queried_lazily(self):
        sp = IntLine(max_abs=5)
        shells = step_shells(sp, 0, 10, 1)
        # shells 0..5 only query points inside the window
        assert [sorted(next(shells)) for _ in range(6)][-1] == [-5, 5]
        with pytest.raises(BudgetExceededError):
            next(shells)

    def test_negative_step_count(self):
        with pytest.raises(InvalidInputError):
            list(step_shells(IntLine(max_abs=5), 0, -1, 1))
        with pytest.raises(InvalidInputError):
            step_ball(IntLine(max_abs=5), 0, -1, 1)


class TestDeltaComponent:
    def test_finite_component_is_complete(self):
        g = cycle_graph(6)
        pts, complete = delta_component(g, 0, 1, hop_cap=64)
        assert complete and pts == list(range(6))

    def test_disconnected_graph_stays_in_component(self):
        g = build_graph([(0, 1), (2, 3)])
        pts, complete = delta_component(g, 2, 1, hop_cap=64)
        assert complete and pts == [2, 3]

    def test_hop_cap_reports_incomplete(self):
        sp = IntLine(max_abs=10 ** 6)
        pts, complete = delta_component(sp, 0, 1, hop_cap=5)
        assert not complete and len(pts) == 11

    def test_caps_count_rounds_and_points(self):
        g = path_graph(6)
        # the fixed point is seen in the round after the last new point
        assert delta_component(g, 0, 1, hop_cap=5) == ([0, 1, 2, 3, 4, 5], False)
        assert delta_component(g, 0, 1, hop_cap=6) == ([0, 1, 2, 3, 4, 5], True)
        assert delta_component(g, 0, 1, hop_cap=0) == ([0], False)


class TestHopMetric:
    def test_closed_form_on_int_line(self):
        sp = IntLine(max_abs=10 ** 6)
        assert hop_metric(sp, 0, 10, 3) == 4
        assert hop_metric(sp, 0, 0, 3) == 0

    def test_bfs_on_graphs(self):
        g = cycle_graph(8)
        assert hop_metric(g, 0, 4, 1) == 4
        assert hop_metric(g, 0, 4, 2) == 2

    def test_unreachable_is_infinite(self):
        g = build_graph([(0, 1), (2, 3)])
        assert hop_metric(g, 0, 3, 1) == math.inf

    def test_search_stops_at_the_target_inside_a_shell(self):
        # shell 1 of ("line", 9) is [8, 10]; expanding 8 reaches 7, so the
        # search must return before it asks for the neighbours of 10, which
        # lie outside the line window
        sp = TreeLine(max_tree=1, max_line=10)
        with pytest.raises(BudgetExceededError):
            sp.neighbors(("line", 10), 1)
        assert hop_metric(sp, ("line", 9), ("line", 7), 1) == 2


class TestOrbitSet:
    def test_point_rows(self):
        paths = (DeltaPath((0, 1), 1), DeltaPath((0, 0), 1))
        os_ = OrbitSet(paths, x0=0, n=1, delta=1)
        assert os_.point_rows() == [(0, 1), (0, 0)]
        assert len(os_) == 2
        assert [p for p in os_] == list(paths)
