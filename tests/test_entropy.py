"""Path-family counts, ball-volume covering bounds, net codings, and growth
series, cross-checked against brute-force recomputation from definitions."""

import itertools
import math
from fractions import Fraction

import pytest

from coarseentropy import (
    CATALOG_TAGS,
    BranchTree,
    DeltaPath,
    BudgetExceededError,
    GrowthSeries,
    IntLine,
    InvalidInputError,
    MeasuredSpace,
    MetricItems,
    PrimeCycle,
    RegularTree,
    TreeLine,
    UltrametricProduct,
    branch_tree_measured,
    build_coding,
    build_graph,
    build_weighted_graph,
    code_paths,
    coding_injectivity_check,
    covering_bound,
    cycle_graph,
    dense_count,
    enumerate_orbits,
    fit_log_slope,
    growth_series,
    make_example,
    net_retraction,
    orbit_distance,
    path_graph,
    rate_series,
    separated_count,
    step_ball,
    step_shells,
)

from coarseentropy.entropy import counts
from coarseentropy.numbers import dist_to_jsonable
from coarseentropy.spaces.base import ball, hop_shells
from conftest import brute_max_separated, brute_min_dense


# ---------------------------------------------------------------------------
# separated / dense counts


class TestCounts:
    def setup_method(self):
        self.sp = IntLine(max_abs=40)
        self.orbits = enumerate_orbits(self.sp, 0, 2, 1)
        self.rows = [p.points for p in self.orbits.paths]

    def od(self, i, j):
        return orbit_distance(self.rows[i], self.rows[j], self.sp)

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_separated_count_matches_brute_force(self, R):
        point = separated_count(self.sp, 0, 2, 1, R)
        assert point.certificate == "exact"
        assert point.count == brute_max_separated(len(self.rows), self.od, R)
        assert point.rate == pytest.approx(math.log(point.count) / 2)
        assert point.stats["paths"] == 9

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_dense_count_matches_brute_force(self, R):
        point = dense_count(self.sp, 0, 2, 1, R)
        assert point.certificate == "exact"
        assert point.count == brute_min_dense(len(self.rows), self.od, R)

    def test_zero_length_family_is_one_path(self):
        for fn in (separated_count, dense_count):
            point = fn(self.sp, 0, 0, 1, 3)
            assert point.count == 1 and point.rate == 0.0

    def test_argument_validation(self):
        with pytest.raises(InvalidInputError):
            separated_count(self.sp, 0, -1, 1, 2)
        with pytest.raises(InvalidInputError):
            separated_count(self.sp, 0, 2, 0, 2)
        with pytest.raises(InvalidInputError):
            dense_count(self.sp, 0, 2, 1, 0)

    def test_rate_point_jsonable_keys(self):
        point = separated_count(self.sp, 0, 2, 1, 2)
        doc = point.to_jsonable()
        assert set(doc) == {"mode", "n", "delta", "R", "count", "certificate",
                            "rate", "stats"}
        assert doc["mode"] == "separated" and doc["R"] == 2


class TestBoundedComponentShortcut:
    def test_shortcut_fires_on_small_components(self):
        sp = UltrametricProduct(max_index=4)
        point = separated_count(sp, sp.basepoint, 5, 2, 4)
        assert point.count == 1
        assert point.certificate == "exact"
        assert point.stats.get("shortcut") == 1
        assert point.stats["component_points"] == 4

    def test_shortcut_agrees_with_enumeration(self, monkeypatch):
        sp = UltrametricProduct(max_index=4)
        fast = separated_count(sp, sp.basepoint, 3, 2, 4)
        # a component cap of 0 points leaves every component unwalked
        monkeypatch.setattr(counts, "_COMPONENT_POINTS", 0)
        slow = separated_count(sp, sp.basepoint, 3, 2, 4)
        assert fast.count == slow.count == 1
        assert "paths" in slow.stats and "shortcut" not in slow.stats

    def test_shortcut_does_not_fire_when_R_small(self):
        # component diameter 2 is not strictly below R = 2, so enumeration runs
        sp = UltrametricProduct(max_index=4)
        point = separated_count(sp, sp.basepoint, 2, 2, 2)
        assert "shortcut" not in point.stats
        assert point.count > 1


def walk_then_compare(space, x0, delta, R):
    """The shortcut as it was: walk the whole delta-component within the
    caps, then compare every pair of its points."""
    cap = counts._COMPONENT_POINTS
    try:
        shells = step_shells(space, x0, 4 * cap, delta)
        points = next(shells)[:]
        for shell in shells:
            points.extend(shell)
            if len(points) > cap:
                return None
            if not shell:
                break
        else:
            return None
    except BudgetExceededError:
        return None
    points.sort()
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if not space.lt(space.distance(a, b), R):
                return None
    return len(points)


def shortcut_spaces():
    params = {"coarse_union": {"parts": [{"path": 3}, {"cycle": 4}]}}
    for tag in CATALOG_TAGS:
        yield tag, make_example(tag, params.get(tag))
    yield "cycle", cycle_graph(9)
    yield "two_paths", build_graph([(0, 1), (1, 2), (5, 6)])
    yield "weighted", build_weighted_graph(
        [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 4)), (2, 3, 2), (3, 0, Fraction(5, 4)),
         (7, 8, Fraction(1, 3))])


class TestShortcutOracle:
    @pytest.mark.parametrize("name, space", list(shortcut_spaces()),
                             ids=[name for name, _ in shortcut_spaces()])
    def test_matches_walk_then_compare(self, name, space):
        scales = [(delta, R) for delta in (Fraction(1, 2), 1, 2, 5)
                  for R in (Fraction(1, 2), 1, 2, Fraction(7, 2), 4, 9, 100)]
        # the graphs' second components start at 5 and 7
        starts = [space.basepoint] + {"two_paths": [5], "weighted": [7]}.get(name, [])
        applied = 0
        for x0 in starts:
            for delta, R in scales:
                got = counts._bounded_component_is_small(space, x0, delta, R)
                assert got == walk_then_compare(space, x0, delta, R), (x0, delta, R)
                applied += got is not None
        # every space but the unbounded lines and trees has a case the shortcut takes
        if name in ("ultrametric_product", "coarse_union", "cycle", "two_paths", "weighted"):
            assert applied

    def test_walk_stops_at_the_first_far_point(self, monkeypatch):
        sp = make_example("int_line")
        calls = []
        real = sp.neighbors
        monkeypatch.setattr(sp, "neighbors", lambda x, delta: calls.append(x) or real(x, delta))
        R = 4
        assert counts._bounded_component_is_small(sp, 0, 1, R) is None
        assert 0 < len(calls) <= 2 * R + 1


class TestCoveringBound:
    def test_int_line_bound_values(self):
        sp = IntLine(max_abs=100)
        out = covering_bound(sp, 0, 1, 4, [3, 6, 9])
        assert out["k"] == 3
        assert out["ball_size"] == 7
        assert out["certified"] is True
        assert out["ball_scope"] == "transitive-exact"
        assert out["bounds"] == {3: 49, 6: 343, 9: 2401}

    def test_non_divisible_length_gets_float_bound(self):
        sp = IntLine(max_abs=100)
        out = covering_bound(sp, 0, 1, 4, [4])
        assert out["bounds"][4] == pytest.approx(7.0 ** (4 / 3 + 1))

    def test_returns_none_when_ratio_not_integer(self):
        sp = IntLine(max_abs=100)
        assert covering_bound(sp, 0, 1, Fraction(7, 2), [3]) is None
        assert covering_bound(sp, 0, 1, 1, [3]) is None  # k = 0

    def test_float_scales_read_the_ratio_to_a_tolerance(self):
        sp = IntLine(max_abs=100)
        # 4.5 / 1.5 is 3.0 exactly: k = 2 and V = |[-2, 2]| = 5, as at 3 / 1
        out = covering_bound(sp, 0, 1.5, 4.5, [2, 3])
        assert (out["k"], out["ball_size"]) == (2, 5)
        assert out["bounds"] == {2: 25, 3: pytest.approx(5.0 ** 2.5)}
        # 0.3 / 0.1 is 2.9999999999999996 in floats, still read as k = 2
        assert 0.3 / 0.1 != 3
        assert covering_bound(sp, 0, 0.1, 0.3, [2])["k"] == 2
        # a ratio that is not an integer has no k
        assert covering_bound(sp, 0, 1.0, 2.5, [3]) is None
        assert covering_bound(sp, 0, 1.5, 4.0, [3]) is None

    def test_non_transitive_spaces_not_certified(self):
        sp = TreeLine(max_tree=2, schedule="2^n")
        out = covering_bound(sp, ("line", 0), 1, 2, [2])
        assert out["certified"] is False
        assert out["ball_scope"] == "basepoint-only"

    def test_dense_counts_respect_the_bound(self):
        sp = IntLine(max_abs=100)
        out = rate_series(sp, 0, 1, 4, [3, 6], mode="dense")
        assert "covering_bound" in out
        assert all(out["bound_satisfied"].values())
        for point in out["points"]:
            assert point.count <= out["covering_bound"]["bounds"][point.n]

    @pytest.mark.parametrize("tag, others", [
        ("int_line", [-7]), ("log_line", [12]), ("regular_tree", [(2, 1)]),
        ("branch_tree", [(1, 0, 3)]), ("tree_line", [("tree", 2, (1,)), ("line", 15)])])
    def test_ball_size_is_the_step_ball(self, tag, others):
        sp = make_example(tag)
        for x in [sp.basepoint] + others:
            for delta in (1, Fraction(3, 2), 2):
                for k in (1, 2, 3):
                    out = covering_bound(sp, x, delta, (k + 1) * delta, [k])
                    assert out["k"] == k
                    assert out["ball_size"] == len(step_ball(sp, x, k, delta)), (x, delta, k)

    def test_rate_series_rejects_bad_mode(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            rate_series(sp, 0, 1, 2, [1], mode="packed")


# ---------------------------------------------------------------------------
# codings


class TestCoding:
    def test_scheme_parameters(self):
        sp = IntLine(max_abs=100)
        scheme = build_coding(sp, 0, 6, 1, 8)
        assert scheme.r == 2 and scheme.q == 2
        assert scheme.sample_times() == [0, 2, 4, 6]

    def test_fractional_radius(self):
        sp = IntLine(max_abs=200)
        scheme = build_coding(sp, 0, 4, 2, 17)
        assert scheme.r == Fraction(17, 4)
        assert scheme.q == 2  # floor((17/4) / 2)

    def test_R_too_small_raises(self):
        sp = IntLine(max_abs=100)
        with pytest.raises(InvalidInputError):
            build_coding(sp, 0, 4, 1, 3)

    def test_cells_map_to_nearest_net_point(self):
        sp = IntLine(max_abs=100)
        scheme = build_coding(sp, 0, 6, 1, 8)
        for p, idx in scheme.cells.items():
            d = sp.distance(p, scheme.net[idx])
            assert all(d <= sp.distance(p, z) for z in scheme.net)
            # maximality of the greedy net: every point is strictly within r
            assert d < scheme.r

    def test_ties_go_to_the_earlier_net_index(self):
        sp = IntLine(max_abs=100)
        # window -10..10, net seeded at 0 with r = 2
        scheme = build_coding(sp, 0, 6, 1, 8)
        assert scheme.net == (0, -10, -8, -6, -4, -2, 2, 4, 6, 8, 10)
        ties = 0
        for p, idx in scheme.cells.items():
            dists = [sp.distance(p, z) for z in scheme.net]
            nearest = [k for k, d in enumerate(dists) if d == min(dists)]
            ties += len(nearest) > 1
            assert idx == nearest[0]
        assert ties == 10  # every odd point sits between two net points
        assert (scheme.cells[-1], scheme.cells[1], scheme.cells[9]) == (0, 0, 9)

    def test_code_rejects_wrong_length(self):
        sp = IntLine(max_abs=100)
        scheme = build_coding(sp, 0, 6, 1, 8)
        with pytest.raises(InvalidInputError):
            scheme.code((0, 1))

    def test_code_paths_groups_by_word(self):
        sp = IntLine(max_abs=100)
        scheme = build_coding(sp, 0, 4, 1, 8)
        orbits = enumerate_orbits(sp, 0, 4, 1)
        groups = code_paths(scheme, orbits.paths)
        assert sum(len(v) for v in groups.values()) == len(orbits.paths)
        for word, members in groups.items():
            assert len(word) == len(scheme.sample_times())
            for i in members:
                assert scheme.code(orbits.paths[i].points) == word

    def test_injectivity_report_matches_brute_force_fibers(self):
        sp = IntLine(max_abs=100)
        rep = coding_injectivity_check(sp, 0, 3, 1, 8)
        scheme = build_coding(sp, 0, 3, 1, 8)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        groups = code_paths(scheme, orbits.paths)
        worst = 0
        for members in groups.values():
            for a_i, i in enumerate(members):
                for j in members[a_i + 1:]:
                    d = orbit_distance(orbits.paths[i], orbits.paths[j], sp)
                    worst = max(worst, d)
        assert rep["paths"] == 27
        assert rep["codes"] == len(groups)
        assert rep["max_fiber_diameter"] == worst and type(rep["max_fiber_diameter"]) is int
        assert rep["fibers_below_R"] is (worst < 8)
        assert rep["scheme"]["q"] == 2

    def test_injectivity_on_decorated_line(self):
        sp = PrimeCycle(max_line=64)
        rep = coding_injectivity_check(sp, ("line", 0), 2, 2, 17)
        assert rep["fibers_below_R"] is True
        assert type(rep["max_fiber_diameter"]) is int
        assert rep["codes"] <= rep["paths"]


def coding_by_delta_paths(space, x0, n, delta, R):
    """``(groups, largest fibre, worst fibre diameter)`` recomputed from
    definitions: one DeltaPath per path, coded by ``scheme.code``, and the
    orbit distance of every pair within each fibre."""
    scheme = build_coding(space, x0, n, delta, R)
    family = enumerate_orbits(space, x0, n, delta).paths
    paths = [DeltaPath(tuple(family.support[i] for i in row), delta)
             for row in family.ids.tolist()]
    groups = {}
    for i, path in enumerate(paths):
        groups.setdefault(scheme.code(path.points), []).append(i)
    worst = 0
    for members in groups.values():
        for i, j in itertools.combinations(members, 2):
            d = orbit_distance(paths[i], paths[j], space)
            if d > worst:
                worst = d
    return groups, max(map(len, groups.values())), worst


# a 20-cycle with Fraction weights in (1/2, 1]
WEIGHTED_CYCLE = [(v, (v + 1) % 20, Fraction(51 + 37 * v % 50, 100)) for v in range(20)]

CODING_CASES = [
    ("prime_cycle", lambda: PrimeCycle(max_line=64), ("line", 0),
     [(2, 2, 17), (3, 2, 17), (3, 1, 8), (2, 3, 13), (2, 1, 4)]),
    ("int_line", lambda: IntLine(max_abs=100), 0,
     [(4, 1, 8), (3, 1, 4), (3, 2, 9), (2, Fraction(1, 2), Fraction(9, 4))]),
    ("tree_line", lambda: make_example("tree_line", {"max_tree": 4, "schedule": "2^n"}),
     None, [(3, 1, 4), (2, 1, 9), (3, 2, 8)]),
    # at delta 1/2 no edge is short enough: one path, one fibre
    ("fraction_cycle", lambda: build_weighted_graph(WEIGHTED_CYCLE), 0,
     [(3, 1, 4), (4, 1, Fraction(9, 2)), (2, Fraction(3, 2), 6), (3, Fraction(1, 2), 2)]),
]


class TestCodingFromTheIdMatrix:
    """code_paths and coding_injectivity_check read the family's id matrix;
    they must agree with a recomputation over DeltaPaths and pair distances."""

    @pytest.mark.parametrize("name, make, x0, scales", CODING_CASES,
                             ids=[case[0] for case in CODING_CASES])
    def test_matches_delta_path_recomputation(self, name, make, x0, scales):
        space = make()
        x0 = space.basepoint if x0 is None else x0
        sizes = set()
        for n, delta, R in scales:
            groups, largest, worst = coding_by_delta_paths(space, x0, n, delta, R)
            scheme = build_coding(space, x0, n, delta, R)
            got = code_paths(scheme, enumerate_orbits(space, x0, n, delta).paths)
            assert list(got.items()) == list(groups.items()), (n, delta, R)
            assert all(type(c) is int for word in got for c in word)
            rep = coding_injectivity_check(space, x0, n, delta, R)
            assert (rep["paths"], rep["codes"], rep["largest_fiber"]) == \
                (sum(map(len, groups.values())), len(groups), largest)
            expect = dist_to_jsonable(worst)
            assert (rep["max_fiber_diameter"], type(rep["max_fiber_diameter"])) == \
                (expect, type(expect)), (n, delta, R)
            assert rep["fibers_below_R"] is bool(space.lt(worst, R))
            sizes.update(map(len, groups.values()))
        assert 1 in sizes and max(sizes) > 1

    def test_wrong_length_and_unknown_points_raise_as_code_does(self):
        space = IntLine(max_abs=100)
        scheme = build_coding(space, 0, 3, 1, 8)
        for paths in ([(0, 1)], enumerate_orbits(space, 0, 2, 1).paths,
                      enumerate_orbits(space, 0, 4, 1).paths):
            with pytest.raises(InvalidInputError) as expected:
                scheme.code(tuple(paths[0]))
            with pytest.raises(InvalidInputError) as got:
                code_paths(scheme, paths)
            assert str(got.value) == str(expected.value)
        # 9 and 12 lie outside the window of radius 3 + 2r = 7.  Codes sample
        # times 0 and 2, so the 9 of the first path goes unread, and the 12
        # is met before the sampled 9
        far = [(0, 9, 1, 1), (0, 1, 12, 1), (0, 1, 9, 1)]
        with pytest.raises(KeyError) as got:
            code_paths(scheme, far)
        assert got.value.args == (12,)
        assert code_paths(scheme, []) == {}


# Nets, coding cells and net retractions as the pair loops chose them, one
# list entry per window point in window order: the basepoint, then the rest
# of the ball sorted.  log_line has tolerance 1e-9 and 23 cells with tied
# net points; the Fraction cycle has no closed-form table; prime_cycle starts
# at a cycle vertex, so its window spans cycles of several primes

LOG_LINE_NET = [
    0, -49, -45, -41, -37, -33, -29, -25, -21, -17, -13, -9, -5, 4, 8, 12, 16, 20, 24, 28,
    32, 36, 40, 44, 48,
]

LOG_LINE_CELLS = [
    0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 8,
    8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12, 0, 0, 0, 0, 13, 13,
    13, 13, 14, 14, 14, 14, 15, 15, 15, 15, 16, 16, 16, 16, 17, 17, 17, 17, 18, 18, 18, 18,
    19, 19, 19, 19, 20, 20, 20, 20, 21, 21, 21, 21, 22, 22, 22, 22, 23, 23, 23, 23, 24, 24,
    24,
]

LOG_LINE_RETRACTION_NET = [
    0, -49, -47, -45, -43, -41, -39, -37, -35, -33, -31, -29, -27, -25, -23, -21, -19, -17,
    -15, -13, -11, -9, -7, -5, -3, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30,
    32, 34, 36, 38, 40, 42, 44, 46, 48,
]

LOG_LINE_RETRACTION = [
    0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
    14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19, 19, 20, 20, 21, 21, 22, 22, 23, 23, 24, 24,
    0, 0, 25, 25, 26, 26, 27, 27, 28, 28, 29, 29, 30, 30, 31, 31, 32, 32, 33, 33, 34, 34,
    35, 35, 36, 36, 37, 37, 38, 38, 39, 39, 40, 40, 41, 41, 42, 42, 43, 43, 44, 44, 45, 45,
    46, 46, 47, 47, 48, 48,
]

FRACTION_CYCLE_NET = [
    0, 2, 4, 6, 14, 16, 18,
]

FRACTION_CYCLE_CELLS = [
    0, 0, 1, 2, 2, 3, 3, 4, 5, 5, 6, 6, 0,
]

FRACTION_CYCLE_RETRACTION_NET = [
    0, 3, 5, 14, 17,
]

FRACTION_CYCLE_RETRACTION = [
    0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 4, 0,
]

PRIME_CYCLE_NET = [
    ('cyc', 2, 3, 3), ('cyc', 2, 1, 1), ('cyc', 2, 2, 2), ('cyc', 2, 4, 1), ('cyc', 3, 2,
    2), ('cyc', 5, 1, 2), ('cyc', 7, 1, 2), ('cyc', 11, 1, 1), ('cyc', 11, 1, 6), ('cyc',
    13, 1, 2), ('cyc', 13, 1, 8),
]

PRIME_CYCLE_CELLS = [
    0, 1, 2, 2, 2, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 1, 1, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6,
    6, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 7, 7, 9, 9, 9, 9, 9, 10, 10, 10, 10, 9, 3, 3, 1, 1,
    1, 1, 2, 5, 5, 6, 0, 4, 7, 7, 7, 9, 3, 3, 3, 3, 3,
]

PRIME_CYCLE_RETRACTION_NET = [
    ('cyc', 2, 3, 3), ('cyc', 2, 1, 1), ('cyc', 2, 4, 1), ('cyc', 3, 2, 3), ('cyc', 5, 1,
    2), ('cyc', 7, 1, 3), ('cyc', 11, 1, 1), ('cyc', 13, 1, 3), ('cyc', 13, 1, 9),
]

PRIME_CYCLE_RETRACTION = [
    0, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 1, 1, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5,
    5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 2, 2, 1, 1, 1,
    1, 1, 4, 4, 0, 0, 0, 6, 6, 6, 6, 2, 2, 2, 2, 2,
]


PINNED_NETS = [
    ("log_line", lambda: make_example("log_line"), 0, (1, 1, 4 * math.log2(5)), 0.5,
     (LOG_LINE_NET, LOG_LINE_CELLS, LOG_LINE_RETRACTION_NET, LOG_LINE_RETRACTION)),
    ("fraction_cycle", lambda: build_weighted_graph(WEIGHTED_CYCLE), 0, (3, 1, 4),
     Fraction(1, 2), (FRACTION_CYCLE_NET, FRACTION_CYCLE_CELLS, FRACTION_CYCLE_RETRACTION_NET,
                      FRACTION_CYCLE_RETRACTION)),
    ("prime_cycle", lambda: PrimeCycle(max_line=64), ("cyc", 2, 3, 3), (2, 2, 17), 2,
     (PRIME_CYCLE_NET, PRIME_CYCLE_CELLS, PRIME_CYCLE_RETRACTION_NET, PRIME_CYCLE_RETRACTION)),
]


@pytest.mark.parametrize("name, make, x0, scales, r, pinned", PINNED_NETS,
                         ids=[case[0] for case in PINNED_NETS])
def test_nets_cells_and_retractions_are_pinned(name, make, x0, scales, r, pinned):
    net, cells, retraction_net, retraction = pinned
    space = make()
    n, delta, R = scales
    scheme = build_coding(space, x0, n, delta, R)
    window = [x0] + [p for p in ball(space, x0, n * delta + 2 * scheme.r) if p != x0]
    assert scheme.net == tuple(net)
    assert list(scheme.cells) == window
    assert list(scheme.cells.values()) == cells
    assert all(type(c) is int for c in scheme.cells.values())
    got_net, got_retraction = net_retraction(space, r, window)
    assert got_net == retraction_net
    assert list(got_retraction) == window
    assert [got_net.index(got_retraction[p]) for p in window] == retraction


# ---------------------------------------------------------------------------
# growth series


def per_level_series(space, bases, l_max, delta, measured):
    """Growth values rebuilt ball by ball: level l, then each base.  Each ball
    is a walk over ``space.neighbors``, weighed by the checked ``mass_of``,
    so the reference shares neither the space's walk step nor ``weigh``."""
    values = []
    for l in range(l_max + 1):
        balls = [list(itertools.chain.from_iterable(
                     hop_shells(lambda y: space.neighbors(y, delta), b, l)))
                 for b in bases]
        values.append(max(space.mass_of(ball) if measured else len(ball) for ball in balls))
    return tuple(values)


def tree_vertices(tree):
    """Every vertex of a depth-windowed regular tree, level by level."""
    levels = [[()]]
    for _ in range(tree.max_depth):
        levels.append([v + (c,) for v in levels[-1]
                       for c in range(tree.degree if not v else tree.degree - 1)])
    return [v for level in levels for v in level]


class TestGrowth:
    def test_int_line_counting_growth(self):
        sp = IntLine(max_abs=100)
        series = growth_series(sp, delta=1, l_max=6)
        assert series.levels == tuple(range(7))
        assert series.values == tuple(2 * l + 1 for l in range(7))
        assert series.measure == "counting"
        assert series.sup_mode == "transitive-exact"

    def test_regular_tree_closed_form(self):
        sp = RegularTree(degree=3, max_depth=10)
        series = growth_series(sp, delta=1, l_max=6)
        assert series.values == tuple(3 * 2 ** l - 2 for l in range(7))

    def test_measured_growth_is_exact_rational(self):
        ms = branch_tree_measured(max_depth=8)
        series = growth_series(ms, delta=1, l_max=5)
        # mass of the depth <= l subtree below the root: each depth-j slice
        # has (j+1)! vertices of mass 2**j/(j+1)! each, so the ball mass is
        # 1 + 2 + ... + 2**l
        assert series.values == tuple(Fraction(2 ** (l + 1) - 1) for l in range(6))
        assert series.measure == "measured"

    def test_counting_variant_can_be_forced(self):
        ms = branch_tree_measured(max_depth=8)
        series = growth_series(ms, delta=1, l_max=3, measured=False)
        assert series.measure == "counting"
        assert series.values[1] == len(step_ball(ms, (), 1, 1))

    def test_measured_flag_needs_a_measure(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            growth_series(sp, delta=1, l_max=2, measured=True)

    def test_window_supremum_on_non_transitive_spaces(self):
        sp = TreeLine(max_tree=3, schedule="2^n")
        deep_root = ("line", sp.attachment(3))
        base_only = growth_series(sp, delta=1, l_max=3)
        windowed = growth_series(sp, delta=1, l_max=3,
                                 window=[deep_root, ("line", 1)])
        assert base_only.sup_mode == "window-lower-bound"
        for l in range(4):
            per_base = max(len(step_ball(sp, b, l, 1))
                           for b in [sp.basepoint, deep_root, ("line", 1)])
            assert windowed.values[l] == per_base
        assert windowed.values[3] >= base_only.values[3]

    def test_a_repeated_base_is_walked_once(self, monkeypatch):
        sp = TreeLine()
        walks = []
        real = sp.walk_shells
        monkeypatch.setattr(sp, "walk_shells", lambda x, n, delta: walks.append(x) or real(x, n, delta))
        series = growth_series(sp, l_max=2, window=[("line", 1), ("line", 1), ("line", 0)])
        assert walks == [("line", 0), ("line", 1)]
        assert series.window_size == 2
        assert series == growth_series(sp, l_max=2, window=[("line", 1)])

    def test_one_pass_series_matches_per_level_balls(self):
        tree = RegularTree(degree=3, max_depth=5)
        finite_tree = build_graph([(v[:-1], v) for v in tree_vertices(tree) if v])
        cases = [
            (IntLine(max_abs=30), None, 7, 2, None),
            # transitive: the window is ignored, the basepoint is exact
            (RegularTree(degree=3, max_depth=12), [(0,), (1, 2)], 6, 1, None),
            (finite_tree, [(0,), (1, 0, 1), (2, 1, 0, 1)], 6, 1, None),
            # every ball fills the graph before l_max
            (path_graph(5), [2], 8, 1, None),
            (branch_tree_measured(max_depth=8), [(1,), (0, 2)], 6, 1, None),
            (branch_tree_measured(max_depth=8), [(1, 2)], 5, 1, False),
        ]
        for space, window, l_max, delta, measured in cases:
            series = growth_series(space, delta=delta, l_max=l_max, window=window,
                                   measured=measured)
            bases = [space.basepoint] + ([] if space.vertex_transitive else window or [])
            assert series.window_size == len(bases)
            assert series.values == per_level_series(space, bases, l_max, delta,
                                                     series.measure == "measured")

    @pytest.mark.parametrize("delta", [1, Fraction(3, 2), 2], ids=["1", "3/2", "2"])
    @pytest.mark.parametrize("space, window", [
        (branch_tree_measured(max_depth=6), [(1,), (0, 2)]),
        (RegularTree(degree=3, max_depth=6), None),
    ], ids=["branch_tree_measured", "regular_tree"])
    def test_series_at_the_depth_edge_matches_per_level_rebuild(self, space, window, delta):
        # l_max steps of radius r = floor(delta) expand vertices down to
        # depth len(base) + (l_max - 1) * r.  A walk that would pass depth 6
        # is refused before it starts: the series fails with the message of
        # the first base, in base order, whose walk leaves the window
        bases = [space.basepoint] + (window or [])
        r = math.floor(delta)
        answered = []
        for l_max in range(1, 8):
            leaving = [b for b in bases if len(b) + l_max * r > 6]
            if leaving:
                with pytest.raises(BudgetExceededError) as got:
                    growth_series(space, delta=delta, l_max=l_max, window=window)
                assert str(got.value) == (
                    f"{l_max}-step ball of radius {r} around depth-{len(leaving[0])} vertex "
                    "exceeds depth window 6"), l_max
            else:
                series = growth_series(space, delta=delta, l_max=l_max, window=window)
                assert series.values == per_level_series(
                    space, bases, l_max, delta, isinstance(space, MeasuredSpace)), l_max
                answered.append(l_max)
        edge = {1: 6, 2: 3}[r]
        if window:  # (0, 2) starts two levels down
            edge = {1: 4, 2: 2}[r]
        assert answered == list(range(1, edge + 1))

    def test_a_walk_past_the_window_builds_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a walk past the window was built")

        for space in (BranchTree(max_depth=5), RegularTree(degree=3, max_depth=5)):
            for hook in ("_width", "_adjacency", "neighbors"):
                monkeypatch.setattr(space, hook, fail)
            for delta in (1, Fraction(3, 2), 2, math.inf):
                with pytest.raises(BudgetExceededError):
                    next(step_shells(space, (0,), 5, delta))
                with pytest.raises(BudgetExceededError):
                    growth_series(space, delta=delta, l_max=6)

    def test_a_base_fails_before_a_later_base_is_refused(self):
        # the root's own mass fails at level 0, before the deep base's walk,
        # which would leave the window, is asked for
        def mass_fn(v):
            return Fraction(-1) if v == () else Fraction(1)

        for key in (None, len):
            sp = MeasuredSpace(BranchTree(max_depth=4), mass_fn, mass_key=key)
            with pytest.raises(InvalidInputError, match=r"^negative mass at \(\)$"):
                growth_series(sp, delta=1, l_max=4, window=[(0, 2, 1)])
            with pytest.raises(BudgetExceededError, match="around depth-3 vertex"):
                growth_series(sp, delta=1, l_max=4, window=[(0, 2, 1)], measured=False)

    def test_window_budget_error_matches_per_level_rebuild(self):
        class WindowedLine(IntLine):
            vertex_transitive = False  # so that growth_series uses the window

        sp = WindowedLine(max_abs=10)
        bases = [0, 7, -8]
        # base 7 leaves the window at level 4, base -8 already at level 3
        with pytest.raises(BudgetExceededError) as expected:
            per_level_series(sp, bases, 6, 1, False)
        with pytest.raises(BudgetExceededError) as got:
            growth_series(sp, 0, delta=1, l_max=6, window=bases[1:])
        assert str(got.value) == str(expected.value)
        assert "around -10 " in str(got.value)

    def test_fit_log_slope_recovers_exact_exponent(self):
        series = GrowthSeries(space="synthetic", delta=1, basepoint=0,
                              levels=tuple(range(9)),
                              values=tuple(2 ** l for l in range(9)),
                              measure="counting", sup_mode="transitive-exact",
                              window_size=1)
        assert fit_log_slope(series) == pytest.approx(math.log(2))

    def test_fit_log_slope_needs_enough_levels(self):
        series = GrowthSeries(space="synthetic", delta=1, basepoint=0,
                              levels=(0, 1), values=(1, 2),
                              measure="counting", sup_mode="transitive-exact",
                              window_size=1)
        with pytest.raises(InvalidInputError):
            fit_log_slope(series)

    def test_growth_series_jsonable(self):
        sp = IntLine(max_abs=20)
        doc = growth_series(sp, delta=1, l_max=3).to_jsonable()
        assert doc["values"] == [1, 3, 5, 7]
        assert doc["space"].startswith("int_line")
