"""Bounded-geometry evidence, quasi-geodesic checks, Rips graphs, and net
retractions."""

from fractions import Fraction

import pytest

from coarseentropy import geometry
from coarseentropy import (
    BranchTree,
    BudgetExceededError,
    IntLine,
    InvalidInputError,
    LogLine,
    PrimeCycle,
    bounded_geometry_evidence,
    build_graph,
    build_weighted_graph,
    cycle_graph,
    default_sample_pairs,
    net_retraction,
    path_graph,
    quasi_geodesic_check,
    rips_graph,
)


class TestBoundedGeometryEvidence:
    def test_branch_tree_witnesses_unbounded_geometry(self):
        sp = BranchTree(max_depth=10)
        ev = bounded_geometry_evidence(sp)
        assert ev.verdict == "unbounded-evidence"
        assert ev.witnessed
        assert ev.sizes == tuple(d + 2 for d in ev.depths)
        assert all(c == "witness" for c in ev.certificates)

    def test_prime_cycle_witnesses_unbounded_geometry(self):
        sp = PrimeCycle(max_line=512)
        ev = bounded_geometry_evidence(sp)
        assert ev.verdict == "unbounded-evidence"
        assert ev.sizes == tuple(range(1, len(ev.depths) + 1))

    def test_int_line_plateaus(self):
        sp = IntLine(max_abs=100)
        ev = bounded_geometry_evidence(sp, s=1, D=8, window_depths=[2, 4, 6])
        assert ev.sizes == (5, 9, 9)
        assert ev.verdict == "bounded-evidence"
        assert not ev.witnessed

    def test_cycle_graph_band_clique_search(self):
        g = cycle_graph(12)
        ev = bounded_geometry_evidence(g, s=1, D=2, window_depths=[1, 2, 3])
        # three consecutive vertices are the largest [1, 2]-band family
        assert ev.sizes == (3, 3, 3)
        assert ev.verdict == "bounded-evidence"
        assert all(c == "exact" for c in ev.certificates)

    def test_single_depth_is_inconclusive(self):
        sp = IntLine(max_abs=100)
        ev = bounded_geometry_evidence(sp, s=1, D=8, window_depths=[3])
        assert ev.verdict == "inconclusive"

    def test_argument_validation(self):
        sp = IntLine(max_abs=100)
        with pytest.raises(InvalidInputError):
            bounded_geometry_evidence(sp)  # no catalog defaults on the line
        with pytest.raises(InvalidInputError):
            bounded_geometry_evidence(sp, s=1, D=4, window_depths=[3, 2])
        with pytest.raises(InvalidInputError):
            bounded_geometry_evidence(sp, s=0, D=4, window_depths=[1, 2])

    def test_fallback_window_over_the_point_limit(self, monkeypatch):
        # windows of 2r + 1 points on the line: 9 fits a 9-point budget, 11
        # does not, and its band-clique search never starts
        monkeypatch.setattr(geometry, "POINT_LIMIT", 9)
        sp = IntLine(max_abs=100)
        searched = []
        real = geometry.max_band_clique
        monkeypatch.setattr(geometry, "max_band_clique",
                            lambda space, points, *args: searched.append(len(points))
                            or real(space, points, *args))
        assert bounded_geometry_evidence(sp, s=1, D=8, window_depths=[2, 4]).sizes == (5, 9)
        with pytest.raises(BudgetExceededError, match="^the depth-5 window holds 11 points; "
                                                      "band-clique searches are capped at 9 "
                                                      "points$"):
            bounded_geometry_evidence(sp, s=1, D=8, window_depths=[4, 5])
        assert searched == [5, 9, 9]

    def test_jsonable(self):
        sp = IntLine(max_abs=100)
        doc = bounded_geometry_evidence(sp, s=1, D=8, window_depths=[4, 6]).to_jsonable()
        assert doc["sizes"] == [9, 9]
        assert doc["verdict"] == "bounded-evidence"


class TestQuasiGeodesicCheck:
    def test_int_line_is_consistent(self):
        sp = IntLine(max_abs=10 ** 6)
        rep = quasi_geodesic_check(sp, 1)
        assert rep["verdict"] == "consistent"
        assert all(row["ok"] for row in rep["pairs"])
        assert all(row["method"] == "closed-form" for row in rep["pairs"])

    def test_log_line_fails_at_large_scales(self):
        sp = LogLine(max_abs=2 ** 21)
        for delta in (1, 4, 8):
            rep = quasi_geodesic_check(sp, delta, sample_pairs=[(0, 2 ** 20)])
            assert rep["verdict"] == "fails"
            row = rep["pairs"][0]
            assert row["method"] == "lower-bound"
            assert row["budget"] == 21
            assert row["hops"] > row["budget"]

    def test_graph_pairs_via_bfs(self):
        g = cycle_graph(10)
        rep = quasi_geodesic_check(g, 1, sample_pairs=[(0, 5), (0, 3)])
        assert rep["verdict"] == "consistent"
        assert all(row["method"] == "bfs" for row in rep["pairs"])

    def test_node_cap_bounds_the_search(self):
        # from 0 towards 5 the search has visited 0..4 when it reaches 5
        g = path_graph(12)
        with pytest.raises(BudgetExceededError, match="hop search exceeded 4 visited points"):
            quasi_geodesic_check(g, 1, sample_pairs=[(0, 5)], node_cap=4)
        rep = quasi_geodesic_check(g, 1, sample_pairs=[(0, 5)], node_cap=5)
        assert rep["pairs"][0]["hops"] == 5
        assert rep["pairs"][0]["method"] == "bfs"

    def test_weighted_shortcut_failure(self):
        # two half-weight edges: distance 1 but no single half-step crosses
        g = build_weighted_graph([(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))])
        rep = quasi_geodesic_check(g, Fraction(1, 2), sample_pairs=[(0, 2)])
        assert rep["verdict"] == "fails"

    def test_rejects_nonpositive_delta(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            quasi_geodesic_check(sp, 0)

    def test_a_pair_in_different_components_is_an_error(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(InvalidInputError,
                           match="^0 and 2 lie in different components: no path length to check$"):
            quasi_geodesic_check(g, 1, sample_pairs=[(0, 1), (0, 2)])


class TestDefaultSamplePairs:
    def test_geometric_spacing_within_bounds(self):
        sp = IntLine(max_abs=100)
        pairs = default_sample_pairs(sp)
        assert pairs[0] == (0, 1)
        assert pairs == [(0, 2 ** i) for i in range(7)]  # 64 fits, 128 does not

    def test_only_unknown_points_end_the_sample(self):
        # a fault in check_point other than an unknown point is not a bound
        class FaultyLine(IntLine):
            def check_point(self, x):
                if x > 8:
                    raise RuntimeError("broken check")
                super().check_point(x)

        with pytest.raises(RuntimeError, match="broken check"):
            default_sample_pairs(FaultyLine(max_abs=100))

    def test_requires_integer_coded_spaces(self):
        sp = BranchTree(max_depth=4)
        with pytest.raises(InvalidInputError):
            default_sample_pairs(sp)


class TestRipsGraph:
    def test_unit_scale_recovers_the_line_structure(self):
        sp = IntLine(max_abs=100)
        window = list(range(-3, 4))
        g = rips_graph(sp, 1, window)
        assert sorted(g.points) == window
        assert g.distance(-3, 3) == 6
        assert g.max_degree() == 2

    def test_scale_two_adds_chords(self):
        sp = IntLine(max_abs=100)
        g = rips_graph(sp, 2, list(range(5)))
        assert g.distance(0, 4) == 2
        assert set(g.adjacency(2)) == {0, 1, 3, 4}

    def test_duplicate_window_points_collapse(self):
        sp = IntLine(max_abs=10)
        g = rips_graph(sp, 1, [0, 1, 1, 0, 2])
        assert len(g.points) == 3


class TestNetRetraction:
    def test_int_line_net(self):
        sp = IntLine(max_abs=100)
        window = list(range(-10, 11))
        net, retraction = net_retraction(sp, 2, window)
        assert net == [-10, -4, 2, 8]
        # the net is 3r-separated and the retraction picks a nearest point
        for i, a in enumerate(net):
            for b in net[i + 1:]:
                assert abs(a - b) >= 6
        for p in window:
            z = retraction[p]
            assert abs(p - z) == min(abs(p - q) for q in net)
            assert abs(p - z) <= 6

    def test_preimages_contain_their_r_balls(self):
        sp = IntLine(max_abs=100)
        window = list(range(-10, 11))
        net, retraction = net_retraction(sp, 2, window)
        for z in net:
            for p in window:
                if abs(p - z) <= 2:
                    assert retraction[p] == z

    def test_ties_go_to_the_earlier_net_point(self):
        sp = IntLine(max_abs=100)
        net, retraction = net_retraction(sp, 2, list(range(-10, 11)))
        # -7 is 3 from both -10 and -4, -1 from both -4 and 2, 5 from both 2 and 8
        assert (retraction[-7], retraction[-1], retraction[5]) == (-10, -4, 2)

    def test_argument_validation(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            net_retraction(sp, 0, [0, 1])
        with pytest.raises(InvalidInputError):
            net_retraction(sp, 1, [])
