"""The zero/infinite dichotomy classifier: rule outcomes per catalog space,
rule priority and gating, config windows, and embedding obstructions."""

import importlib

import pytest

from fractions import Fraction

from coarseentropy import (
    ClassificationReport,
    ClassifyConfig,
    IntLine,
    MeasuredSpace,
    MetricSpace,
    RegularTree,
    branch_tree_measured,
    build_finite_space,
    build_graph,
    classify,
    cycle_graph,
    make_example,
    obstruction,
    path_graph,
)
from coarseentropy.entropy.classify import SLOPE_CAVEAT

# the package re-exports the function ``classify`` under the module's name
CLASSIFY = importlib.import_module("coarseentropy.entropy.classify")


class TestCatalogVerdicts:
    def test_ultrametric_product_is_zero_certified(self):
        rep = classify(make_example("ultrametric_product"))
        assert (rep.verdict, rep.rule, rep.certified) == ("zero", "ultrametric", True)
        assert rep.evidence["source"] == "catalog-annotation"
        assert rep.caveat is None

    def test_branch_tree_is_infinite_certified(self):
        rep = classify(make_example("branch_tree"))
        assert rep.verdict == "infinite"
        assert rep.rule == "not-coarsely-bounded-geometry"
        assert rep.certified
        assert rep.evidence["bg_evidence"]["verdict"] == "unbounded-evidence"

    def test_measured_branch_tree_is_infinite_certified(self):
        rep = classify(branch_tree_measured(max_depth=10))
        assert rep.verdict == "infinite"
        assert rep.rule == "measured-volume"
        assert rep.certified
        assert rep.evidence["fitted_slope"] > 0.2

    def test_tree_line_is_infinite_via_growth_tag(self):
        rep = classify(make_example("tree_line", {"max_tree": 4, "schedule": "2^n"}))
        assert rep.verdict == "infinite"
        assert rep.rule == "bounded-geometry-growth-positive"
        assert rep.certified
        assert rep.evidence["growth_tag"] == "exponential-sup"

    def test_prime_cycle_is_zero_via_coding(self):
        rep = classify(make_example("prime_cycle", {"max_line": 64}))
        assert rep.verdict == "zero"
        assert rep.rule == "coding-map-zero"
        assert rep.certified
        assert rep.evidence["coding_check"]["fibers_below_R"] is True

    def test_int_line_is_zero_by_slope_evidence(self):
        rep = classify(IntLine(max_abs=10 ** 6))
        assert rep.verdict == "zero"
        assert rep.rule == "bounded-geometry-growth-zero"
        assert not rep.certified
        assert rep.caveat == SLOPE_CAVEAT
        assert rep.evidence["fitted_slope"] < 0.05

    def test_regular_tree_is_infinite_by_slope_evidence(self):
        rep = classify(RegularTree(degree=3, max_depth=15), ClassifyConfig(l_max=14))
        assert rep.verdict == "infinite"
        assert rep.rule == "bounded-geometry-growth-positive"
        assert not rep.certified
        assert abs(rep.evidence["fitted_slope"] - 0.6931) < 0.05

    def test_coarse_union_is_zero_certified(self):
        rep = classify(make_example("coarse_union",
                                    {"parts": [{"path": 3}, {"cycle": 5}]}))
        assert (rep.verdict, rep.rule, rep.certified) == ("zero", "bounded-components", True)

    def test_log_line_is_honestly_inconclusive(self):
        rep = classify(make_example("log_line", {"max_abs": 2 ** 12}))
        assert rep.verdict == "inconclusive"
        assert rep.rule is None
        assert not rep.certified


class TestFiniteSpaces:
    def test_finite_graph_is_zero_with_diameter_evidence(self):
        rep = classify(path_graph(6))
        assert (rep.verdict, rep.rule, rep.certified) == ("zero", "bounded-components", True)
        assert rep.evidence["source"] == "finite-space"
        assert rep.evidence["points"] == 6
        assert rep.evidence["max_component_diameter"] == 5
        assert type(rep.evidence["max_component_diameter"]) is int

    def test_disconnected_finite_graph_uses_component_diameter(self):
        g = build_graph([(0, 1), (1, 2), (10, 11)])
        rep = classify(g)
        assert rep.verdict == "zero"
        assert rep.evidence["max_component_diameter"] == 2
        assert type(rep.evidence["max_component_diameter"]) is int

    def test_finite_ultrametric_detected_exhaustively(self):
        pts = ("a", "b", "c")

        def um(x, y):
            # two tight points far from the third: an ultrametric
            return 0 if x == y else (1 if {x, y} == {"a", "b"} else 4)

        rep = classify(build_finite_space(pts, um))
        assert (rep.verdict, rep.rule) == ("zero", "ultrametric")
        assert rep.evidence["source"] == "exhaustive-check"
        assert rep.evidence["triples_checked"] == 27

    def test_large_finite_space_skips_diameter_but_stays_certified(self, monkeypatch):
        monkeypatch.setattr(CLASSIFY, "_FINITE_CHECK_LIMIT", 5)
        rep = classify(path_graph(10))
        assert rep.verdict == "zero"
        assert rep.rule == "bounded-components"
        assert "max_component_diameter" not in rep.evidence


class TestRuleGating:
    def test_priority_order_prefers_ultrametric(self):
        rep = classify(make_example("ultrametric_product"))
        assert rep.rule == "ultrametric"  # annotation also has bounded-components

    def test_weighted_graphs_never_enter_growth_rules(self):
        # an infinite, bounded-degree, exponentially growing graph: only its
        # weights keep it from the growth rules, so no rule applies
        class WeightedStub(MetricSpace):
            name = "weighted-stub"
            annotations = frozenset({"graph", "weighted-graph", "bounded-degree"})
            growth_tag = "exponential"
            vertex_transitive = True
            basepoint = 0

        rep = classify(WeightedStub())
        assert (rep.verdict, rep.rule, rep.evidence) == ("inconclusive", None, {})
        assert rep.caveat.startswith("no classification rule applies")

    def test_a_vertex_transitive_graph_without_bounded_degree_takes_its_own_rule(self):
        # the line annotated only as a graph: vertex-transitive, with no
        # degree bound, so the growth rules answer under their shared name
        line = IntLine()
        line.annotations = frozenset({"graph"})
        rep = classify(line)
        assert (rep.verdict, rep.rule, rep.certified) == ("zero", "vertex-transitive-growth",
                                                          False)
        assert rep.caveat == SLOPE_CAVEAT
        assert rep.evidence["fitted_slope"] < rep.evidence["thresholds"]["zero"]
        line.growth_tag = "linear"
        rep = classify(line)
        assert (rep.verdict, rep.rule, rep.certified, rep.caveat) == (
            "zero", "vertex-transitive-growth", True, None)
        assert rep.evidence == {"source": "analytic-growth-tag", "growth_tag": "linear"}

    def test_slope_between_thresholds_is_inconclusive(self):
        rep = classify(IntLine(), ClassifyConfig(l_max=8))
        assert (rep.verdict, rep.rule, rep.certified) == ("inconclusive", None, False)
        assert rep.evidence["fitted_slope"] == pytest.approx(0.158, abs=1e-3)
        assert rep.evidence["thresholds"] == {"zero": 0.05, "positive": 0.2}
        assert rep.caveat == ("fitted growth slope falls between the zero and "
                              "positive thresholds")

    def test_failed_coding_check_is_inconclusive(self, monkeypatch):
        # every real space passes the check: two 4-step 2-paths from one
        # start stay 16 < 17 apart, so only a stub can fail it
        failed = {"fibers_below_R": False, "codes": 3}
        monkeypatch.setattr(CLASSIFY, "coding_injectivity_check", lambda *args: failed)
        rep = classify(make_example("prime_cycle", {"max_line": 64}))
        assert (rep.verdict, rep.rule, rep.certified) == ("inconclusive", None, False)
        assert rep.caveat == ("catalog coding annotation present but the finite "
                              "coding check failed")
        assert rep.evidence == {"coding_check": failed}

    def test_uncorroborated_measured_volume_is_inconclusive(self):
        # a unit measure on the line, annotated finite and exponential: its
        # ball masses 1, 3, 5, ... grow linearly
        line = MeasuredSpace(IntLine(max_abs=100), lambda x: Fraction(1),
                             annotations={"vol-finite"})
        line.growth_tag = "exponential"
        rep = classify(line)
        assert (rep.verdict, rep.rule, rep.certified) == ("inconclusive", None, False)
        assert rep.caveat.startswith("measured-volume annotation present")
        assert rep.evidence["series"]["values"] == [2 * l + 1 for l in range(9)]
        assert rep.evidence["fitted_slope"] < 0.2

    def test_unwitnessed_unbounded_geometry_is_inconclusive(self):
        # the line has bounded geometry, so its band families stay small
        line = IntLine(max_abs=100)
        line.annotations = line.annotations | {"not-coarsely-bounded-geometry"}
        line.bg_evidence_defaults = lambda: (1, 2, (1, 2, 3, 4))
        rep = classify(line)
        assert (rep.verdict, rep.rule, rep.certified) == ("inconclusive", None, False)
        assert rep.caveat == ("unbounded-geometry annotation present but witness "
                              "families did not verify")
        assert rep.evidence["bg_evidence"]["verdict"] != "unbounded-evidence"

    def test_report_jsonable(self):
        doc = classify(make_example("ultrametric_product")).to_jsonable()
        assert set(doc) == {"space", "verdict", "rule", "certified", "caveat", "evidence"}


class TestObstruction:
    def test_infinite_into_zero_is_obstructed(self):
        rep = obstruction(make_example("tree_line", {"max_tree": 4, "schedule": "2^n"}),
                          make_example("prime_cycle", {"max_line": 64}))
        assert rep["obstruction"] is True
        assert rep["certified"] is True
        assert "forbids" in rep["reason"]
        assert rep["source"]["verdict"] == "infinite"
        assert rep["target"]["verdict"] == "zero"

    def test_zero_into_infinite_is_not_obstructed(self):
        rep = obstruction(make_example("ultrametric_product"),
                          make_example("branch_tree"))
        assert rep["obstruction"] is False
        assert "monotonicity only forbids" in rep["reason"]

    def test_inconclusive_side_blocks_the_conclusion(self):
        rep = obstruction(make_example("branch_tree"),
                          make_example("log_line", {"max_abs": 2 ** 12}))
        assert rep["obstruction"] is False
        assert "inconclusive" in rep["reason"]

    def test_accepts_ready_reports(self):
        src = classify(make_example("branch_tree"))
        tgt = classify(make_example("ultrametric_product"))
        rep = obstruction(src, tgt)
        assert rep["obstruction"] is True

    def test_uncertified_side_yields_uncertified_obstruction(self):
        src = classify(RegularTree(degree=3, max_depth=15), ClassifyConfig(l_max=14))
        tgt = classify(make_example("ultrametric_product"))
        rep = obstruction(src, tgt)
        assert rep["obstruction"] is True
        assert rep["certified"] is False
