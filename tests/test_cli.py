"""End-to-end tests for the command-line interface.

Each test drives ``coarseentropy.cli.main`` with an argv list and inspects
the rendered report (parsed back with the stdlib json/csv modules) plus the
exit status.  Numeric expectations are cross-checked against the library
calls the commands wrap; the library itself is oracle-tested elsewhere.
"""

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarseentropy import cli, extremal
from coarseentropy.entropy.counts import rate_series
from coarseentropy.entropy.witness import catalog_pingpong
from coarseentropy.paths import enumerate_orbits
from coarseentropy.serialize import orbits_from_json_lines
from coarseentropy.spaces import base as spaces_base
from coarseentropy.spaces import BranchTree, LogLine, make_example
from coarseentropy.spaces.catalog import CATALOG_TAGS

SMALL_TREE_LINE = '{"max_tree": 4, "schedule": "2^n"}'
DATA = Path(__file__).resolve().parent / "data"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert err == ""
    return code, json.loads(out)


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_in_process(argv):
    """Run the CLI in a separate process, cut off after 10 s and held
    under 2 GB of address space."""
    env = package_env()

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from coarseentropy import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=10, env=env, preexec_fn=limit_memory)


class TestGrowthCommand:
    def test_int_line_series(self, capsys):
        code, doc = run_json(
            ["growth", "--space", "int_line", "--window", "4"], capsys)
        assert code == 0
        assert doc["schema"] == "v1"
        assert doc["kind"] == "growth-series"
        series = doc["report"]["series"]
        assert series["levels"] == [0, 1, 2, 3, 4]
        assert series["values"] == [1, 3, 5, 7, 9]
        assert series["measure"] == "counting"
        assert doc["report"]["config"]["space"] == "int_line"
        assert doc["report"]["config"]["log_base"] == "e"

    def test_measured_values_are_exact_rationals(self, capsys):
        code, doc = run_json(
            ["growth", "--space", "branch_tree",
             "--params", '{"max_depth": 6, "measured": true}',
             "--window", "3"], capsys)
        assert code == 0
        series = doc["report"]["series"]
        assert series["measure"] == "measured"
        # root-ball masses 2^(l+1) - 1 land as exact integers here
        assert series["values"] == [1, 3, 7, 15]

    def test_log_base_rescales_slope(self, capsys):
        argv = ["growth", "--space", "int_line", "--window", "6"]
        _, doc_e = run_json(argv, capsys)
        _, doc_2 = run_json(argv + ["--log-base", "2"], capsys)
        slope_e = doc_e["report"]["fitted_slope"]
        slope_2 = doc_2["report"]["fitted_slope"]
        assert slope_2 == pytest.approx(slope_e / math.log(2))
        assert doc_2["report"]["config"]["log_base"] == 2.0

    def test_log_base_one_rejected(self, capsys):
        code, out, err = run(
            ["growth", "--space", "int_line", "--log-base", "1"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("config error:")

    def test_negative_log_base_rejected(self, capsys):
        code, _, err = run(
            ["growth", "--space", "int_line", "--log-base", "-2"], capsys)
        assert code == 1
        assert err.startswith("config error:")


    def test_walk_past_the_point_budget_is_a_budget_error(self, capsys, monkeypatch):
        # the real budget, 2**22 points, holds the depth-9 ball of 4,037,913
        # points and stops the depth-10 shell of 11! ~ 39.9M; patched to 1,000
        # it holds the depth-5 ball (873 points) and stops depth 6 (5,040)
        monkeypatch.setattr(spaces_base, "_WALK_POINTS", 1000)
        argv = ["growth", "--space", "branch_tree", "--params", '{"measured":true}']
        code, doc = run_json(argv + ["--window", "5"], capsys)
        assert code == 0 and doc["report"]["series"]["values"][-1] == 2 ** 6 - 1
        code, out, err = run(argv + ["--window", "10"], capsys)
        assert (code, out) == (1, "")
        assert err == "budget exceeded: walk around () holds more than 1000 points\n"

    def test_growth_past_the_depth_window_is_refused_before_the_walk(self, capsys):
        # the default window is depth 10; eleven unit steps from the root
        # would reach depth 11
        code, out, err = run(["growth", "--space", "branch_tree", "--window", "11"], capsys)
        assert (code, out) == (1, "")
        assert err == ("budget exceeded: 11-step ball of radius 1 around depth-0 vertex "
                       "exceeds depth window 10\n")


class TestCountedGrowth:
    """Growth series that read shell counts in closed form: each answers, or
    fails as its walk would, without a single ``neighbors`` call unless it
    says which shells it walks."""

    @pytest.fixture(autouse=True)
    def no_neighbors(self, monkeypatch):
        def fail(self, x, delta):
            raise AssertionError(f"neighbors({x!r}, {delta!r}) was called")

        for cls in (BranchTree, LogLine):
            monkeypatch.setattr(cls, "neighbors", fail)

    def test_measured_tree_at_the_walk_limit_holds_no_shell(self, capsys):
        # the depth-9 ball holds 4,037,913 points, and the next shell passes
        # the limit; the walk built the depth-9 shell of 10! vertices first
        shell_9 = math.factorial(10) * sys.getsizeof((0,) * 9)
        tracemalloc.start()
        try:
            code, out, err = run(["growth", "--space", "branch_tree", "--params",
                                  '{"measured":true}', "--window", "10"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "budget exceeded: walk around () holds more than 4194304 points\n"
        assert peak < shell_9

    def test_log_line_with_a_long_step(self, capsys):
        # one step moves up to 2**17 - 1, so each shell is two intervals
        code, doc = run_json(["growth", "--space", "log_line", "--delta", "17",
                              "--window", "2"], capsys)
        assert code == 0 and doc["report"]["series"]["values"] == [1, 262143, 524285]

    def test_tree_at_radius_two_past_the_walk_limit(self, capsys):
        # five 2-steps reach the depth-10 window; the radius-10 ball passes the limit
        code, out, err = run(["growth", "--space", "branch_tree", "--delta", "2",
                              "--window", "5"], capsys)
        assert (code, out) == (1, "")
        assert err == "budget exceeded: walk around () holds more than 4194304 points\n"

    def test_measured_tree_at_radius_two_walks_no_shell_past_the_limit(self, capsys,
                                                                       monkeypatch):
        # depths of a radius-2 shell come from two distances, so the measured
        # series walks shells 0-4 (409,113 points); the closed-form sizes
        # refuse shell 5 before the walk builds it up to the limit
        monkeypatch.delattr(BranchTree, "neighbors")
        start = time.perf_counter()
        code, out, err = run(["growth", "--space", "branch_tree", "--params",
                              '{"measured":true}', "--delta", "2", "--window", "5"], capsys)
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert err == "budget exceeded: walk around () holds more than 4194304 points\n"
        assert elapsed < 3, elapsed


# the orbits report on prime_cycle's radius-1000 ball in a 10**6 window,
# as a weighted search for the ball computed it
PRIME_CYCLE_ORBITS = """\
{
  "kind": "orbit-set-summary",
  "report": {
    "config": {
      "cap": 1000000,
      "delta": 1000,
      "n": 1,
      "params": {
        "max_line": 1000000
      },
      "space": "prime_cycle"
    },
    "count": 53779,
    "distinct_endpoints": 53779,
    "exhaustive": true,
    "x0": "('line', 0)"
  },
  "schema": "v1"
}
"""


class TestOrbitsCommand:
    def test_int_line_counts(self, capsys):
        code, doc = run_json(
            ["orbits", "--space", "int_line", "--n", "2", "--delta", "1"], capsys)
        assert code == 0
        assert doc["kind"] == "orbit-set-summary"
        report = doc["report"]
        assert report["count"] == 9  # (2*1+1)^2 paths
        assert report["distinct_endpoints"] == 5  # endpoints -2..2
        assert report["exhaustive"] is True
        assert report["x0"] == "0"

    def test_paths_out_round_trips(self, tmp_path, capsys):
        dump = tmp_path / "orbits.jsonl"
        code, doc = run_json(
            ["orbits", "--space", "int_line", "--n", "2",
             "--paths-out", str(dump)], capsys)
        assert code == 0
        assert doc["report"]["paths_out"] == "orbits.jsonl"
        loaded = orbits_from_json_lines(dump.read_text(encoding="utf-8"))
        direct = enumerate_orbits(make_example("int_line"), 0, 2, 1)
        assert loaded.point_rows() == direct.point_rows()
        assert loaded.exhaustive is True

    def test_cap_exceeded_exits_one(self, capsys):
        code, out, err = run(
            ["orbits", "--space", "int_line", "--n", "4", "--cap", "5"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("budget exceeded:")

    def test_wide_steps_reach_the_cap_in_time(self):
        # each of the 262,142 first-step points lists 262,142 neighbours; a
        # separate process, so that a hang is cut off
        done = run_in_process(["orbits", "--space", "log_line", "--n", "2", "--delta", "17"])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == ("budget exceeded: enumeration cap 1000000 exceeded "
                               "for n=2, delta=17\n")

    def test_prime_cycle_wide_ball_in_a_large_window_is_quick(self, capsys):
        # the radius-1000 ball around ("line", 0) holds 53,778 points; a
        # weighted search for it took about 10 s
        start = time.perf_counter()
        code, out, err = run(["orbits", "--space", "prime_cycle", "--params",
                              '{"max_line": 1000000}', "--delta", "1000", "--n", "1"], capsys)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out == PRIME_CYCLE_ORBITS

    def test_long_single_path(self, capsys):
        code, doc = run_json(
            ["orbits", "--space", "int_line", "--n", "5000", "--delta", "0.5"], capsys)
        assert code == 0
        assert doc["report"]["count"] == 1
        assert doc["report"]["distinct_endpoints"] == 1

    def test_negative_n_rejected(self, capsys):
        code, _, err = run(
            ["orbits", "--space", "int_line", "--n", "-1"], capsys)
        assert code == 1
        assert err.startswith("config error:")


class TestRatesCommand:
    def test_length_zero_single_row(self, capsys):
        code, doc = run_json(
            ["rates", "--space", "int_line", "--n", "0", "--radius", "2"], capsys)
        assert code == 0
        assert doc["kind"] == "rate-series"
        rows = doc["report"]["rows"]
        assert len(rows) == 1
        assert rows[0]["n"] == 0
        assert rows[0]["count"] == 1
        assert rows[0]["rate"] == 0
        assert doc["report"]["mode"] == "separated"

    def test_rows_match_library(self, capsys):
        code, doc = run_json(
            ["rates", "--space", "int_line", "--n", "1,2",
             "--radius", "2", "--delta", "1"], capsys)
        assert code == 0
        space = make_example("int_line")
        table = rate_series(space, 0, 1, 2, [1, 2], mode="separated")
        expect = [pt.to_jsonable() for pt in table["points"]]
        got = doc["report"]["rows"]
        assert [r["count"] for r in got] == [r["count"] for r in expect]
        assert [r["certificate"] for r in got] == [r["certificate"] for r in expect]
        assert got[1]["rate"] == pytest.approx(math.log(got[1]["count"]) / 2)

    def test_dense_mode_reports_covering_bound(self, capsys):
        code, doc = run_json(
            ["rates", "--space", "int_line", "--n", "3,6",
             "--radius", "4", "--mode", "dense"], capsys)
        assert code == 0
        report = doc["report"]
        assert report["mode"] == "dense"
        assert report["covering_bound"]["k"] == 3
        assert report["covering_bound"]["ball_size"] == 7
        assert report["bound_satisfied"] == {"3": True, "6": True}

    def test_bad_length_list_rejected(self, capsys):
        code, _, err = run(
            ["rates", "--space", "int_line", "--n", "1,two", "--radius", "2"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_missing_radius_rejected(self, capsys):
        code, _, err = run(
            ["rates", "--space", "int_line", "--n", "1"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_dense_radius_within_the_tolerance(self, capsys):
        code, out, err = run(["rates", "--space", "log_line", "--n", "2",
                              "--radius", "0.0000000001", "--mode", "dense"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: R must exceed the comparison tolerance")


    def test_tree_ball_past_the_window_ends_in_time(self):
        # the step ball of radius 999,999 around the root would walk about
        # 44 million vertices of the depth-10 window before its edge raised;
        # a separate process, so that a hang is cut off, under 2 GB
        argv = ["rates", "--space", "branch_tree", "--delta", "1", "--radius", "1000000",
                "--n", "0,2", "--mode", "dense"]
        done = run_in_process(argv)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("budget exceeded: 999999-step ball of radius 1 around "
                                      "depth-0 vertex exceeds depth window 10")

    @pytest.mark.parametrize("space, mode, search", [
        ("regular_tree", "separated", "independent-set"), ("int_line", "dense", "set-cover")])
    def test_node_budget_overrun_is_a_budget_error(self, capsys, monkeypatch, space, mode,
                                                   search):
        monkeypatch.setattr(extremal, "_NODE_BUDGET", 1)
        code, out, err = run(["rates", "--space", space, "--n", "2", "--radius", "2",
                              "--mode", mode], capsys)
        assert (code, out) == (1, "")
        assert err == f"budget exceeded: {search} search exceeded its node budget\n"


class TestWitnessCommand:
    def test_small_tree_line_family(self, capsys):
        code, doc = run_json(
            ["witness", "--space", "tree_line", "--params", SMALL_TREE_LINE,
             "--delta", "1", "--radius", "2", "--p", "1"], capsys)
        assert code == 0
        assert doc["kind"] == "witness-family"
        report = doc["report"]
        family = catalog_pingpong(
            make_example("tree_line", json.loads(SMALL_TREE_LINE)), 1, 2, 1)
        assert report["family"]["size"] == family.size == 4
        assert report["family"]["n"] == family.n == 24
        assert report["rate_bound"] == pytest.approx(math.log(4) / 24)
        assert report["verification"] == "pairwise-exhaustive"
        assert report["materializable_within_cap"] is True

    def test_log_base_rescales_rate_bound(self, capsys):
        argv = ["witness", "--space", "tree_line", "--params", SMALL_TREE_LINE,
                "--delta", "1", "--radius", "2", "--p", "1"]
        _, doc_e = run_json(argv, capsys)
        _, doc_4 = run_json(argv + ["--log-base", "4"], capsys)
        assert doc_4["report"]["rate_bound"] == pytest.approx(
            doc_e["report"]["rate_bound"] / math.log(4))

    def test_p_zero_rejected(self, capsys):
        code, _, err = run(
            ["witness", "--space", "tree_line", "--params", SMALL_TREE_LINE,
             "--delta", "1", "--radius", "2", "--p", "0"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_space_without_arm_construction_errors(self, capsys):
        code, _, err = run(
            ["witness", "--space", "int_line", "--delta", "1", "--radius", "2"], capsys)
        assert code == 1
        assert err.startswith("error:")


class TestClassifyCommand:
    def test_ultrametric_product_zero(self, capsys):
        code, doc = run_json(
            ["classify", "--space", "ultrametric_product",
             "--params", '{"max_index": 6}'], capsys)
        assert code == 0
        assert doc["kind"] == "classification"
        report = doc["report"]
        assert report["verdict"] == "zero"
        assert report["rule"] == "ultrametric"
        assert report["certified"] is True

    def test_branch_tree_infinite(self, capsys):
        code, doc = run_json(
            ["classify", "--space", "branch_tree", "--params", '{"max_depth": 8}'],
            capsys)
        assert code == 0
        report = doc["report"]
        assert report["verdict"] == "infinite"
        assert report["rule"] == "not-coarsely-bounded-geometry"

    def test_strict_inconclusive_exits_two_with_report(self, capsys):
        code, out, err = run(
            ["classify", "--space", "log_line", "--strict"], capsys)
        assert code == 2 and err == ""
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "inconclusive"

    def test_inconclusive_without_strict_exits_zero(self, capsys):
        code, doc = run_json(["classify", "--space", "log_line"], capsys)
        assert code == 0
        assert doc["report"]["verdict"] == "inconclusive"

    def test_log_base_rescales_slope(self, capsys):
        argv = ["classify", "--space", "int_line"]
        _, doc_e = run_json(argv, capsys)
        _, doc_2 = run_json(argv + ["--log-base", "2"], capsys)
        ev_e, ev_2 = doc_e["report"]["evidence"], doc_2["report"]["evidence"]
        assert ev_2["fitted_slope"] == pytest.approx(
            ev_e["fitted_slope"] / math.log(2), abs=1e-12)

    def test_unknown_tag_errors(self, capsys):
        code, out, err = run(["classify", "--space", "klein_bottle"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_bad_params_json_rejected(self, capsys):
        code, _, err = run(
            ["classify", "--space", "int_line", "--params", "{not json"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_params_must_be_object(self, capsys):
        code, _, err = run(
            ["classify", "--space", "int_line", "--params", "[1,2]"], capsys)
        assert code == 1
        assert err.startswith("config error:")


class TestQgcheckCommand:
    def test_int_line_consistent(self, capsys):
        code, doc = run_json(["qgcheck", "--space", "int_line"], capsys)
        assert code == 0
        assert doc["kind"] == "quasi-geodesic-check"
        assert doc["report"]["verdict"] == "consistent"

    def test_log_line_fails_but_exit_zero(self, capsys):
        # a definite failure is a conclusive answer, not an inconclusive one
        code, doc = run_json(["qgcheck", "--space", "log_line", "--strict"], capsys)
        assert code == 0
        assert doc["report"]["verdict"] == "fails"

    def test_zero_delta_rejected(self, capsys):
        code, _, err = run(
            ["qgcheck", "--space", "int_line", "--delta", "0"], capsys)
        assert code == 1
        assert err.startswith("config error:")


class TestBgcheckCommand:
    def test_branch_tree_unbounded(self, capsys):
        code, doc = run_json(
            ["bgcheck", "--space", "branch_tree", "--params", '{"max_depth": 8}'],
            capsys)
        assert code == 0
        assert doc["kind"] == "bounded-geometry-evidence"
        assert doc["report"]["verdict"] == "unbounded-evidence"

    def test_int_line_bounded_with_explicit_band(self, capsys):
        code, doc = run_json(
            ["bgcheck", "--space", "int_line", "--delta", "1", "--radius", "8",
             "--window", "6"], capsys)
        assert code == 0
        report = doc["report"]
        assert report["verdict"] == "bounded-evidence"
        assert report["config"]["window"] == 6

    def test_single_depth_strict_exits_two(self, capsys):
        code, out, err = run(
            ["bgcheck", "--space", "int_line", "--delta", "1", "--radius", "8",
             "--window", "2", "--strict"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out)["report"]["verdict"] == "inconclusive"

    def test_window_below_two_rejected(self, capsys):
        code, _, err = run(
            ["bgcheck", "--space", "int_line", "--delta", "1", "--radius", "8",
             "--window", "1"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_fallback_window_over_the_point_limit(self, capsys):
        # s = 3 has no catalog witness, so the search falls back to balls;
        # the depth-6 ball holds 5,913 points, past the 4,096-point budget
        start = time.perf_counter()
        code, out, err = run(["bgcheck", "--space", "branch_tree", "--delta", "3"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 1 and out == ""
        assert err == ("budget exceeded: the depth-6 window holds 5913 points; band-clique "
                       "searches are capped at 4096 points\n")
        assert elapsed < 5.0


class TestObstructCommand:
    def test_tree_line_into_prime_cycle(self, capsys):
        code, doc = run_json(
            ["obstruct", "--space", "tree_line", "--params", SMALL_TREE_LINE,
             "--target-space", "prime_cycle", "--target-params", '{"max_line": 64}'],
            capsys)
        assert code == 0
        assert doc["kind"] == "embedding-obstruction"
        report = doc["report"]
        assert report["obstruction"] is True
        assert report["source"]["verdict"] == "infinite"
        assert report["target"]["verdict"] == "zero"
        assert report["config"]["source"]["space"] == "tree_line"
        assert report["config"]["target"]["space"] == "prime_cycle"

    def test_strict_inconclusive_source_exits_two(self, capsys):
        code, out, err = run(
            ["obstruct", "--space", "log_line",
             "--target-space", "int_line", "--strict"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out)["report"]["obstruction"] is False

    def test_missing_target_rejected(self, capsys):
        code, _, err = run(
            ["obstruct", "--space", "int_line"], capsys)
        assert code == 1
        assert err.startswith("config error:")


class TestInfiniteScales:
    @pytest.mark.parametrize("argv", [
        ["growth", "--space", "int_line"],
        ["growth", "--edges", str(DATA / "path41.csv")],
        ["growth", "--edges", str(DATA / "cycle20_fraction.csv")],
        ["orbits", "--space", "regular_tree", "--n", "1"],
        ["rates", "--space", "int_line", "--n", "1", "--radius", "2"],
        ["witness", "--space", "tree_line", "--params", SMALL_TREE_LINE],
        ["classify", "--space", "int_line"],
        ["qgcheck", "--space", "int_line"],
        ["bgcheck", "--space", "branch_tree"],
        ["obstruct", "--space", "int_line", "--target-space", "int_line"],
    ], ids=["growth", "growth-graph", "growth-weighted", "orbits", "rates", "witness",
            "classify", "qgcheck", "bgcheck", "obstruct"])
    def test_infinite_delta_is_a_config_error(self, argv, capsys):
        code, out, err = run(argv + ["--delta", "inf"], capsys)
        assert code == 1
        assert out == ""
        assert err == "config error: --delta must be finite: 'inf'\n"

    def test_log_line_step_past_the_float_range(self, capsys):
        code, out, err = run(["growth", "--space", "log_line", "--delta", "2000",
                              "--window", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "budget exceeded: delta-ball around 0 leaves the window " \
                      "[-2097152, 2097152]\n"

    def test_infinite_radius_still_runs(self, capsys):
        code, doc = run_json(
            ["rates", "--space", "int_line", "--n", "0,1", "--radius", "inf"], capsys)
        assert code == 0
        assert doc["report"]["config"]["radius"] == "inf"
        assert [row["count"] for row in doc["report"]["rows"]] == [1, 1]

    def test_infinite_radius_witness_is_an_error(self, capsys):
        code, out, err = run(["witness", "--space", "tree_line", "--delta", "1",
                              "--radius", "inf"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: R must be a positive integer for the tree witness\n"

    def test_covering_bound_past_the_float_range_is_inf(self, capsys):
        # 16 ** (508/2 + 1) = 2 ** 1020 is an exact int; 16 ** (510/2 + 1) =
        # 2 ** 1024 and 16 ** (1001/2 + 1) are past the float range
        code, doc = run_json(["rates", "--space", "ultrametric_product", "--delta", "4",
                              "--radius", "12", "--mode", "dense", "--n", "508,510,1001"],
                             capsys)
        assert code == 0
        bound = doc["report"]["covering_bound"]
        assert (bound["k"], bound["ball_size"]) == (2, 16)
        assert bound["bounds"] == {"508": 16 ** 255, "510": "inf", "1001": "inf"}
        assert doc["report"]["bound_satisfied"] == {"508": True, "510": True, "1001": True}

    def test_covering_bound_of_a_long_series_is_inf(self, capsys):
        # the exact 16 ** 5001 has 6,022 digits, more than an int may print
        code, doc = run_json(["rates", "--space", "ultrametric_product", "--delta", "4",
                              "--radius", "12", "--mode", "dense", "--n", "10000"], capsys)
        assert code == 0
        assert doc["report"]["covering_bound"]["bounds"] == {"10000": "inf"}
        assert [row["count"] for row in doc["report"]["rows"]] == [1]

    def test_infinite_radius_dense_has_no_covering_bound(self, capsys):
        code, doc = run_json(["rates", "--space", "int_line", "--n", "1", "--radius", "inf",
                              "--mode", "dense"], capsys)
        assert code == 0
        assert "covering_bound" not in doc["report"]
        assert [row["count"] for row in doc["report"]["rows"]] == [1]


class TestSpaceResolution:
    def test_space_and_edges_conflict(self, capsys):
        code, _, err = run(
            ["growth", "--space", "int_line", "--edges", "x.csv"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_neither_space_nor_edges(self, capsys):
        code, _, err = run(["growth"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_params_with_edges_rejected(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n0,1\n", encoding="utf-8")
        code, _, err = run(
            ["growth", "--edges", str(path), "--params", "{}"], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_edges_file_classifies_as_finite(self, tmp_path, capsys):
        path = tmp_path / "path4.csv"
        path.write_text("src,dst\n0,1\n1,2\n2,3\n", encoding="utf-8")
        code, doc = run_json(["classify", "--edges", str(path)], capsys)
        assert code == 0
        report = doc["report"]
        assert report["verdict"] == "zero"
        assert report["rule"] == "bounded-components"
        assert report["evidence"]["points"] == 4
        assert report["config"]["edges"] == "path4.csv"
        assert report["config"]["weighted"] is False

    def test_weighted_edges_file(self, tmp_path, capsys):
        path = tmp_path / "wedge.csv"
        path.write_text("src,dst,weight\n0,1,1/2\n1,2,1/2\n", encoding="utf-8")
        code, doc = run_json(["growth", "--edges", str(path), "--window", "4"], capsys)
        assert code == 0
        assert doc["report"]["config"]["weighted"] is True
        # both half-weight edges fit inside one delta=1 step ball
        assert doc["report"]["series"]["values"] == [1, 3, 3, 3, 3]

    def test_missing_edges_file_is_io_error(self, capsys):
        code, _, err = run(
            ["growth", "--edges", "/nonexistent/edges.csv"], capsys)
        assert code == 1
        assert err.startswith("io error:")

    def test_family_over_the_point_budget_is_a_budget_error(self, tmp_path, capsys):
        # n = 1 from the hub of a star with 4,097 leaves: 4,098 paths over
        # 4,098 points, more than the 4,096-point distance table holds
        path = tmp_path / "star.csv"
        path.write_text("src,dst\n" + "".join(f"0,{leaf}\n" for leaf in range(1, 4098)),
                        encoding="utf-8")
        code, out, err = run(["rates", "--edges", str(path), "--n", "1", "--radius", "2"],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("budget exceeded:") and "4098 points" in err

    @pytest.mark.parametrize("argv", [
        ["rates", "--space", "regular_tree", "--params", '{"degree": 3.5}', "--n", "0,2",
         "--radius", "2"],
        ["orbits", "--space", "regular_tree", "--params", '{"degree": 3.5}', "--n", "2"],
        ["growth", "--space", "regular_tree", "--params", '{"degree": 3.5}', "--window", "3"],
        ["classify", "--space", "regular_tree", "--params", '{"degree": 3.5}', "--window", "4"],
        ["bgcheck", "--space", "branch_tree", "--params", '{"max_depth": 6.5}'],
        ["classify", "--space", "branch_tree", "--params", '{"max_depth": 6.5}',
         "--window", "4"],
    ], ids=["rates", "orbits", "growth", "classify", "bgcheck", "classify-branch"])
    def test_non_integer_tree_parameter_is_an_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("edges, argv", [
        (b"src,dst,weight\n0,1,abc\n", ["growth"]),
        (b"src,dst,weight\n0,1,nan\n", ["growth"]),
        (b"src,dst,weight\n0,1,1/0\n", ["growth"]),
        (b"src,dst\n0,\xff\xfe\n", ["growth"]),
        (None, ["classify", "--space", "tree_line", "--params", '{"schedule":[1,"a"]}']),
        (None, ["classify", "--space", "coarse_union", "--params", '{"parts":[{"path":"a"}]}']),
    ], ids=["weight-abc", "weight-nan", "weight-1/0", "not-utf8", "schedule", "union-part"])
    def test_malformed_input_is_an_error_not_a_traceback(self, edges, argv, tmp_path, capsys):
        if edges is not None:
            path = tmp_path / "bad.csv"
            path.write_bytes(edges)
            argv = argv + ["--edges", str(path)]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_measured_flag_must_be_a_bool(self, capsys):
        code, out, err = run(["growth", "--space", "branch_tree",
                              "--params", '{"measured":"false"}'], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: measured must be a bool: 'false'")


class TestOutputPlumbing:
    def test_reports_byte_identical_across_runs(self, capsys):
        argv = ["classify", "--space", "ultrametric_product",
                "--params", '{"max_index": 5}']
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_out_flag_writes_file_and_silences_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, err = run(
            ["growth", "--space", "int_line", "--window", "2",
             "--out", str(target)], capsys)
        assert code == 0 and out == "" and err == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["kind"] == "growth-series"

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run(
            ["growth", "--space", "int_line", "--out", "/nonexistent/dir/report.json"],
            capsys)
        assert code == 1
        assert err.startswith("io error:")

    def test_csv_format_carries_same_numbers(self, tmp_path, capsys):
        argv = ["rates", "--space", "int_line", "--n", "0,2", "--radius", "2"]
        _, json_out, _ = run(argv + ["--format", "json"], capsys)
        _, csv_out, _ = run(argv + ["--format", "csv"], capsys)
        doc = json.loads(json_out)
        rows = list(csv.reader(io.StringIO(csv_out)))
        assert rows[0] == ["field", "value", "decimal"]
        cells = {r[0]: r[1] for r in rows[1:]}
        for i, row in enumerate(doc["report"]["rows"]):
            assert json.loads(cells[f"report.rows[{i}].count"]) == row["count"]
            assert json.loads(cells[f"report.rows[{i}].rate"]) == row["rate"]

    def test_no_command_errors(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert err.startswith("config error:")

    def test_unknown_command_errors(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert err.startswith("config error:")


class TestSharedParser:
    def test_build_parser_returns_a_new_parser_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_keeps_the_parser_it_built(self, capsys):
        run(["growth", "--space", "int_line", "--window", "1"], capsys)
        shared = cli._parser
        run(["growth", "--bogus"], capsys)
        run(["classify", "--space", "int_line", "--window", "4"], capsys)
        assert cli._parser is shared is not None

    def test_import_builds_no_parser_and_main_builds_one(self):
        # a fresh interpreter counts every ArgumentParser made from the import on
        script = (
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    made.append(self)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from coarseentropy import cli\n"
            "print(len(made), cli._parser is None)\n"
            "for argv in ([], ['growth', '--space', 'int_line', '--window', '1'], ['x']):\n"
            "    cli.main(argv)\n"
            "print(len(made), len(made) == len(cli._parser._subparsers._group_actions[0].choices) + 1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=30, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "0 True"
        assert proc.stdout.splitlines()[-1] == "9 True"


# every mapped error prefix of cli.main; anything else is a traceback
MAPPED = ("config error: ", "budget exceeded: ", "unknown point: ", "map check failed: ",
          "error: ", "io error: ")
# 1e-12 and 1e300 also spelled as exact decimals: parse_dist reads both alike
SCALES = ("0", "1e-12", "0.000000000001", "3/2", "1e300", "1" + "0" * 300, "inf", "-inf")
COMMANDS = ("growth", "orbits", "rates", "witness", "classify", "qgcheck", "bgcheck",
            "obstruct")


def flag(name, value, joined):
    """``--name=value``, or ``--name value``: argparse reads a value such as
    -inf in the second form as the next option, which is a usage error."""
    return [f"--{name}={value}"] if joined else [f"--{name}", value]


# integer catalog parameters that no size may turn into a traceback or a
# hang, by tag
HUGE_PARAMS = {"log_line": ("max_abs",), "int_line": ("max_abs",),
               "regular_tree": ("max_depth", "degree"), "tree_line": ("max_line", "max_tree"),
               "branch_tree": ("max_depth",), "prime_cycle": ("max_line",),
               "ultrametric_product": ("max_index",)}
HUGE = (10 ** 8, 10 ** 300)


def report_or_mapped_error(argv):
    """Run argv in process: within 1 s, exit 0, 1 or 2, a mapped prefix on
    exit 1 and a v1 report otherwise.  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), code
    assert elapsed < 1, (argv, elapsed)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(MAPPED), err.getvalue()
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["schema"] == "v1"
    return code


WEIGHTS = ("1", "2", "1/2", "0.25", "5/3", "1e-3")


@st.composite
def edge_file(draw, directory):
    """The path of a small random edge CSV, weighted or not, written under
    ``directory``: up to 12 edges on vertices 0..7."""
    weighted = draw(st.booleans())
    edges = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] != e[1]), min_size=1, max_size=12))
    rows = ["src,dst,weight" if weighted else "src,dst"]
    rows += [f"{a},{b},{draw(st.sampled_from(WEIGHTS))}" if weighted else f"{a},{b}"
             for a, b in edges]
    path = directory / f"edges{len(list(directory.iterdir()))}.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@st.composite
def cli_argv(draw, huge=False, edges=None):
    """A random argv; with ``huge``, on a space of ``HUGE_PARAMS`` with one
    of its parameters at a size from ``HUGE``; with ``edges``, a strategy of
    edge file paths, on one of those files."""
    command = draw(st.sampled_from(COMMANDS))
    if edges is not None:
        argv = [command, "--edges", draw(edges)]
    else:
        tag = draw(st.sampled_from(sorted(HUGE_PARAMS) if huge else CATALOG_TAGS))
        argv = [command, "--space", tag]
    if huge:
        key = draw(st.sampled_from(HUGE_PARAMS[tag]))
        argv += ["--params", json.dumps({key: draw(st.sampled_from(HUGE))})]
    scale = st.sampled_from(SCALES)
    joined = st.booleans()
    argv += flag("delta", draw(scale), draw(joined))
    if command in ("rates", "witness", "bgcheck"):
        argv += flag("radius", draw(scale), draw(joined))
    if command in ("orbits", "rates"):
        argv += ["--n", str(draw(st.integers(0, 3)))]
    if command in ("growth", "classify", "bgcheck", "obstruct"):
        argv += ["--window", str(draw(st.integers(0, 4)))]
    if command == "witness":
        argv += ["--p", str(draw(st.integers(0, 2)))]
    if command == "obstruct":
        argv += ["--target-space", draw(st.sampled_from(CATALOG_TAGS))]
    if draw(st.booleans()):
        argv.append("--strict")
    return argv


class TestFuzz:
    """Every command on every catalog space at extreme scales, all in this
    one process, so the shared parser also serves each argv after errors."""

    def test_every_argv_ends_in_a_report_or_a_mapped_error(self):
        seen = []

        @seed(20)
        @settings(max_examples=400, deadline=None, database=None)
        @given(argv=cli_argv())
        def case(argv):
            seen.append((argv[0], argv[2], report_or_mapped_error(argv)))

        case()
        assert {c for c, _, _ in seen} == set(COMMANDS)
        assert {t for _, t, _ in seen} == set(CATALOG_TAGS)
        assert {code for _, _, code in seen} == {0, 1, 2}

    def test_huge_integer_parameters_end_in_a_report_or_a_mapped_error(self):
        seen = []

        @seed(21)
        @settings(max_examples=200, deadline=None, database=None)
        @given(argv=cli_argv(huge=True))
        def case(argv):
            report_or_mapped_error(argv)
            seen.append((argv[2], argv[4]))

        case()
        assert set(seen) == {(tag, json.dumps({key: value}))
                             for tag, keys in HUGE_PARAMS.items() for key in keys
                             for value in HUGE}

    def test_edge_files_end_in_a_report_or_a_mapped_error(self, tmp_path):
        seen = []

        @seed(22)
        @settings(max_examples=150, deadline=None, database=None)
        @given(argv=cli_argv(edges=edge_file(tmp_path)))
        def case(argv):
            weighted = Path(argv[2]).read_text().startswith("src,dst,weight")
            seen.append((argv[0], weighted, report_or_mapped_error(argv)))

        case()
        assert {c for c, _, _ in seen} == set(COMMANDS)
        assert {w for _, w, _ in seen} == {False, True}
        assert {code for _, _, code in seen} == {0, 1, 2}

    def test_a_huge_step_on_a_huge_line_ends(self):
        # one step moves 10**300 either way: refused before its neighbour
        # list is built
        assert report_or_mapped_error(
            ["rates", "--space", "int_line", "--params", json.dumps({"max_abs": 10 ** 300}),
             "--delta=1e300", "--radius=1e300", "--n", "3"]) == 1

    @pytest.mark.parametrize("delta", [10 ** 9, 10 ** 20, 10 ** 40])
    def test_a_huge_window_at_a_huge_separation_ends(self, delta):
        # bgcheck on prime_cycle looks for the smallest prime above delta
        report_or_mapped_error(["bgcheck", "--space", "prime_cycle", "--params",
                                json.dumps({"max_line": 10 ** 300}), "--delta", str(delta)])
