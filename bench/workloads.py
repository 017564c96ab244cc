"""The three benchmark workloads: seeded inputs, operation lists and the
independent output checks.

Each workload is built by ``build(name, seed, out_dir)`` into a
:class:`Workload`: a list of operations run in closed-loop order (each
starts when the previous one has finished) plus a ``check`` function that
re-derives the expected answers without the program's own verifiers.
``build`` makes the spaces, which is what a CLI call pays before any work;
``Workload.generate`` then draws the benchmark's own seeded inputs.

Every call into the package goes through a module attribute looked up at
call time (``ce.rate_series``, ``cli.main``), so the tracer's rebinding of
module-level aliases also covers the calls made from here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

import coarseentropy as ce
from coarseentropy import cli

# how many pairs / items a sampled re-check of a selection looks at
SAMPLE_PAIRS = 200
# re-derive selections only for families up to this many paths (checks run
# after the timed region, but every run pays for them)
RECHECK_PATH_LIMIT = 20_000
# exact answers on at most this many items are recomputed by brute force
SEPARATED_BRUTE_FORCE_LIMIT = 30
DENSE_BRUTE_FORCE_LIMIT = 12
# random finite metrics per pass in exact-rational; sizes cycle through 2..40
RANDOM_METRICS = 320


@dataclass
class Op:
    """One operation: ``call()`` does the timed work, ``render(result)``
    gives the canonical text compared byte for byte across passes, and
    ``exact(result)`` lists, for each certified answer in the result,
    whether it is exact."""

    label: str
    call: Callable[[], Any]
    render: Callable[[Any], str]
    exact: Callable[[Any], List[bool]] = field(default=lambda result: [])


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # check(results by label) -> {label: [failure messages]}
    check: Callable[[Dict[str, Any]], Dict[str, List[str]]]
    # draws the seeded inputs that only the benchmark builds (no package
    # code), adding their operations; run after set-up, before any pass
    generate: Callable[[], None] = lambda: None


class CliFailure(Exception):
    """The in-process CLI returned a non-zero exit status."""


def run_cli(argv: Sequence[str]) -> str:
    """Run ``coarseentropy.cli.main`` in process and return its report text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


def _render_rates(table) -> str:
    doc = {k: v for k, v in table.items() if k != "points"}
    doc["points"] = [p.to_jsonable() for p in table["points"]]
    return _json(doc)


def _exact_rates(table) -> List[bool]:
    return [p.certificate == "exact" for p in table["points"]]


def _render_extremal(res) -> str:
    return _json([res.mode, str(res.R), res.size, list(res.selected), res.certificate,
                  sorted(res.stats.items())])


def _render_ratepoint(pt) -> str:
    return _json(pt.to_jsonable())


def _cli_classify_exact(text: str) -> List[bool]:
    return [bool(json.loads(text)["report"]["certified"])]


def _fail(failures: Dict[str, List[str]], label: str, message: str) -> None:
    failures.setdefault(label, []).append(message)


def _sup_distance(space, u, v):
    """Orbit (sup) distance recomputed from the space's exact distance."""
    return max(space.distance(a, b) for a, b in zip(u, v))


def _recheck_selection(failures, label, space, n, delta, R, mode, point, rng,
                       exact_limit: Optional[int] = None) -> None:
    """Re-derive the selection behind a reported count and brute-force a
    sample of its pairs (separated) or of the family's items (dense)."""
    orbits = ce.enumerate_orbits(space, space.basepoint, n, delta)
    paths = [p.points for p in orbits.paths]
    items = ce.MetricItems.from_orbits(space, orbits.paths)
    solve = ce.max_separated if mode == "separated" else ce.min_dense
    res = solve(items, R) if exact_limit is None else solve(items, R, exact_limit=exact_limit)
    if (res.size, res.certificate) != (point.count, point.certificate):
        _fail(failures, label, f"n={n}: re-derived {res.size}/{res.certificate}, "
                               f"reported {point.count}/{point.certificate}")
        return
    sel = list(res.selected)
    if mode == "separated":
        pairs = [(a, b) for i, a in enumerate(sel) for b in sel[i + 1:]]
        for a, b in rng.sample(pairs, min(SAMPLE_PAIRS, len(pairs))):
            d = ce.orbit_distance(paths[a], paths[b], space)
            if not (space.ge(d, R) and d == _sup_distance(space, paths[a], paths[b])):
                _fail(failures, label, f"n={n}: selected paths {a},{b} at {d} < R={R}")
                return
    else:
        for i in rng.sample(range(len(paths)), min(SAMPLE_PAIRS, len(paths))):
            if not any(space.lt(_sup_distance(space, paths[i], paths[c]), R) for c in sel):
                _fail(failures, label, f"n={n}: path {i} is not within R={R} of the cover")
                return
    limit = SEPARATED_BRUTE_FORCE_LIMIT if mode == "separated" else DENSE_BRUTE_FORCE_LIMIT
    if res.certificate == "exact" and len(paths) <= limit:
        best = _brute_force_optimum(
            len(paths), lambda a, b: space.lt(_sup_distance(space, paths[a], paths[b]), R), mode)
        if best != res.size:
            _fail(failures, label, f"n={n}: exact count {res.size}, brute force {best}")


def _brute_force_optimum(n: int, close: Callable[[int, int], bool], mode: str) -> int:
    """Largest set with no close pair (take-or-skip branching) or smallest
    set every item is close to or in (all subsets by increasing size)."""
    if mode == "dense":
        for k in range(1, n + 1):
            for centers in itertools.combinations(range(n), k):
                if all(i in centers or any(close(i, c) for c in centers) for i in range(n)):
                    return k
        return 0
    conflicts = [frozenset(b for b in range(n) if b != a and close(a, b)) for a in range(n)]
    best = 0

    def grow(candidates: frozenset, size: int) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = size
            return
        v = min(candidates)
        grow(candidates - conflicts[v] - {v}, size + 1)
        grow(candidates - {v}, size)

    grow(frozenset(range(n)), 0)
    return best


def _check_sandwich(failures, label, s2R, rR, sR) -> None:
    """s(n, 2R) <= r(n, R) <= s(n, R).

    A separated count never exceeds the true value and a dense count is
    never below it, so the left inequality holds for any certificates; the
    right one is only implied when both sides are exact."""
    if s2R is not None and rR is not None and s2R[0] > rR[0]:
        _fail(failures, label, f"s(2R)={s2R[0]} > r(R)={rR[0]}")
    if rR is not None and sR is not None and rR[1] == sR[1] == "exact" and rR[0] > sR[0]:
        _fail(failures, label, f"exact r(R)={rR[0]} > exact s(R)={sR[0]}")


# ---------------------------------------------------------------------------
# orbit-families: large path families, vectorised greedy solvers and verifiers


INT_LINE_NS = (0, 3, 6, 9, 10)
TREE_NS = (0, 2, 4, 6)
ORBITS_N = 10


def _tree_walks(n: int, degree: int = 3) -> int:
    """Number of n-step paths (standing still allowed) from the root of the
    degree-d tree, by a walk count over depths."""
    counts = {0: 1}
    for _ in range(n):
        nxt: Dict[int, int] = {}
        for depth, c in counts.items():
            moves = [(depth, 1), (depth + 1, degree if depth == 0 else degree - 1)]
            if depth > 0:
                moves.append((depth - 1, 1))
            for d, mult in moves:
                nxt[d] = nxt.get(d, 0) + c * mult
        counts = nxt
    return sum(counts.values())


def _orbit_families(seed: int, out_dir: str) -> Workload:
    line = ce.make_example("int_line")
    tree = ce.make_example("regular_tree")
    paths_out = os.path.join(out_dir, "orbits-paths.jsonl")
    ops: List[Op] = []
    # (label, space, R, ns, mode, closed-form path count, step-ball volume V(k))
    rate_specs = []
    for mode in ("dense", "separated"):
        rate_specs.append((f"rates int_line {mode}", line, 4, INT_LINE_NS, mode,
                           lambda n: 3 ** n, lambda k: 2 * k + 1))
        rate_specs.append((f"rates regular_tree {mode}", tree, 2, TREE_NS, mode,
                           _tree_walks, lambda k: 3 * 2 ** k - 2))
    for label, space, R, ns, mode, _walks, _vol in rate_specs:
        ops.append(Op(label,
                      lambda s=space, R=R, ns=ns, m=mode:
                          ce.rate_series(s, s.basepoint, 1, R, list(ns), mode=m),
                      _render_rates, _exact_rates))

    def orbits_call():
        return run_cli(["orbits", "--space", "int_line", "--n", str(ORBITS_N),
                        "--paths-out", paths_out])

    def orbits_render(text):
        with open(paths_out, "rb") as fh:
            return text + hashlib.sha256(fh.read()).hexdigest()

    ops.append(Op("cli orbits int_line --paths-out", orbits_call, orbits_render))

    def check(results):
        rng = random.Random(seed)
        failures: Dict[str, List[str]] = {}
        by_key = {}
        for label, space, R, ns, mode, walks, vol in rate_specs:
            table = results[label]
            points = table["points"]
            if [p.n for p in points] != list(ns):
                _fail(failures, label, "rows do not match the requested lengths")
                continue
            for p in points:
                by_key[(space.name, p.n, mode)] = (p.count, p.certificate)
                if p.n > 0 and p.stats.get("paths") != walks(p.n):
                    _fail(failures, label, f"n={p.n}: {p.stats.get('paths')} paths, "
                                           f"expected {walks(p.n)}")
            if mode == "dense":
                k = R - 1  # R = (k + 1) * delta with delta = 1
                bound = table.get("covering_bound")
                if bound is None or bound["k"] != k or bound["ball_size"] != vol(k):
                    _fail(failures, label, f"covering bound missing or wrong: {bound}")
                for p in points:
                    limit = vol(k) ** (p.n // k + 1) if p.n % k == 0 else \
                        float(vol(k)) ** (p.n / k + 1)
                    if p.count > limit:
                        _fail(failures, label, f"n={p.n}: dense count {p.count} exceeds "
                                               f"the ball-volume bound")
            for p in points:
                if 0 < p.n and walks(p.n) <= RECHECK_PATH_LIMIT:
                    _recheck_selection(failures, label, space, p.n, 1, R, mode, p, rng)
        for label, space, R, ns, mode, _w, _v in rate_specs:
            if mode == "dense":
                for n in ns:
                    _check_sandwich(failures, label, None, by_key.get((space.name, n, "dense")),
                                    by_key.get((space.name, n, "separated")))

        label = "cli orbits int_line --paths-out"
        report = json.loads(results[label])["report"]
        if (report["count"], report["distinct_endpoints"], report["exhaustive"]) != \
                (3 ** ORBITS_N, 2 * ORBITS_N + 1, True):
            _fail(failures, label, f"summary {report} does not match 3^n paths, 2n+1 ends")
        with open(paths_out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        body = lines[1:]
        if header.get("count") != 3 ** ORBITS_N or len(body) != 3 ** ORBITS_N \
                or len(set(body)) != len(body):
            _fail(failures, label, "paths file does not hold 3^n distinct paths")
        for line_text in rng.sample(body, min(SAMPLE_PAIRS, len(body))):
            pts = json.loads(line_text)
            if len(pts) != ORBITS_N + 1 or pts[0] != 0 or \
                    any(abs(a - b) > 1 for a, b in zip(pts, pts[1:])):
                _fail(failures, label, f"paths file holds an invalid 1-path: {pts}")
                break
        return failures

    return Workload("orbit-families", ops, check)


# ---------------------------------------------------------------------------
# ball-growth: step balls, point masses and the classifier; no extremal solve


GROWTH_L_MAX = 7
EXPECTED_VERDICTS = {
    # tag -> (verdict, certified)
    "regular_tree": ("infinite", False),
    "tree_line": ("infinite", True),
    "int_line": ("zero", False),
    "prime_cycle": ("zero", True),
}


def _ball_growth(seed: int, out_dir: str) -> Workload:
    measured = ce.make_example("branch_tree", {"max_depth": 8, "measured": True})
    ops: List[Op] = [
        Op("growth_series branch_tree measured",
           lambda: ce.growth_series(measured, l_max=GROWTH_L_MAX),
           lambda g: _json(g.to_jsonable())),
        # the measured-volume rule computes the series up to l = 8 itself
        Op("classify branch_tree measured",
           lambda: ce.classify(measured),
           lambda r: _json(r.to_jsonable()),
           lambda r: [r.certified]),
    ]
    classify_argv = {
        "regular_tree": ["--params", '{"max_depth":15}', "--window", "14"],
        "tree_line": [],
        "int_line": [],
        "prime_cycle": [],
    }
    for tag, extra in classify_argv.items():
        ops.append(Op(f"cli classify {tag}",
                      lambda tag=tag, extra=extra: run_cli(["classify", "--space", tag] + extra),
                      str, _cli_classify_exact))
    ops.append(Op("cli bgcheck branch_tree",
                  lambda: run_cli(["bgcheck", "--space", "branch_tree"]), str))
    ops.append(Op("cli qgcheck log_line",
                  lambda: run_cli(["qgcheck", "--space", "log_line"]), str))

    def check(results):
        failures: Dict[str, List[str]] = {}
        # the root ball of radius l is the depth-l subtree: mass 2^(l+1) - 1
        label = "growth_series branch_tree measured"
        g = results[label].to_jsonable()
        label_c = "classify branch_tree measured"
        r = results[label_c]
        if (r.verdict, r.rule, r.certified) != ("infinite", "measured-volume", True):
            _fail(failures, label_c, f"verdict {r.verdict}/{r.rule}/{r.certified}")
        for lab, series in ((label, g), (label_c, r.evidence.get("series"))):
            if series is None or series["measure"] != "measured" or \
                    series["values"] != [2 ** (l + 1) - 1 for l in series["levels"]] or \
                    series["levels"] != list(range(len(series["levels"]))):
                _fail(failures, lab, "root ball masses are not 2^(l+1) - 1")
        if len(g["levels"]) != GROWTH_L_MAX + 1:
            _fail(failures, label, "wrong number of levels")
        for tag, (verdict, certified) in EXPECTED_VERDICTS.items():
            label = f"cli classify {tag}"
            report = json.loads(results[label])["report"]
            if (report["verdict"], report["certified"]) != (verdict, certified):
                _fail(failures, label, f"verdict {report['verdict']}/{report['certified']}, "
                                       f"expected {verdict}/{certified}")
            series = report.get("evidence", {}).get("series")
            if tag == "int_line":
                expected = [2 * l + 1 for l in range(33)]
            elif tag == "regular_tree":
                expected = [3 * 2 ** l - 2 for l in range(15)]
            else:
                continue
            if series is None or series["values"] != expected:
                _fail(failures, label, "growth series does not match its closed form")
        label = "cli bgcheck branch_tree"
        report = json.loads(results[label])["report"]
        # children of a depth-k vertex: k + 2 points, pairwise at distance 2
        if report["verdict"] != "unbounded-evidence" or not report["witnessed"] or \
                report["sizes"] != [d + 2 for d in report["depths"]]:
            _fail(failures, label, f"sizes {report['sizes']} at depths {report['depths']}")
        label = "cli qgcheck log_line"
        report = json.loads(results[label])["report"]
        rows = report["pairs"]
        oks = [isinstance(r["hops"], int) and r["hops"] <= r["budget"] for r in rows]
        if report["verdict"] != "fails" or oks != [r["ok"] for r in rows] or all(oks):
            _fail(failures, label, "quasi-geodesic rows disagree with their hop budgets")
        return failures

    return Workload("ball-growth", ops, check)


# ---------------------------------------------------------------------------
# exact-rational: exact branch and bound and the scalar Fraction path


GRAPH_VERTICES = 20
GRAPH_NS = (2, 3, 5, 7)
GRAPH_R = Fraction(3, 2)
WITNESS_P = 3


def random_metric(rng: random.Random, n: int, scale: int = 12) -> List[List[int]]:
    """Random integer weights closed under shortest paths: an exact metric."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, scale)
    for k in range(n):
        row_k = d[k]
        for i in range(n):
            dik = d[i][k]
            row_i = d[i]
            for j in range(n):
                v = dik + row_k[j]
                if v < row_i[j]:
                    row_i[j] = v
    return d


def _exact_rational(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    ops: List[Op] = []
    metrics: List[tuple] = []  # (size, distance matrix, R), drawn by generate()

    def generate():
        metric_ops: List[Op] = []
        for k in range(RANDOM_METRICS):
            n = 2 + k % 39
            d, R = random_metric(rng, n), rng.randint(1, 14)
            metrics.append((n, d, R))

            def items(n=n, d=d):
                return ce.MetricItems(list(range(n)), lambda i, j: d[i][j])
            metric_ops.append(Op(f"metric {k} max_separated R", lambda items=items, R=R:
                                 ce.max_separated(items(), R), _render_extremal,
                                 lambda r: [r.certificate == "exact"]))
            metric_ops.append(Op(f"metric {k} max_separated 2R", lambda items=items, R=R:
                                 ce.max_separated(items(), 2 * R), _render_extremal,
                                 lambda r: [r.certificate == "exact"]))
            if n <= 25:
                metric_ops.append(Op(f"metric {k} min_dense R", lambda items=items, R=R:
                                     ce.min_dense(items(), R), _render_extremal,
                                     lambda r: [r.certificate == "exact"]))
        ops[:0] = metric_ops

    # a cycle with Fraction weights in (1/2, 1]: with delta = 1 the
    # successors of a vertex are exactly its graph neighbours, so a family
    # of n-step paths has 3^n members whatever the seed draws
    edges = [(v, (v + 1) % GRAPH_VERTICES, Fraction(rng.randint(51, 100), 100))
             for v in range(GRAPH_VERTICES)]
    graph_specs = []
    for n in GRAPH_NS:
        for mode, R in (("separated", GRAPH_R), ("separated", 2 * GRAPH_R), ("dense", GRAPH_R)):
            label = f"weighted cycle n={n} {mode} R={R}"
            graph_specs.append((label, n, mode, R))
            # the graph is built inside the operation: its distance cache
            # would otherwise carry over from one pass to the next
            ops.append(Op(label, lambda n=n, mode=mode, R=R: (
                ce.separated_count if mode == "separated" else ce.dense_count)(
                    ce.build_weighted_graph(edges), 0, n, 1, R),
                _render_ratepoint, lambda p: [p.certificate == "exact"]))

    line = ce.make_example("int_line")
    bb_label = "separated_count int_line n=4 R=2 exact_limit=96"
    ops.append(Op(bb_label, lambda: ce.separated_count(line, 0, 4, 1, 2, exact_limit=96),
                  _render_ratepoint, lambda p: [p.certificate == "exact"]))
    witness_label = "cli witness tree_line csv"
    ops.append(Op(witness_label,
                  lambda: run_cli(["witness", "--space", "tree_line", "--p", str(WITNESS_P),
                                   "--format", "csv"]), str))

    def check(results):
        crng = random.Random(seed ^ 0x5EED)
        failures: Dict[str, List[str]] = {}
        for k, (n, d, R) in enumerate(metrics):
            sR = results[f"metric {k} max_separated R"]
            s2R = results[f"metric {k} max_separated 2R"]
            rR = results.get(f"metric {k} min_dense R")
            for res, radius, which in ((sR, R, "R"), (s2R, 2 * R, "2R")):
                sel = list(res.selected)
                if res.certificate != "exact" or len(sel) != res.size or \
                        any(d[a][b] < radius for i, a in enumerate(sel) for b in sel[i + 1:]):
                    _fail(failures, f"metric {k} max_separated {which}",
                          f"not an exact {radius}-separated set: {sel}")
            label = f"metric {k} min_dense R" if rR is not None else \
                f"metric {k} max_separated 2R"
            if rR is not None:
                sel = list(rR.selected)
                if rR.certificate != "exact" or len(sel) != rR.size or \
                        any(all(d[i][c] >= R for c in sel) for i in range(n)):
                    _fail(failures, label, f"not an exact {R}-dense set: {sel}")
            _check_sandwich(failures, label, (s2R.size, s2R.certificate),
                            None if rR is None else (rR.size, rR.certificate),
                            (sR.size, sR.certificate))
            if n <= SEPARATED_BRUTE_FORCE_LIMIT:
                best = _brute_force_optimum(n, lambda a, b: d[a][b] < R, "separated")
                if best != sR.size:
                    _fail(failures, f"metric {k} max_separated R",
                          f"size {sR.size}, brute force {best}")
                if rR is not None and n <= DENSE_BRUTE_FORCE_LIMIT:
                    best = _brute_force_optimum(n, lambda a, b: d[a][b] < R, "dense")
                    if best != rR.size:
                        _fail(failures, label, f"size {rR.size}, brute force {best}")

        counts = {}
        for label, n, mode, R in graph_specs:
            pt = results[label]
            counts[(n, mode, R)] = (pt.count, pt.certificate)
            if pt.stats.get("paths") != 3 ** n:
                _fail(failures, label, f"{pt.stats.get('paths')} paths, expected 3^{n}")
            _recheck_selection(failures, label, ce.build_weighted_graph(edges), n, 1, R,
                               mode, pt, crng)
        for n in GRAPH_NS:
            _check_sandwich(failures, f"weighted cycle n={n} dense R={GRAPH_R}",
                            counts[(n, "separated", 2 * GRAPH_R)],
                            counts[(n, "dense", GRAPH_R)], counts[(n, "separated", GRAPH_R)])

        pt = results[bb_label]
        if pt.stats.get("paths") != 81 or pt.certificate != "exact":
            _fail(failures, bb_label, f"expected an exact count over 81 paths: {pt}")
        else:
            _recheck_selection(failures, bb_label, line, 4, 1, 2, "separated", pt, crng,
                               exact_limit=96)
        rows = {row["field"]: row["value"]
                for row in csv.DictReader(io.StringIO(results[witness_label]))}
        fam = {key.split(".")[-1]: json.loads(v) for key, v in rows.items()
               if key.startswith("report.family.")}
        n_expected = fam.get("base_length", 0) + 2 * WITNESS_P * fam.get("arm_length", 0)
        if fam.get("size") != 16 ** WITNESS_P or fam.get("arms") != 16 or \
                fam.get("n") != n_expected or \
                json.loads(rows.get("report.verification", "null")) != "pairwise-exhaustive" or \
                not math.isclose(fam.get("rate_bound", 0.0),
                                 WITNESS_P * math.log(16) / n_expected, rel_tol=1e-12):
            _fail(failures, witness_label, f"witness family {fam} is not 16^p members")
        return failures

    return Workload("exact-rational", ops, check, generate)


_BUILDERS = {
    "orbit-families": _orbit_families,
    "ball-growth": _ball_growth,
    "exact-rational": _exact_rational,
}


def build(name: str, seed: int, out_dir: str) -> Workload:
    """Build the workload's spaces and operations for ``seed``; call
    ``generate()`` on the result before running it."""
    return _BUILDERS[name](seed, out_dir)
