"""coarseentropy benchmark: three seeded workloads, end-to-end metrics with
tracing off, a per-layer split with tracing on.

Usage, from the root of a checkout::

    python3 bench/run.py --workload orbit-families --seed 1 --seconds 20 --trace 0

and, for every workload in turn::

    for w in orbit-families ball-growth exact-rational; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0; done

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``orbit-families``: ``rate_series`` on large int_line and regular-tree
  path families, and CLI ``orbits --paths-out``;
* ``ball-growth``: growth series and classifier on the measured branching
  tree, CLI ``classify``/``bgcheck``/``qgcheck`` on catalog spaces;
* ``exact-rational``: exact branch and bound on seeded random metrics,
  Fraction-weighted graphs, and CLI ``witness``.

Every run starts fresh worker processes one at a time (``bench/worker.py``)
with one BLAS/OpenMP thread.  With ``--trace 0`` it reports

* ``wall_s``: one closed-loop pass over the workload's operations, median
  over the timed passes that fit in ``--seconds`` (one warm-up pass first);
* ``setup_s``: fresh-process ``import coarseentropy`` plus building the
  workload's spaces, median of several processes started before and after
  the measuring one;
* ``peak_rss_mb``: peak resident memory of the process that ran the passes;
* ``exact_share``: exact answers over certified answers (counts whose
  certificate is ``exact``, classifier verdicts that are certified).

``wall_s`` and ``setup_s`` are scaled to the reference speed of
``bench/speed.py``: every stretch of about 0.25 s of operations, and every
set-up, is divided by the machine's speed measured by a fixed probe next to
it.  On a shared VM whose speed swings by a third the raw times do too; the
scaled ones follow the program.  The raw medians are printed as well.

Failed operations (an unmapped exception, a failed independent check, or
output that changed between passes) are counted in ``failed`` and reported
as ``failed_ops_share``.  With ``--trace 1`` it reports the per-layer
metrics of ``bench/tracing.py``, medians over traced passes that alternate
with untraced ones in the same process.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it and ``bench/results/`` hold the context and details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("orbit-families", "ball-growth", "exact-rational")
# set-up processes before and after the measuring one, so that a drift of
# the machine's speed during a run reaches the median from both ends
SETUP_RUNS_EACH_SIDE = 4
# workers past these many seconds are killed, so that a run ends within 180 s
SETUP_TIMEOUT = 5
WORKER_TIMEOUT = 130


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


class WorkerError(Exception):
    """A worker process failed, timed out or printed no report."""


def _worker(args, extra, timeout) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(RESULTS)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no report:\n{proc.stdout[-2000:]}") from exc


def _context() -> dict:
    lines = 0
    for path in sorted((SRC / "coarseentropy").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            revision = ref
    return {"nproc": len(os.sched_getaffinity(0)), "src_lines": lines,
            "git_revision": revision}


def _high_percentile(samples):
    """(percentile, value) of the highest sample with ten samples beyond
    it, or None unless that sample lies above the median."""
    n = len(samples)
    if n < 22:
        return None
    index = n - 11
    return 100 * (index + 1) // n, sorted(samples)[index]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "coarseentropy" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'coarseentropy'}; run from a checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    context = _context()
    setups = []  # reports of the set-up processes

    def set_up():
        if not args.trace:
            setups.extend(_worker(args, ["--setup-only"], SETUP_TIMEOUT)
                          for _ in range(SETUP_RUNS_EACH_SIDE))

    try:
        set_up()
        report = _worker(args, [], WORKER_TIMEOUT)
        set_up()
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    context.update({k: report[k] for k in ("python", "numpy")})
    context.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace})

    passes = report["scaled_pass_s"]
    attempted, failed = report["attempted"], report["failed"]
    details = {
        "passes": len(passes),
        "scaled_pass_s": passes,
        "warmup_s": report["warmup_s"],
        "failed_ops_share": failed / attempted,
        "exact_answers": report["exact_answers"],
        "certified_answers": report["certified_answers"],
        "messages": report["messages"],
    }
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in report["per_layer"].items()}
        details.update({"scaled_traced_pass_s": report["scaled_traced_pass_s"],
                        "spans": report["spans"], "spans_file": report["spans_file"],
                        "patched_attributes": report["patched_attributes"]})
    else:
        share = report["exact_answers"] / max(1, report["certified_answers"])
        metrics = {
            "wall_s": (statistics.median(passes), "s"),
            "setup_s": (statistics.median(s["scaled_setup_s"] for s in setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "exact_share": (share, "ratio"),
        }
        measured = {"wall_s": statistics.median(report["pass_s"]),
                    "setup_s": statistics.median(s["setup_s"] for s in setups)}
        high = _high_percentile(passes)
        details.update({
            "pass_s": report["pass_s"],
            "scaled_setup_s": [s["scaled_setup_s"] for s in setups],
            "setup_s": [s["setup_s"] for s in setups],
            "measured_median": measured,
            "op_median_s": report["op_median_s"],
            "wall_s_high_percentile": high,
        })

    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "details": details,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  fh, indent=2, sort_keys=True)

    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:16.6f} {unit}")
    if not args.trace:
        note = "no percentile has ten samples beyond it" if high is None else \
            f"p{high[0]} = {high[1]:.6f} s"
        print(f"{'wall_s samples':42s} {len(passes):16d} passes; {note}")
        for name, value in measured.items():
            print(f"{name + ' as measured, unscaled':42s} {value:16.6f} s")
        print(f"{'exact_share base':42s} {report['certified_answers']:16d} certified answers")
    print(f"{'failed_ops_share':42s} {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} operations)")
    for message in report["messages"]:
        print(f"failure: {message}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
