"""One benchmark process: set up a workload, run its passes, check outputs.

Started by ``run.py`` in a fresh interpreter, one at a time, with the
package's ``src`` directory on ``PYTHONPATH``.  Prints one JSON object as
its last line of standard output.

Usage::

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --out-dir DIR [--setup-only]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402  (numpy, which the package imports anyway)

# at most this many failure messages travel back to run.py
MAX_MESSAGES = 20
# a traced run measures at least this many untraced/traced pass pairs
MIN_PAIRS = 3
# set-up takes a fraction of a second, so it samples the speed more often
SETUP_SAMPLE_S = 0.01
# a set-up or pass too short for a sample probes its speed this many times
PROBE_REPEATS = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Runner:
    """Runs passes over a workload's operations and keeps what the checks
    and the byte-identity comparison need."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}      # label -> result of the warm-up pass
        self.digests = {}        # label -> digest of the warm-up result
        self.messages = {}       # label -> failure messages
        self.executions = []     # (label, ok) for every timed operation

    def fail(self, label, message):
        self.messages.setdefault(label, []).append(message)

    def run_pass(self, tracer=None, timed=True):
        """One closed-loop pass.  Returns the summed operation time, the
        same scaled to the reference speed of ``speed.py``, and the
        per-operation times; the probes' own time is left out of all."""
        total = 0.0
        op_times = {}
        with speed.Sampler() as sampler:
            for op in self.workload.ops:
                spent = sampler.spent
                start = time.perf_counter()
                ok = True
                try:
                    if tracer is None:
                        result = op.call()
                        seconds = time.perf_counter() - start
                    else:
                        result, seconds = tracer.call_op(op.label, op.call)
                except Exception as exc:  # a raised error is a failed operation
                    seconds = time.perf_counter() - start
                    self.fail(op.label, f"raised {type(exc).__name__}: {exc}")
                    ok = False
                seconds -= sampler.spent - spent
                total += seconds
                op_times[op.label] = seconds
                if ok:
                    digest = hashlib.sha256(op.render(result).encode("utf-8")).hexdigest()
                    if op.label not in self.digests:
                        self.digests[op.label] = digest
                        self.reference[op.label] = result
                    elif digest != self.digests[op.label]:
                        self.fail(op.label, "output differs from an earlier pass")
                        ok = False
                if timed:
                    self.executions.append((op.label, ok))
        probes = sampler.samples or [speed.probe(PROBE_REPEATS)]
        return total, speed.scale(total, probes), op_times

    def failed(self, check_failures):
        """Failed timed operations: raised, changed output, or an output
        that failed an independent check (then it failed in every pass)."""
        bad = set(check_failures)
        count = sum(1 for label, ok in self.executions if not ok or label in bad)
        labels = {op.label for op in self.workload.ops}
        return min(len(self.executions), count + len(bad - labels))

    def run_passes(self, budget):
        """Timed passes until the next one would end past ``budget`` seconds
        (at least one); returns pass times, scaled pass times and per-op
        times."""
        times, scaled, op_samples, ends = [], [], {}, [time.perf_counter()]
        while True:
            gc.collect()  # every pass starts from the same collector state
            total, total_scaled, op_times = self.run_pass()
            ends.append(time.perf_counter())
            times.append(total)
            scaled.append(total_scaled)
            for label, t in op_times.items():
                op_samples.setdefault(label, []).append(t)
            lengths = [b - a for a, b in zip(ends, ends[1:])]
            if ends[-1] - ends[0] + statistics.median(lengths) > budget:
                return times, scaled, op_samples

    def run_paired(self, budget, tracer, patches):
        """Pairs of one untraced and one traced pass until the next pair
        would end past ``budget`` seconds (at least ``MIN_PAIRS``).  The
        order within a pair alternates, so that a drift of the machine's
        speed does not land on one side; returns both lists of scaled pass
        times."""
        plain, traced, start = [], [], time.perf_counter()
        while True:
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for with_trace in order:
                gc.collect()
                if with_trace:
                    patches.apply()
                    tracer.begin_pass(len(traced))
                    total, scaled, _ = self.run_pass(tracer)
                    tracer.end_pass(scaled / total)
                    traced.append(scaled)
                    patches.revert()
                else:
                    plain.append(self.run_pass()[1])
            elapsed = time.perf_counter() - start
            if len(plain) >= MIN_PAIRS and elapsed * (1 + 1 / len(plain)) > budget:
                return plain, traced


def main(argv=None) -> int:
    args = _parse(argv)
    with speed.Sampler(SETUP_SAMPLE_S) as sampler:
        import workloads  # imports the package: part of the set-up time

        workload = workloads.build(args.workload, args.seed, args.out_dir)
    setup_s = time.perf_counter() - _T0 - sampler.spent
    if args.setup_only:
        probes = sampler.samples or [speed.probe(PROBE_REPEATS)]
        print(json.dumps({"setup_s": setup_s, "scaled_setup_s": speed.scale(setup_s, probes)}))
        return 0
    workload.generate()  # the harness's own inputs: after set-up, before any pass

    import numpy

    runner = Runner(workload)
    warm_s = runner.run_pass(timed=False)[0]
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "warmup_s": warm_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        plain, traced = runner.run_paired(args.seconds, tracer, patches)
        per_layer = tracing.summarize(tracer, plain, traced)
        spans_path = os.path.join(args.out_dir,
                                  f"spans-{workload.name}-seed{args.seed}.jsonl")
        tracer.dump(spans_path)
        out.update({
            "scaled_pass_s": plain,
            "scaled_traced_pass_s": traced,
            "per_layer": {k: {"value": per_layer[k], "unit": unit}
                          for k, unit in tracing.PER_LAYER.items()},
            "patched_attributes": len(patches.items),
            "spans_file": os.path.basename(spans_path),
            "spans": len(tracer.spans),
        })
    else:
        times, scaled, op_samples = runner.run_passes(args.seconds)
        out.update({
            "pass_s": times,
            "scaled_pass_s": scaled,
            "op_median_s": {k: statistics.median(v) for k, v in op_samples.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })

    try:
        check_failures = workload.check(runner.reference)
    except Exception:  # checks that cannot run fail every operation
        check_failures = {op.label: ["checks raised"] for op in workload.ops}
        check_failures["<checks>"] = [traceback.format_exc(limit=3)]
    for label, messages in check_failures.items():
        for m in messages:
            runner.fail(label, f"check: {m}")

    exact = [flag for op in workload.ops if op.label in runner.reference
             for flag in op.exact(runner.reference[op.label])]
    out.update({
        "ops": len(workload.ops),
        "attempted": len(runner.executions),
        "failed": runner.failed(check_failures),
        "messages": [f"{label}: {m}" for label, ms in sorted(runner.messages.items())
                     for m in ms][:MAX_MESSAGES],
        "exact_answers": sum(exact),
        "certified_answers": len(exact),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
