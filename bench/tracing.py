"""Spans and counters for the traced benchmark run, taken from outside the
package.

``install(tracer)`` wraps every public function of the package's layer
modules and returns :class:`Patches` that rebind each module-level alias of
it (``counts.py`` and others import names directly, so wrapping the
defining module alone would miss those calls).  A few methods are wrapped
on their classes.  ``Patches.apply``/``revert`` switch tracing on and off
between passes.  Hot per-point methods (``mass``, ``distance``,
``neighbors``) only count calls, so that span bookkeeping does not swamp
their callers' self time.

Spans stay in memory as ``[name, layer, start, end, parent, pass, op]``
rows; self time is a span's duration minus the durations of its direct
children.  Reported times are scaled to the reference speed of ``speed.py``
by the factor of their pass; they include the speed probe's share (about
2%), which the pass times leave out.
"""

from __future__ import annotations

import collections
import inspect
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("spaces", "paths", "extremal", "entropy", "geometry", "serialize", "cli")
PACKAGE = "coarseentropy"

# called once per point or path; their time stays in the caller's span
UNWRAPPED = {"point_to_jsonable", "point_from_jsonable"}

# span name -> metric group
GROUPS = {
    "extremal.max_separated": "extremal.solve",
    "extremal.min_dense": "extremal.solve",
    "extremal.verify_separated": "extremal.verify",
    "extremal.verify_dense": "extremal.verify",
    "entropy.check_pairwise_separated": "entropy.witness_check",
}

# per-layer metric -> unit; extremal.verify.pairs is computed from the
# arguments (N x |selection| or |selection|^2 / 2), not counted in the check
PER_LAYER = {
    "paths.enumerate_orbits.self_s": "s", "paths.enumerate_orbits.paths": "count",
    "paths.step_ball.self_s": "s", "paths.step_ball.calls": "count",
    "paths.delta_component.self_s": "s",
    "extremal.from_orbits.self_s": "s", "extremal.from_orbits.support_points": "count",
    "extremal.from_orbits.vectorized_share": "ratio",
    "extremal.solve.self_s": "s", "extremal.solve.bb_nodes": "count",
    "extremal.solve.exact_calls": "count", "extremal.solve.greedy_calls": "count",
    "extremal.verify.self_s": "s", "extremal.verify.pairs": "pairs-computed",
    "spaces.mass.calls": "count", "spaces.mass_of.self_s": "s",
    "spaces.neighbors.calls": "count", "spaces.distance.calls": "count",
    "entropy.growth_series.self_s": "s", "entropy.classify.self_s": "s",
    "entropy.witness_check.self_s": "s", "entropy.witness_check.pairs": "count",
    "spaces.self_s": "s", "paths.self_s": "s", "extremal.self_s": "s",
    "entropy.self_s": "s", "geometry.self_s": "s", "serialize.self_s": "s",
    "serialize.bytes": "bytes", "cli.self_s": "s",
    "trace.unattributed_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder.  Its wrappers are reachable only while
    ``Patches`` are applied, which is during traced passes."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self.pass_id: Optional[int] = None
        self.op: Optional[str] = None
        self.pass_counts: Dict[int, Dict[str, float]] = {}
        # pass id -> factor that scales the pass's times to the reference speed
        self.pass_scale: Dict[int, float] = {}

    def begin_pass(self, pass_id: int) -> None:
        self.counts.clear()
        self.pass_id = pass_id

    def end_pass(self, scale: float) -> None:
        self.pass_counts[self.pass_id] = dict(self.counts)
        self.pass_scale[self.pass_id] = scale
        self.pass_id = None

    def call_op(self, label: str, fn: Callable[[], Any]):
        """Run one benchmark operation as a root span without a layer;
        returns (result, seconds)."""
        self.op = label
        index = len(self.spans)
        try:
            result = self.span(label, None, fn)()
        finally:
            self.op = None
        root = self.spans[index]
        return result, root[3] - root[2]

    def span(self, name: str, layer: Optional[str], fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self
        spans, stack, now = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id,
                   tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = now()
                stack.pop()
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def dump(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "pass", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


# ---------------------------------------------------------------------------
# counters taken from arguments and results at layer boundaries


def _on_solve(counts, args, res) -> None:
    counts["extremal.solve.bb_nodes"] += res.stats.get("nodes", 0)
    counts["extremal.solve.exact_calls" if res.certificate == "exact"
           else "extremal.solve.greedy_calls"] += 1


def _on_verify_separated(counts, args, res) -> None:
    k = len(args[2])
    counts["extremal.verify.pairs"] += k * (k - 1) // 2


def _on_verify_dense(counts, args, res) -> None:
    counts["extremal.verify.pairs"] += len(args[0]) * len(args[2])


def _on_enumerate(counts, args, res) -> None:
    counts["paths.enumerate_orbits.paths"] += len(res.paths)


def _on_from_orbits(counts, args, items) -> None:
    counts["extremal.from_orbits.calls"] += 1
    if items.vectors is not None:
        counts["extremal.from_orbits.vectorized"] += 1
        counts["extremal.from_orbits.support_points"] += items.dmat.shape[0]
    else:
        counts["extremal.from_orbits.support_points"] += len({p for row in items.items
                                                             for p in row})


def _on_text(counts, args, text) -> None:
    counts["serialize.bytes"] += len(text.encode("utf-8"))


def _on_step_ball(counts, args, ball) -> None:
    counts["paths.step_ball.calls"] += 1


def _on_witness_check(counts, args, pairs) -> None:
    counts["entropy.witness_check.pairs"] += pairs


HOOKS = {
    "max_separated": _on_solve,
    "min_dense": _on_solve,
    "verify_separated": _on_verify_separated,
    "verify_dense": _on_verify_dense,
    "enumerate_orbits": _on_enumerate,
    "step_ball": _on_step_ball,
    "write_report": _on_text,
    "orbits_to_json_lines": _on_text,
}


def _layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE and parts[1] in LAYERS:
        return parts[1]
    return None


def _space_classes(base) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Patches:
    """Attribute rebindings that switch tracing on (``apply``) and off
    (``revert``), so traced and untraced passes can run in one process."""

    def __init__(self):
        self.items: List[tuple] = []  # (owner, attribute, original, wrapper)

    def add(self, owner, attr: str, wrapper) -> None:
        self.items.append((owner, attr, vars(owner)[attr], wrapper))

    def apply(self) -> None:
        for owner, attr, _, wrapper in self.items:
            setattr(owner, attr, wrapper)

    def revert(self) -> None:
        for owner, attr, original, _ in self.items:
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Patches:
    """Wrap the package's public functions and hot methods; returns the
    rebindings, not yet applied."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
    wrappers: Dict[Any, Callable] = {}
    for name, mod in modules.items():
        layer = _layer_of(name)
        if layer is None:
            continue
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == name and attr not in UNWRAPPED:
                wrappers[fn] = tracer.span(f"{layer}.{attr}", layer, fn, HOOKS.get(attr))
    patches = Patches()
    # ``coarseentropy.entropy.classify`` is the function, not the module, so
    # modules come from sys.modules and never from attribute lookups
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.add(mod, attr, wrappers[value])

    extremal = modules[PACKAGE + ".extremal"]
    witness = modules[PACKAGE + ".entropy.witness"]
    base = modules[PACKAGE + ".spaces.base"]
    items_cls = extremal.MetricItems
    patches.add(items_cls, "from_orbits", classmethod(tracer.span(
        "extremal.from_orbits", "extremal", items_cls.__dict__["from_orbits"].__func__,
        _on_from_orbits)))
    fam_cls = witness.WitnessFamily
    patches.add(fam_cls, "check_pairwise_separated", tracer.span(
        "entropy.check_pairwise_separated", "entropy", fam_cls.check_pairwise_separated,
        _on_witness_check))
    measured = base.MeasuredSpace
    patches.add(measured, "mass_of", tracer.span("spaces.mass_of", "spaces", measured.mass_of))
    patches.add(measured, "mass", tracer.counter("spaces.mass.calls", measured.mass))
    for cls in _space_classes(base.MetricSpace):
        if cls is measured:  # delegates to the wrapped space, which counts
            continue
        for meth in ("distance", "neighbors"):
            if meth in cls.__dict__:
                patches.add(cls, meth, tracer.counter(f"spaces.{meth}.calls",
                                                      cls.__dict__[meth]))
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics


def pass_metrics(tracer: Tracer, pass_id: int) -> Dict[str, float]:
    """Self times and counters of one traced pass; times are scaled to the
    reference speed with the pass's factor."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[5] == pass_id]
    child_time: Dict[int, float] = collections.defaultdict(float)
    for _, s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    out: Dict[str, float] = collections.defaultdict(float)
    wall = 0.0
    for i, s in spans:
        name, layer = s[0], s[1]
        self_s = (s[3] - s[2]) - child_time[i]
        if s[4] == -1:
            wall += s[3] - s[2]
        if layer is None:
            out["trace.unattributed_s"] += self_s
            continue
        out[f"{layer}.self_s"] += self_s
        out[f"{name}.self_s"] += self_s
        group = GROUPS.get(name)
        if group:
            out[f"{group}.self_s"] += self_s
    out["trace.wall_s"] = wall
    counts = tracer.pass_counts.get(pass_id, {})
    scale = tracer.pass_scale[pass_id]
    metrics = {key: (out.get(key, 0.0) * scale if unit == "s" else counts.get(key, 0))
               for key, unit in PER_LAYER.items()}
    n_calls = counts.get("extremal.from_orbits.calls", 0)
    # no from_orbits call means no scalar fallback either
    metrics["extremal.from_orbits.vectorized_share"] = (
        counts.get("extremal.from_orbits.vectorized", 0) / n_calls if n_calls else 1.0)
    return metrics


def summarize(tracer: Tracer, untraced_s: List[float], traced_s: List[float]
              ) -> Dict[str, float]:
    """Median over traced passes of each per-layer metric; the overhead is
    the median difference of paired traced and untraced passes."""
    per_pass = [pass_metrics(tracer, p) for p in sorted(tracer.pass_counts)]
    keys = per_pass[0].keys()
    out = {k: statistics.median(m[k] for m in per_pass) for k in keys}
    out["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced_s, traced_s))
    return out
