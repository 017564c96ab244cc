"""Command-line surface for the coarse-entropy toolkit.

One logical command per invocation; reports are deterministic (identical
configurations yield byte-identical output) and rendered as versioned JSON
or as flattened CSV carrying the same numeric tokens.

Commands
--------
growth     step-ball growth series at the basepoint
orbits     enumerate delta-paths from the basepoint and count endpoints
rates      separated/dense counts and rates across several lengths
witness    ping-pong witness family and its entropy rate bound
classify   zero/infinite coarse-entropy classification with evidence
qgcheck    quasi-geodesic spot check (hop counts vs. distances)
bgcheck    bounded-geometry evidence (band families at growing depths)
obstruct   coarse-embedding obstruction between two spaces

Exit status: 0 on success, 1 on any error (with a distinct message on
stderr), 2 when ``--strict`` is set and ``classify``, ``bgcheck`` or
``obstruct`` comes back inconclusive.  Every command accepts ``--strict``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .entropy.classify import ClassifyConfig, classify, obstruction
from .entropy.counts import rate_series
from .entropy.growth import fit_log_slope, growth_series
from .entropy.witness import catalog_pingpong, spot_check_members
from .errors import (BudgetExceededError, CapExceededError, CoarseEntropyError,
                     InvalidInputError, NotDistancePreservingError, UnknownPointError)
from .geometry import bounded_geometry_evidence, quasi_geodesic_check
from .numbers import dist_to_jsonable, is_finite, parse_dist
from .paths import enumerate_orbits
from .serialize import envelope, orbits_to_json_lines, write_report
from .spaces.base import MetricSpace, build_graph, build_weighted_graph, load_edges_csv
from .spaces.catalog import CATALOG_TAGS, make_example

__all__ = ["main", "entry", "build_parser"]

DEFAULT_ORBIT_CAP = 10 ** 6


class UsageError(Exception):
    """Configuration problem; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for strict only
        raise UsageError(message)


def _add_space_flags(p: argparse.ArgumentParser, prefix: str = "") -> None:
    names = {
        "space": f"--{prefix}space",
        "params": f"--{prefix}params",
        "edges": f"--{prefix}edges",
    }
    what = prefix.rstrip("-") or "the"
    p.add_argument(names["space"], metavar="TAG",
                   help=f"catalog tag for {what} space: " + ", ".join(CATALOG_TAGS))
    p.add_argument(names["params"], metavar="JSON",
                   help="JSON object of space parameters (catalog spaces only)")
    p.add_argument(names["edges"], metavar="CSV",
                   help="edge-list CSV with header src,dst[,weight]")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every command; ``main`` builds one and keeps it."""
    parser = _Parser(prog="coarseentropy",
                     description=__doc__.split("\n\nCommands")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, help_text: str, space: bool = True):
        p = sub.add_parser(name, help=help_text, add_help=True,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        if space:
            _add_space_flags(p)
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report rendering (default json)")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when the result is inconclusive")
        p.add_argument("--log-base", type=float, default=None, metavar="B",
                       help="report rates/slopes in logarithms of base B "
                            "(default: natural logarithm)")
        return p

    p = command("growth", "step-ball growth series at the basepoint")
    p.add_argument("--delta", default="1", help="step scale (rational ok; default 1)")
    p.add_argument("--window", type=int, default=8, metavar="L",
                   help="largest level l (default 8)")

    p = command("orbits", "enumerate delta-paths from the basepoint")
    p.add_argument("--n", type=int, required=True, help="path length (steps)")
    p.add_argument("--delta", default="1", help="step scale (default 1)")
    p.add_argument("--cap", type=int, default=DEFAULT_ORBIT_CAP,
                   help=f"orbit cap (default {DEFAULT_ORBIT_CAP})")
    p.add_argument("--paths-out", metavar="PATH",
                   help="also dump the family as JSON lines (one path per line)")

    p = command("rates", "separated/dense counts and rates for several lengths")
    p.add_argument("--n", required=True, metavar="LIST",
                   help="comma-separated path lengths, e.g. 0,3,6")
    p.add_argument("--delta", default="1", help="step scale (default 1)")
    p.add_argument("--radius", required=True, help="separation/covering radius R")
    p.add_argument("--mode", choices=("separated", "dense"), default="separated")
    p.add_argument("--cap", type=int, default=DEFAULT_ORBIT_CAP,
                   help=f"orbit cap (default {DEFAULT_ORBIT_CAP})")

    p = command("witness", "ping-pong witness family and rate bound")
    p.add_argument("--delta", default="4", help="step scale (default 4)")
    p.add_argument("--radius", default="4", help="separation radius R (default 4)")
    p.add_argument("--p", type=int, default=1, help="number of arm blocks (default 1)")
    p.add_argument("--cap", type=int, default=DEFAULT_ORBIT_CAP,
                   help="point budget for materializing members")

    p = command("classify", "zero/infinite classification with evidence")
    p.add_argument("--delta", default="1", help="step scale for growth evidence")
    p.add_argument("--window", type=int, default=None, metavar="L",
                   help="growth window l_max for slope fits (default 32)")

    p = command("qgcheck", "quasi-geodesic spot check")
    p.add_argument("--delta", default="1", help="step scale (default 1)")
    p.add_argument("--cap", type=int, default=200_000,
                   help="BFS node cap per sampled pair (default 200000)")

    p = command("bgcheck", "bounded-geometry evidence at growing depths")
    p.add_argument("--delta", default=None,
                   help="separation s of the band family (catalog default if omitted)")
    p.add_argument("--radius", default=None,
                   help="diameter bound D of the band family (catalog default if omitted)")
    p.add_argument("--window", type=int, default=None, metavar="DEPTH",
                   help="deepest search window; depths run 2,4,...,DEPTH")

    p = command("obstruct", "coarse-embedding obstruction between two spaces")
    _add_space_flags(p, prefix="target-")
    p.add_argument("--delta", default="1", help="step scale for growth evidence")
    p.add_argument("--window", type=int, default=None, metavar="L",
                   help="growth window l_max for slope fits (default 32)")

    return parser


# ---------------------------------------------------------------------------
# space resolution


def _resolve_space(args, prefix: str = "") -> Tuple[MetricSpace, Dict[str, Any]]:
    tag = getattr(args, (prefix + "space").replace("-", "_"), None)
    params_text = getattr(args, (prefix + "params").replace("-", "_"), None)
    edges_path = getattr(args, (prefix + "edges").replace("-", "_"), None)
    if (tag is None) == (edges_path is None):
        which = f"--{prefix}space" if tag is None else f"--{prefix}space/--{prefix}edges"
        raise UsageError(f"exactly one of --{prefix}space or --{prefix}edges is required "
                         f"(got {which} conflict)")
    if edges_path is not None:
        if params_text:
            raise UsageError(f"--{prefix}params only applies to catalog spaces")
        edges, weighted = load_edges_csv(edges_path)
        if not edges:
            raise InvalidInputError(f"edge file {edges_path!r} contains no edges")
        name = os.path.basename(edges_path)
        space = (build_weighted_graph if weighted else build_graph)(edges, name=name)
        return space, {"edges": name, "weighted": weighted}
    params: Dict[str, Any] = {}
    if params_text:
        try:
            params = json.loads(params_text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--{prefix}params is not valid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise UsageError(f"--{prefix}params must be a JSON object")
    space = make_example(tag, params)
    return space, {"space": tag, "params": dict(sorted(params.items()))}


def _parse_scale(text) -> Any:
    try:
        value = parse_dist(str(text))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not value > 0:
        raise UsageError(f"scale must be positive: {text!r}")
    return value


def _parse_delta(text) -> Any:
    """The ``--delta`` of every command: positive and finite."""
    value = _parse_scale(text)
    if not is_finite(value):
        raise UsageError(f"--delta must be finite: {text!r}")
    return value


def _log_factor(args) -> Tuple[float, Any]:
    base = getattr(args, "log_base", None)
    if base is None:
        return 1.0, "e"
    if not (base > 0 and base != 1):
        raise UsageError(f"--log-base must be positive and != 1: {base!r}")
    return 1.0 / math.log(base), base


def _rescale(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


# ---------------------------------------------------------------------------
# command bodies (each returns (kind, payload, exit_code))


def _cmd_growth(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    factor, base = _log_factor(args)
    series = growth_series(space, delta=delta, l_max=args.window)
    slope = fit_log_slope(series)
    payload = {
        "config": {**cfg, "delta": dist_to_jsonable(delta), "window": args.window,
                   "log_base": base},
        "series": series.to_jsonable(),
        "fitted_slope": _rescale(slope, factor),
    }
    return "growth-series", payload, 0


def _cmd_orbits(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    orbits = enumerate_orbits(space, space.basepoint, args.n, delta, cap=args.cap)
    payload = {
        "config": {**cfg, "n": args.n, "delta": dist_to_jsonable(delta), "cap": args.cap},
        "count": len(orbits.paths),
        # ids number distinct points, so distinct endpoint ids are distinct endpoints
        "distinct_endpoints": len(np.unique(orbits.paths.ids[:, -1])),
        "exhaustive": orbits.exhaustive,
        "x0": repr(space.basepoint),
    }
    if args.paths_out:
        with open(args.paths_out, "w", encoding="utf-8") as fh:
            fh.write(orbits_to_json_lines(orbits))
        payload["paths_out"] = os.path.basename(args.paths_out)
    return "orbit-set-summary", payload, 0


def _cmd_rates(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    R = _parse_scale(args.radius)
    factor, base = _log_factor(args)
    try:
        ns = [int(tok) for tok in str(args.n).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--n must be a comma-separated integer list: {args.n!r}") from exc
    if not ns or any(n < 0 for n in ns):
        raise UsageError("--n needs at least one nonnegative length")
    table = rate_series(space, space.basepoint, delta, R, ns, mode=args.mode, cap=args.cap)
    rows = []
    for pt in table["points"]:
        row = pt.to_jsonable()
        row["rate"] = _rescale(row["rate"], factor)
        rows.append(row)
    payload = {
        "config": {**cfg, "n": ns, "delta": dist_to_jsonable(delta),
                   "radius": dist_to_jsonable(R), "mode": args.mode, "cap": args.cap,
                   "log_base": base},
        "mode": table["mode"],
        "rows": rows,
    }
    if "covering_bound" in table:
        payload["covering_bound"] = table["covering_bound"]
        payload["bound_satisfied"] = {str(k): v for k, v in table["bound_satisfied"].items()}
    return "rate-series", payload, 0


def _cmd_witness(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    R = _parse_scale(args.radius)
    factor, base = _log_factor(args)
    if args.p < 1:
        raise UsageError("--p must be >= 1")
    family = catalog_pingpong(space, delta, R, args.p)
    family.check_pairwise_separated()
    spot_check_members(family, sorted({0, family.size // 2, family.size - 1}))
    payload = {
        "config": {**cfg, "delta": dist_to_jsonable(delta), "radius": dist_to_jsonable(R),
                   "p": args.p, "cap": args.cap, "log_base": base},
        "family": family.to_jsonable(),
        "rate_bound": _rescale(family.rate_bound, factor),
        "verification": "pairwise-exhaustive",
        "materializable_within_cap": family.size * (family.n + 1) <= args.cap,
    }
    return "witness-family", payload, 0


def _cmd_classify(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    factor, base = _log_factor(args)
    ccfg = ClassifyConfig(delta=delta) if args.window is None else \
        ClassifyConfig(delta=delta, l_max=args.window)
    report = classify(space, ccfg)
    doc = report.to_jsonable()
    ev = doc.get("evidence", {})
    if "fitted_slope" in ev:
        ev["fitted_slope"] = _rescale(ev["fitted_slope"], factor)
        if "thresholds" in ev:
            ev["thresholds"] = {k: v * factor for k, v in ev["thresholds"].items()}
    payload = {
        "config": {**cfg, "delta": dist_to_jsonable(delta),
                   "window": args.window, "log_base": base},
        **doc,
    }
    code = 2 if (args.strict and report.verdict == "inconclusive") else 0
    return "classification", payload, code


def _cmd_qgcheck(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    delta = _parse_delta(args.delta)
    report = quasi_geodesic_check(space, delta, node_cap=args.cap)
    payload = {
        "config": {**cfg, "delta": dist_to_jsonable(delta), "cap": args.cap},
        **report,
    }
    return "quasi-geodesic-check", payload, 0


def _cmd_bgcheck(args) -> Tuple[str, Dict[str, Any], int]:
    space, cfg = _resolve_space(args)
    s = _parse_delta(args.delta) if args.delta is not None else None
    D = _parse_scale(args.radius) if args.radius is not None else None
    if (s is None or D is None) and space.bg_evidence_defaults() is None:
        raise UsageError("bgcheck needs --delta and --radius on spaces without catalog defaults")
    depths = None
    if args.window is not None:
        if args.window < 2:
            raise UsageError("--window must be >= 2 for bgcheck")
        depths = list(range(2, args.window + 1, 2))
    ev = bounded_geometry_evidence(space, s=s, D=D, window_depths=depths)
    payload = {
        "config": {**cfg,
                   "delta": None if s is None else dist_to_jsonable(s),
                   "radius": None if D is None else dist_to_jsonable(D),
                   "window": args.window},
        **ev.to_jsonable(),
    }
    code = 2 if (args.strict and ev.verdict == "inconclusive") else 0
    return "bounded-geometry-evidence", payload, code


def _cmd_obstruct(args) -> Tuple[str, Dict[str, Any], int]:
    source, cfg_s = _resolve_space(args)
    target, cfg_t = _resolve_space(args, prefix="target-")
    delta = _parse_delta(args.delta)
    ccfg = ClassifyConfig(delta=delta) if args.window is None else \
        ClassifyConfig(delta=delta, l_max=args.window)
    report = obstruction(source, target, ccfg)
    payload = {
        "config": {"source": cfg_s, "target": cfg_t,
                   "delta": dist_to_jsonable(delta), "window": args.window},
        **report,
    }
    inconclusive = (report["source"]["verdict"] == "inconclusive"
                    or report["target"]["verdict"] == "inconclusive")
    code = 2 if (args.strict and inconclusive) else 0
    return "embedding-obstruction", payload, code


_COMMANDS = {
    "growth": _cmd_growth,
    "orbits": _cmd_orbits,
    "rates": _cmd_rates,
    "witness": _cmd_witness,
    "classify": _cmd_classify,
    "qgcheck": _cmd_qgcheck,
    "bgcheck": _cmd_bgcheck,
    "obstruct": _cmd_obstruct,
}


# main's parser, built at its first call: importing the module builds none
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; in-process callers share one parser per process."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a command is required; see --help")
        kind, payload, code = _COMMANDS[args.command](args)
        write_report(envelope(kind, payload), args.out, args.format)
        return code
    except UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CapExceededError, BudgetExceededError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except UnknownPointError as exc:
        print(f"unknown point: {exc}", file=sys.stderr)
        return 1
    except NotDistancePreservingError as exc:
        print(f"map check failed: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, CoarseEntropyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
