"""Zero/infinite dichotomy classifier and the embedding-obstruction report.

Rules fire in a fixed priority order, each tied to a finite-scale
certificate or to curated catalog annotations:

1. ultrametric            -> zero   (annotation, or exhaustive finite check)
2. bounded-components     -> zero   (annotation, or finite-space diameter)
3. coding-map-zero        -> zero   (annotation + verified net-coding check)
4. measured-volume        -> infinite (measured space, finite total volume
                                     annotation + exponential volume tag,
                                     corroborated by the computed series)
5. not-coarsely-bounded-geometry -> infinite (unweighted graph annotation +
                                     verified witness families of growing size)
6. growth rules           -> bounded-degree graphs: analytic growth tags
   give certified verdicts; otherwise a least-squares slope of ln V(l)
   over the top half of the window gives evidence verdicts
   (bounded-geometry-growth-zero / -positive, vertex-transitive-growth),
   never certified, always with a caveat.

Anything else is inconclusive.  A certified verdict means the fired rule's
hypothesis was verified exactly or supplied by the catalog; slope-fitted
verdicts are explicitly evidence, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..geometry import bounded_geometry_evidence
from ..numbers import Dist, dist_to_jsonable, is_finite
from ..spaces.base import MeasuredSpace, MetricSpace
from .coding import coding_injectivity_check
from .growth import fit_log_slope, growth_series

__all__ = ["ClassifyConfig", "ClassificationReport", "classify", "obstruction"]

SLOPE_CAVEAT = ("verdict rests on a least-squares slope over a finite window; "
                "it is evidence, not a proof about the asymptotic growth")

# fitted ln V(l) slopes below _ZERO_SLOPE read as zero growth, above
# _POSITIVE_SLOPE as exponential; in between the verdict is inconclusive
_ZERO_SLOPE = 0.05
_POSITIVE_SLOPE = 0.2

# largest finite space whose triples and pairs the finite checks walk
_FINITE_CHECK_LIMIT = 120


@dataclass(frozen=True)
class ClassifyConfig:
    """The delta and the growth window the rules use."""

    delta: Dist = 1
    l_max: int = 32


@dataclass(frozen=True)
class ClassificationReport:
    space: str
    verdict: str  # "zero" | "infinite" | "inconclusive"
    rule: Optional[str]
    certified: bool
    caveat: Optional[str]
    evidence: Dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "space": self.space,
            "verdict": self.verdict,
            "rule": self.rule,
            "certified": self.certified,
            "caveat": self.caveat,
            "evidence": self.evidence,
        }


def _finite_points(space: MetricSpace) -> Optional[tuple]:
    """The full point tuple of a finite space handle, else None."""
    pts = getattr(space, "points", None)
    return tuple(pts) if pts is not None else None


def _max_component_diameter(space: MetricSpace, pts: Sequence) -> Dist:
    """Largest finite pairwise distance = max over components of diameter."""
    return max(d for d in space.distance_table(pts).ravel().tolist() if is_finite(d))


def _is_ultrametric_finite(space: MetricSpace) -> Optional[int]:
    """Number of triples checked when the strong triangle inequality holds
    exhaustively; None when the space is too big or the inequality fails."""
    pts = _finite_points(space)
    if pts is None or len(pts) > _FINITE_CHECK_LIMIT:
        return None
    checked = 0
    for a in pts:
        for b in pts:
            dab = space.distance(a, b)
            for c in pts:
                m = space.distance(a, c)
                dcb = space.distance(c, b)
                if m < dcb:
                    m = dcb
                if not space.le(dab, m):
                    return None
                checked += 1
    return checked


def classify(space: MetricSpace, config: Optional[ClassifyConfig] = None) -> ClassificationReport:
    cfg = config or ClassifyConfig()
    ann = space.annotations
    name = space.name
    is_graph = "graph" in ann
    is_weighted = "weighted-graph" in ann
    bounded_degree = "bounded-degree" in ann
    tag = getattr(space, "growth_tag", None)

    # 1. ultrametric => zero (strong triangle inequality kills long paths)
    if "ultrametric" in ann:
        return ClassificationReport(name, "zero", "ultrametric", True, None,
                                    {"source": "catalog-annotation"})
    triples = _is_ultrametric_finite(space)
    if triples is not None:
        return ClassificationReport(name, "zero", "ultrametric", True, None,
                                    {"source": "exhaustive-check",
                                     "triples_checked": triples})

    # 2. bounded components => zero (paths from any basepoint stay in one
    #    bounded component, so counts freeze once R exceeds its diameter)
    if "bounded-components" in ann:
        return ClassificationReport(name, "zero", "bounded-components", True, None,
                                    {"source": "catalog-annotation"})
    finite_pts = _finite_points(space)
    if finite_pts is not None:
        evidence = {"source": "finite-space", "points": len(finite_pts)}
        if len(finite_pts) <= _FINITE_CHECK_LIMIT:
            evidence["max_component_diameter"] = dist_to_jsonable(
                _max_component_diameter(space, finite_pts))
        return ClassificationReport(name, "zero", "bounded-components", True, None,
                                    evidence)

    # 3. coding-map certificate => zero (net-coding separates R-separated
    #    paths while the code alphabet stays polynomial in scale)
    if "coding-map-zero" in ann:
        # the n = 4 step paths at delta = 2, coded at R = 17
        report = coding_injectivity_check(space, space.basepoint, 4, 2, 17)
        if report["fibers_below_R"]:
            return ClassificationReport(name, "zero", "coding-map-zero", True, None,
                                        {"source": "catalog-annotation",
                                         "coding_check": report})
        return ClassificationReport(name, "inconclusive", None, False,
                                    "catalog coding annotation present but the finite "
                                    "coding check failed", {"coding_check": report})

    # 4. measured volume => infinite (finite total volume with exponential
    #    ball volume forces infinitely many distinguishable paths)
    if isinstance(space, MeasuredSpace) and "vol-finite" in ann and tag == "exponential":
        series = growth_series(space, space.basepoint, cfg.delta, 8, measured=True)
        slope = fit_log_slope(series)
        if slope > _POSITIVE_SLOPE:
            return ClassificationReport(name, "infinite", "measured-volume", True, None,
                                        {"source": "catalog-annotation",
                                         "series": series.to_jsonable(),
                                         "fitted_slope": slope})
        return ClassificationReport(name, "inconclusive", None, False,
                                    "measured-volume annotation present but the computed "
                                    "volume series does not corroborate exponential growth",
                                    {"series": series.to_jsonable(), "fitted_slope": slope})

    # 5. unbounded geometry on an unweighted graph => infinite
    if "not-coarsely-bounded-geometry" in ann and is_graph and not is_weighted:
        evidence = bounded_geometry_evidence(space)
        if evidence.verdict == "unbounded-evidence" and evidence.witnessed:
            return ClassificationReport(name, "infinite", "not-coarsely-bounded-geometry",
                                        True, None,
                                        {"source": "catalog-annotation",
                                         "bg_evidence": evidence.to_jsonable()})
        return ClassificationReport(name, "inconclusive", None, False,
                                    "unbounded-geometry annotation present but witness "
                                    "families did not verify",
                                    {"bg_evidence": evidence.to_jsonable()})

    # 6. growth of bounded-degree graphs (and vertex-transitive graphs)
    growth_applicable = is_graph and not is_weighted and (bounded_degree or space.vertex_transitive)
    if growth_applicable:
        rule_zero = "bounded-geometry-growth-zero"
        rule_pos = "bounded-geometry-growth-positive"
        if not bounded_degree and space.vertex_transitive:
            rule_zero = rule_pos = "vertex-transitive-growth"
        if tag in ("exponential", "exponential-sup"):
            return ClassificationReport(name, "infinite", rule_pos, True, None,
                                        {"source": "analytic-growth-tag", "growth_tag": tag})
        if tag in ("linear", "polynomial"):
            return ClassificationReport(name, "zero", rule_zero, True, None,
                                        {"source": "analytic-growth-tag", "growth_tag": tag})
        series = growth_series(space, space.basepoint, cfg.delta, cfg.l_max, measured=False)
        slope = fit_log_slope(series)
        evidence = {"series": series.to_jsonable(), "fitted_slope": slope,
                    "thresholds": {"zero": _ZERO_SLOPE, "positive": _POSITIVE_SLOPE}}
        if slope < _ZERO_SLOPE:
            return ClassificationReport(name, "zero", rule_zero, False, SLOPE_CAVEAT, evidence)
        if slope > _POSITIVE_SLOPE:
            return ClassificationReport(name, "infinite", rule_pos, False, SLOPE_CAVEAT,
                                        evidence)
        return ClassificationReport(name, "inconclusive", None, False,
                                    "fitted growth slope falls between the zero and "
                                    "positive thresholds", evidence)

    return ClassificationReport(name, "inconclusive", None, False,
                                "no classification rule applies to this space "
                                "at finite scale", {})


def obstruction(source, target, config: Optional[ClassifyConfig] = None) -> dict:
    """Coarse-embedding obstruction from two spaces or classifications.

    Coarse entropy is monotone under coarse embeddings, so an infinite
    source cannot coarsely embed into a zero target.  Arguments may be
    spaces (classified here with ``config``) or ready reports.
    """
    if not isinstance(source, ClassificationReport):
        source = classify(source, config)
    if not isinstance(target, ClassificationReport):
        target = classify(target, config)
    found = source.verdict == "infinite" and target.verdict == "zero"
    if found:
        reason = (f"{source.space} has infinite coarse entropy while {target.space} has "
                  "zero; monotonicity under coarse embeddings forbids any coarse "
                  f"embedding of {source.space} into {target.space}")
    elif "inconclusive" in (source.verdict, target.verdict):
        reason = "no obstruction derived: at least one classification is inconclusive"
    else:
        reason = ("no obstruction: monotonicity only forbids embedding an "
                  "infinite-entropy space into a zero-entropy one")
    return {
        "source": source.to_jsonable(),
        "target": target.to_jsonable(),
        "obstruction": bool(found),
        "certified": bool(found and source.certified and target.certified),
        "reason": reason,
    }
