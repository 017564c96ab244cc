"""Transfer of path families along a distance-preserving self-map.

For a self-map f of the space, the forward transfer turns an identity
delta-path (x_0, ..., x_n) into the delta-pseudoorbit of f

    (x_0, f(x_1), f^2(x_2), ..., f^n(x_n)),

and the backward transfer turns a delta-pseudoorbit (y_0, ..., y_n) of f
into the identity delta-path

    (f^n(y_0), f^{n-1}(y_1), ..., y_n).

Both constructions are validated on their outputs, and the map is checked
to preserve distances on every point pair the construction actually uses
(exhaustively; failures raise NotDistancePreservingError).  Backward after
forward equals applying f^n pointwise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..errors import InvalidInputError, NotDistancePreservingError
from ..paths import DeltaPath, OrbitSet, orbit_distance, validate_path, validate_pseudoorbit
from ..spaces.base import MetricSpace, PointRef

__all__ = ["map_iterates", "transfer_orbits", "check_distance_preserved", "round_trip_check"]

MapFn = Callable[[PointRef], PointRef]

# most path pairs check_distance_preserved compares
_PAIR_CAP = 200_000


class _CheckedMap:
    """Wraps f with a value cache and a distance-preservation pair cache."""

    def __init__(self, space: MetricSpace, f: MapFn):
        self.space = space
        self.f = f
        self.values: Dict[PointRef, PointRef] = {}
        self.checked_pairs: Set[Tuple[PointRef, PointRef]] = set()

    def apply(self, x: PointRef) -> PointRef:
        y = self.values.get(x)
        if y is None:
            y = self.f(x)
            self.space.check_point(y)
            self.values[x] = y
        return y

    def check_pair(self, a: PointRef, b: PointRef) -> None:
        if a == b:
            return
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        if key in self.checked_pairs:
            return
        before = self.space.distance(a, b)
        after = self.space.distance(self.apply(a), self.apply(b))
        if not (self.space.le(after, before) and self.space.ge(after, before)):
            raise NotDistancePreservingError(
                f"map sends d({a!r},{b!r})={before} to d(f a,f b)={after}")
        self.checked_pairs.add(key)

    def iterate(self, x: PointRef, k: int) -> PointRef:
        for _ in range(k):
            x = self.apply(x)
        return x


def map_iterates(space: MetricSpace, f: MapFn, x: PointRef, n: int) -> Tuple[PointRef, ...]:
    """The forward orbit (x, f(x), ..., f^n(x)) with every point validated."""
    if n < 0:
        raise InvalidInputError(f"n must be nonnegative: {n!r}")
    space.check_point(x)
    cm = _CheckedMap(space, f)
    out = [x]
    for _ in range(n):
        out.append(cm.apply(out[-1]))
    return tuple(out)


def _position_sets(rows: Sequence[Tuple[PointRef, ...]]) -> List[List[PointRef]]:
    width = len(rows[0])
    return [sorted({r[i] for r in rows}, key=repr) for i in range(width)]


def _check_iterated_isometry(cm: _CheckedMap, points: Sequence[PointRef], k: int) -> None:
    """Verify f preserves all pairwise distances along k applications
    starting from the given point set."""
    current = list(points)
    for _ in range(k):
        for a_i, a in enumerate(current):
            for b in current[a_i + 1:]:
                cm.check_pair(a, b)
        current = [cm.apply(x) for x in current]


def transfer_orbits(space: MetricSpace, f: MapFn, orbits: OrbitSet,
                    direction: str = "forward") -> OrbitSet:
    """Transfer a path family along f (see module docstring).

    Forward input: identity delta-paths; output delta-pseudoorbits of f.
    Backward input: delta-pseudoorbits of f; output identity delta-paths.
    Orbit distances are preserved exactly; this is enforced by checking f
    on every point pair used at any transfer stage.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError(f"direction must be 'forward' or 'backward': {direction!r}")
    if not orbits.paths:
        raise InvalidInputError("empty orbit family")
    rows = [p.points for p in orbits.paths]
    n = orbits.n
    delta = orbits.delta
    cm = _CheckedMap(space, f)

    # distance preservation on every used pair: the family's points at
    # position i travel through (n - i or i) applications of f
    for i, column in enumerate(_position_sets(rows)):
        k = i if direction == "forward" else n - i
        _check_iterated_isometry(cm, column, k)

    out_paths: List[DeltaPath] = []
    for row in rows:
        if direction == "forward":
            new_points = tuple(cm.iterate(x, i) for i, x in enumerate(row))
            if not validate_pseudoorbit(new_points, delta, space, cm.apply):
                raise NotDistancePreservingError(
                    f"forward transfer of {row!r} is not a delta-pseudoorbit of the map")
        else:
            new_points = tuple(cm.iterate(x, n - i) for i, x in enumerate(row))
            if not validate_path(new_points, delta, space):
                raise NotDistancePreservingError(
                    f"backward transfer of {row!r} is not a delta-path")
        out_paths.append(DeltaPath(new_points, delta))

    if len({p.points for p in out_paths}) != len(out_paths):
        raise NotDistancePreservingError(
            "transfer collapsed two distinct paths onto one image")
    label = "pseudo-orbit-of-map" if direction == "forward" else "identity"
    x0 = out_paths[0].start if direction == "backward" else orbits.x0
    return OrbitSet(tuple(out_paths), x0=x0, n=n, delta=delta,
                    exhaustive=False, map_label=label)


def check_distance_preserved(space: MetricSpace, source: OrbitSet, image: OrbitSet) -> int:
    """Exhaustively compare orbit distances between a family and its image.

    Returns the number of pairs compared; raises on any discrepancy or if
    the comparison would exceed ``_PAIR_CAP`` pairs.
    """
    m = len(source.paths)
    if len(image.paths) != m:
        raise InvalidInputError("families must have equal sizes")
    if m * (m - 1) // 2 > _PAIR_CAP:
        raise InvalidInputError(f"pair count exceeds cap {_PAIR_CAP}; reduce the family")
    pairs = 0
    for i in range(m):
        for j in range(i + 1, m):
            before = orbit_distance(source.paths[i], source.paths[j], space)
            after = orbit_distance(image.paths[i], image.paths[j], space)
            if not (space.le(after, before) and space.ge(after, before)):
                raise NotDistancePreservingError(
                    f"paths {i},{j}: orbit distance {before} became {after}")
            pairs += 1
    return pairs


def round_trip_check(space: MetricSpace, f: MapFn, orbits: OrbitSet) -> dict:
    """Forward then backward transfer; verifies the round trip equals
    applying f^n pointwise and that orbit distances survive both legs."""
    forward = transfer_orbits(space, f, orbits, "forward")
    back = transfer_orbits(space, f, forward, "backward")
    cm = _CheckedMap(space, f)
    n = orbits.n
    for src, rt in zip(orbits.paths, back.paths):
        expect = tuple(cm.iterate(x, n) for x in src.points)
        if rt.points != expect:
            raise InvalidInputError("round trip differs from pointwise f^n")
    pairs = check_distance_preserved(space, orbits, forward)
    check_distance_preserved(space, orbits, back)
    return {"paths": len(orbits.paths), "pairs_compared": pairs,
            "round_trip": "pointwise-iterate"}
