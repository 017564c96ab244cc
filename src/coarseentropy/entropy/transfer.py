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

from typing import Callable, Dict, Iterator, List, Set, Tuple

import numpy as np

from ..errors import InvalidInputError, NotDistancePreservingError
from ..paths import OrbitSet, PathFamily
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


def _columns(family: PathFamily) -> Iterator[Tuple[List[PointRef], np.ndarray]]:
    """For each column of the family: its distinct points, and each row's
    index into them."""
    for column in family.ids.T:
        used, inverse = np.unique(column, return_inverse=True)
        yield [family.support[a] for a in used.tolist()], inverse


def transfer_orbits(space: MetricSpace, f: MapFn, orbits: OrbitSet,
                    direction: str = "forward") -> OrbitSet:
    """Transfer a path family along f (see module docstring).

    Forward input: identity delta-paths; output delta-pseudoorbits of f.
    Backward input: delta-pseudoorbits of f; output identity delta-paths.
    Orbit distances are preserved exactly; this is enforced by checking f
    on every point pair of a column at every application.  Each column's
    distinct points and each distinct image step are handled once.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError(f"direction must be 'forward' or 'backward': {direction!r}")
    family, n, delta = orbits.paths, orbits.n, orbits.delta
    if not len(family):
        raise InvalidInputError("empty orbit family")
    for p in family.support:
        space.check_point(p)
    cm = _CheckedMap(space, f)

    # the points at position i travel through i (forward) or n - i
    # (backward) applications of f, each checked on every pair of them
    index: Dict[PointRef, int] = {}
    columns = []
    for i, (points, inverse) in enumerate(_columns(family)):
        for _ in range(i if direction == "forward" else n - i):
            for a_i, a in enumerate(points):
                for b in points[a_i + 1:]:
                    cm.check_pair(a, b)
            points = [cm.apply(x) for x in points]
        columns.append(np.array([index.setdefault(y, len(index)) for y in points])[inverse])
    image = PathFamily(tuple(index), np.stack(columns, axis=1), delta)

    # a forward step measures d(f(y_i), y_{i+1}), a backward one d(y_i, y_{i+1})
    move = cm.apply if direction == "forward" else (lambda y: y)
    pairs = np.stack((image.ids[:, :-1], image.ids[:, 1:]), axis=2).reshape(-1, 2)
    steps, inverse = np.unique(pairs, axis=0, return_inverse=True)
    good = np.array([space.le(space.step_distance(move(image.support[a]), image.support[b]), delta)
                     for a, b in steps.tolist()], dtype=bool)
    ok = good[inverse.ravel()].reshape(len(image), n).all(axis=1)
    if not ok.all():
        row = family[int(np.argmin(ok))].points
        failure = "a delta-pseudoorbit of the map" if direction == "forward" else "a delta-path"
        raise NotDistancePreservingError(f"{direction} transfer of {row!r} is not {failure}")

    if len(np.unique(image.ids, axis=0)) != len(image):
        raise NotDistancePreservingError(
            "transfer collapsed two distinct paths onto one image")
    label = "pseudo-orbit-of-map" if direction == "forward" else "identity"
    x0 = image.support[image.ids[0, 0]] if direction == "backward" else orbits.x0
    return OrbitSet(image, x0=x0, n=n, delta=delta, exhaustive=False, map_label=label)


def _orbit_distances(space: MetricSpace, family: PathFamily) -> np.ndarray:
    """The (m, m) table of orbit distances between the family's rows: the
    elementwise max over the columns of one gather from each column's
    ``distance_table``."""
    table = np.zeros((len(family), len(family)), dtype=object)
    for points, inverse in _columns(family):
        table = np.maximum(table, space.distance_table(points)[inverse[:, None], inverse])
    return table


def check_distance_preserved(space: MetricSpace, source: OrbitSet, image: OrbitSet) -> int:
    """Exhaustively compare orbit distances between a family and its image.

    Returns the number of pairs compared; raises on any discrepancy, naming
    the first failing pair i < j in row order, or if the comparison would
    exceed ``_PAIR_CAP`` pairs.
    """
    m = len(source.paths)
    if len(image.paths) != m:
        raise InvalidInputError("families must have equal sizes")
    if m * (m - 1) // 2 > _PAIR_CAP:
        raise InvalidInputError(f"pair count exceeds cap {_PAIR_CAP}; reduce the family")
    before = _orbit_distances(space, source.paths)
    after = _orbit_distances(space, image.paths)
    bad = np.triu(~((after <= before + space.tol) & (after >= before - space.tol)), 1)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise NotDistancePreservingError(
            f"paths {i},{j}: orbit distance {before[i, j]} became {after[i, j]}")
    return m * (m - 1) // 2


def round_trip_check(space: MetricSpace, f: MapFn, orbits: OrbitSet) -> dict:
    """Forward then backward transfer; verifies the round trip equals
    applying f^n pointwise and that orbit distances survive both legs."""
    forward = transfer_orbits(space, f, orbits, "forward")
    back = transfer_orbits(space, f, forward, "backward")
    shifted = [map_iterates(space, f, x, orbits.n)[-1] for x in orbits.paths.support]
    expect = [tuple(map(shifted.__getitem__, row)) for row in orbits.paths.ids.tolist()]
    if back.point_rows() != expect:
        raise InvalidInputError("round trip differs from pointwise f^n")
    pairs = check_distance_preserved(space, orbits, forward)
    check_distance_preserved(space, orbits, back)
    return {"paths": len(orbits.paths), "pairs_compared": pairs,
            "round_trip": "pointwise-iterate"}
