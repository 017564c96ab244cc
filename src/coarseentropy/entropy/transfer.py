"""Transfer of path families along a distance-preserving self-map.

For a self-map f of the space, the forward transfer turns an identity
delta-path (x_0, ..., x_n) into the delta-pseudoorbit of f

    (x_0, f(x_1), f^2(x_2), ..., f^n(x_n)),

and the backward transfer turns a delta-pseudoorbit (y_0, ..., y_n) of f
into the identity delta-path

    (f^n(y_0), f^{n-1}(y_1), ..., y_n).

Both constructions are validated on their outputs, and at every
application of f the distance table of the points it moves is compared
with the table of their images (failures raise NotDistancePreservingError).
Backward after forward equals applying f^n pointwise.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import InvalidInputError, NotDistancePreservingError
from ..paths import OrbitSet, PathFamily
from ..spaces.base import MetricSpace, PointRef

__all__ = ["map_iterates", "transfer_orbits", "check_distance_preserved", "round_trip_check"]

MapFn = Callable[[PointRef], PointRef]

# most path pairs check_distance_preserved compares
_PAIR_CAP = 200_000


def map_iterates(space: MetricSpace, f: MapFn, x: PointRef, n: int) -> Tuple[PointRef, ...]:
    """The forward orbit (x, f(x), ..., f^n(x)) with every point validated."""
    if not isinstance(n, int) or n < 0:
        raise InvalidInputError(f"n must be a nonnegative integer: {n!r}")
    space.check_point(x)
    out = [x]
    for _ in range(n):
        out.append(f(out[-1]))
        space.check_point(out[-1])
    return tuple(out)


def _first_moved(space: MetricSpace, before: np.ndarray,
                 after: np.ndarray) -> Optional[Tuple[int, int]]:
    """The first pair i < j in row order whose entry differs between two
    distance tables by more than the space tolerance, or None."""
    tol = space.tol
    moved = np.argwhere(np.triu(~((after <= before + tol) & (after >= before - tol)), 1))
    return tuple(moved[0].tolist()) if len(moved) else None


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
    Orbit distances are preserved exactly; this is enforced by comparing,
    at every application of f, the distance table of a column's points with
    the table of their images.  f is called once per distinct point, and
    each distinct image step is checked once.
    """
    if direction not in ("forward", "backward"):
        raise InvalidInputError(f"direction must be 'forward' or 'backward': {direction!r}")
    family, n, delta = orbits.paths, orbits.n, orbits.delta
    if not len(family):
        raise InvalidInputError("empty orbit family")
    for p in family.support:
        space.check_point(p)
    values: Dict[PointRef, PointRef] = {}

    def apply(x: PointRef) -> PointRef:
        y = values.get(x)
        if y is None:
            y = f(x)
            space.check_point(y)
            values[x] = y
        return y

    # the points at position i travel through i (forward) or n - i
    # (backward) applications of f; each one's "after" table is the next
    # one's "before" table
    index: Dict[PointRef, int] = {}
    columns = []
    for i, (points, inverse) in enumerate(_columns(family)):
        times = i if direction == "forward" else n - i
        before = space.distance_table(points) if times else None
        for _ in range(times):
            moved = [apply(x) for x in points]
            after = space.distance_table(moved)
            pair = _first_moved(space, before, after)
            if pair:
                a, b = pair
                raise NotDistancePreservingError(f"map sends d({points[a]!r},{points[b]!r})="
                                                 f"{before[a, b]} to d(f a,f b)={after[a, b]}")
            points, before = moved, after
        columns.append(np.array([index.setdefault(y, len(index)) for y in points])[inverse])
    image = PathFamily(tuple(index), np.stack(columns, axis=1), delta)

    # a forward step measures d(f(y_i), y_{i+1}), a backward one d(y_i, y_{i+1})
    move = apply if direction == "forward" else (lambda y: y)
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
    ``distance_table``, int64 while every column table is."""
    table = np.zeros((len(family), len(family)), dtype=np.int64)
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
    if image.paths.ids.shape[1] != source.paths.ids.shape[1]:
        raise InvalidInputError("families must have equal path lengths")
    if m * (m - 1) // 2 > _PAIR_CAP:
        raise InvalidInputError(f"pair count exceeds cap {_PAIR_CAP}; reduce the family")
    before = _orbit_distances(space, source.paths)
    after = _orbit_distances(space, image.paths)
    pair = _first_moved(space, before, after)
    if pair:
        i, j = pair
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
