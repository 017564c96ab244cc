"""Ping-pong witness families: certified lower bounds for separated counts.

A witness family is built from a base path (from the basepoint to a hub)
and A >= 2 arm paths leaving the hub whose out-and-back profiles are
pairwise R-separated.  Each word w in {0..A-1}^p yields one delta-path:
follow the base, then for each letter run the arm out and back.  Two paths
with different words are R-separated at the first differing round trip, so
the family witnesses s(n, R) >= A**p with n = len(base) + 2*p*len(arm).

The family is lazy: members are generated on demand (``path_at``), and
pairwise separation is proved from the A-by-A arm profile matrix without
materializing or comparing A**p paths: the closest two members are exactly
the smallest off-diagonal profile entry apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CapExceededError, InvalidInputError
from ..numbers import Dist, dist_to_jsonable
from ..paths import DeltaPath, OrbitSet, orbit_distance, pad_path, validate_path
from ..spaces.base import MetricSpace

__all__ = ["WitnessFamily", "build_witness", "pingpong_witness", "catalog_pingpong",
           "pad_arms", "spot_check_members"]

# most points a family may hold once materialized: members times (n + 1)
_MATERIALIZE_POINTS = 8_000_000


@dataclass(frozen=True)
class WitnessFamily:
    """A ping-pong family of delta-paths certified pairwise R-separated."""

    space: MetricSpace
    base: DeltaPath
    arms: Tuple[DeltaPath, ...]
    p: int
    R: Dist
    profile: Tuple[Tuple[Dist, ...], ...] = field(repr=False)

    @property
    def delta(self) -> Dist:
        return self.base.delta

    @property
    def arm_count(self) -> int:
        return len(self.arms)

    @property
    def arm_length(self) -> int:
        return self.arms[0].length

    @property
    def n(self) -> int:
        """Length of every member path."""
        return self.base.length + 2 * self.p * self.arm_length

    @property
    def size(self) -> int:
        return self.arm_count ** self.p

    @property
    def rate_bound(self) -> float:
        """ln(size)/n: the separated-count rate this family witnesses."""
        return self.p * math.log(self.arm_count) / self.n

    def word_at(self, index: int) -> Tuple[int, ...]:
        if not 0 <= index < self.size:
            raise InvalidInputError(f"witness index out of range: {index}")
        digits = []
        for _ in range(self.p):
            digits.append(index % self.arm_count)
            index //= self.arm_count
        return tuple(reversed(digits))

    def path_at(self, index: int) -> DeltaPath:
        points: List = list(self.base.points)
        for letter in self.word_at(index):
            arm = self.arms[letter].points
            points.extend(arm[1:])
            points.extend(reversed(arm[:-1]))
        return DeltaPath(tuple(points), self.delta)

    def iter_paths(self) -> Iterator[DeltaPath]:
        for i in range(self.size):
            yield self.path_at(i)

    def to_orbit_set(self) -> OrbitSet:
        """Every member, materialized.  Raises CapExceededError when that
        takes more than ``_MATERIALIZE_POINTS`` points."""
        total_points = self.size * (self.n + 1)
        if total_points > _MATERIALIZE_POINTS:
            raise CapExceededError(
                f"materializing {self.size} members of length {self.n} needs {total_points} "
                f"points, above the budget {_MATERIALIZE_POINTS}; iterate the family lazily "
                "instead", partial=0)
        return OrbitSet(tuple(self.iter_paths()), x0=self.base.start, n=self.n,
                        delta=self.delta, exhaustive=False, map_label="identity")

    def pair_distance_bound(self, i: int, j: int) -> Dist:
        """Lower bound for the orbit distance of members i and j, from the
        arm profile matrix (equals the true distance restricted to arms)."""
        wi, wj = self.word_at(i), self.word_at(j)
        best: Dist = 0
        for a, b in zip(wi, wj):
            d = self.profile[a][b]
            if d > best:
                best = d
        return best

    def check_pairwise_separated(self) -> int:
        """Prove every pair of distinct members R-separated; returns the
        number of ordered member pairs the proof covers (size * size).

        Members share their base positions and realise the profile on each
        round trip, and the profile diagonal is zero, so two members are as
        far apart as the largest profile entry over the letters where their
        words differ.  Distinct words differ in some letter, so the closest
        members are exactly the smallest off-diagonal profile entry apart,
        which is compared with R exactly.  Raises when it is below R, naming
        two members at that distance.
        """
        A = self.arm_count
        off_diagonal = [(self.profile[a][b], a, b) for a in range(A) for b in range(A) if a != b]
        if off_diagonal:
            d, a, b = min(off_diagonal, key=lambda entry: entry[0])
            if not self.space.ge(d, self.R):
                # words (a, 0, ..., 0) and (b, 0, ..., 0)
                step = A ** (self.p - 1)
                raise InvalidInputError(
                    f"witness members {a * step} and {b * step} are only {d} apart, "
                    f"below R={self.R}")
        return self.size * self.size

    def to_jsonable(self) -> dict:
        return {
            "space": self.space.name,
            "delta": dist_to_jsonable(self.delta),
            "R": dist_to_jsonable(self.R),
            "arms": self.arm_count,
            "arm_length": self.arm_length,
            "base_length": self.base.length,
            "p": self.p,
            "n": self.n,
            "size": self.size,
            "rate_bound": self.rate_bound,
        }


def pad_arms(arms: Sequence[DeltaPath], length: Optional[int] = None) -> List[DeltaPath]:
    """Pad arms to a common length by repeating their last points."""
    if not arms:
        return []
    target = max(a.length for a in arms) if length is None else length
    return [pad_path(a, target) for a in arms]


def build_witness(space: MetricSpace, base: DeltaPath, arms: Sequence[DeltaPath],
                  p: int, R: Dist) -> WitnessFamily:
    """Assemble and fully validate a ping-pong witness family.

    Checks: base and arms are valid delta-paths with one shared delta, all
    arms start at the base's end with one shared positive length (pad with
    ``pad_arms`` first if needed), and the arm endpoints are pairwise at
    least R apart — which is what makes any two distinct members
    R-separated at the first round trip where their words differ.
    """
    if p < 1:
        raise InvalidInputError(f"p must be >= 1: {p!r}")
    if len(arms) < 1:
        raise InvalidInputError("a witness family needs at least one arm")
    if not R > 0:
        raise InvalidInputError(f"R must be positive: {R!r}")
    delta = base.delta
    if not validate_path(base.points, delta, space):
        raise InvalidInputError("base is not a valid delta-path")
    lengths = {arm.length for arm in arms}
    if len(lengths) != 1:
        raise InvalidInputError(
            f"arms must share one length, got {sorted(lengths)}; pad_arms can fix this")
    if lengths == {0}:
        raise InvalidInputError("arms must have positive length")
    hub = base.end
    for k, arm in enumerate(arms):
        if arm.delta != delta:
            raise InvalidInputError(f"arm {k} uses delta={arm.delta}, base uses {delta}")
        if arm.start != hub:
            raise InvalidInputError(f"arm {k} starts at {arm.start!r}, not the base end {hub!r}")
        if not validate_path(arm.points, delta, space):
            raise InvalidInputError(f"arm {k} is not a valid delta-path")
    # one table per arm position; the last holds the endpoint distances
    tables = [space.distance_table(column) for column in zip(*(arm.points for arm in arms))]
    for i in range(len(arms)):
        for j in range(i + 1, len(arms)):
            d = tables[-1][i, j]
            if not space.ge(d, R):
                raise InvalidInputError(
                    f"arm endpoints {i} and {j} are only {d} apart, below R={R}")
    # the orbit distance is the sup over positions
    prof = np.maximum.reduce(tables)
    return WitnessFamily(space=space, base=base, arms=tuple(arms), p=p, R=R,
                         profile=tuple(map(tuple, prof)))


def pingpong_witness(space: MetricSpace, x0, base: DeltaPath, arms: Sequence[DeltaPath],
                     p: int, R: Dist):
    """Validated ping-pong family, materialized: returns (OrbitSet, rate bound).

    The rate bound is p*ln|arms| / (L + 2pD) with L the base length and D
    the arm length; the family of |arms|**p members witnesses
    separated_count >= |arms|**p at length L + 2pD.  Raises
    CapExceededError when materializing would exceed ``_MATERIALIZE_POINTS``
    total points — use build_witness for the lazy family in that regime.
    """
    if base.start != x0:
        raise InvalidInputError(f"base starts at {base.start!r}, expected x0={x0!r}")
    fam = build_witness(space, base, arms, p, R)
    if fam.arm_count > 1:
        fam.check_pairwise_separated()
        spot = sorted({0, fam.size // 2, fam.size - 1})
        spot_check_members(fam, spot)
    return fam.to_orbit_set(), fam.rate_bound


def catalog_pingpong(space: MetricSpace, delta: Dist, R: Dist, p: int) -> WitnessFamily:
    """Witness family from a space's own arm construction (lazy).

    Only spaces that expose ``pingpong_arms(delta, R)`` (the line with
    attached trees does) support this; everything else raises.
    """
    maker = getattr(space, "pingpong_arms", None)
    if maker is None:
        raise InvalidInputError(
            f"space {space.name} does not provide a ping-pong arm construction")
    base, arms = maker(delta, R)
    return build_witness(space, base, arms, p, R)


def spot_check_members(family: WitnessFamily, indices: Sequence[int]) -> dict:
    """Materialize selected members, re-validate them as delta-paths, and
    recompute their pairwise orbit distances exactly (no profile shortcut)."""
    paths = {}
    for i in indices:
        path = family.path_at(i)
        if not validate_path(path.points, family.delta, family.space):
            raise InvalidInputError(f"witness member {i} is not a valid delta-path")
        if path.start != family.base.start:
            raise InvalidInputError("witness member does not start at the basepoint")
        if path.length != family.n:
            raise InvalidInputError("witness member has the wrong length")
        paths[i] = path
    idx = sorted(paths)
    min_pair: Optional[Dist] = None
    for a_i, i in enumerate(idx):
        for j in idx[a_i + 1:]:
            d = orbit_distance(paths[i], paths[j], family.space)
            bound = family.pair_distance_bound(i, j)
            # base positions coincide and arm positions realize the profile,
            # so the exact distance must equal the profile value
            if not (family.space.ge(d, bound) and family.space.le(d, bound)):
                raise InvalidInputError(
                    f"members {i},{j}: exact distance {d} != profile value {bound}")
            if min_pair is None or d < min_pair:
                min_pair = d
    return {"checked": len(idx), "min_pairwise": min_pair}
