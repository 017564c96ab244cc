"""Transfer of path families along distance-preserving maps: preservation
guarantees, round trips, and rejection of non-isometries."""

from fractions import Fraction

import pytest

from coarseentropy import (
    IntLine,
    InvalidInputError,
    NotDistancePreservingError,
    UnknownPointError,
    build_weighted_graph,
    check_distance_preserved,
    cycle_graph,
    enumerate_orbits,
    map_iterates,
    orbit_distance,
    round_trip_check,
    transfer_orbits,
    validate_path,
    validate_pseudoorbit,
)
from coarseentropy.entropy import transfer


class TestMapIterates:
    def test_forward_orbit(self):
        sp = IntLine(max_abs=20)
        assert map_iterates(sp, lambda x: x + 2, 0, 4) == (0, 2, 4, 6, 8)

    def test_points_outside_the_space_are_rejected(self):
        sp = IntLine(max_abs=5)
        with pytest.raises(UnknownPointError):
            map_iterates(sp, lambda x: x + 2, 0, 4)
        with pytest.raises(InvalidInputError):
            map_iterates(sp, lambda x: x, 0, -1)


class TestForwardTransfer:
    def test_translation_preserves_orbit_distances(self):
        sp = IntLine(max_abs=60)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        image = transfer_orbits(sp, lambda x: x + 1, orbits, "forward")
        assert image.map_label == "pseudo-orbit-of-map"
        assert len(image) == len(orbits)
        pairs = check_distance_preserved(sp, orbits, image)
        assert pairs == len(orbits) * (len(orbits) - 1) // 2
        # independent recomputation on a few pairs
        for i, j in [(0, 1), (0, len(orbits) - 1), (5, 11)]:
            assert (orbit_distance(orbits.paths[i], orbits.paths[j], sp)
                    == orbit_distance(image.paths[i], image.paths[j], sp))

    def test_images_are_pseudoorbits_of_the_map(self):
        sp = IntLine(max_abs=60)
        f = lambda x: x + 1
        orbits = enumerate_orbits(sp, 0, 3, 1)
        image = transfer_orbits(sp, f, orbits, "forward")
        for path in image.paths:
            assert validate_pseudoorbit(path.points, 1, sp, f)
        # position i of the image is f^i applied to position i of the source
        for src, img in zip(orbits.paths, image.paths):
            assert img.points == tuple(x + i for i, x in enumerate(src.points))

    def test_rotation_on_a_cycle(self):
        g = cycle_graph(8)
        f = lambda x: (x + 3) % 8
        orbits = enumerate_orbits(g, 0, 2, 1)
        image = transfer_orbits(g, f, orbits, "forward")
        check_distance_preserved(g, orbits, image)

    def test_an_invalid_step_names_the_first_row_using_it(self):
        from coarseentropy import OrbitSet
        sp = IntLine(max_abs=10)
        shift = lambda x: x + 1
        # (0, 3) and (0, 2) are no delta-paths, so their images are no pseudoorbits
        orbits = OrbitSet([(0, 1), (0, 3), (0, 2)], x0=0, n=1, delta=1)
        with pytest.raises(NotDistancePreservingError, match=r"^forward transfer of \(0, 3\) "
                                                             r"is not a delta-pseudoorbit of the map$"):
            transfer_orbits(sp, shift, orbits, "forward")
        # backward, (0, y) goes to (1, y): a delta-path only for y in 0..2
        orbits = OrbitSet([(0, 1), (0, -1), (0, 3), (0, -2)], x0=0, n=1, delta=1)
        with pytest.raises(NotDistancePreservingError,
                           match=r"^backward transfer of \(0, -1\) is not a delta-path$"):
            transfer_orbits(sp, shift, orbits, "backward")

    def test_non_isometry_is_rejected(self):
        sp = IntLine(max_abs=200)
        orbits = enumerate_orbits(sp, 0, 2, 1)
        with pytest.raises(NotDistancePreservingError):
            transfer_orbits(sp, lambda x: 2 * x, orbits, "forward")
        with pytest.raises(NotDistancePreservingError):
            transfer_orbits(sp, lambda x: 0, orbits, "forward")

    def test_map_leaving_the_space_is_rejected(self):
        sp = IntLine(max_abs=4)
        orbits = enumerate_orbits(sp, 0, 2, 1)
        with pytest.raises(UnknownPointError):
            transfer_orbits(sp, lambda x: x + 3, orbits, "forward")

    def test_direction_and_emptiness_validation(self):
        from coarseentropy import OrbitSet
        sp = IntLine(max_abs=10)
        orbits = enumerate_orbits(sp, 0, 1, 1)
        with pytest.raises(InvalidInputError):
            transfer_orbits(sp, lambda x: x, orbits, "sideways")
        empty = OrbitSet((), x0=0, n=1, delta=1)
        with pytest.raises(InvalidInputError):
            transfer_orbits(sp, lambda x: x, empty, "forward")


class TestBackwardTransfer:
    def test_backward_recovers_identity_paths(self):
        sp = IntLine(max_abs=60)
        f = lambda x: x + 1
        orbits = enumerate_orbits(sp, 0, 3, 1)
        forward = transfer_orbits(sp, f, orbits, "forward")
        back = transfer_orbits(sp, f, forward, "backward")
        assert back.map_label == "identity"
        for src, rt in zip(orbits.paths, back.paths):
            # the round trip is the source shifted by f^n
            assert rt.points == tuple(x + 3 for x in src.points)
            assert validate_path(rt.points, 1, sp)

    def test_round_trip_check(self):
        sp = IntLine(max_abs=60)
        orbits = enumerate_orbits(sp, 0, 2, 1)
        rep = round_trip_check(sp, lambda x: x - 1, orbits)
        assert rep["paths"] == len(orbits)
        assert rep["pairs_compared"] == len(orbits) * (len(orbits) - 1) // 2
        assert rep["round_trip"] == "pointwise-iterate"


class TestCheckDistancePreserved:
    def test_rejects_size_mismatch(self):
        sp = IntLine(max_abs=10)
        a = enumerate_orbits(sp, 0, 1, 1)
        b = enumerate_orbits(sp, 0, 2, 1)
        with pytest.raises(InvalidInputError):
            check_distance_preserved(sp, a, b)

    def test_rejects_distorted_families(self):
        from coarseentropy import DeltaPath, OrbitSet
        sp = IntLine(max_abs=10)
        src = OrbitSet((DeltaPath((0, 0), 1), DeltaPath((0, 1), 1)), x0=0, n=1, delta=1)
        img = OrbitSet((DeltaPath((0, 0), 1), DeltaPath((0, 3), 3)), x0=0, n=1, delta=3)
        with pytest.raises(NotDistancePreservingError):
            check_distance_preserved(sp, src, img)

    def test_names_the_first_failing_pair(self):
        from coarseentropy import OrbitSet
        sp = IntLine(max_abs=10)
        src = OrbitSet([(0, 0), (0, 1), (0, 2), (0, 3)], x0=0, n=1, delta=3)
        # the pairs from row 0 and (1, 2) keep their distance; (1, 3) and (2, 3) do not
        img = OrbitSet([(0, 0), (0, 1), (0, 2), (0, -3)], x0=0, n=1, delta=3)
        with pytest.raises(NotDistancePreservingError,
                           match=r"^paths 1,3: orbit distance 2 became 4$"):
            check_distance_preserved(sp, src, img)
        img = OrbitSet([(0, 0), (0, 1), (0, 3), (0, -3)], x0=0, n=1, delta=3)
        with pytest.raises(NotDistancePreservingError,
                           match=r"^paths 0,2: orbit distance 2 became 3$"):
            check_distance_preserved(sp, src, img)

    def test_tables_match_pairwise_orbit_distances(self):
        # the pairwise loop the tables replace, kept as the reference
        g = build_weighted_graph([(k, (k + 1) % 6, Fraction(k + 1, 3)) for k in range(6)])
        orbits = enumerate_orbits(g, 0, 3, 1)
        assert len(orbits) > 20
        paths = list(orbits.paths)
        assert transfer._orbit_distances(g, orbits.paths).tolist() == \
            [[orbit_distance(u, v, g) for v in paths] for u in paths]

    def test_pair_cap(self, monkeypatch):
        sp = IntLine(max_abs=30)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        monkeypatch.setattr(transfer, "_PAIR_CAP", 10)
        with pytest.raises(InvalidInputError, match="pair count exceeds cap 10"):
            check_distance_preserved(sp, orbits, orbits)
