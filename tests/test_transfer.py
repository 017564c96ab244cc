"""Transfer of path families along distance-preserving maps: preservation
guarantees, round trips, and rejection of non-isometries."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from coarseentropy import (
    IntLine,
    InvalidInputError,
    NotDistancePreservingError,
    UnknownPointError,
    build_finite_space,
    build_weighted_graph,
    check_distance_preserved,
    cycle_graph,
    enumerate_orbits,
    make_example,
    map_iterates,
    orbit_distance,
    path_graph,
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

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_a_non_integer_count_is_refused(self, n):
        sp = IntLine(max_abs=5)
        with pytest.raises(InvalidInputError, match=r"^n must be a nonnegative integer: "):
            map_iterates(sp, lambda x: x + 1, 0, n)


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

    def test_two_paths_sent_onto_one_image_are_refused(self):
        from coarseentropy import OrbitSet
        # 1 and 2 are a quarter apart, within the tolerance of a half: a map
        # that sends 2 to 1 moves no distance past it, yet merges two paths
        dist = {frozenset({0, 1}): 1, frozenset({0, 2}): 1, frozenset({1, 2}): Fraction(1, 4)}
        sp = build_finite_space([0, 1, 2], lambda a, b: 0 if a == b else dist[frozenset({a, b})])
        sp.tol = Fraction(1, 2)
        orbits = OrbitSet([(0, 1), (0, 2)], x0=0, n=1, delta=1)
        with pytest.raises(NotDistancePreservingError,
                           match=r"^transfer collapsed two distinct paths onto one image$"):
            transfer_orbits(sp, {0: 0, 1: 1, 2: 1}.__getitem__, orbits, "forward")

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


def pairwise_map_failure(space, f, orbits, direction):
    """The reference isometry check: each column's distinct points in id
    order, applied f i (forward) or n - i (backward) times, every pair of
    them measured before and after each application.  The message of the
    first pair whose distance changes, or None."""
    family = orbits.paths
    for i, column in enumerate(family.ids.T):
        points = [family.support[a] for a in sorted(set(column.tolist()))]
        for _ in range(i if direction == "forward" else orbits.n - i):
            for k, a in enumerate(points):
                for b in points[k + 1:]:
                    before, after = space.distance(a, b), space.distance(f(a), f(b))
                    if after != before:
                        return f"map sends d({a!r},{b!r})={before} to d(f a,f b)={after}"
            points = [f(x) for x in points]
    return None


class TestMapCheck:
    SIX_CYCLE = [(k, (k + 1) % 6, Fraction(k + 1, 3)) for k in range(6)]

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("space, f, n, message", [
        (IntLine(max_abs=50), lambda x: 2 * x, 2, "d(0,-1)=1 to d(f a,f b)=2"),
        (IntLine(max_abs=50), lambda x: 0, 2, "d(0,-1)=1 to d(f a,f b)=0"),
        (IntLine(max_abs=50), abs, 3, "d(-1,1)=2 to d(f a,f b)=0"),
        (build_weighted_graph(SIX_CYCLE), lambda x: (x + 1) % 6, 2,
         "d(0,1)=1/3 to d(f a,f b)=2/3"),
    ], ids=["double", "constant", "abs", "weighted-rotation"])
    def test_names_the_first_pair_the_map_moves(self, space, f, n, message, direction):
        # the identity family goes in both ways: backward, the map check
        # fires before the step check could refuse the family
        orbits = enumerate_orbits(space, 0, n, 1)
        with pytest.raises(NotDistancePreservingError,
                           match="^" + re.escape("map sends " + message) + "$"):
            transfer_orbits(space, f, orbits, direction)

    def test_the_map_is_called_once_per_distinct_point(self):
        sp = IntLine(max_abs=50)
        calls = []

        def shift(x):
            calls.append(x)
            return x + 1

        orbits = enumerate_orbits(sp, 0, 3, 1)
        forward = transfer_orbits(sp, shift, orbits, "forward")
        assert len(calls) == len(set(calls)) == 9
        calls.clear()
        transfer_orbits(sp, shift, forward, "backward")
        assert len(calls) == len(set(calls)) == 5

    def test_fails_exactly_where_the_pairwise_check_does(self):
        rng = random.Random(33)
        outcomes = {True: 0, False: 0}
        for size, graph in [(5, cycle_graph(5)), (6, cycle_graph(6)), (5, path_graph(5)),
                            (6, path_graph(6))]:
            vertices = list(range(size))
            maps = [{v: (v + 1) % size for v in vertices}, {v: size - 1 - v for v in vertices}]
            maps += [dict(zip(vertices, rng.sample(vertices, size))) for _ in range(4)]
            maps += [{v: rng.choice(vertices) for v in vertices} for _ in range(4)]
            for table in maps:
                for n in (1, 2, 3):
                    orbits = enumerate_orbits(graph, 0, n, 1)
                    for direction in ("forward", "backward"):
                        expect = pairwise_map_failure(graph, table.__getitem__, orbits, direction)
                        outcomes[expect is None] += 1
                        if expect is None:
                            try:
                                transfer_orbits(graph, table.__getitem__, orbits, direction)
                            except NotDistancePreservingError as e:
                                assert not str(e).startswith("map sends")
                        else:
                            with pytest.raises(NotDistancePreservingError,
                                               match="^" + re.escape(expect) + "$"):
                                transfer_orbits(graph, table.__getitem__, orbits, direction)
        assert min(outcomes.values()) > 20


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


def object_orbit_distances(space, family):
    """The object-dtype orbit-distance table, kept as the reference for the
    int64 one."""
    table = np.zeros((len(family), len(family)), dtype=object)
    for points, inverse in transfer._columns(family):
        table = np.maximum(table, space.distance_table(points)[inverse[:, None], inverse])
    return table


class TestCheckDistancePreserved:
    def test_rejects_size_mismatch(self):
        sp = IntLine(max_abs=10)
        a = enumerate_orbits(sp, 0, 1, 1)
        b = enumerate_orbits(sp, 0, 2, 1)
        with pytest.raises(InvalidInputError):
            check_distance_preserved(sp, a, b)

    def test_rejects_unequal_path_lengths(self):
        from coarseentropy import OrbitSet
        sp = IntLine(max_abs=10)
        src = OrbitSet([(0, 1), (0, 0)], x0=0, n=1, delta=1)
        for longer in ([(0, 1, 2), (0, 0, 0)], [(0, 1, 1), (0, 0, 0)]):
            img = OrbitSet(longer, x0=0, n=2, delta=1)
            with pytest.raises(InvalidInputError, match=r"^families must have equal path lengths$"):
                check_distance_preserved(sp, src, img)
            with pytest.raises(InvalidInputError, match=r"^families must have equal path lengths$"):
                check_distance_preserved(sp, img, src)

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

    def test_int_tables_match_the_object_path(self, monkeypatch):
        # int_line families of 3 to 27 paths against their shifts and random
        # rows: the int64 tables hold the object tables' values, and the
        # check ends with the same bytes either way
        from coarseentropy import OrbitSet
        rng = random.Random(11)
        sp = IntLine(max_abs=40)

        def outcome(src, img):
            try:
                return check_distance_preserved(sp, src, img)
            except NotDistancePreservingError as exc:
                return str(exc)

        results = []
        for n in (1, 2, 3):
            src = enumerate_orbits(sp, 0, n, 1)
            rows = src.point_rows()
            images = [OrbitSet([tuple(x + 1 for x in r) for r in rows], x0=1, n=n, delta=1)]
            images += [OrbitSet([tuple(rng.randint(-4, 4) for _ in r) for r in rows],
                                x0=0, n=n, delta=8) for _ in range(12)]
            for img in images:
                table = transfer._orbit_distances(sp, img.paths)
                got = (table.tolist(), outcome(src, img))
                with monkeypatch.context() as patch:
                    patch.setattr(transfer, "_orbit_distances", object_orbit_distances)
                    reference = transfer._orbit_distances(sp, img.paths)
                    expected = (reference.tolist(), outcome(src, img))
                assert (table.dtype, reference.dtype) == (np.int64, object)
                assert got == expected
                results.append(expected[1])
        # the three shifts pass, and random rows fail
        assert [r for r in results if not isinstance(r, str)] == [3, 36, 351]

    def test_other_tables_stay_objects(self):
        # Fractions, floats and ints past 2**53 keep the object path
        from coarseentropy import OrbitSet
        g = build_weighted_graph([(k, (k + 1) % 6, Fraction(k + 1, 3)) for k in range(6)])
        log_line = make_example("log_line")
        big = IntLine(max_abs=2 ** 60)
        cases = [(g, enumerate_orbits(g, 0, 2, 1), Fraction),
                 (log_line, enumerate_orbits(log_line, 0, 2, 1), float),
                 (big, OrbitSet([(0, 0), (0, 2 ** 55), (0, 2 ** 55 + 1)], x0=0, n=1, delta=2 ** 56),
                  int)]
        for space, orbits, kind in cases:
            table = transfer._orbit_distances(space, orbits.paths)
            paths = list(orbits.paths)
            assert table.dtype == object
            assert table.tolist() == [[orbit_distance(u, v, space) for v in paths] for u in paths]
            assert kind in {type(d) for d in table.flat}
        shifted = OrbitSet([(0, 0), (0, 2 ** 55), (0, 2 ** 55 + 2)], x0=0, n=1, delta=2 ** 56)
        with pytest.raises(NotDistancePreservingError,
                           match=r"^paths 0,2: orbit distance 36028797018963969 became "
                                 r"36028797018963970$"):
            check_distance_preserved(big, cases[2][1], shifted)

    def test_pair_cap(self, monkeypatch):
        sp = IntLine(max_abs=30)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        monkeypatch.setattr(transfer, "_PAIR_CAP", 10)
        with pytest.raises(InvalidInputError, match="pair count exceeds cap 10"):
            check_distance_preserved(sp, orbits, orbits)
