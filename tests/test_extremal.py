"""Packing/covering solvers against exhaustive subset-enumeration oracles,
plus the combinatorial identities that relate them."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseentropy import (
    IntLine,
    InvalidInputError,
    MetricItems,
    cycle_graph,
    enumerate_orbits,
    greedy_net,
    make_example,
    max_band_clique,
    max_separated,
    min_dense,
    orbit_distance,
    verify_dense,
    verify_separated,
)
from coarseentropy import extremal

from conftest import (
    brute_max_band_clique,
    brute_max_separated,
    brute_min_dense,
    random_metric,
)


def items_from_matrix(mat):
    n = len(mat)
    return MetricItems(list(range(n)), lambda i, j: mat[i][j])


class TestMaxSeparated:
    def test_matches_brute_force_on_random_metrics(self, rng):
        for trial in range(30):
            n = rng.randint(1, 11)
            mat = random_metric(rng, n)
            R = rng.randint(1, 14)
            items = items_from_matrix(mat)
            res = max_separated(items, R)
            assert res.certificate == "exact"
            assert res.size == brute_max_separated(n, lambda i, j: mat[i][j], R)
            # returned selection really is R-separated
            for a_i, i in enumerate(res.selected):
                for j in res.selected[a_i + 1:]:
                    assert mat[i][j] >= R

    def test_greedy_is_a_certified_lower_bound(self, rng):
        for trial in range(10):
            n = rng.randint(2, 11)
            mat = random_metric(rng, n)
            R = rng.randint(1, 10)
            items = items_from_matrix(mat)
            greedy = max_separated(items, R, exact_limit=0)
            exact = max_separated(items, R)
            assert greedy.certificate == "lower-bound"
            assert greedy.size <= exact.size
            for a_i, i in enumerate(greedy.selected):
                for j in greedy.selected[a_i + 1:]:
                    assert mat[i][j] >= R

    def test_empty_family(self):
        items = MetricItems([], lambda i, j: 0)
        res = max_separated(items, 3)
        assert res.size == 0 and res.certificate == "exact"

    def test_rejects_nonpositive_R(self):
        items = items_from_matrix([[0, 1], [1, 0]])
        with pytest.raises(InvalidInputError):
            max_separated(items, 0)


class TestMinDense:
    def test_matches_brute_force_on_random_metrics(self, rng):
        for trial in range(25):
            n = rng.randint(1, 10)
            mat = random_metric(rng, n)
            R = rng.randint(1, 14)
            items = items_from_matrix(mat)
            res = min_dense(items, R)
            assert res.certificate == "exact"
            assert res.size == brute_min_dense(n, lambda i, j: mat[i][j], R)
            # returned selection really covers with strict inequality
            for i in range(n):
                assert any(mat[i][c] < R for c in res.selected)

    def test_greedy_is_a_certified_upper_bound(self, rng):
        for trial in range(10):
            n = rng.randint(2, 10)
            mat = random_metric(rng, n)
            R = rng.randint(2, 10)
            items = items_from_matrix(mat)
            greedy = min_dense(items, R, exact_limit=0, greedy_limit=1500)
            exact = min_dense(items, R)
            assert greedy.certificate == "upper-bound"
            assert greedy.size >= exact.size

    def test_single_item_needs_itself(self):
        items = items_from_matrix([[0]])
        assert min_dense(items, 1).size == 1


class TestDualityAndMonotonicity:
    def test_packing_covering_sandwich(self, rng):
        # s(2R) <= r(R) <= s(R): a maximal R-separated set is R-dense, and
        # distinct 2R-separated items cannot share a strict R-ball
        for trial in range(40):
            n = rng.randint(1, 11)
            mat = random_metric(rng, n)
            R = rng.randint(1, 12)
            items = items_from_matrix(mat)
            s_R = max_separated(items, R).size
            s_2R = max_separated(items, 2 * R).size
            r_R = min_dense(items, R).size
            assert s_2R <= r_R <= s_R

    def test_separated_count_monotone_under_inclusion(self, rng):
        for trial in range(25):
            n = rng.randint(2, 11)
            mat = random_metric(rng, n)
            R = rng.randint(1, 12)
            k = rng.randint(1, n)
            keep = sorted(rng.sample(range(n), k))
            sub = MetricItems(keep, lambda i, j: mat[keep[i]][keep[j]])
            full = items_from_matrix(mat)
            assert max_separated(sub, R).size <= max_separated(full, R).size


class TestVerifiers:
    def test_verify_separated_rejects_close_pair(self):
        mat = [[0, 1, 5], [1, 0, 5], [5, 5, 0]]
        items = items_from_matrix(mat)
        verify_separated(items, 5, (0, 2))
        with pytest.raises(InvalidInputError):
            verify_separated(items, 2, (0, 1))

    def test_verify_dense_rejects_non_cover(self):
        mat = [[0, 1, 5], [1, 0, 5], [5, 5, 0]]
        items = items_from_matrix(mat)
        verify_dense(items, 2, (0, 2))
        with pytest.raises(InvalidInputError):
            verify_dense(items, 2, (0,))
        with pytest.raises(InvalidInputError):
            verify_dense(items, 2, ())

    def test_vectorized_and_scalar_verifiers_agree(self):
        sp = IntLine(max_abs=50)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        items = MetricItems.from_orbits(sp, orbits.paths)
        assert items.vectors is not None
        res = max_separated(items, 3)
        verify_separated(items, 3, res.selected)  # vectorized path
        plain = MetricItems(list(range(len(items))),
                            lambda i, j: items.dist(i, j))
        verify_separated(plain, 3, res.selected)  # scalar path
        dense = min_dense(items, 3)
        verify_dense(items, 3, dense.selected)
        verify_dense(plain, 3, dense.selected)


def orbit_items(name, n):
    sp = make_example(name)
    return MetricItems.from_orbits(sp, enumerate_orbits(sp, sp.basepoint, n, 1).paths)


def scalar_twin(items):
    return MetricItems(list(range(len(items))), lambda i, j: items.dist(i, j))


class TestCoverCertificates:
    """verify_dense with an assignment: one center per item, all checked."""

    @pytest.fixture(params=["vectorized", "scalar"])
    def cover(self, request):
        items = orbit_items("int_line", 4)
        assert items.vectors is not None
        if request.param == "scalar":
            items = scalar_twin(items)
        res = min_dense(items, 3)
        assignment = [min(c for c in res.selected if items.dist(i, c) < 3)
                      for i in range(len(items))]
        return items, res.selected, assignment

    def test_accepts_the_lowest_index_assignment(self, cover):
        items, sel, assignment = cover
        verify_dense(items, 3, sel, assignment)

    def test_rejects_an_entry_outside_the_selection(self, cover):
        items, sel, assignment = cover
        bad = list(assignment)
        i = len(items) - 1
        bad[i] = next(c for c in range(len(items)) if c not in sel and items.dist(i, c) < 3)
        with pytest.raises(InvalidInputError, match="not in the cover"):
            verify_dense(items, 3, sel, bad)

    def test_rejects_a_center_at_distance_R_or_more(self, cover):
        items, sel, assignment = cover
        i, far = next((i, c) for i in reversed(range(len(items))) for c in sel
                      if items.dist(i, c) == 3)
        bad = list(assignment)
        bad[i] = far
        with pytest.raises(InvalidInputError, match=f"item {i} is not within 3"):
            verify_dense(items, 3, sel, bad)
        # the assignment is checked in full, whatever the work cap
        with pytest.raises(InvalidInputError, match=f"item {i} is not within 3"):
            verify_dense(items, 3, sel, bad, work_cap=1)

    def test_rejects_a_wrong_length(self, cover):
        items, sel, assignment = cover
        for bad in (assignment[:-1], assignment + [sel[0]], []):
            with pytest.raises(InvalidInputError, match="entries for"):
                verify_dense(items, 3, sel, bad)

    @pytest.mark.parametrize("name, n, R, strategy", [
        ("int_line", 2, 3, "nodes"),
        ("int_line", 4, 3, "strategy_max_coverage"),
        ("int_line", 4, 2, "strategy_max_coverage"),
        ("int_line", 7, 4, "strategy_first_uncovered"),
        ("regular_tree", 2, 2, "nodes"),
        ("regular_tree", 4, 2, "strategy_max_coverage"),
    ])
    @pytest.mark.parametrize("form", ["vectorized", "scalar"])
    def test_solvers_assign_the_lowest_index_covering_center(self, monkeypatch, name, n, R,
                                                             strategy, form):
        items = orbit_items(name, n)
        if form == "scalar":
            items = scalar_twin(items)
        seen = []
        real = extremal.verify_dense

        def spy(items_, R_, selected, assignment=None):
            seen.append(list(assignment))
            return real(items_, R_, selected, assignment)

        monkeypatch.setattr(extremal, "verify_dense", spy)
        greedy_limit = 1500 if form == "vectorized" else 400
        if strategy == "strategy_first_uncovered":
            greedy_limit = 0
        res = min_dense(items, R, greedy_limit=greedy_limit)
        assert strategy in res.stats
        assert seen == [[min(c for c in res.selected if items.dist(i, c) < R)
                         for i in range(len(items))]]


def _selection_digest(selected):
    return hashlib.sha256(",".join(map(str, selected)).encode()).hexdigest()


# (space, n, R, solver, size, certificate, sha256 of the comma-joined selection):
# a change to the enumeration order or to a solver's choices shows here
PINNED_SELECTIONS = [
    ("int_line", 3, 4, "min_dense", 1, "upper-bound",
     "ef2d127de37b942baad06145e54b0c619a1f22327b2ebbcfbec78f5564afe39d"),
    ("int_line", 3, 4, "max_separated", 2, "exact",
     "870832a6e38931f23a57956d831088219bc8ffeb8e92666132c67793f3b18749"),
    ("int_line", 6, 4, "min_dense", 3, "upper-bound",
     "8956355714193c0b8bf6ed7bc455e3d412bf8c1f6d9c7810e6ba7a8ce847b57d"),
    ("int_line", 6, 4, "max_separated", 8, "lower-bound",
     "7bb0e2de9c98f8c5c1bc2635dd022c313f2694282df32c3580d917c93962d579"),
    ("int_line", 9, 4, "min_dense", 16, "upper-bound",
     "e90cf0624963e7d052bc369b062c97f50c41e1c1dfcd223fa79ed9b98020ffe8"),
    ("int_line", 9, 4, "max_separated", 16, "lower-bound",
     "e90cf0624963e7d052bc369b062c97f50c41e1c1dfcd223fa79ed9b98020ffe8"),
    ("regular_tree", 2, 2, "min_dense", 3, "exact",
     "8a6ae15122001229edb8866f56e342af12ae8187203c3e3b33931743e7c0c48d"),
    ("regular_tree", 2, 2, "max_separated", 9, "exact",
     "75e4b2dd23b6852aa1535f34cf2fac9f4fceae1c7be347674ba116c8eca9814e"),
    ("regular_tree", 4, 2, "min_dense", 22, "upper-bound",
     "e523dc51f75927e0f660db9b4179312900b5760848a1485b2996621f65aced41"),
    ("regular_tree", 4, 2, "max_separated", 61, "lower-bound",
     "ef09605f3be6e5ac038be63438d8338f02f90087fd02c49bf38309192a50af53"),
]


@pytest.mark.parametrize("name, n, R, solver, size, certificate, digest", PINNED_SELECTIONS)
def test_pinned_selections(name, n, R, solver, size, certificate, digest):
    solve = {"min_dense": min_dense, "max_separated": max_separated}[solver]
    res = solve(orbit_items(name, n), R)
    assert (res.size, res.certificate, _selection_digest(res.selected)) == \
        (size, certificate, digest)


class TestFromOrbits:
    def test_dist_is_the_sup_metric(self):
        sp = IntLine(max_abs=50)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        items = MetricItems.from_orbits(sp, orbits.paths)
        for i in range(0, len(items), 7):
            for j in range(0, len(items), 11):
                assert items.dist(i, j) == orbit_distance(
                    orbits.paths[i], orbits.paths[j], sp)

    def test_vectorized_counts_match_scalar_counts(self):
        sp = IntLine(max_abs=50)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        fast = MetricItems.from_orbits(sp, orbits.paths)
        slow = MetricItems.from_orbits(sp, orbits.paths, point_limit=0)
        assert fast.vectors is not None and slow.vectors is None
        for R in (1, 2, 4):
            assert max_separated(fast, R).size == max_separated(slow, R).size
            assert min_dense(fast, R).size == min_dense(slow, R).size

    def test_rejects_ragged_or_empty_families(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            MetricItems.from_orbits(sp, [])
        with pytest.raises(InvalidInputError):
            MetricItems.from_orbits(sp, [(0, 1), (0, 1, 2)])


class TestGreedyNet:
    def test_arithmetic_progression(self):
        sp = IntLine(max_abs=50)
        assert greedy_net(sp, list(range(10)), 3) == [0, 3, 6, 9]

    def test_first_point_seeds_the_net(self):
        sp = IntLine(max_abs=50)
        net = greedy_net(sp, [5] + list(range(10)), 3)
        assert net[0] == 5
        # maximality: every window point is within s of some net point
        for p in range(10):
            assert min(abs(p - z) for z in net) < 3

    def test_net_is_separated(self):
        g = cycle_graph(12)
        net = greedy_net(g, list(g.points), 4)
        for i, a in enumerate(net):
            for b in net[i + 1:]:
                assert g.distance(a, b) >= 4

    def test_empty_window(self):
        sp = IntLine(max_abs=10)
        assert greedy_net(sp, [], 1) == []


class TestBandClique:
    def test_matches_brute_force(self, rng):
        for trial in range(20):
            n = rng.randint(1, 10)
            mat = random_metric(rng, n)
            low = rng.randint(1, 6)
            high = low + rng.randint(0, 8)
            items = items_from_matrix(mat)
            res = max_band_clique(items, low, high)
            assert res.certificate == "exact"
            assert res.size == brute_max_band_clique(n, lambda i, j: mat[i][j], low, high)

    def test_greedy_band_clique_is_valid_lower_bound(self, rng):
        n = 12
        mat = random_metric(rng, n)
        items = items_from_matrix(mat)
        res = max_band_clique(items, 2, 6, exact_limit=0)
        assert res.certificate == "lower-bound"
        exact = max_band_clique(items, 2, 6)
        assert res.size <= exact.size
        for a_i, i in enumerate(res.selected):
            for j in res.selected[a_i + 1:]:
                assert 2 <= mat[i][j] <= 6
