"""Packing/covering solvers against exhaustive subset-enumeration oracles,
plus the combinatorial identities that relate them."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseentropy import (
    BudgetExceededError,
    FiniteMetricSpace,
    IntLine,
    InvalidInputError,
    MetricItems,
    PrimeCycle,
    ball,
    build_graph,
    build_weighted_graph,
    complete_graph,
    cycle_graph,
    enumerate_orbits,
    greedy_net,
    make_example,
    max_band_clique,
    max_separated,
    min_dense,
    orbit_distance,
    separated_count,
    verify_dense,
    verify_separated,
)
from coarseentropy import extremal
from coarseentropy.extremal import POINT_LIMIT

from conftest import (
    brute_max_band_clique,
    brute_max_separated,
    brute_min_dense,
    first_fit_oracle,
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
            # a greedy packing of every item cannot be beaten
            assert greedy.certificate == ("exact" if greedy.size == n else "lower-bound")
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


def _brute_independent(n, conflict):
    """Size of a largest independent set, by trying every subset."""
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            if all(not conflict[a] >> b & 1 for a, b in itertools.combinations(subset, 2)):
                return size
    return 0


def _table(n, masks):
    """The boolean table whose row a holds bit b of ``masks[a]``."""
    return np.array([[bool(masks[a] >> b & 1) for b in range(n)] for a in range(n)])


def _random_conflicts(rng, n, p):
    conflict = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            conflict[a] |= 1 << b
            conflict[b] |= 1 << a
    return conflict


class TestColourBoundedSearch:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_matches_brute_force_from_empty_to_complete(self, p):
        rng = random.Random(int(p * 10) + 1607)
        for n in [1] + [rng.randint(2, 14) for _ in range(12)]:
            conflict = _random_conflicts(rng, n, p)
            sel, nodes = extremal._mis_bitset(_table(n, conflict))
            assert len(sel) == _brute_independent(n, conflict)
            assert sel == sorted(set(sel)) and all(0 <= v < n for v in sel)
            assert all(not conflict[a] >> b & 1 for a, b in itertools.combinations(sel, 2))
            assert nodes >= 1

    def test_node_budget_still_stops_the_search(self, monkeypatch):
        # a 5-cycle: the greedy seed {0, 2} is optimal, but one colour class
        # cannot hold a cycle, so the root's bound of 3 forces a branch
        conflict = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
        assert extremal._mis_bitset(_table(5, conflict))[1] > 1
        monkeypatch.setattr(extremal, "_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceededError,
                           match="^independent-set search exceeded its node budget$"):
            extremal._mis_bitset(_table(5, conflict))

    def test_node_budget_stops_the_cover_search(self, monkeypatch):
        # items 0 and 2 cover each other, 1 and 3 only themselves: the bound
        # of 2 centres sends the search past the greedy cover of 3
        cov = [0b0101, 0b0010, 0b0101, 0b1000]
        assert extremal._exact_cover(_table(4, cov)) == ([0, 1, 3], 5)
        monkeypatch.setattr(extremal, "_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceededError,
                           match="^set-cover search exceeded its node budget$"):
            extremal._exact_cover(_table(4, cov))

    def test_pinned_node_count(self):
        # the 81-path int_line family at R=2: the greedy seed is optimal and
        # the root's colouring proves it; more nodes mean a lost bound
        pt = separated_count(make_example("int_line"), 0, 4, 1, 2, exact_limit=96)
        assert (pt.count, pt.certificate, pt.stats["paths"]) == (16, "exact", 81)
        assert pt.stats["nodes"] == 1

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 96, 128, 129])
    def test_matches_the_string_renumbering_oracle(self, n, p):
        # word boundaries of the bit table: one word up to 64, then two, three
        rng = random.Random(n * 10 + int(p * 10))
        for _ in range(3):
            conflict = _random_conflicts(rng, n, p)
            assert extremal._mis_bitset(_table(n, conflict)) == \
                _string_renumbered_mis(n, conflict)

    def test_random_metric_results_are_pinned(self):
        # every exact solve of 320 random metrics, drawn as the exact-rational
        # benchmark draws them (sizes 2..40 in turn); the digest was taken
        # with the search that renumbered through binary strings
        rng, out = random.Random(2024), []
        for k in range(320):
            n = 2 + k % 39
            d, R = random_metric(rng, n), rng.randint(1, 14)
            items = MetricItems(list(range(n)), lambda i, j, d=d: d[i][j])
            results = [max_separated(items, R), max_separated(items, 2 * R)]
            if n <= 25:
                results.append(min_dense(items, R))
            out += [(r.size, r.selected, r.certificate, sorted(r.stats.items())) for r in results]
        assert len(out) == 840
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "01866aedd051060939d6968320ffc2656f34f39059c314981dd9a2d2ba930685"


def _string_renumbered_mis(n, conflict):
    """The colour-bounded search as it stood when each mask was renumbered
    by reading its reversed binary string in rank order: the oracle for the
    bit-table renumbering.  Returns ``(selection, nodes)``."""
    order = sorted(range(n), key=[m.bit_count() for m in conflict].__getitem__)
    pick, width = itemgetter(*reversed(order)), f"0{n}b"

    def by_rank(mask):
        return int("".join(pick(format(mask, width)[::-1])), 2)

    adj = [by_rank(conflict[v]) for v in order]
    seed, banned = [], 0  # the lowest-index greedy pass
    for v in range(n):
        if not banned >> v & 1:
            seed.append(v)
            banned |= conflict[v] | 1 << v
    best = [len(seed), by_rank(sum(1 << v for v in seed))]
    nodes = [0]

    def expand(cand, size, mask):
        nodes[0] += 1
        coloured = []
        floor = best[0] - size
        uncoloured, colour = cand, 0
        while uncoloured:
            colour += 1
            open_ = uncoloured
            while open_:
                low = open_ & -open_
                v = low.bit_length() - 1
                uncoloured ^= low
                open_ &= adj[v]
                if colour > floor:
                    coloured.append((v, colour))
        for v, colour in reversed(coloured):
            if size + colour <= best[0]:
                return
            bit = 1 << v
            rest = cand & ~adj[v] & ~bit
            if rest:
                expand(rest, size + 1, mask | bit)
            elif size + 1 > best[0]:
                best[0], best[1] = size + 1, mask | bit
            cand &= ~bit

    expand((1 << n) - 1, 0, 0)
    return sorted(order[r] for r in range(n) if best[1] >> r & 1), nodes[0]


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
            greedy = min_dense(items, R, exact_limit=0)
            exact = min_dense(items, R)
            # a nonempty family needs a centre, so one is a minimum cover
            assert greedy.certificate == ("exact" if greedy.size == 1 else "upper-bound")
            assert greedy.size >= exact.size

    @pytest.mark.parametrize("n, strategy", [(2, "exact"), (5, "max-coverage"),
                                             (7, "first-uncovered")])
    @pytest.mark.parametrize("R", [1e-10, 1e-9, Fraction(1, 10 ** 10)])
    def test_R_within_the_tolerance_is_rejected(self, monkeypatch, n, strategy, R):
        # 9, 243 and 2,187 paths: below exact_limit, between the limits and
        # above _GREEDY_LIMIT; no item is within R of itself, so no cover exists
        items = orbit_items("log_line", n)
        assert len(items) == 3 ** n and items.tol == 1e-9

        def no_cover(*args):
            raise AssertionError("cover work started")

        for name in ("_cover_masks", "_item_table", "_first_fit"):
            monkeypatch.setattr(extremal, name, no_cover)
        with pytest.raises(InvalidInputError, match="R must exceed the comparison tolerance"):
            min_dense(items, R)

    def test_single_item_needs_itself(self):
        items = items_from_matrix([[0]])
        assert min_dense(items, 1).size == 1


class TestExactThresholds:
    """A threshold that is not a float stays exact: items exactly R apart
    are R-separated and no open R-ball holds both."""

    @pytest.mark.parametrize("make", [
        lambda d: MetricItems([0, 1], lambda a, b: d),
        lambda d: items_from_matrix([[0, d], [d, 0]]),
    ], ids=["plain", "matrix"])
    def test_items_at_exactly_R(self, make):
        R = Fraction(7, 3)
        items = make(R)
        packing = max_separated(items, R)
        assert (packing.size, packing.certificate) == (2, "exact")
        assert min_dense(items, R).size == 2
        assert items.tol == 0 and isinstance(items.tol, int)


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

    @pytest.mark.parametrize("form", ["orbits", "raw"])
    def test_verifiers_agree_with_orbit_distance(self, rng, form):
        sp = IntLine(max_abs=50)
        paths = enumerate_orbits(sp, 0, 3, 1).paths
        d = [[orbit_distance(p, q, sp) for q in paths] for p in paths]
        items = MetricItems.from_orbits(sp, paths) if form == "orbits" else items_from_matrix(d)
        n = len(paths)
        seen = set()
        for trial in range(80):
            R = rng.randint(1, 4)
            sel = sorted(rng.sample(range(n), rng.randint(1, 6)))
            separated = all(d[i][j] >= R for k, i in enumerate(sel) for j in sel[k + 1:])
            dense = all(any(d[i][c] < R for c in sel) for i in range(n))
            assert accepts(verify_separated, items, R, sel) == separated
            assert accepts(verify_dense, items, R, sel) == dense
            seen.add((separated, dense))
        assert len(seen) >= 3
        for R in (1, 2, 3, 4):
            assert accepts(verify_separated, items, R, max_separated(items, R).selected)
            assert accepts(verify_dense, items, R, min_dense(items, R).selected)

    def test_verify_separated_checks_past_the_pair_cap(self, monkeypatch):
        # items 0..9 pairwise at 5, except 8 and 9 at 1: with 16 cells a
        # block holds one row of the selection, far before row 8
        mat = [[0 if i == j else 5 for j in range(10)] for i in range(10)]
        mat[8][9] = mat[9][8] = 1
        items = items_from_matrix(mat)
        for cells in (16, 1, 4_000_000):
            monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
            verify_separated(items, 2, range(9))
            with pytest.raises(InvalidInputError, match="items 8 and 9 at distance 1"):
                verify_separated(items, 2, range(10))

    def test_verify_dense_checks_past_the_work_cap(self, monkeypatch):
        # item 9 is the only one outside the ball of center 0; with 5 cells
        # a block holds the first 5 items of the one-center check
        mat = [[0 if i == j else 1 for j in range(10)] for i in range(10)]
        for i in range(9):
            mat[i][9] = mat[9][i] = 3
        items = items_from_matrix(mat)
        for cells in (5, 1, 8_000_000):
            monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
            verify_dense(items, 2, (0, 9))
            with pytest.raises(InvalidInputError, match="item 9 is not within 2 of the cover"):
                verify_dense(items, 2, (0,))


def pairwise_failure(items, R, selected):
    """The pairwise gather: the first position in selection order with
    another position strictly within R, and the lowest such position."""
    sel = np.asarray(selected, dtype=np.int64)
    close, v = items.close(R), items.vectors
    hit = np.ones((sel.size, sel.size), dtype=bool)
    for k in range(v.shape[1]):
        hit &= close[v[sel, k][:, None], v[sel, k]]
    np.fill_diagonal(hit, False)
    if not hit.any():
        return None
    p, q = np.argwhere(hit)[0]
    i, j = int(sel[p]), int(sel[q])
    return f"separation check failed: items {i} and {j} at distance {items.dist(i, j)}"


def separation_failure(items, R, selected):
    try:
        verify_separated(items, R, selected)
    except InvalidInputError as exc:
        return str(exc)
    return None


class TestPackedSeparationCheck:
    """verify_separated against the pairwise gather it replaced."""

    @pytest.mark.parametrize("name, n, radii", [
        ("int_line", 5, (1, 2, 3)),
        ("regular_tree", 4, (1, 2, 3)),
        ("weighted_cycle", 4, (Fraction(1, 2), 1, Fraction(3, 2), Fraction(201, 100))),
    ])
    def test_random_selections_match_the_pairwise_gather(self, monkeypatch, rng, name, n,
                                                         radii):
        items = orbit_items(name, n)
        size = len(items)
        failed = passed = 0
        for R in radii:
            picks = extremal._first_fit(items, R)
            for trial in range(12):
                # sizes on both sides of one 64-row word; duplicates allowed
                k = rng.choice([2, 5, 63, 64, 65, 130, min(size, 300)])
                sel = [rng.randrange(size) for _ in range(k)]
                if trial % 3 == 0:
                    # a separated selection in shuffled order, with one
                    # extra item last (trial 3) or anywhere (trial 9)
                    sel = rng.sample(picks, len(picks))
                    if trial % 2:
                        at = len(sel) if trial == 3 else rng.randrange(len(sel) + 1)
                        sel.insert(at, rng.randrange(size))
                expected = pairwise_failure(items, R, sel)
                # default sizes; blocks of 1 to 7 rows with the held sets
                # dropped each time the next ones pass one block's worth,
                # or about 100 bytes
                for cells, budget in STORE_SIZES:
                    monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
                    monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
                    assert separation_failure(items, R, sel) == expected, (R, sel, cells, budget)
                failed += expected is not None
                passed += expected is None
        assert failed and passed

    def test_selection_over_several_row_blocks(self, monkeypatch):
        items = orbit_items("int_line", 7)
        picks = extremal._first_fit(items, 2)
        near = next(i for i in range(len(items)) if i not in picks and items.dist(i, picks[-1]) < 2)
        bad = picks[:-1] + [near] + picks[-1:]
        expected = pairwise_failure(items, 2, bad)
        assert expected is not None and len(picks) == 128
        # the failing pair's second position is the last one, alone in its byte
        tail = picks + [near]
        expected_tail = pairwise_failure(items, 2, tail)
        assert f" and {near} at " in expected_tail
        # rows of two words: blocks of 1, 1, 3 and all positions; the held
        # sets dropped whenever the next ones pass one block's worth (0),
        # three sets (48 bytes), or never
        for cells in (1, 64, 3 * 128, 4_000_000):
            for budget in (0, 48, 64 << 20):
                monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
                monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
                assert separation_failure(items, 2, picks) is None
                assert separation_failure(items, 2, bad) == expected
                assert separation_failure(items, 2, tail) == expected_tail

    def test_held_sets_stay_within_their_budget(self, monkeypatch):
        # 2,000 items, each on its own point in both columns: packed all at
        # once, their sets would take 2 x 2,000 x 2,000 bits (1 MB)
        m = 2000
        items = MetricItems.from_orbits(IntLine(), [(x, m - 1 - x) for x in range(m)])
        monkeypatch.setattr(extremal, "_BLOCK_CELLS", 1 << 16)  # 32 rows a block
        monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", 0)
        verify_separated(items, 1, range(100))  # numpy's lazy imports
        tracemalloc.start()
        try:
            verify_separated(items, 1, range(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, peak
        bad = [*range(m), m - 1]
        assert separation_failure(items, 1, bad) == pairwise_failure(items, 1, bad) == \
            f"separation check failed: items {m - 1} and {m - 1} at distance 0"
        # default sizes, 4,000 picks over 4,000 points per column: the 8,000
        # packed sets take 4 MB, and a gather of a block's rows across every
        # point of the table, not only the selection's columns, would add
        # 8 MB more (13.65 MB in all); measured 5.76 MB
        monkeypatch.undo()
        m = 4000
        items = MetricItems.from_orbits(IntLine(), [(x, m - 1 - x) for x in range(m)])
        verify_separated(items, 1, range(100))
        tracemalloc.start()
        try:
            verify_separated(items, 1, range(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak

    def test_failing_pair_message(self):
        # 81 paths; path 0 stands still at vertex 0 and path 1 steps to
        # vertex 1 last, over the edge of weight 51/100
        items = orbit_items("weighted_cycle", 4)
        with pytest.raises(InvalidInputError) as err:
            verify_separated(items, Fraction(13, 25), range(81))
        assert str(err.value) == "separation check failed: items 0 and 1 at distance 51/100"


def accepts(verify, items, R, selected):
    try:
        verify(items, R, selected)
    except InvalidInputError:
        return False
    return True


# a 20-cycle with Fraction weights in (1/2, 1]: at delta = 1 the successors
# of a vertex are itself and its two neighbours, so n steps give 3^n paths
CYCLE_WEIGHTS = [Fraction(51 + 37 * v % 50, 100) for v in range(20)]


def weighted_cycle():
    return build_weighted_graph([(v, (v + 1) % 20, w) for v, w in enumerate(CYCLE_WEIGHTS)])


def orbit_items(name, n):
    sp = weighted_cycle() if name == "weighted_cycle" else make_example(name)
    return MetricItems.from_orbits(sp, enumerate_orbits(sp, sp.basepoint, n, 1).paths)


def raw_copy(items):
    """The same family through the plain constructor: one point per item."""
    return MetricItems(list(range(len(items))), lambda i, j: items.dist(i, j))


class TestCoverCertificates:
    """verify_dense on solver covers and mutations of them: every item is
    checked against every centre."""

    @pytest.fixture(params=["orbits", "raw"])
    def cover(self, request):
        items = orbit_items("int_line", 4)
        if request.param == "raw":
            items = raw_copy(items)
        return items, min_dense(items, 3).selected

    def test_accepts_the_cover(self, cover):
        items, sel = cover
        verify_dense(items, 3, sel)

    def test_rejects_a_center_at_distance_R_or_more(self, monkeypatch, cover):
        # the last centre swapped for an item exactly 3 from the last item
        # that only it covered, which leaves that item uncovered
        items, sel = cover
        n = len(items)
        alone = [i for i in range(n)
                 if [items.dist(i, c) < 3 for c in sel] == [False] * (len(sel) - 1) + [True]]
        i = alone[-1]
        far = next(c for c in range(n) if c not in sel and items.dist(i, c) == 3)
        bad = sel[:-1] + (far,)
        first = next(j for j in range(n) if all(items.dist(j, c) >= 3 for c in bad))
        assert first <= i
        # every item is checked, whatever the block size
        for cells in (4_000_000, 1):
            monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
            with pytest.raises(InvalidInputError) as err:
                verify_dense(items, 3, bad)
            assert str(err.value) == f"covering check failed: item {first} is not within 3 " \
                                     "of the cover"

    @pytest.mark.parametrize("solver, n, strategy", [
        ("_exact_cover", 2, "nodes"), ("_greedy_cover_masks", 4, "strategy_max_coverage"),
        ("_first_fit", 7, "strategy_first_uncovered")])
    def test_small_tiers_check_every_item(self, monkeypatch, solver, n, strategy):
        # 9, 81 and 2,187 items, covers of 2, 7 and 128 centres: each tier's
        # cover, with its last centre dropped, leaves an item uncovered, and
        # the check against every centre finds it at every store size
        items, R = orbit_items("int_line", n), 2
        assert strategy in min_dense(items, R).stats
        real = getattr(extremal, solver)
        if solver == "_exact_cover":
            monkeypatch.setattr(extremal, solver, lambda table: (real(table)[0][:-1], 0))
        elif solver == "_greedy_cover_masks":
            monkeypatch.setattr(extremal, solver, lambda n_, cov: real(n_, cov)[:-1])
        else:
            monkeypatch.setattr(extremal, solver, lambda items_, R_: real(items_, R_)[:-1])
        kept = []
        real_verify = extremal.verify_dense

        def spy(items_, R_, selected):
            kept.append(selected)
            return real_verify(items_, R_, selected)

        monkeypatch.setattr(extremal, "verify_dense", spy)
        for cells, budget in STORE_SIZES:
            monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
            with pytest.raises(InvalidInputError) as err:
                min_dense(items, R)
            first = next(i for i in range(len(items))
                         if all(items.dist(i, c) >= R for c in kept[-1]))
            assert str(err.value) == \
                f"covering check failed: item {first} is not within 2 of the cover"
        assert len(kept) == len(STORE_SIZES) and len(set(kept)) == 1


# a line of 6 items: 0 and 3 are a separated cover at R = 3
LINE_6 = [[abs(i - j) for j in range(6)] for i in range(6)]


class TestSelectionEntries:
    """Both verifiers refuse a selection entry that is not an item index:
    numpy would wrap a negative one, truncate a float and raise its own
    IndexError past the end."""

    @pytest.mark.parametrize("verify", [verify_dense, verify_separated],
                             ids=["verify_dense", "verify_separated"])
    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("entry", [-3, -1, 6, 7, 2.0, 2.5, True, np.True_, 2 ** 70],
                             ids=["-3", "-1", "6", "7", "2.0", "2.5", "True", "np.True_", "2**70"])
    def test_refused(self, verify, form, entry):
        items = items_from_matrix(LINE_6)
        verify(items, 3, [0, 3])
        # the entry after two good ones in a list, or alone in an array
        given = [0, 3, entry] if form == "list" else np.array([entry])
        with pytest.raises(InvalidInputError) as err:
            verify(items, 3, given)
        assert str(err.value) == \
            f"selections hold item indices from 0 to 5; got {given[-1]!r}"

    @pytest.mark.parametrize("verify", [verify_dense, verify_separated],
                             ids=["verify_dense", "verify_separated"])
    def test_integer_arrays_of_any_width(self, verify):
        items = items_from_matrix(LINE_6)
        for given in ((0, 3), range(0, 6, 3), *(np.array([0, 3], dtype=dtype)
                                                for dtype in (np.int32, np.int64, np.uint8))):
            verify(items, 3, given)
        with pytest.raises(InvalidInputError, match="got np.int64[(]-1[)]"):
            verify(items, 3, np.full(2, -1))


def _selection_digest(selected):
    return hashlib.sha256(",".join(map(str, selected)).encode()).hexdigest()


# (space, n, R, solver, size, certificate, sha256 of the comma-joined selection):
# a change to the enumeration order or to a solver's choices shows here
PINNED_SELECTIONS = [
    ("int_line", 3, 4, "min_dense", 1, "exact",
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


# families with Fraction or float distances: the same pins for a Fraction
# weighted cycle and for log_line (tolerance 1e-9)
PINNED_EXACT_DISTANCES = [
    ("weighted_cycle", 3, Fraction(3, 2), "max_separated", 4, "exact",
     "bb96baa7fedf279df5b417afe1bdda461507ca63832be1d16268edbe95b1ec60"),
    ("weighted_cycle", 3, Fraction(3, 2), "min_dense", 3, "upper-bound",
     "8871664c43ff1ea48a137ceafb7d02c6c983bdc3b0899cb430972e597b2f441c"),
    ("weighted_cycle", 3, 3, "max_separated", 2, "exact",
     "96819797bc3165ad6688812365367fd76949bf9e888cd00dcfc874d5c9a0ec54"),
    ("weighted_cycle", 5, Fraction(3, 2), "max_separated", 7, "lower-bound",
     "201086c54e7d42bc9943284f6a0c8474a5daa2ed12aa3357a1c276de264f3599"),
    ("weighted_cycle", 5, Fraction(3, 2), "min_dense", 4, "upper-bound",
     "c344a26439b8a824e315ac2244da753d0a1bb54ecda7ccad3d43806a15807474"),
    ("weighted_cycle", 5, 3, "max_separated", 3, "lower-bound",
     "17b309c35a3435f4e9a5b26e5c80e36ff02eac07bdf3a88dd839d727a56d4dc3"),
    ("weighted_cycle", 7, Fraction(3, 2), "max_separated", 22, "lower-bound",
     "d73d6fba99287cf6060c8a64e4a9ab3f53662ef1f3d50df3d534d5733f270bf3"),
    ("weighted_cycle", 7, Fraction(3, 2), "min_dense", 22, "upper-bound",
     "d73d6fba99287cf6060c8a64e4a9ab3f53662ef1f3d50df3d534d5733f270bf3"),
    ("weighted_cycle", 7, 3, "max_separated", 3, "lower-bound",
     "17b309c35a3435f4e9a5b26e5c80e36ff02eac07bdf3a88dd839d727a56d4dc3"),
    ("log_line", 3, 2, "max_separated", 3, "exact",
     "087f4810da8c3be0a964a3de990aed8ed615d513104d94a5aee688f2cdd5ee64"),
    ("log_line", 3, 2, "min_dense", 3, "upper-bound",
     "365f46432eb51385f5876c69e3eb51fa067342017e3d112f0becfca72625959b"),
    ("log_line", 4, 2, "max_separated", 4, "lower-bound",
     "62f1a14917c8dbf02cee0e5b6e2ee0f37b4e30e6ea647d49f47e115792ff89f4"),
    ("log_line", 4, 2, "min_dense", 3, "upper-bound",
     "b80d23ebb89b8b51267388c5af87c665d514c03ac57b04bb7c15b77c088679d4"),
]


@pytest.mark.parametrize("name, n, R, solver, size, certificate, digest",
                         PINNED_SELECTIONS + PINNED_EXACT_DISTANCES)
def test_pinned_selections(name, n, R, solver, size, certificate, digest):
    solve = {"min_dense": min_dense, "max_separated": max_separated}[solver]
    res = solve(orbit_items(name, n), R)
    assert (res.size, res.certificate, _selection_digest(res.selected)) == \
        (size, certificate, digest)


EXACT_RADII = (1, Fraction(3, 2), 2, 3, 4)

# (space, n, sizes, nodes, sha256 of every result's repr): the pinned
# families small enough to solve exactly, max_separated then min_dense at
# each of EXACT_RADII with exact_limit at the family size
PINNED_EXACT_SOLVES = [
    ("int_line", 3, [27, 27, 8, 3, 8, 3, 3, 2, 2, 1], [1, 0, 1, 16, 1, 16, 1, 10, 1, 0],
     "726ab52c0ab6a60ede42db7b3ab2c4e4ddb6be2a9bd873969ba40d19fdb19110"),
    ("regular_tree", 2, [16, 16, 9, 3, 9, 3, 3, 1, 3, 1], [1, 0, 9, 99, 9, 99, 3, 0, 3, 0],
     "8285bccc4a6e4372ff9162ac391b36194b2705328561c61fc1f3deb573098815"),
    ("weighted_cycle", 3, [8, 3, 4, 2, 3, 2, 2, 1, 2, 1], [8, 208, 4, 30, 1, 0, 2, 0, 2, 0],
     "11cdc68428dbf43672b92b9245516fe5cff044777ed6c7de3456ed2d85b01c0f"),
    ("log_line", 3, [27, 27, 8, 3, 3, 2, 1, 1, 1, 1], [1, 0, 1, 16, 1, 10, 1, 0, 1, 0],
     "5954421428bce15ac1d7d9a3cf28c9a13ce1b0087eef1b8d898ead58f2967918"),
]


@pytest.mark.parametrize("name, n, sizes, nodes, digest", PINNED_EXACT_SOLVES)
def test_exact_solves_are_pinned(name, n, sizes, nodes, digest):
    # size, selection, certificate and every stat, node counts included: a
    # change to a search's order or bound shows here
    items = orbit_items(name, n)
    out = []
    for R in EXACT_RADII:
        for solve in (max_separated, min_dense):
            res = solve(items, R, exact_limit=len(items))
            out.append((res.size, res.selected, res.certificate, sorted(res.stats.items())))
    assert [o[0] for o in out] == sizes
    assert [o[3] for o in out] == [[("nodes", k)] for k in nodes]
    assert {o[2] for o in out} == {"exact"}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


# (space, s, D, depth, window size, result): max_band_clique over the balls
# that bgcheck searches, at branch_tree's default s = D = 2 (whose catalog
# witnesses skip the search), two wider bands, and int_line's golden band
PINNED_BAND_CLIQUES = [
    ("branch_tree", 2, 2, 1, 3, (2, (1, 2), "exact", {"nodes": 2})),
    ("branch_tree", 2, 2, 2, 9, (4, (0, 2, 3, 4), "exact", {"nodes": 1})),
    ("branch_tree", 2, 2, 3, 33, (5, (17, 29, 30, 31, 32), "exact", {"nodes": 5})),
    ("branch_tree", 2, 2, 4, 153, (6, (2, 4, 5, 6, 7, 8), "lower-bound", {"anchors": 64})),
    ("branch_tree", 2, 4, 3, 33, (14, (1, 17, 19, 20, 21, 22, 24, 25, 26, 27, 29, 30, 31, 32),
                                  "exact", {"nodes": 14})),
    ("branch_tree", 1, 3, 3, 33, (9, (0, 1, 2, 3, 4, 5, 6, 7, 12), "exact", {"nodes": 1})),
    ("int_line", 2, 4, 1, 3, (2, (0, 2), "exact", {"nodes": 1})),
    ("int_line", 2, 4, 2, 5, (3, (0, 2, 4), "exact", {"nodes": 1})),
    ("int_line", 2, 4, 3, 7, (3, (0, 2, 4), "exact", {"nodes": 1})),
    ("int_line", 2, 4, 4, 9, (3, (0, 2, 4), "exact", {"nodes": 1})),
]


@pytest.mark.parametrize("name, s, D, depth, size, expected", PINNED_BAND_CLIQUES)
def test_band_cliques_are_pinned(name, s, D, depth, size, expected):
    sp = make_example(name)
    window = ball(sp, sp.basepoint, depth)
    assert len(window) == size
    res = max_band_clique(sp, window, s, D)
    assert (res.size, res.selected, res.certificate, res.stats) == expected


# (family, n, radii): path families over int, float (tolerance 1e-9) and
# Fraction distances
ITEM_TABLE_CASES = [
    ("int_line", 3, (1, 2, 3, 4)),
    ("log_line", 3, (1e-10, 1, 1.5, 2, 3)),
    ("weighted_cycle", 3, (Fraction(1, 2), 1, Fraction(3, 2), Fraction(201, 100), 3)),
]


@pytest.mark.parametrize("name, n, radii", ITEM_TABLE_CASES,
                         ids=[f"{name}-n{n}" for name, n, _ in ITEM_TABLE_CASES])
def test_item_table_matches_the_orbit_distances(name, n, radii):
    # entry (i, j): path j is strictly within R - tol of path i, by the
    # pair loop of orbit_distance over the paths themselves; the exact
    # searches read the item table, the max-coverage greedy the masks
    sp = weighted_cycle() if name == "weighted_cycle" else make_example(name)
    items = orbit_items(name, n)
    paths = list(items.items)
    for R in radii:
        expected = np.array([[orbit_distance(u, v, sp) < R - items.tol for v in paths]
                             for u in paths])
        table = extremal._item_table(items, R)
        assert table.dtype == bool and (table == expected).all(), R
        assert (_table(len(paths), extremal._cover_masks(items, R)) == expected).all(), R


# (family, n, radii): 64 to 6,561 paths over int, float and Fraction distances
FIRST_FIT_FAMILIES = [
    ("int_line", 4, (1, 2, 3, 4)),
    ("int_line", 8, (2, 3, 4, 6)),
    ("regular_tree", 3, (1, 2, 3)),
    ("regular_tree", 4, (2, 3, 4)),
    ("log_line", 4, (1, 1.5, 2, 3)),
    ("ultrametric_product", 6, (1, 2)),
    ("weighted_cycle", 4, (1, Fraction(3, 2), 3)),
    ("weighted_cycle", 7, (Fraction(3, 2), 3)),
]


@pytest.mark.parametrize("name, n, radii", FIRST_FIT_FAMILIES,
                         ids=[f"{name}-n{n}" for name, n, _ in FIRST_FIT_FAMILIES])
def test_greedy_packing_picks_the_first_uncovered_centers(monkeypatch, name, n, radii):
    # a maximal R-separated family is R-dense: both greedy passes take the
    # lowest item that no earlier pick is strictly within R of
    items = orbit_items(name, n)
    monkeypatch.setattr(extremal, "_GREEDY_LIMIT", 0)

    def no_unpack(*args):
        raise AssertionError("row unpacked")

    for R in radii:
        # neither pass unpacks a row, and a separated selection passes
        # verify_separated without unpacking one either
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(extremal, "_unpack_rows", no_unpack)
            packing = max_separated(items, R, exact_limit=0)
            cover = min_dense(items, R)
        assert "greedy_passes" in packing.stats and "strategy_first_uncovered" in cover.stats
        assert packing.selected == cover.selected


RANDOM_30 = random_metric(random.Random(7), 30)

# (id, family, radii): every FIRST_FIT_FAMILIES entry, two plain families
# (w = 1), a one-item family, and a radius inside log_line's tolerance,
# where no item is close even to itself and each pick covers only itself
FIRST_FIT_CASES = [
    (f"{name}-n{n}", lambda name=name, n=n: orbit_items(name, n), radii)
    for name, n, radii in FIRST_FIT_FAMILIES
] + [
    ("plain-int_line-n4", lambda: raw_copy(orbit_items("int_line", 4)), (1, 2, 3, 5)),
    ("plain-random", lambda: MetricItems(range(30), lambda a, b: RANDOM_30[a][b]), (3, 5, 8)),
    ("one-item", lambda: orbit_items("int_line", 0), (1, 4)),
    ("log_line-within-tolerance", lambda: orbit_items("log_line", 3), (1e-10,)),
]


@pytest.mark.parametrize("make, radii", [case[1:] for case in FIRST_FIT_CASES],
                         ids=[case[0] for case in FIRST_FIT_CASES])
def test_first_fit_matches_the_first_uncovered_oracle(monkeypatch, make, radii):
    # the same family answers every radius, so nothing may carry over from
    # one radius to the next; each radius also runs with a memo budget of
    # 8 bytes (one row set at most) and of two row sets, emptied when full
    items = make()
    entry = 8 * -(-len(items) // 64)
    for R in radii:
        expected = first_fit_oracle(len(items), lambda i, j: items.dist(i, j) < R - items.tol)
        for budget in (None, 8, 2 * entry):
            if budget is not None:
                monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
            assert extremal._first_fit(items, R) == expected, (R, budget)
        monkeypatch.undo()


# (id, family, radii) for the other users of the near-set store: path
# families over int, float and Fraction distances, a plain family (w = 1),
# a one-item family, and a radius inside log_line's tolerance
STORE_CASES = [
    ("int_line-n4", lambda: orbit_items("int_line", 4), (1, 2, 3, 5)),
    ("log_line-n3", lambda: orbit_items("log_line", 3), (1, 1.5, 2)),
    ("weighted_cycle-n3", lambda: orbit_items("weighted_cycle", 3),
     (Fraction(1, 2), 1, Fraction(3, 2), Fraction(201, 100))),
    ("plain-random", lambda: MetricItems(range(30), lambda a, b: RANDOM_30[a][b]), (3, 5, 8)),
    ("one-item", lambda: orbit_items("int_line", 0), (1, 4)),
    ("log_line-within-tolerance", lambda: orbit_items("log_line", 3), (1e-10,)),
]

# (_BLOCK_CELLS, _NEAR_MEMO_BYTES): the defaults; blocks of a few rows with
# the held sets dropped each time the next ones pass one block's worth; or
# about 100 bytes
STORE_SIZES = ((4_000_000, 64 << 20), (500, 0), (500, 100))


def pairwise_close(items, R):
    n = len(items)
    return [[items.dist(i, j) < R - items.tol for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("make, radii", [case[1:] for case in STORE_CASES],
                         ids=[case[0] for case in STORE_CASES])
def test_cover_masks_match_the_pairwise_distances(monkeypatch, make, radii):
    items = make()
    for R in radii:
        expected = [sum(1 << j for j, near in enumerate(row) if near)
                    for row in pairwise_close(items, R)]
        for cells, budget in STORE_SIZES:
            monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
            monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
            assert extremal._cover_masks(items, R) == expected, (R, cells, budget)


@pytest.mark.parametrize("make, radii", [case[1:] for case in STORE_CASES],
                         ids=[case[0] for case in STORE_CASES])
def test_verify_dense_matches_the_pairwise_distances(monkeypatch, rng, make, radii):
    # random selections with duplicates, from one centre to more than one
    # 64-centre word, and first-fit covers with and without their last centre
    items = make()
    n = len(items)
    failed = passed = 0
    for R in radii:
        close = pairwise_close(items, R)
        picks = extremal._first_fit(items, R)
        selections = [[rng.randrange(n) for _ in range(k)] for k in (1, 2, 5, 70)]
        selections += [picks, picks[:-1] or picks]
        for sel in selections:
            far = [i for i in range(n) if not any(close[i][c] for c in sel)]
            expected = far and f"covering check failed: item {far[0]} is not within {R} " \
                               f"of the cover"
            for cells, budget in STORE_SIZES:
                monkeypatch.setattr(extremal, "_BLOCK_CELLS", cells)
                monkeypatch.setattr(extremal, "_NEAR_MEMO_BYTES", budget)
                try:
                    verify_dense(items, R, sel)
                    got = []
                except InvalidInputError as exc:
                    got = str(exc)
                assert got == expected, (R, sel, cells, budget)
            failed += bool(far)
            passed += not far
    assert failed or n == 1
    assert passed or items.tol >= max(radii)


def test_greedy_packing_is_fast_on_a_large_tree_family():
    # 65,536 paths, 4,741 picks: the packing and its pairwise check
    items = orbit_items("regular_tree", 8)
    start = time.perf_counter()
    res = max_separated(items, 2, exact_limit=0)
    elapsed = time.perf_counter() - start
    print(f"regular_tree n=8 greedy packing: {elapsed:.2f}s")
    assert (len(items), res.size, res.certificate) == (65_536, 4_741, "lower-bound")
    assert elapsed < 5.0


class TestFromOrbits:
    def test_dist_is_the_sup_metric(self):
        sp = IntLine(max_abs=50)
        orbits = enumerate_orbits(sp, 0, 3, 1)
        items = MetricItems.from_orbits(sp, orbits.paths)
        for i in range(0, len(items), 7):
            for j in range(0, len(items), 11):
                assert items.dist(i, j) == orbit_distance(
                    orbits.paths[i], orbits.paths[j], sp)

    @pytest.mark.parametrize("name, radii", [
        ("int_line", (1, 2, 3, 4)),
        ("weighted_cycle", (1, Fraction(3, 2), 2, 3)),
    ])
    def test_counts_match_orbit_distance_brute_force(self, name, radii):
        sp = weighted_cycle() if name == "weighted_cycle" else make_example(name)
        paths = enumerate_orbits(sp, sp.basepoint, 2, 1).paths
        items = MetricItems.from_orbits(sp, paths)

        def dist(i, j):
            return orbit_distance(paths[i], paths[j], sp)

        for R in radii:
            assert max_separated(items, R).size == brute_max_separated(len(paths), dist, R)
            assert min_dense(items, R).size == brute_min_dense(len(paths), dist, R)

    def test_table_has_one_distance_call_per_point_pair(self, monkeypatch):
        sp = weighted_cycle()
        paths = enumerate_orbits(sp, 0, 3, 1).paths
        calls = []
        real = type(sp).distance
        monkeypatch.setattr(type(sp), "distance",
                            lambda self, a, b: calls.append((a, b)) or real(self, a, b))
        items = MetricItems.from_orbits(sp, paths)
        points = items.dmat.shape[0]
        assert points == len(paths.support) == 7
        assert len(calls) == points * (points - 1) // 2
        assert all(isinstance(d, (int, Fraction)) for d in items.dmat.flat)
        max_separated(items, Fraction(3, 2))
        min_dense(items, Fraction(3, 2))
        assert len(calls) == points * (points - 1) // 2

    def test_point_table_over_the_budget_raises(self, monkeypatch):
        star = build_graph([(0, leaf) for leaf in range(1, POINT_LIMIT + 2)])
        paths = enumerate_orbits(star, 0, 1, 1).paths
        assert len(paths.support) == POINT_LIMIT + 2
        with pytest.raises(BudgetExceededError, match=f"capped at {POINT_LIMIT} points"):
            MetricItems.from_orbits(star, paths)
        # the budget is inclusive, for orbit families and plain ones alike
        monkeypatch.setattr(extremal, "POINT_LIMIT", 8)
        for leaves, fits in ((7, True), (8, False)):
            small = build_graph([(0, leaf) for leaf in range(1, leaves + 1)])
            points = list(small.points)
            plain = MetricItems(points, lambda a, b: small.distance(points[a], points[b]))
            if fits:
                assert MetricItems.from_orbits(small, enumerate_orbits(small, 0, 1, 1).paths) \
                    .dmat.shape == plain.dmat.shape == (8, 8)
                continue
            with pytest.raises(BudgetExceededError):
                MetricItems.from_orbits(small, enumerate_orbits(small, 0, 1, 1).paths)
            with pytest.raises(BudgetExceededError):
                max_separated(plain, 2)

    def test_point_limit_is_checked_before_the_table(self, monkeypatch):
        def no_table(self, points):
            raise AssertionError("a table over the limit was started")

        monkeypatch.setattr(IntLine, "distance_table", no_table)
        message = (f"the family spans {POINT_LIMIT + 1} points; its distance table is "
                   f"capped at {POINT_LIMIT} points")
        paths = [(0, x) for x in range(1, POINT_LIMIT + 1)]  # POINT_LIMIT + 1 points
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            MetricItems.from_orbits(IntLine(), paths)

    def test_table_is_fast_on_a_large_tree_family(self):
        sp = make_example("regular_tree")
        paths = enumerate_orbits(sp, sp.basepoint, 8, 1).paths
        start = time.perf_counter()
        items = MetricItems.from_orbits(sp, paths)
        elapsed = time.perf_counter() - start
        print(f"regular_tree n=8 point table: {elapsed:.3f}s")
        assert items.dmat.shape == (766, 766)
        assert elapsed < 0.3

    def test_fraction_family_gets_the_max_coverage_greedy(self):
        # 729 paths: above 400 the parent sent Fraction families to a
        # first-uncovered pass; now every family up to _GREEDY_LIMIT is
        # solved by max coverage
        sp = weighted_cycle()
        paths = enumerate_orbits(sp, 0, 6, 1).paths
        R = Fraction(3, 2)
        res = min_dense(MetricItems.from_orbits(sp, paths), R)
        assert len(paths) == 729
        assert res.certificate == "upper-bound" and "strategy_max_coverage" in res.stats
        centers = [paths[c] for c in res.selected]
        for p in paths:
            assert any(orbit_distance(p, c, sp) < R for c in centers)

    def test_rejects_ragged_or_empty_families(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            MetricItems.from_orbits(sp, [])
        with pytest.raises(InvalidInputError):
            MetricItems.from_orbits(sp, [(0, 1), (0, 1, 2)])


class TestBelowTheScale:
    """``_below`` reads a row against a scale as ``row < bound`` does."""

    VALUES = [0, 1, 4, 5, 2 ** 70, Fraction(17, 4), Fraction(16, 4), Fraction(35, 8),
              Fraction(1, 3), 4.25, 0.3, 4.249999999999999, math.inf]

    @pytest.mark.parametrize("bound", [4, Fraction(17, 4), Fraction(3, 10), 4.25, 0.3,
                                       Fraction(2 ** 70 + 1, 3)])
    def test_matches_the_entrywise_comparison(self, rng, bound):
        # rows of ints, of ints and Fractions, and with floats or inf among them
        pools = [self.VALUES[:5], self.VALUES[:9], self.VALUES]
        for pool in pools:
            for _ in range(20):
                row = np.empty(rng.randint(1, 12), dtype=object)
                row[:] = [rng.choice(pool) for _ in range(len(row))]
                got = extremal._below(row, bound)
                assert got.dtype == bool
                assert got.tolist() == [x < bound for x in row.tolist()], (row, bound)

    def test_an_int_row_needs_no_fraction_comparison(self, monkeypatch):
        row = np.array([0, 3, 4, 5, 9], dtype=object)

        def refused(*args):
            raise AssertionError("Fraction compared")

        for name in ("__lt__", "__gt__", "__le__", "__ge__"):
            monkeypatch.setattr(Fraction, name, refused)
        assert extremal._below(row, Fraction(17, 4)).tolist() == [True, True, True, False, False]


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

    def test_the_rest_is_scanned_sorted(self):
        sp = IntLine(max_abs=10)
        # sorted, 3 joins and blocks 5; in window order 5 would block 3 and 6
        assert greedy_net(sp, [0, 5, 3, 6], 3) == [0, 3, 6]

    @pytest.mark.parametrize("window, s", [([7, 0, 3, 9, 1, 4, 2], 3),
                                           ([("line", 9), ("cyc", 3, 2, 4), ("line", 2),
                                             ("cyc", 2, 3, 1), ("cyc", 3, 2, 1)], 2)])
    def test_cells_hold_their_distance(self, window, s):
        sp = IntLine(max_abs=10) if isinstance(window[0], int) else PrimeCycle(max_line=16)
        net, cell, near = extremal._net_cells(sp, window, s)
        assert [window[i] for i in net] == greedy_net(sp, window, s)
        for p, k, d in zip(window, cell.tolist(), near.tolist()):
            dists = [sp.distance(p, window[z]) for z in net]
            assert k == dists.index(min(dists))
            assert (d, type(d)) == (dists[k], type(dists[k]))


def counting(space):
    """Wraps the handle's ``distance`` and returns the list of pairs it
    is asked for, in call order."""
    calls = []
    real = space.distance
    space.distance = lambda a, b: calls.append((a, b)) or real(a, b)
    return calls


def random_space(rng, n):
    mat = random_metric(rng, n)
    return mat, FiniteMetricSpace(range(n), lambda a, b: mat[a][b])


class TestBandClique:
    """Band cliques on space handles: exact against the subset oracle,
    greedy as a lower bound, and one ``distance`` call per pair at most."""

    def test_matches_brute_force(self, rng):
        for trial in range(20):
            n = rng.randint(1, 10)
            mat, space = random_space(rng, n)
            low = rng.randint(1, 6)
            high = low + rng.randint(0, 8)
            calls = counting(space)
            res = max_band_clique(space, list(range(n)), low, high)
            assert res.certificate == "exact"
            assert res.size == brute_max_band_clique(n, lambda i, j: mat[i][j], low, high)
            assert len(calls) == len({frozenset(pair) for pair in calls}) == n * (n - 1) // 2

    def test_greedy_band_clique_is_valid_lower_bound(self, monkeypatch, rng):
        for trial in range(10):
            n = rng.randint(2, 12)
            mat, space = random_space(rng, n)
            exact = max_band_clique(space, list(range(n)), 2, 6)
            monkeypatch.setattr(extremal, "_BAND_EXACT_LIMIT", 0)
            calls = counting(space)
            res = max_band_clique(space, list(range(n)), 2, 6)
            monkeypatch.undo()
            assert res.certificate == ("exact" if res.size == n else "lower-bound")
            assert res.size <= exact.size
            for a_i, i in enumerate(res.selected):
                for j in res.selected[a_i + 1:]:
                    assert 2 <= mat[i][j] <= 6
            assert len(calls) == len({frozenset(pair) for pair in calls})

    def test_selection_indexes_the_points(self):
        # points need not be 0..n-1: the selection gives positions in the list
        space = IntLine(max_abs=50)
        res = max_band_clique(space, [40, 10, 13, 30], 2, 3)
        assert (res.size, res.selected) == (2, (1, 2))

    def test_pairs_within_the_tolerance_are_in_the_band(self):
        log = make_example("log_line", {"max_abs": 16})
        d = log.distance(0, 5)
        assert isinstance(d, float)
        for low, high, size in [(d + 5e-10, d + 1, 2), (d - 1, d - 5e-10, 2),
                                (d + 2e-9, d + 1, 1), (d - 1, d - 2e-9, 1)]:
            assert max_band_clique(log, [0, 5], low, high).size == size, (low, high)


class TestGreedyAnswersNothingCanBeat:
    """A greedy answer that no solve can improve is certified exact; the
    same tiers keep their one-sided certificates otherwise."""

    @pytest.mark.parametrize("n, R, stats", [(3, 4, "strategy_max_coverage"),
                                             (7, 100, "strategy_first_uncovered")])
    def test_a_cover_of_one_centre(self, n, R, stats):
        # 27 and 2,187 paths, above exact_limit: one centre covers them all
        res = min_dense(orbit_items("int_line", n), R)
        assert (res.size, res.certificate, stats in res.stats) == (1, "exact", True)
        res = min_dense(orbit_items("int_line", n), 2)
        assert res.size > 1 and res.certificate == "upper-bound"

    def test_a_packing_of_every_item(self):
        # distinct int_line paths are at least 1 apart
        items = orbit_items("int_line", 4)
        res = max_separated(items, 1, exact_limit=0)
        assert (res.size, res.certificate, res.stats) == (81, "exact", {"greedy_passes": 81})
        assert max_separated(items, 2, exact_limit=0).certificate == "lower-bound"

    def test_a_band_clique_of_every_point(self):
        # 45 points pairwise at distance 1, above _BAND_EXACT_LIMIT
        space = complete_graph(45)
        res = max_band_clique(space, list(space.points), 1, 1)
        assert (res.size, res.certificate, res.stats) == (45, "exact", {"anchors": 45})
        space = build_graph([(0, 1)] + [(1, v) for v in range(2, 45)])
        res = max_band_clique(space, list(space.points), 1, 1)
        assert (res.size, res.certificate) == (2, "lower-bound")
