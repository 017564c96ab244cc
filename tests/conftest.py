"""Shared helpers: independent brute-force oracles and random instances.

Everything here is written straight from the definitions and never calls
the package's solvers, so test comparisons are genuinely independent:
packing/covering optima come from subset enumeration, graph distances
from a plain Dijkstra over an explicit adjacency, and random metrics from
Floyd-Warshall completion of random symmetric weights.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest


# ---------------------------------------------------------------------------
# brute-force extremal oracles (subset enumeration; fine for n <= ~14)


def brute_max_separated(n, dist, R):
    """Largest subset with pairwise dist >= R, by exhaustive enumeration."""
    best = 0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) <= best:
            continue
        if all(dist(i, j) >= R for k, i in enumerate(idx) for j in idx[k + 1:]):
            best = len(idx)
    return best


def brute_min_dense(n, dist, R):
    """Smallest subset with every item strictly within R of a member."""
    best = n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size >= best:
            continue
        centers = [i for i in range(n) if mask >> i & 1]
        if all(any(dist(i, c) < R for c in centers) for i in range(n)):
            best = size
    return best


def brute_max_band_clique(n, dist, low, high):
    """Largest subset with all pairwise distances in [low, high]."""
    best = 0
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) <= best:
            continue
        if all(low <= dist(i, j) <= high
               for k, i in enumerate(idx) for j in idx[k + 1:]):
            best = len(idx)
    return best


def first_fit_oracle(n, close):
    """Lowest-uncovered-first picks and each item's first covering pick.

    ``close(i, j)`` says whether items i and j are strictly within R.  Each
    pick is the lowest item no earlier pick is close to; it covers itself
    and every later uncovered item close to it.
    """
    assignment = [None] * n
    picks = []
    for i in range(n):
        if assignment[i] is None:
            picks.append(i)
            assignment[i] = i
            for j in range(i + 1, n):
                if assignment[j] is None and close(i, j):
                    assignment[j] = i
    return picks, assignment


# ---------------------------------------------------------------------------
# random finite metrics (Floyd-Warshall completion keeps the axioms exact)


def random_metric(rng: random.Random, n: int, scale: int = 12):
    """Symmetric integer matrix satisfying the metric axioms exactly."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, scale)
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            row_k = d[k]
            row_i = d[i]
            for j in range(n):
                v = dik + row_k[j]
                if v < row_i[j]:
                    row_i[j] = v
                    d[j][i] = v
    return d


# ---------------------------------------------------------------------------
# independent shortest-path oracles


def dijkstra_oracle(adjacency, source, radius=float("inf")):
    """Exact single-source distances over ``adjacency(v) -> [(w, weight)]``,
    for the points within ``radius`` of the source."""
    counter = itertools.count()
    dist = {source: 0}
    heap = [(0, next(counter), source)]
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > dist.get(v, float("inf")):
            continue
        for w, weight in adjacency(v):
            nd = d + weight
            if nd <= radius and nd < dist.get(w, float("inf")):
                dist[w] = nd
                heapq.heappush(heap, (nd, next(counter), w))
    return dist


def bfs_oracle(adjacency, source):
    """Exact hop distances over ``adjacency(v) -> iterable of neighbors``."""
    dist = {source: 0}
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for v in frontier:
            for w in adjacency(v):
                if w not in dist:
                    dist[w] = hops
                    nxt.append(w)
        frontier = nxt
    return dist


@pytest.fixture
def rng():
    return random.Random(0xC0A25E)
