"""Shared helpers for the test suite: seeded random graph corpora and oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from rewirelab import Graph, build_graph, random_regular_graph


def make_gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def make_connected(rng: random.Random, n: int) -> Graph:
    """Random connected graph: G(n, p) resampled until connected."""
    while True:
        g = make_gnp(rng, n, min(1.0, 2.5 / max(n - 1, 1)) + 0.25)
        if g.is_connected():
            return g


def make_connected_regular(rng: random.Random, n: int, d: int) -> Graph:
    while True:
        g = random_regular_graph(n, d, seed=rng.randrange(1 << 30))
        if g.is_connected():
            return g


def make_max_degree_3(rng: random.Random, n: int) -> Graph:
    """Random graph with max degree <= 3 (pair sampling with degree guard)."""
    edges: list[tuple[int, int]] = []
    deg = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    target = rng.randrange(0, 3 * n // 2 + 1)
    for u, v in pairs:
        if len(edges) >= target:
            break
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return build_graph(n, edges)


# -- independent oracles -------------------------------------------------------------


def oracle_conductance(g: Graph) -> Fraction:
    """Minimum conductance by direct all-subsets edge scan (no incremental tricks)."""
    best = None
    total_vol = 2 * g.m
    for bits in range(1, 1 << (g.n - 1)):
        side = {v for v in range(g.n) if bits >> v & 1}
        boundary = sum(1 for u, v in g.edges if (u in side) != (v in side))
        vol = sum(g.degrees[v] for v in side)
        min_vol = min(vol, total_vol - vol)
        if min_vol == 0:
            continue
        phi = Fraction(boundary, min_vol)
        if best is None or phi < best:
            best = phi
    return best


def oracle_min_bisection(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum balanced-cut width and the lexicographically first side that
    attains it, by scanning all size-n/2 subsets in lexicographic order."""
    best = None
    for side in combinations(range(g.n), g.n // 2):
        s = set(side)
        width = sum(1 for u, v in g.edges if (u in s) != (v in s))
        if best is None or width < best[0]:
            best = (width, side)
    return best
