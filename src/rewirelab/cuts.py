"""Exact conductance, Cheeger bounds, exact minimum bisection, cut balancing.

Conductance values are kept as Fractions so threshold comparisons in the
decision solvers are never contaminated by floating point.  Exhaustive cut
questions, minimum conductance and minimum bisection alike, read one numpy
table of the boundary and volume of all 2^(n-1) sides, `_cut_table`, and take
its least ratio with `_least_side`.  This keeps the default exact limits
(n <= 24 cuts, n <= 20 bisection) comfortably under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import EmptySide, ExactLimitExceeded, OddVertexCount, ZeroVolumeSide
from .graph import Graph, matrix_of
from .spectral import SpectralSummary, _lanczos_start

#: Default ceiling for exhaustive cut enumeration (2^(n-1) - 1 candidate cuts).
EXACT_CONDUCTANCE_LIMIT = 24
#: Default ceiling for exhaustive balanced-partition enumeration.
EXACT_BISECTION_LIMIT = 20
#: log2 of the number of sides in one chunk of the cut table.
_CHUNK_BITS = 14


@dataclass(frozen=True)
class Cut:
    """A vertex subset with its boundary size, side volumes and conductance."""

    subset: tuple[int, ...]
    boundary_size: int
    vol_s: int
    vol_complement: int
    phi: Fraction


@dataclass(frozen=True)
class BisectionResult:
    """Width and witness of a balanced partition search.

    The search always reads every partition, so `exhaustive` is always True;
    the field stays because the benchmark tracer reads it.
    """

    width: int
    partition: tuple[int, ...]
    exhaustive: bool


def _boundary_and_volumes(g: Graph, s: set[int]) -> tuple[int, int, int]:
    boundary = 0
    for u, v in g.edges:
        if (u in s) != (v in s):
            boundary += 1
    vol_s = sum(g.degrees[v] for v in s)
    return boundary, vol_s, 2 * g.m - vol_s


def _cut_of(g: Graph, side) -> Cut:
    """The Cut of one side; a side of volume 0 has no boundary, and phi = 0."""
    s = set(side)
    boundary, vol_s, vol_c = _boundary_and_volumes(g, s)
    min_vol = min(vol_s, vol_c)
    return Cut(tuple(sorted(s)), boundary, vol_s, vol_c, Fraction(boundary, min_vol) if min_vol else Fraction(0))


def conductance_of(g: Graph, s) -> Cut:
    """Exact conductance of the cut (S, V \\ S)."""
    s = set(s)
    if not s or len(s) >= g.n:
        raise EmptySide(f"cut side must be a nonempty proper subset, got {len(s)} of {g.n} vertices")
    if any(v < 0 or v >= g.n for v in s):
        raise EmptySide(f"subset contains out-of-range vertices: {sorted(s)}")
    cut = _cut_of(g, s)
    if min(cut.vol_s, cut.vol_complement) == 0:
        raise ZeroVolumeSide(f"side with volume 0 (vol_s={cut.vol_s}, vol_complement={cut.vol_complement})")
    return cut


def _canonical_side(mask: int, n: int) -> tuple[int, ...]:
    """Of the two sides of a cut, the lexicographically smaller vertex list."""
    if mask & 1:
        return tuple(v for v in range(n) if mask >> v & 1)
    return tuple(v for v in range(n) if not mask >> v & 1)


def _cut_table(g: Graph):
    """Integer boundary and volume of every side S of g, vertex n-1 outside.

    Yields (start, boundary, volume), two int64 arrays over the masks start + L,
    L < 2^k, k = min(n-1, _CHUNK_BITS).  Each low vertex v doubles the table
    (vol += d_v, inner edges += |N(v) n S|, and cut = vol - 2 inner); each
    chunk toggles one high vertex in Gray-code order, cut += +-(d_v - 2|N(v) n S|).
    """
    masks, deg = g.adjacency_masks, g.degrees
    k = min(g.n - 1, _CHUNK_BITS)
    low = np.arange(1 << k)
    vol = inner = np.zeros(1, np.int64)
    for v in range(k):
        inner = np.concatenate((inner, inner + np.bitwise_count(low[: 1 << v] & masks[v])))
        vol = np.concatenate((vol, vol + deg[v]))
    cut = vol - 2 * inner
    yield 0, cut, vol
    high = 0
    for i in range(1, 1 << (g.n - 1 - k)):
        v = k + (i & -i).bit_length() - 1
        inside = np.bitwise_count(low & masks[v]).astype(np.int64) + (masks[v] & high).bit_count()
        sign = -1 if high >> v & 1 else 1
        high ^= 1 << v
        cut = cut + sign * (deg[v] - 2 * inside)
        vol = vol + sign * deg[v]
        yield high, cut, vol


def _least_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Indices of the least num/den over den > 0: a float quotient proposes the
    least entry, int64 cross-multiplication decides it and its ties."""
    ok = den > 0
    i = int(np.argmin(np.divide(num, den, out=np.full(len(num), np.inf), where=ok)))
    while True:
        diff = num * den[i] - num[i] * den
        lower = np.flatnonzero(ok & (diff < 0))
        if not len(lower):
            return np.flatnonzero(ok & (diff == 0))
        i = int(lower[0])


def _least_side(g: Graph, den_of) -> tuple[int, tuple[int, ...]]:
    """Least cut/den over the sides of the cut table with den > 0.

    `den_of(start, cut, vol)` gives the integer denominators of one chunk, and
    some chunk must have den > 0.  Returns (cut, side), decided by integer
    cross-multiplication, with ties broken to the least `_canonical_side`.
    """
    best_num, best_den, best_side = 1, 0, None  # 1/0 stands for no side yet
    for start, cut, vol in _cut_table(g):
        den = den_of(start, cut, vol)
        tied = _least_ratio(cut, den)
        if not len(tied):
            continue
        num, d = int(cut[tied[0]]), int(den[tied[0]])
        if num * best_den > best_num * d:
            continue
        side = min(_canonical_side(start + int(j), g.n) for j in tied)
        if num * best_den == best_num * d:
            side = min(side, best_side)
        best_num, best_den, best_side = num, d, side
    return best_num, best_side


def conductance_exact(g: Graph, exact_limit: int = EXACT_CONDUCTANCE_LIMIT) -> Cut:
    """Global minimum-conductance cut by exhaustive enumeration.

    Every cut is read once from the cut table (vertex n-1 pinned to the
    complement) and compared by integer cross-multiplication.  Ties break to
    the lexicographically smallest canonical side.  Disconnected graphs return
    phi = 0 with a component as witness instead of raising.
    """
    n = g.n
    if n > exact_limit:
        raise ExactLimitExceeded(f"exact conductance limited to n <= {exact_limit}, got {n}")
    if n < 2:
        raise EmptySide("no proper nonempty cut exists on fewer than 2 vertices")
    comps = g.connected_components()
    if len(comps) > 1:
        return _cut_of(g, comps[0])
    total_vol = 2 * g.m
    _, side = _least_side(g, lambda start, cut, vol: np.minimum(vol, total_vol - vol))
    return _cut_of(g, side)


def conductance_sweep(g: Graph) -> Cut:
    """Fiedler sweep-cut approximation: best prefix cut of the sorted Fiedler vector.

    An upper bound on the true conductance; used where exhaustive enumeration
    is out of reach.
    """
    if g.n < 2:
        raise EmptySide("no proper nonempty cut exists on fewer than 2 vertices")
    comps = g.connected_components()
    if len(comps) > 1:
        return _cut_of(g, comps[0])
    lap = matrix_of(g, "normalized_laplacian")
    if g.n <= 2048:
        lap = np.asarray(lap.todense()) if not isinstance(lap, np.ndarray) else lap
        _, vecs = np.linalg.eigh(lap)
        fiedler = vecs[:, 1]
    else:
        import scipy.sparse.linalg as spla

        _, vecs = spla.eigsh(lap, k=2, sigma=-1e-3, which="LM", v0=_lanczos_start(g.n))
        fiedler = vecs[:, 1]
    order = sorted(range(g.n), key=lambda v: (fiedler[v], v))
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    ends = np.sort(pos[np.array(list(g.edges))], axis=1)
    # an edge crosses prefix i (the first i + 1 vertices in order) when its ends sit at lo <= i < hi
    cut = np.cumsum(np.bincount(ends[:, 0], minlength=g.n) - np.bincount(ends[:, 1], minlength=g.n))[:-1]
    vol = np.cumsum(np.array(g.degrees)[order])[:-1]
    best = int(_least_ratio(cut, np.minimum(vol, 2 * g.m - vol))[0])
    return _cut_of(g, order[: best + 1])


def cheeger_interval(summary: SpectralSummary) -> tuple[float, float]:
    """(lambda2 / 2, sqrt(2 lambda2)): the Cheeger bracket for the conductance.

    The upper end may exceed 1; conductance additionally satisfies phi <= 1,
    which `cheeger_consistent` takes into account.
    """
    lam = max(summary.lambda2, 0.0)
    return (lam / 2.0, sqrt(2.0 * lam))


def cheeger_consistent(phi: float, lambda2: float, slack: float = 1e-9) -> bool:
    """Does phi**2 / 2 <= lambda2 <= 2 phi hold within the given slack?"""
    phi = float(phi)
    return phi * phi / 2.0 <= lambda2 + slack and lambda2 <= 2.0 * phi + slack


def min_bisection_exact(h: Graph, exact_limit: int = EXACT_BISECTION_LIMIT) -> BisectionResult:
    """Minimum crossing edges over exactly-balanced partitions, by enumeration.

    Reads the sides with |S| = n/2 from the cut table, each partition once
    (vertex n-1 on the far side).  The witness is the lexicographically
    smallest minimum side, the one that holds vertex 0.
    """
    n = h.n
    if n % 2 != 0:
        raise OddVertexCount(f"bisection needs an even vertex count, got {n}")
    if n > exact_limit:
        raise ExactLimitExceeded(f"exact bisection limited to n <= {exact_limit}, got {n}")
    # a 0/1 denominator keeps the sides with |S| = n/2
    width, side = _least_side(h, lambda start, cut, vol: np.bitwise_count(start + np.arange(len(cut))) == n // 2)
    return BisectionResult(width, side, exhaustive=True)


def balance_cut(h: Graph, s) -> tuple[tuple[int, ...], Fraction]:
    """Greedily rebalance a cut to |S| = n/2, one minimum-increase move at a time.

    Returns the balanced side and the measured growth factor
    |crossing after| / max(1, |crossing before|).  Ties break to the smallest
    vertex id.
    """
    n = h.n
    if n % 2 != 0:
        raise OddVertexCount(f"balancing needs an even vertex count, got {n}")
    side = set(s)
    if not side or len(side) >= n:
        raise EmptySide("cut side must be a nonempty proper subset")
    crossing_before, _, _ = _boundary_and_volumes(h, side)
    crossing = crossing_before
    half = n // 2
    while len(side) != half:
        shrink = len(side) > half
        pool = side if shrink else set(range(n)) - side
        best_v = None
        best_delta = None
        for v in sorted(pool):
            inside = sum(1 for w in h.neighbors[v] if w in side)
            outside = len(h.neighbors[v]) - inside
            delta = inside - outside if shrink else outside - inside
            if best_delta is None or delta < best_delta:
                best_delta = delta
                best_v = v
        if shrink:
            side.remove(best_v)
        else:
            side.add(best_v)
        crossing += best_delta
    return tuple(sorted(side)), Fraction(crossing, max(1, crossing_before))
