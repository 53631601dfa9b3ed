"""Exact conductance, Cheeger bounds, exact minimum bisection, cut balancing.

Conductance values are kept as Fractions so threshold comparisons in the
decision solvers are never contaminated by floating point.  Exhaustive cut
questions, minimum conductance and minimum bisection alike, read one numpy
table of the boundary and volume of all 2^(n-1) sides, `_cut_table`, and take
its least ratio with `_least_side`.  That skips each chunk with no side that
reaches the running least, and breaks ties by one rule: `_least_canonical`
filters the chunk's tied masks, and the running least, vertex by vertex down to
the lexicographically least side.  `_ToggledConductance` reads the same table
for every edge-toggled candidate of the conductance rewiring decision.  On
large batches it first bounds each candidate from above by its least ratio over
the n sides of least ratio in the base graph, and scans in full only the
candidates the caller asks for: those whose bound can still make them the first
witness or the maximum.  Every least ratio goes through one exact argmin,
`_least_ratio`.  At the default exact limits, on a 2-core x86 Xeon (medians of
5 runs), `conductance_exact` takes 18 ms at n = 24 (3-regular) and 93 ms on
K_24, and `min_bisection_exact` 3.3 ms at n = 20 (3-regular) and 7.9 ms on K_20.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptySide, ExactLimitExceeded, OddVertexCount, ZeroVolumeSide
from .graph import Graph, matrix_of

if TYPE_CHECKING:
    from .spectral import SpectralSummary

#: Default ceiling for exhaustive cut enumeration (2^(n-1) - 1 candidate cuts).
EXACT_CONDUCTANCE_LIMIT = 24
#: Default ceiling for exhaustive balanced-partition enumeration.
EXACT_BISECTION_LIMIT = 20
#: The sweep cut takes a dense eigh of the normalized Laplacian up to this order, Lanczos above.
SWEEP_DENSE_LIMIT = 2048
#: log2 of the number of sides in one chunk of the cut table.
_CHUNK_BITS = 14
#: Most int64 entries in one (candidates x sides) block of `_ToggledConductance`.
_BLOCK_ENTRIES = 1 << 16


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


def _proper_side(g: Graph, s) -> set:
    """s as a set, checked to be a nonempty proper subset of g's vertices."""
    s = set(s)
    if not s or len(s) >= g.n:
        raise EmptySide(f"cut side must be a nonempty proper subset, got {len(s)} of {g.n} vertices")
    if any(v < 0 or v >= g.n for v in s):
        raise EmptySide(f"subset contains out-of-range vertices: {sorted(s)}")
    return s


def conductance_of(g: Graph, s) -> Cut:
    """Exact conductance of the cut (S, V \\ S)."""
    cut = _cut_of(g, _proper_side(g, s))
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
    # d_v - 2 |N(v) n S| over the low vertices, once per high vertex
    step = {v: deg[v] - 2 * np.bitwise_count(low & masks[v]).astype(np.int64) for v in range(k, g.n - 1)}
    high = 0
    for i in range(1, 1 << (g.n - 1 - k)):
        v = k + (i & -i).bit_length() - 1
        delta = step[v] - 2 * (masks[v] & high).bit_count()
        if high >> v & 1:
            cut, vol = cut - delta, vol - deg[v]
        else:
            cut, vol = cut + delta, vol + deg[v]
        high ^= 1 << v
        yield high, cut, vol


def _least_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Mask of the entries holding the least num/den over den > 0, per row of
    the last axis; a row with no den > 0 has none.  Entries stay below 2^53.

    A float quotient proposes: a smaller ratio never has a greater quotient, so
    only the entries holding their row's least quotient can hold its least
    ratio, and int64 cross-multiplication decides among those few.
    """
    if den.min() > 0:
        q = num / den
    else:
        q = np.divide(num, den, out=np.full(num.shape, np.inf), where=den > 0)
    near = np.flatnonzero(q == q.min(axis=-1, keepdims=True))
    near = near[den.ravel()[near] > 0]  # a row without den > 0 holds only inf quotients
    near_num, near_den = num.ravel()[near], den.ravel()[near]
    row = near // num.shape[-1]
    ref = np.searchsorted(row, row)  # each entry's row's first near entry
    while True:
        diff = near_num * near_den[ref] - near_num[ref] * near_den
        lower = np.flatnonzero(diff < 0)
        if not len(lower):
            break
        below = np.full(num.size // num.shape[-1], -1)  # by row: an entry below its reference
        below[row[lower]] = lower
        ref = np.where(below[row] >= 0, below[row], ref)
    tied = np.zeros(num.shape, bool)
    tied.ravel()[near[diff == 0]] = True
    return tied


def _least_canonical(masks: np.ndarray, n: int) -> int:
    """Index of the mask whose `_canonical_side` is the lexicographically least.

    Canonical sides hold vertex 0.  At each next vertex v the sides left agree
    before v: one with no member from v on is a prefix of the rest, and least;
    otherwise the sides that hold v, if any do, are the lesser."""
    canon = np.where(masks & 1, masks, ((1 << n) - 1) ^ masks)
    keep = np.arange(len(masks))
    for v in range(1, n):
        rest = canon[keep] >> v
        if len(keep) == 1 or not rest.all():
            return int(keep[rest.argmin()])
        held = rest & 1 == 1
        keep = keep[held] if held.any() else keep
    return int(keep[0])


def _least_side(g: Graph, den_of) -> tuple[int, tuple[int, ...]]:
    """Least cut/den over the sides of the cut table with den > 0.

    `den_of(start, cut, vol)` gives the integer denominators of one chunk, and
    some chunk must have den > 0.  Returns (cut, side), decided by integer
    cross-multiplication, with ties broken to the least `_canonical_side`.
    """
    best_num, best_den, best = 1, 0, 0  # 1/0 stands for no side yet
    for start, cut, vol in _cut_table(g):
        den = den_of(start, cut, vol)
        if best_den and not (cut * best_den <= best_num * den).any():
            continue  # no side of the chunk reaches the running least
        tied = np.flatnonzero(_least_ratio(cut, den))
        if not len(tied):
            continue
        num, d = int(cut[tied[0]]), int(den[tied[0]])
        if num * best_den > best_num * d:
            continue
        masks = start + tied
        if num * best_den == best_num * d:
            masks = np.append(masks, best)
        best_num, best_den, best = num, d, int(masks[_least_canonical(masks, g.n)])
    return best_num, _canonical_side(best, g.n)


def _greatest_ratio(num: np.ndarray, den: np.ndarray) -> Fraction:
    """Greatest num/den over the entries with den > 0, or 0 if there are none."""
    top = _least_ratio(-num, den)
    i = int(top.argmax())
    return Fraction(int(num[i]), int(den[i])) if top[i] else Fraction(0)


class _ToggledConductance:
    """Exact conductance num/den of g with each row of `toggles` (k >= 1 columns) applied.

    A row holds indices into `pairs` = (u, v), the lexicographic pairs u < v,
    padded with their count.  Toggling (u, v), with s = -1 for an edge and +1
    for a non-edge, changes a side's boundary by s [S separates u and v], its
    volume by s ([u in S] + [v in S]) and the total volume by 2s.  So a pass
    over the cut table of g scores rows from per-pair tables of these changes,
    in blocks of at most _BLOCK_ENTRIES (candidates x sides) entries, and each
    row keeps its least cut / max(1, min(vol, 2m' - vol)) over the nonempty
    sides.  A nonempty side without boundary means a disconnected candidate,
    which reads 0/1.  Sides that no row can reach its minimum on, and blocks
    that lower no row's minimum, are skipped by exact integer bounds.

    `num / den` holds each row's value, exact where `exact` is set.  When the
    cut table is one chunk (n - 1 <= _CHUNK_BITS) and a full pass would gather
    more than _BLOCK_ENTRIES table entries (rows x kept sides x toggles per
    row), every row is first scored on only the n kept sides of least ratio in
    g: a least ratio over fewer sides is an integer upper bound on the row's
    conductance.  `refine(rows)` then scans just those rows on every kept
    side, with tables of only the pairs they toggle, and `refine_greatest`
    refines just the rows whose bound can hold the greatest value.  Otherwise
    one pass makes every row exact.
    """

    def __init__(self, g: Graph, toggles: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]):
        self.n, self.k, pad = g.n, toggles.shape[1], len(pairs[0])
        masks = np.array(g.adjacency_masks, np.int64)
        # the pad toggles nothing: vertex 0 with itself, with sign 0
        self.u, self.v = np.append(pairs[0], 0), np.append(pairs[1], 0)
        self.sign = np.zeros(pad + 1, np.int64)
        self.sign[:pad] = 1 - 2 * (masks[pairs[0]] >> pairs[1] & 1)
        self.toggles, self.total = toggles, 2 * g.m + 2 * self.sign[toggles].sum(axis=1)
        rows, chunks, one_chunk = np.arange(len(toggles)), self._kept_sides(g), g.n - 1 <= _CHUNK_BITS
        if one_chunk:  # small enough to keep for `refine`
            chunks = self.sides = list(chunks)
        if one_chunk and len(toggles) * len(chunks[0][1]) * self.k > _BLOCK_ENTRIES:
            side, cut, vol = chunks[0]
            ratio = cut / np.maximum(np.minimum(vol, 2 * g.m - vol), 1)
            few = np.argsort(ratio, kind="stable")[: self.n]  # ties to the lesser mask
            self.num, self.den = self._scan(rows, [(side[few], cut[few], vol[few])])
            self.exact = np.zeros(len(toggles), bool)
        else:
            self.num, self.den = self._scan(rows, chunks)
            self.exact = np.ones(len(toggles), bool)

    def _kept_sides(self, g: Graph):
        """Per chunk of g's cut table, the sides some row can reach its least ratio on:
        (mask, cut, vol), three int64 arrays."""
        k = self.k
        bound_num, bound_den = 1, 0
        for start, cut, vol in _cut_table(g):
            first = int(start == 0)  # mask 0, the empty side, is no cut
            cut, vol = cut[first:], vol[first:]
            # k toggles move a boundary by at most k and min(vol, 2m - vol) by at most 2k, so no
            # candidate reaches its least ratio on a side whose least reachable ratio is above
            # the greatest reachable ratio of some side
            min_vol = np.minimum(vol, 2 * g.m - vol)
            top_den = np.maximum(min_vol - 2 * k, 1)
            top = int(_least_ratio(cut + k, top_den).argmax())
            if (cut[top] + k) * bound_den < bound_num * top_den[top]:
                bound_num, bound_den = int(cut[top]) + k, int(top_den[top])
            keep = np.flatnonzero((cut - k) * bound_den <= bound_num * (min_vol + 2 * k))
            yield start + first + keep, cut[keep], vol[keep]

    def _scan(self, rows: np.ndarray, chunks) -> tuple[np.ndarray, np.ndarray]:
        """The least ratio of each of `rows` over the sides of `chunks`."""
        toggles, total, k = self.toggles[rows], self.total[rows], self.k
        used = np.arange(len(self.sign))
        if len(rows) < len(self.toggles):  # tables of only the pairs these rows toggle
            used, toggles = np.unique(toggles, return_inverse=True)
            toggles = toggles.reshape(len(rows), k)
        u, v, sign = self.u[used], self.v[used], self.sign[used, None]
        width = max(1, _BLOCK_ENTRIES // len(used))  # sides per table
        best_num, best_den = np.ones(len(rows), np.int64), np.zeros(len(rows), np.int64)  # 1/0: no side yet
        for side, cut, vol in chunks:
            for lo in range(0, len(cut), width):
                c0, v0 = cut[lo : lo + width], vol[lo : lo + width]
                bits = side[lo : lo + width] >> np.arange(self.n)[:, None] & 1
                d_cut, d_vol = (bits[u] ^ bits[v]) * sign, (bits[u] + bits[v]) * sign
                step = max(1, _BLOCK_ENTRIES // len(c0))
                for r in range(0, len(rows), step):
                    block = toggles[r : r + step]
                    c, vl = c0 + d_cut[block[:, 0]], v0 + d_vol[block[:, 0]]
                    for t in range(1, k):
                        c += d_cut[block[:, t]]
                        vl += d_vol[block[:, t]]
                    den = total[r : r + step, None] - vl
                    np.minimum(den, vl, out=den)
                    np.maximum(den, 1, out=den)
                    b_num, b_den = best_num[r : r + step], best_den[r : r + step]
                    if b_den.all() and not (c * b_den[:, None] < b_num[:, None] * den).any():
                        continue  # the block lowers no running minimum
                    at = np.arange(len(c)), _least_ratio(c, den).argmax(axis=1)
                    num_i, den_i = c[at], den[at]
                    lower = num_i * b_den < b_num * den_i
                    np.copyto(b_num, num_i, where=lower)
                    np.copyto(b_den, den_i, where=lower)
        return best_num, best_den

    def refine(self, rows: np.ndarray) -> None:
        """Make the value of each of `rows` exact."""
        rows = rows[~self.exact[rows]]
        if len(rows):
            self.num[rows], self.den[rows] = self._scan(rows, self.sides)
            self.exact[rows] = True

    def refine_greatest(self, ties: bool = False) -> None:
        """Refine rows, greatest bound first in groups of 1, 2, 4, ..., until no
        other row's bound is above (with `ties`, at least) the greatest exact
        value.  Then the greatest value is exact, and with `ties` so is every
        row that holds it."""
        if self.exact.all():
            return
        order = np.argsort(-self.num / self.den, kind="stable")
        size = 1
        while True:
            open_ = ~self.exact[order]
            if not open_.all():
                top = _greatest_ratio(self.num[self.exact], self.den[self.exact])
                over = self.num[order] * top.denominator - top.numerator * self.den[order]
                open_ &= over >= 0 if ties else over > 0
            pending = order[open_]
            if not len(pending):
                return
            self.refine(pending[:size])
            size *= 2


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
    lap = matrix_of(g, "normalized_laplacian", dense_limit=SWEEP_DENSE_LIMIT)
    if isinstance(lap, np.ndarray):
        _, vecs = np.linalg.eigh(lap)
    else:
        import scipy.sparse.linalg as spla

        from .spectral import _lanczos_start, _one_scipy_blas_thread

        with _one_scipy_blas_thread():
            _, vecs = spla.eigsh(lap, k=2, sigma=-1e-3, which="LM", v0=_lanczos_start(g.n))
    fiedler = vecs[:, 1]
    order = sorted(range(g.n), key=lambda v: (fiedler[v], v))
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    ends = np.sort(pos[np.array(list(g.edges))], axis=1)
    # an edge crosses prefix i (the first i + 1 vertices in order) when its ends sit at lo <= i < hi
    cut = np.cumsum(np.bincount(ends[:, 0], minlength=g.n) - np.bincount(ends[:, 1], minlength=g.n))[:-1]
    vol = np.cumsum(np.array(g.degrees)[order])[:-1]
    best = int(_least_ratio(cut, np.minimum(vol, 2 * g.m - vol)).argmax())
    return _cut_of(g, order[: best + 1])


def cheeger_interval(summary: SpectralSummary) -> tuple[float, float]:
    """(lambda2 / 2, sqrt(2 lambda2)): the Cheeger bracket for the conductance.

    The upper end may exceed 1; conductance additionally satisfies phi <= 1,
    which `cheeger_consistent` takes into account.
    """
    lam = max(summary.lambda2, 0.0)
    return (lam / 2.0, sqrt(2.0 * lam))


def cheeger_consistent(phi: float, lambda2: float) -> bool:
    """Does phi**2 / 2 <= lambda2 <= 2 phi hold within a slack of 1e-9?"""
    phi = float(phi)
    return phi * phi / 2.0 <= lambda2 + 1e-9 and lambda2 <= 2.0 * phi + 1e-9


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
    side = _proper_side(h, s)
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
