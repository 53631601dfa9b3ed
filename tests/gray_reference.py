"""Reference scans for the differential tests: the Python loops that the
vectorised cut code in `rewirelab.cuts` replaced, kept as written there.

`conductance_exact` and `measure_constants` walk all 2^(n-1) sides one vertex
toggle at a time in Python ints; c1 is taken from one `conductance_of` call
per subset and every H-boundary from `_h_cut_width`.  `conductance_sweep`
grows the Fiedler prefix one vertex at a time and keeps the first least phi
(its dense `eigh` branch only, for n <= 2048).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rewirelab import Cut, Graph, balance_cut, conductance_of, matrix_of
from rewirelab.cuts import EXACT_CONDUCTANCE_LIMIT, _boundary_and_volumes, _canonical_side
from rewirelab.errors import EmptySide, ExactLimitExceeded
from rewirelab.reductions import VERIFY_H_LIMIT, ExpanderEmbedding, ReductionConstants


def conductance_exact(g: Graph, exact_limit: int = EXACT_CONDUCTANCE_LIMIT) -> Cut:
    n = g.n
    if n > exact_limit:
        raise ExactLimitExceeded(f"exact conductance limited to n <= {exact_limit}, got {n}")
    if n < 2:
        raise EmptySide("no proper nonempty cut exists on fewer than 2 vertices")
    comps = g.connected_components()
    if len(comps) > 1:
        witness = comps[0]
        vol_s = sum(g.degrees[v] for v in witness)
        return Cut(tuple(witness), 0, vol_s, 2 * g.m - vol_s, Fraction(0))

    masks = g.adjacency_masks
    deg = g.degrees
    total_vol = 2 * g.m
    best_num = None  # boundary of best cut
    best_den = None  # min-volume of best cut
    best_side: tuple[int, ...] | None = None

    mask = 0
    cut = 0
    vol = 0
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            cut -= deg[v] - 2 * (masks[v] & mask).bit_count()
            vol -= deg[v]
        else:
            cut += deg[v] - 2 * (masks[v] & mask).bit_count()
            mask ^= bit
            vol += deg[v]
        min_vol = vol if 2 * vol <= total_vol else total_vol - vol
        if min_vol <= 0:
            continue
        if best_num is None or cut * best_den < best_num * min_vol:
            best_num, best_den = cut, min_vol
            best_side = _canonical_side(mask, n)
        elif cut * best_den == best_num * min_vol:
            side = _canonical_side(mask, n)
            if side < best_side:
                best_side = side
    assert best_side is not None
    boundary, vol_s, vol_c = _boundary_and_volumes(g, set(best_side))
    return Cut(best_side, boundary, vol_s, vol_c, Fraction(boundary, min(vol_s, vol_c)))


def _h_cut_width(h: Graph, s_mask: int) -> int:
    width = 0
    for u, v in h.edges:
        if (s_mask >> u & 1) != (s_mask >> v & 1):
            width += 1
    return width


def measure_constants(
    emb: ExpanderEmbedding, h: Graph, exact_limit: int = VERIFY_H_LIMIT
) -> ReductionConstants:
    n = h.n
    if n > exact_limit:
        raise ExactLimitExceeded(f"constant measurement limited to h.n <= {exact_limit}, got {n}")
    g = emb.g
    n_g = g.n
    u_set = set(emb.pad_vertices)

    c1 = Fraction(0)
    half = n // 2
    for s_mask in range(1 << n):
        members = [v for v in range(n) if s_mask >> v & 1]
        if len(members) > half:
            continue
        phi = conductance_of(g, set(members) | u_set).phi
        c1 = max(c1, phi * n / (_h_cut_width(h, s_mask) + n))

    c2 = Fraction(0)
    c3 = Fraction(0)
    masks_g = g.adjacency_masks
    deg_g = g.degrees
    total_vol = 2 * g.m
    balance_memo: dict[int, Fraction] = {}
    v_all_mask = (1 << n) - 1

    mask = 0
    cut = 0
    vol = 0
    for i in range(1, 1 << (n_g - 1)):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            cut -= deg_g[v] - 2 * (masks_g[v] & mask).bit_count()
            vol -= deg_g[v]
        else:
            cut += deg_g[v] - 2 * (masks_g[v] & mask).bit_count()
            mask ^= bit
            vol += deg_g[v]
        min_vol = min(vol, total_vol - vol)
        if min_vol <= 0 or cut == 0:
            continue
        phi_x = Fraction(cut, min_vol)
        s_mask = mask & v_all_mask
        width = _h_cut_width(h, s_mask)
        if width:
            c2 = max(c2, Fraction(width) / (phi_x * n))
        if s_mask not in (0, v_all_mask):
            factor = balance_memo.get(s_mask)
            if factor is None:
                side = tuple(v for v in range(n) if s_mask >> v & 1)
                _, factor = balance_cut(h, side)
                balance_memo[s_mask] = factor
            c3 = max(c3, factor)
    return ReductionConstants(
        c1=c1 if c1 > 0 else Fraction(1, 10**9),
        c2=c2 if c2 > 0 else Fraction(1, 10**9),
        c3=c3 if c3 > 0 else Fraction(1, 10**9),
    )


def conductance_sweep(g: Graph) -> Cut:
    if g.n < 2:
        raise EmptySide("no proper nonempty cut exists on fewer than 2 vertices")
    comps = g.connected_components()
    if len(comps) > 1:
        witness = comps[0]
        vol_s = sum(g.degrees[v] for v in witness)
        return Cut(tuple(witness), 0, vol_s, 2 * g.m - vol_s, Fraction(0))
    lap = matrix_of(g, "normalized_laplacian")
    lap = np.asarray(lap.todense()) if not isinstance(lap, np.ndarray) else lap
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]
    order = sorted(range(g.n), key=lambda v: (fiedler[v], v))
    deg = g.degrees
    total_vol = 2 * g.m
    in_prefix = [False] * g.n
    cut = 0
    vol = 0
    best = None
    for idx, v in enumerate(order[:-1]):
        cut += deg[v] - 2 * sum(1 for w in g.neighbors[v] if in_prefix[w])
        vol += deg[v]
        in_prefix[v] = True
        min_vol = min(vol, total_vol - vol)
        if min_vol <= 0:
            continue
        phi = Fraction(cut, min_vol)
        if best is None or phi < best[0]:
            best = (phi, idx)
    assert best is not None
    side = set(order[: best[1] + 1])
    boundary, vol_s, vol_c = _boundary_and_volumes(g, side)
    return Cut(tuple(sorted(side)), boundary, vol_s, vol_c, Fraction(boundary, min(vol_s, vol_c)))
