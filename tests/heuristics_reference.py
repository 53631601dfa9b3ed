"""Reference heuristics for the differential tests: the per-candidate loops that the
array passes in `rewirelab.rewiring` replaced, kept as written there.

`greedy_rewire` scores every single toggle for the spectral objective with one
`spectral_summary` call each, skipping the toggles that isolate a vertex;
`sdrf_like_rewire` picks each addition with one Python `round` per non-edge and each
removal by a sort over the edges and one BFS per ranked edge; `ppr_rewire` selects
each row's top scores with one `flatnonzero` and one `lexsort` per row.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rewirelab import EditSet, Graph, forman_curvature, ppr_matrix, resistance_matrix
from rewirelab.cuts import EXACT_CONDUCTANCE_LIMIT
from rewirelab.graph import canonical_pair, edit_set_between
from rewirelab.rewiring import _all_pairs, _best_conductance_toggle, _objective, _toggled


def greedy_rewire(
    g: Graph,
    budget: int,
    objective: str = "spectral_gap",
    exact_limit: int = EXACT_CONDUCTANCE_LIMIT,
) -> tuple[EditSet, list]:
    """Apply up to `budget` single toggles, each the strictly best improvement.

    Stops as soon as no toggle strictly improves the objective (ties do not
    count as improvement).  The trace holds the objective value after each
    accepted step, starting with the initial value; it is strictly increasing.
    """
    if objective not in ("spectral_gap", "conductance"):
        raise ValueError(f"objective must be 'spectral_gap' or 'conductance', got {objective!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    tol = Fraction(0) if objective == "conductance" else 1e-12
    value = _objective(objective, exact_limit)
    cur = g
    cur_val = value(g)
    trace = [float(cur_val)]
    for _ in range(budget):
        if objective == "conductance" and cur.n <= exact_limit:
            best_pair, best_val = _best_conductance_toggle(cur)
        else:
            best_pair = best_val = None
            for pair in _all_pairs(cur.n):
                cand = _toggled(cur, [pair])
                if objective == "spectral_gap" and min(cand.degrees) == 0:
                    continue  # a toggle that isolates a vertex leaves lambda2 undefined
                val = value(cand)
                if val > cur_val + tol and (best_val is None or val > best_val):
                    best_pair, best_val = pair, val
        if best_pair is None or best_val <= cur_val + tol:
            break
        cur = _toggled(cur, [best_pair])
        cur_val = best_val
        trace.append(float(cur_val))
    return edit_set_between(g, cur), trace


def sdrf_like_rewire(
    g: Graph, budget: int, removal_fraction: float
) -> tuple[EditSet, list]:
    """Alternate resistance-guided additions and curvature-guided removals.

    A `removal_fraction` share of the budget steps are removals, interleaved
    evenly.  Additions take the non-edge pair of maximal effective resistance
    (cross-component pairs count as infinite); removals take the most negative
    Forman curvature edge whose removal does not disconnect anything, and are
    skipped when no such edge exists.  Ties break lexicographically.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not 0.0 <= removal_fraction <= 1.0:
        raise ValueError(f"removal fraction must be in [0,1], got {removal_fraction}")
    cur = g
    removals_done = 0
    trace = []
    for step in range(budget):
        want_removals = math.floor((step + 1) * removal_fraction + 1e-12)
        if removals_done < want_removals:
            ranked = sorted(cur.sorted_edges, key=lambda e: (forman_curvature(cur, e), e))
            n_comps = len(cur.connected_components())
            chosen = None
            for edge in ranked:
                cand = Graph(n=cur.n, edges=cur.edges - {edge})
                if len(cand.connected_components()) == n_comps:
                    chosen = edge
                    break
            if chosen is None:
                trace.append(("skip_removal", None, None))
            else:
                trace.append(("remove", chosen, float(forman_curvature(cur, chosen))))
                cur = Graph(n=cur.n, edges=cur.edges - {chosen})
            removals_done += 1  # a removal slot is consumed even when skipped
        else:
            non_edges = [p for p in _all_pairs(cur.n) if p not in cur.edges]
            if not non_edges:
                trace.append(("skip_addition", None, None))
                continue
            res = resistance_matrix(cur)
            # round so symmetric pairs tie exactly and lexicographic order decides
            best_pair = min(non_edges, key=lambda p: (-round(res[p[0], p[1]], 9), p))
            trace.append(("add", best_pair, float(res[best_pair[0], best_pair[1]])))
            cur = Graph(n=cur.n, edges=cur.edges | {best_pair})
    return edit_set_between(g, cur), trace


def ppr_rewire(
    g: Graph,
    alpha: float,
    epsilon: float,
    per_node_cap: int,
) -> tuple[EditSet, list]:
    """Personalized-PageRank densification: add high-diffusion non-edges.

    Computes Pi = alpha (I - (1-alpha) T)^{-1} with the augmented random-walk
    matrix T, keeps each node's top `per_node_cap` off-diagonal scores above
    `epsilon`, symmetrizes the kept set and emits additions only.
    """
    if not epsilon >= 0.0:  # nan too
        raise ValueError(f"sparsification threshold must be >= 0, got {epsilon}")
    if per_node_cap < 0:
        raise ValueError(f"per-node cap must be >= 0, got {per_node_cap}")
    n = g.n
    pi = ppr_matrix(g, alpha)
    kept: set[tuple[int, int]] = set()
    trace = []
    for v in range(n):
        row = pi[v]
        js = np.flatnonzero(row > epsilon)
        js = js[js != v]
        # score descending, then target ascending
        for j in js[np.lexsort((js, -row[js]))[:per_node_cap]].tolist():
            kept.add(canonical_pair(v, j))
            trace.append((v, j, float(row[j])))
    additions = frozenset(p for p in kept if p not in g.edges)
    return EditSet(additions=additions, removals=frozenset()), trace
