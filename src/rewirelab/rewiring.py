"""Exact rewiring decision solvers under an edit budget, plus polynomial heuristics.

The decision solvers enumerate edge toggles (the symmetric-difference metric
treats each vertex pair as a binary toggle) and evaluate the objective exactly.
The conductance problem reads the base graph's cut table once and scores every
toggle set from it as integer changes to each side's boundary and volume, so no
candidate graph is built; the spectral problem runs an exact inertia-count
threshold test per candidate.  The heuristics are the practical alternative:
greedy single-toggle ascent (scored the same batched way for exact
conductance), curvature/resistance rewiring, and personalized PageRank
densification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice

import numpy as np

from .cuts import (
    _BLOCK_ENTRIES,
    EXACT_CONDUCTANCE_LIMIT,
    _greatest_ratio,
    _least_ratio,
    _toggled_conductance,
    conductance_exact,
    conductance_sweep,
)
from .errors import (
    DisconnectedPair,
    EdgeAbsent,
    EmptySide,
    ExactLimitExceeded,
    SameVertex,
    SearchSpaceTooLarge,
    SingularSystem,
)
from .graph import DENSE_LIMIT, EditSet, Graph, canonical_pair, edit_set_between, matrix_of
from .spectral import spectral_summary
from .sturm import EXACT_EIGEN_LIMIT, exact_mu2_leq

#: Cap on the number of candidate edit sets a decision solver will enumerate.
MAX_EDIT_CANDIDATES = 2_000_000


@dataclass(frozen=True)
class GrocInstance:
    """Can <= budget_k edge edits raise the conductance to >= phi0?"""

    graph: Graph
    budget_k: int
    phi0: Fraction | float

    def __post_init__(self):
        if self.budget_k < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget_k}")
        if not 0 <= self.phi0 <= 1:
            raise ValueError(f"conductance threshold must be in [0,1], got {self.phi0}")


@dataclass(frozen=True)
class GrosInstance:
    """Can <= budget_k edge edits lower mu2 of the propagation matrix to <= tau?"""

    graph: Graph
    budget_k: int
    tau: Fraction
    mode: str = "signed"

    def __post_init__(self):
        object.__setattr__(self, "tau", Fraction(self.tau))
        if self.budget_k < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget_k}")
        if not -1 <= self.tau <= 1:
            raise ValueError(f"eigenvalue threshold must be in [-1,1], got {self.tau}")
        if self.mode not in ("signed", "absolute"):
            raise ValueError(f"mode must be 'signed' or 'absolute', got {self.mode!r}")


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision solve: answer, first witness, best objective seen."""

    answer: str  # "yes" | "no"
    witness: EditSet | None
    value_achieved: float

    def __post_init__(self):
        if self.answer == "yes" and self.witness is None:
            raise ValueError("a yes answer requires a witness")


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _candidate_count(num_pairs: int, budget: int) -> int:
    return sum(math.comb(num_pairs, j) for j in range(budget + 1))


def _check_search_space(num_pairs: int, budget: int, max_candidates: int) -> None:
    total = _candidate_count(num_pairs, budget)
    if total > max_candidates:
        raise SearchSpaceTooLarge(
            f"{total} candidate edit sets exceed the cap of {max_candidates}"
        )


def _enumerate_toggles(g: Graph, budget: int, max_candidates: int):
    """Yield toggle sets of size 0..budget in deterministic (size, lex) order."""
    pairs = _all_pairs(g.n)
    _check_search_space(len(pairs), budget, max_candidates)
    for j in range(budget + 1):
        yield from combinations(pairs, j)


def _toggled(g: Graph, toggles) -> Graph:
    return Graph(n=g.n, edges=g.edges ^ frozenset(toggles))


def _toggle_edit_set(g: Graph, toggles) -> EditSet:
    toggles = frozenset(toggles)
    return EditSet(additions=toggles - g.edges, removals=toggles & g.edges)


def _at_least(num: np.ndarray, den: np.ndarray, x: Fraction) -> np.ndarray:
    """num/den >= x for each entry, exactly: in int64 when the products fit,
    else in Python ints."""
    p, q = x.numerator, x.denominator
    if max(int(num.max()), 1) * q >= 1 << 63 or p * int(den.max()) >= 1 << 63:
        num, den = num.astype(object), den.astype(object)
    return num * q >= p * den


def decide_groc(
    inst: GrocInstance,
    exact_limit: int = EXACT_CONDUCTANCE_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
    decision_only: bool = False,
) -> Decision:
    """Exhaustive exact solve of the conductance rewiring decision.

    Toggle sets are scored in groups of _BLOCK_ENTRIES, each group by one pass
    over the base graph's cut table that applies every toggle as integer deltas
    to each side's boundary and volume (`cuts._toggled_conductance`); phi >= phi0
    is decided by integer cross-multiplication.  Returns yes with the first
    witness in (size, lex) order; value_achieved is the maximum conductance over
    the whole search (over the search up to the witness when `decision_only`
    stops at the group that holds it; its groups grow 1, 2, 4, ...).
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact conductance limited to n <= {exact_limit}, got {g.n}")
    pairs = _all_pairs(g.n)
    _check_search_space(len(pairs), inst.budget_k, max_candidates)
    if g.n < 2:
        raise EmptySide("no proper nonempty cut exists on fewer than 2 vertices")
    phi0 = Fraction(inst.phi0)
    sets = chain.from_iterable(combinations(range(len(pairs)), j) for j in range(inst.budget_k + 1))
    best: Fraction | None = None
    witness: EditSet | None = None
    size = 1 if decision_only else _BLOCK_ENTRIES  # doubling groups stop soon after an early witness
    while group := list(islice(sets, size)):
        size = min(2 * size, _BLOCK_ENTRIES)
        width = len(group[-1])  # the largest set of the group, in (size, lex) order
        toggles = np.array([s + (len(pairs),) * (width - len(s)) for s in group], np.int64).reshape(len(group), width)
        num, den = _toggled_conductance(g, toggles)
        hits = np.flatnonzero(_at_least(num, den, phi0))
        if witness is None and len(hits):
            witness = _toggle_edit_set(g, [pairs[i] for i in group[hits[0]]])
            if decision_only:
                num, den = num[: hits[0] + 1], den[: hits[0] + 1]
        phi = _greatest_ratio(num, den)
        best = phi if best is None else max(best, phi)
        if decision_only and witness is not None:
            break
    answer = "yes" if witness is not None else "no"
    return Decision(answer=answer, witness=witness, value_achieved=float(best))


def decide_gros(
    inst: GrosInstance,
    exact_limit: int = EXACT_EIGEN_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
    decision_only: bool = False,
) -> Decision:
    """Exhaustive solve of the spectral rewiring decision.

    The per-candidate threshold test is `exact_mu2_leq`, an exact integer
    inertia count, never floating point; value_achieved is the best floating-point mu2 seen and is
    informational only.
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact eigenvalue decision limited to n <= {exact_limit}, got {g.n}")
    best = None
    witness: EditSet | None = None
    for toggles in _enumerate_toggles(g, inst.budget_k, max_candidates):
        candidate = _toggled(g, toggles)
        if candidate.n >= 2:
            prop = matrix_of(candidate, "propagation")
            eigs = np.linalg.eigvalsh(prop)
            if inst.mode == "signed":
                mu2_float = float(eigs[-2])
            else:
                mu2_float = float(np.sort(np.abs(eigs))[-2])
        else:
            mu2_float = 1.0
        if best is None or mu2_float < best:
            best = mu2_float
        if witness is None and exact_mu2_leq(candidate, inst.tau, mode=inst.mode, exact_limit=exact_limit):
            witness = _toggle_edit_set(g, toggles)
            if decision_only:
                break
    answer = "yes" if witness is not None else "no"
    return Decision(answer=answer, witness=witness, value_achieved=best)


# -- greedy single-toggle ascent ----------------------------------------------------


def _objective_value(g: Graph, objective: str, exact_limit: int):
    if objective == "conductance":
        if g.n <= exact_limit:
            return conductance_exact(g, exact_limit=exact_limit).phi
        return conductance_sweep(g).phi
    # spectral_gap: lambda2 of the normalized Laplacian; undefined with isolated vertices
    if min(g.degrees, default=1) == 0:
        return None
    return spectral_summary(g).lambda2


def _best_conductance_toggle(g: Graph) -> tuple[tuple[int, int], Fraction]:
    """The first pair in pair order whose toggle gives g its greatest exact
    conductance, and that conductance: one K = 1 batch over g's cut table."""
    pairs = _all_pairs(g.n)
    num, den = _toggled_conductance(g, np.arange(len(pairs))[:, None])
    i = int(_least_ratio(-num, den).argmax())
    return pairs[i], Fraction(int(num[i]), int(den[i]))


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
    cur = g
    cur_val = _objective_value(g, objective, exact_limit)
    trace = [float(cur_val)]
    for _ in range(budget):
        if objective == "conductance" and cur.n <= exact_limit:
            best_pair, best_val = _best_conductance_toggle(cur)
        else:
            best_pair = best_val = None
            for pair in _all_pairs(cur.n):
                val = _objective_value(_toggled(cur, [pair]), objective, exact_limit)
                if val is not None and val > cur_val + tol and (best_val is None or val > best_val):
                    best_pair, best_val = pair, val
        if best_pair is None or best_val <= cur_val + tol:
            break
        cur = _toggled(cur, [best_pair])
        cur_val = best_val
        trace.append(float(cur_val))
    return edit_set_between(g, cur), trace


# -- effective resistance and curvature ----------------------------------------------


def effective_resistance(g: Graph, u: int, v: int, dense_limit: int = DENSE_LIMIT) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v): electrical distance between two vertices."""
    if u == v:
        raise SameVertex(f"effective resistance needs two distinct vertices, got {u} twice")
    comp = next(c for c in g.connected_components() if u in c)
    if v not in comp:
        raise DisconnectedPair(f"vertices {u} and {v} lie in different components")
    lap = matrix_of(g, "combinatorial_laplacian", dense_limit=dense_limit)
    if isinstance(lap, np.ndarray):
        pinv = np.linalg.pinv(lap)
        return float(pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v])
    # Larger graphs: ground v (x_v = 0) and solve the reduced SPD Laplacian system,
    # leaving r = x_u directly.
    import scipy.sparse.linalg as spla

    keep = [vert for vert in comp if vert != v]
    lap_red = lap[keep][:, keep].tocsc()
    b_vec = np.zeros(len(keep))
    b_vec[keep.index(u)] = 1.0
    x = spla.spsolve(lap_red, b_vec)
    return float(x[keep.index(u)])


def resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs effective resistance; cross-component entries are +inf."""
    r = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(r, 0.0)
    lap = matrix_of(g, "combinatorial_laplacian", dense_limit=g.n)
    for comp in g.connected_components():
        if len(comp) == 1:
            continue
        idx = np.array(comp)
        sub = lap[np.ix_(idx, idx)]
        pinv = np.linalg.pinv(sub)
        d = np.diag(pinv)
        block = d[:, None] + d[None, :] - 2.0 * pinv
        r[np.ix_(idx, idx)] = block
    return r


def forman_curvature(g: Graph, e) -> int:
    """Combinatorial Forman curvature with triangle term: 4 - d_u - d_v + 3 t(u,v)."""
    u, v = e
    pair = canonical_pair(u, v)
    if pair not in g.edges:
        raise EdgeAbsent(f"edge {pair} is not in the graph")
    triangles = len(g.neighbors[u] & g.neighbors[v])
    return 4 - g.degrees[u] - g.degrees[v] + 3 * triangles


# -- SDRF-like and PPR heuristics ----------------------------------------------------


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


def ppr_matrix(g: Graph, alpha: float) -> np.ndarray:
    """Dense personalized-PageRank matrix alpha (I - (1-alpha) T)^{-1}.

    T is the augmented random-walk matrix, always taken dense (so no scipy),
    and I - (1-alpha) T is formed in its storage; row v holds node v's
    diffusion scores over all targets.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"teleport probability must be in (0,1), got {alpha}")
    n = g.n
    m_mat = matrix_of(g, "row_stochastic_propagation", dense_limit=n)
    m_mat *= 1.0 - alpha
    np.subtract(0.0, m_mat, out=m_mat)  # 0 - x, not -x: zeros stay +0.0
    m_mat.flat[:: n + 1] += 1.0
    try:
        pi = np.linalg.solve(m_mat, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("PPR linear system is singular") from exc
    pi *= alpha
    return pi


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
    if epsilon < 0.0:
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


# -- JSON views -----------------------------------------------------------------------


def edit_set_to_json(edits: EditSet | None) -> dict | None:
    if edits is None:
        return None
    return {
        "add": [list(p) for p in sorted(edits.additions)],
        "remove": [list(p) for p in sorted(edits.removals)],
    }


def decision_to_json(decision: Decision, objective: str) -> dict:
    return {
        "answer": decision.answer,
        "witness": edit_set_to_json(decision.witness),
        "value": decision.value_achieved,
        "objective": objective,
    }
