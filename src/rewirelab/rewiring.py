"""Exact rewiring decision solvers under an edit budget, plus polynomial heuristics.

Both decision solvers share one search over edge toggles (the symmetric-difference
metric treats each vertex pair as a binary toggle): every set of size <= K in
(size, lex) order, scored in blocks.  The conductance problem scores a block from
the base graph's cut table as integer changes to each side's boundary and volume,
and on large blocks scans in full only the sets whose upper bound lets them be the
first witness or the maximum; budget 0 is one `conductance_exact` call;
the spectral problem scores a block's float mu2 with one stacked `eigvalsh`, and up
to the first witness one int64 kernel proves "no" for many rows at once
(`sturm._proves_above`) and `sturm.guided_mu2_leq` decides the rest exactly.
The heuristics are the practical alternative: greedy single-toggle ascent (scored
the same batched way for exact conductance), curvature/resistance rewiring, and
personalized PageRank densification.
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
    _ToggledConductance,
    conductance_exact,
    conductance_sweep,
)
from .errors import (
    DisconnectedPair,
    EdgeAbsent,
    ExactLimitExceeded,
    OutOfRangeVertex,
    SameVertex,
    SearchSpaceTooLarge,
    SingularSystem,
)
from .graph import DENSE_LIMIT, EditSet, Graph, canonical_pair, edit_set_between, matrix_of
from .sturm import EXACT_EIGEN_LIMIT, _proves_above, guided_mu2_leq

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


def _toggled(g: Graph, toggles) -> Graph:
    toggles = frozenset(toggles)
    return Graph(n=g.n, edges=g.edges ^ toggles) if toggles else g  # g keeps its cached views


def _toggle_blocks(num_pairs: int, budget: int, rows: int):
    """Every set of at most `budget` of `num_pairs` pairs in (size, lex) order,
    `rows` sets at a time: int64 rows of pair indices, padded with num_pairs to
    the block's largest set."""

    def padded(parts):
        block = np.full((sum(map(len, parts)), parts[-1].shape[1]), num_pairs, np.int64)
        top = 0
        for part in parts:
            block[top : top + len(part), : part.shape[1]] = part
            top += len(part)
        return block

    parts, filled = [], 0
    for j in range(budget + 1):
        sets, left = combinations(range(num_pairs), j), math.comb(num_pairs, j)
        while left:
            take = min(left, rows - filled)
            parts.append(np.fromiter(chain.from_iterable(islice(sets, take)), np.int64, take * j).reshape(take, j))
            left, filled = left - take, filled + take
            if filled == rows:
                yield padded(parts)
                parts, filled = [], 0
    if parts:
        yield padded(parts)


def _search(g: Graph, pairs: tuple[np.ndarray, np.ndarray], budget: int, max_candidates: int, rows: int, score, best):
    """Decide over every toggle set of size 0..budget in (size, lex) order.

    `score(toggles, find)` gets `rows` sets at a time as int64 indices into
    `pairs` = (u, v), the lexicographic pairs, padded with the pair count to the
    block's largest set; it returns the block's value and, when `find` is true,
    the row of its first hit or None.  Yes takes the first hit as its witness,
    and value_achieved is the `best` (max or min) of the block values.
    """
    u, v = pairs
    total = sum(math.comb(len(u), j) for j in range(budget + 1))
    if total > max_candidates:
        raise SearchSpaceTooLarge(f"{total} candidate edit sets exceed the cap of {max_candidates}")
    values, witness = [], None
    for toggles in _toggle_blocks(len(u), budget, rows):
        value, hit = score(toggles, witness is None)
        values.append(value)
        if witness is None and hit is not None:
            witness = edit_set_between(g, _toggled(g, ((int(u[i]), int(v[i])) for i in toggles[hit] if i < len(u))))
    return Decision("yes" if witness is not None else "no", witness, float(best(values)))


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
) -> Decision:
    """Exhaustive exact solve of the conductance rewiring decision.

    Toggle sets are scored in blocks of _BLOCK_ENTRIES against the base graph's
    cut table, each toggle applied as integer deltas to each side's boundary and
    volume (`cuts._ToggledConductance`); phi >= phi0 is decided by integer
    cross-multiplication.  On a large block every set first gets an integer
    upper bound U from a few sides, and only two kinds of set are scanned in
    full: those with U >= phi0, in (size, lex) order in groups of 1, 2, 4, ...
    until the first exact hit, and those whose U exceeds the greatest exact
    value found, greatest U first.  A skipped set can be neither the first
    witness nor the maximum.  The empty set alone (budget 0) is `conductance_exact`.
    Returns yes with the first witness in (size, lex) order; value_achieved is
    the maximum conductance over the whole search.
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact conductance limited to n <= {exact_limit}, got {g.n}")
    phi0 = Fraction(inst.phi0)
    pairs = np.triu_indices(g.n, 1)

    def score(toggles, find):
        if not toggles.shape[1]:  # g alone (budget 0 or n < 2): its EmptySide follows _search's cap check
            phi = conductance_exact(g, exact_limit).phi
            return phi, 0 if find and phi >= phi0 else None
        phi = _ToggledConductance(g, toggles, pairs)
        # a set whose bound is below phi0 is no witness, and an exact one that reaches phi0 is a
        # hit; the rest are scanned in order, in growing groups, until the first hit
        reach, hit, lo = np.flatnonzero(_at_least(phi.num, phi.den, phi0)) if find else (), None, 0
        while hit is None and lo < len(reach):
            group = reach[lo : 2 * lo + 1]
            if not phi.exact[group].all():
                phi.refine(group)
                group = group[_at_least(phi.num[group], phi.den[group], phi0)]
            hit, lo = (int(group[0]) if len(group) else None), 2 * lo + 1
        phi.refine_greatest()
        return _greatest_ratio(phi.num, phi.den), hit

    return _search(g, pairs, inst.budget_k, max_candidates, _BLOCK_ENTRIES, score, max)


def _propagation_stack(adj: np.ndarray, u: np.ndarray, v: np.ndarray, toggles: np.ndarray):
    """adj toggled by each row of `toggles` over the pairs (u, v): the dense propagation
    matrices, built as `matrix_of` builds them (s = 1/sqrt(d' + 1), A' s s^T, diagonal
    s^2), and the 0/1 adjacency matrices A' in adj's dtype."""
    flips = np.repeat(adj[None], len(toggles), axis=0)
    for col in toggles.T:
        b = np.flatnonzero(col < len(u))  # the pad toggles nothing
        i, j = u[col[b]], v[col[b]]
        flips[b, i, j] = flips[b, j, i] = 1 - flips[b, i, j]
    stack = flips.astype(np.float64)
    s = 1.0 / np.sqrt(np.einsum("rij->ri", flips, dtype=np.float64) + 1.0)  # einsum: twice as fast as sum here
    stack *= s[:, :, None]
    stack *= s[:, None, :]
    stack.reshape(len(stack), -1)[:, :: len(adj) + 1] = s * s
    return stack, flips


def _eigenvector_hints(mats: np.ndarray, mu2: np.ndarray) -> np.ndarray | None:
    """Per propagation matrix and its float signed mu2, the int64 vector
    `sturm._proves_above` takes: 2^20 y / max|y| rounded, where y is (D+I)^(-1/2) times
    the eigenvector of mu2; None when the solve is singular.  The eigenvector is one step
    of inverse iteration from a fixed generic vector, shifted 2^-40 off mu2: one LU
    solve per matrix, on one BLAS thread, where `eigh` costs 4-8 times as much at
    n = 32-48 and keeps a second OpenBLAS thread spinning.
    """
    n = mats.shape[-1]
    shifted = mats - (mu2 + 2.0**-40)[:, None, None] * np.eye(n)
    try:
        y = np.linalg.solve(shifted, np.cos(np.arange(n)))
    except np.linalg.LinAlgError:  # a shift on an eigenvalue after all: exact_mu2_leq decides
        return None
    y *= np.sqrt(np.diagonal(mats, axis1=1, axis2=2))
    return np.rint(y * (2.0**20 / np.abs(y).max(axis=1, keepdims=True))).astype(np.int64)


def decide_gros(
    inst: GrosInstance,
    exact_limit: int = EXACT_EIGEN_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
) -> Decision:
    """Exhaustive solve of the spectral rewiring decision.

    Each block's float mu2 comes from one stacked `eigvalsh` of at most _BLOCK_ENTRIES
    float64 entries (one matrix at least).  value_achieved is the least of them over
    the whole search, informational only.  Up to the first witness, a block is decided
    in spans, each ending at a row whose float mu2 is at most tau.  In a span, one
    stacked shifted solve gives eigenvectors for the rows whose float signed mu2 is
    above tau, `sturm._proves_above` proves "no" for them at once, and
    `guided_mu2_leq` decides the rows left open, in order.  The floats only choose
    which integer proof to try, with `exact_mu2_leq` at tau as the fallback.
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact eigenvalue decision limited to n <= {exact_limit}, got {g.n}")
    n, tau, mode = g.n, inst.tau, inst.mode
    u, v = np.triu_indices(n, 1)
    pairs = list(zip(u.tolist(), v.tolist()))
    adj = matrix_of(g, "adjacency", dense_limit=n).astype(np.int8)  # dense at every n: eigvalsh takes no CSR

    def score(toggles, find):
        if n == 1:  # mu2 is undefined on one vertex: it reads 1, and mu2 <= tau holds vacuously
            return 1.0, 0
        stack, flips = _propagation_stack(adj, u, v, toggles)
        eigs = np.linalg.eigvalsh(stack)
        mu2 = eigs[:, -2] if mode == "signed" else np.sort(np.abs(eigs))[:, -2]
        value = float(mu2[mu2.argmin()])  # argmin: the first of equal minima, as -0.0 and 0.0
        if not find:
            return value, None
        # an absolute mu2 above tau only through |mu_min| gets no hint, and is decided at tau
        signed, estimates, left, start = eigs[:, -2], mu2.tolist(), np.ones(len(toggles), bool), 0
        for end in [*np.flatnonzero(mu2 <= float(tau)).tolist(), len(toggles) - 1]:
            above = start + np.flatnonzero(signed[start : end + 1] > float(tau))
            x = _eigenvector_hints(stack[above], signed[above]) if len(above) else None
            if x is not None:  # float picks, integers prove
                left[above[_proves_above(flips[above], x, tau)]] = False
            for i in (start + np.flatnonzero(left[start : end + 1])).tolist():
                candidate = _toggled(g, (pairs[t] for t in toggles[i].tolist() if t < len(pairs)))
                if guided_mu2_leq(candidate, tau, mode, exact_limit, Fraction(estimates[i])):
                    return value, i
            start = end + 1
        return value, None

    rows = max(1, _BLOCK_ENTRIES // max(1, n * n))  # a stack of n x n float64 matrices
    return _search(g, (u, v), inst.budget_k, max_candidates, rows, score, min)


# -- greedy single-toggle ascent ----------------------------------------------------


def _objective(objective: str, exact_limit: int):
    """The value greedy ascends, as a function of the graph."""
    if objective == "conductance":

        def phi(g: Graph):
            if g.n <= exact_limit:
                return conductance_exact(g, exact_limit=exact_limit).phi
            return conductance_sweep(g).phi

        return phi
    # spectral_gap: lambda2 of the normalized Laplacian, 0 on one vertex; an isolated
    # vertex among several raises IsolatedVertex
    from .spectral import spectral_summary

    return lambda g: spectral_summary(g).lambda2


def _best_conductance_toggle(g: Graph) -> tuple[tuple[int, int], Fraction]:
    """The first pair in pair order whose toggle gives g its greatest exact
    conductance, and that conductance: one K = 1 batch over g's cut table.  When
    the batch is bounded, every pair whose bound reaches the greatest exact value
    is scanned in full, so ties at the maximum keep the first pair."""
    u, v = np.triu_indices(g.n, 1)
    phi = _ToggledConductance(g, np.arange(len(u))[:, None], (u, v))
    phi.refine_greatest(ties=True)
    i = int(_least_ratio(-phi.num, phi.den).argmax())
    return (int(u[i]), int(v[i])), Fraction(int(phi.num[i]), int(phi.den[i]))


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


# -- effective resistance and curvature ----------------------------------------------


def effective_resistance(g: Graph, u: int, v: int) -> float:
    """(e_u - e_v)^T L^+ (e_u - e_v): electrical distance between two vertices."""
    for w in (u, v):
        if not 0 <= w < g.n:
            raise OutOfRangeVertex(f"vertex {w} is outside [0,{g.n})")
    if u == v:
        raise SameVertex(f"effective resistance needs two distinct vertices, got {u} twice")
    comp = next(c for c in g.connected_components() if u in c)
    if v not in comp:
        raise DisconnectedPair(f"vertices {u} and {v} lie in different components")
    lap = matrix_of(g, "combinatorial_laplacian", dense_limit=DENSE_LIMIT)
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
