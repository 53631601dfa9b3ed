"""Reference solvers for the differential tests: the per-candidate loops that
the batched conductance code in `rewirelab.rewiring` replaced, kept as written
there.

`_enumerate_toggles` yields the toggle sets one at a time in (size, lex) order,
after `_check_search_space` has capped their count;
`decide_groc` builds every toggled graph and calls `conductance_exact` on it
(`candidate_conductances` lists those values, and `decide_from` decides from
such a list);
`greedy_rewire` scores every single toggle the same way (or by sweep cut above
the exact limit, and by lambda2 for the spectral-gap objective).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from rewirelab import Decision, EditSet, Graph, GrocInstance, conductance_exact, conductance_sweep, spectral_summary
from rewirelab.cuts import EXACT_CONDUCTANCE_LIMIT
from rewirelab.errors import ExactLimitExceeded, SearchSpaceTooLarge
from rewirelab.graph import edit_set_between
from rewirelab.rewiring import MAX_EDIT_CANDIDATES, _all_pairs, _toggle_edit_set, _toggled


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


def candidate_conductances(
    g: Graph,
    budget: int,
    exact_limit: int = EXACT_CONDUCTANCE_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
):
    """Yield every toggle set in enumeration order with the exact conductance of its toggled graph."""
    for toggles in _enumerate_toggles(g, budget, max_candidates):
        yield toggles, conductance_exact(_toggled(g, toggles), exact_limit=exact_limit).phi


def decide_from(g: Graph, candidates, phi0, decision_only: bool = False) -> Decision:
    """The decision over `candidates`, (toggles, phi) pairs in enumeration order."""
    best: Fraction | None = None
    witness: EditSet | None = None
    for toggles, phi in candidates:
        if best is None or phi > best:
            best = phi
        if witness is None and phi >= phi0:
            witness = _toggle_edit_set(g, toggles)
            if decision_only:
                break
    answer = "yes" if witness is not None else "no"
    return Decision(answer=answer, witness=witness, value_achieved=float(best))


def decide_groc(
    inst: GrocInstance,
    exact_limit: int = EXACT_CONDUCTANCE_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
    decision_only: bool = False,
) -> Decision:
    """Exhaustive exact solve of the conductance rewiring decision.

    Returns yes with the first witness in enumeration order; value_achieved is
    the maximum conductance over the whole search (over the search so far when
    `decision_only` stops at the witness).
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact conductance limited to n <= {exact_limit}, got {g.n}")
    candidates = candidate_conductances(g, inst.budget_k, exact_limit, max_candidates)
    return decide_from(g, candidates, inst.phi0, decision_only)


def _objective_value(g: Graph, objective: str, exact_limit: int):
    if objective == "conductance":
        if g.n <= exact_limit:
            return conductance_exact(g, exact_limit=exact_limit).phi
        return conductance_sweep(g).phi
    # spectral_gap: lambda2 of the normalized Laplacian; undefined with isolated vertices
    if min(g.degrees, default=1) == 0:
        return None
    return spectral_summary(g).lambda2


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
        best_pair = None
        best_val = None
        for pair in _all_pairs(cur.n):
            cand = _toggled(cur, [pair])
            val = _objective_value(cand, objective, exact_limit)
            if val is None or val <= cur_val + tol:
                continue
            if best_val is None or val > best_val:
                best_val = val
                best_pair = pair
        if best_pair is None:
            break
        cur = _toggled(cur, [best_pair])
        cur_val = best_val
        trace.append(float(cur_val))
    return edit_set_between(g, cur), trace
