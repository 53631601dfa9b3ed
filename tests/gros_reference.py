"""Reference solver for the differential tests: the per-candidate spectral
decision loop that the block-scored `rewirelab.rewiring.decide_gros` replaced,
kept as written there.

Every toggle set in (size, lex) order builds its graph, a dense propagation
matrix and one `eigvalsh` for the float mu2, and runs `exact_mu2_leq` until the
first witness.
"""

from __future__ import annotations

import numpy as np

from groc_reference import _enumerate_toggles, _toggle_edit_set
from rewirelab import Decision, EditSet, GrosInstance, exact_mu2_leq, matrix_of
from rewirelab.errors import ExactLimitExceeded
from rewirelab.rewiring import MAX_EDIT_CANDIDATES, _toggled
from rewirelab.sturm import EXACT_EIGEN_LIMIT


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
