"""Reference solvers for the differential tests, kept as written in `rewirelab.rewiring`.

`decide_gros` is the per-candidate spectral decision loop that the block-scored
solver replaced: every toggle set in (size, lex) order builds its graph, a dense
propagation matrix and one `eigvalsh` for the float mu2, and runs `exact_mu2_leq`
until the first witness.

`decide_gros_chunked` is the block-scored solver as it stood before it made one hint
solve per block: it solved the proof hints of a block in doubling chunks, the first
of _HINT_ENTRIES float64 entries.  It proves "no" one candidate at a time, as
`sturm.guided_mu2_leq` did before the block kernel `sturm._proves_above` replaced its
`vector` path: `_certifies_above` on a `Graph` over Python ints, with the 2^40 hints of
`_eigenvector_hints`.  Those helpers are kept below as they were written in
`rewirelab.sturm` and `rewirelab.rewiring`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from groc_reference import _enumerate_toggles, _toggle_edit_set
from rewirelab import Decision, EditSet, Graph, GrosInstance, exact_mu2_leq, matrix_of
from rewirelab.errors import ExactLimitExceeded
from rewirelab.rewiring import _BLOCK_ENTRIES, MAX_EDIT_CANDIDATES, _propagation_stack, _search, _toggled
from rewirelab.sturm import EXACT_EIGEN_LIMIT, _simplest_between


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


#: Entries in the first stack of proof hints `decide_gros` solves: below this, the fixed
#: cost of a stacked solve (about 20 us) outweighs the rows it serves.
_HINT_ENTRIES = 1 << 10


def decide_gros_chunked(
    inst: GrosInstance,
    exact_limit: int = EXACT_EIGEN_LIMIT,
    max_candidates: int = MAX_EDIT_CANDIDATES,
) -> Decision:
    """Exhaustive solve of the spectral rewiring decision.

    Each block's float mu2 comes from one stacked `eigvalsh` of at most _BLOCK_ENTRIES
    float64 entries (one matrix at least).  value_achieved is the least of them over
    the whole search, informational only.  The threshold test runs per candidate up to
    the first witness, and is exact: the float mu2, and where the signed mu2 is above
    tau its eigenvector from one shifted solve, only choose which integer proof
    `guided_mu2_leq` tries, with the full inertia count of `exact_mu2_leq` at tau as
    its fallback.
    """
    g = inst.graph
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact eigenvalue decision limited to n <= {exact_limit}, got {g.n}")
    n, tau, mode = g.n, inst.tau, inst.mode
    u, v = np.triu_indices(n, 1)
    pairs = list(zip(u.tolist(), v.tolist()))
    adj = matrix_of(g, "adjacency", dense_limit=n)  # dense at every n: eigvalsh takes no CSR

    def first_hit(toggles, stack, eigs, mu2):
        """The first row whose candidate has mu2 <= tau.  One stacked solve gives the hints
        of a chunk's rows whose float signed mu2 is above tau; an absolute mu2 above tau
        only through |mu_min| gets none, and is decided at tau.  The first chunk holds
        _HINT_ENTRIES float64 entries (one matrix at least) and each next one doubles the
        rows done, so hints past the witness cost no more than those before it."""
        start, first = 0, max(1, _HINT_ENTRIES // (n * n))
        while start < len(toggles):
            stop = min(len(toggles), 2 * start + first)
            estimates, signed = mu2[start:stop].tolist(), eigs[start:stop, -2]
            above = np.flatnonzero(signed > float(tau)) if n > 1 else ()  # float picks, guided decides
            hints = _eigenvector_hints(stack[start:stop][above], signed[above]) if len(above) else ()
            guesses = dict(zip(list(above), hints))
            for i, row in enumerate(toggles[start:stop].tolist()):
                candidate = _toggled(g, (pairs[t] for t in row if t < len(pairs)))
                if guided_mu2_leq(candidate, tau, mode, exact_limit, Fraction(estimates[i]), guesses.get(i)):
                    return start + i
            start = stop
        return None

    def score(toggles, find):
        # mu2 is undefined on one vertex; it reads 1
        stack = _propagation_stack(adj, u, v, toggles)[0] if n > 1 else None
        eigs = np.linalg.eigvalsh(stack) if n > 1 else np.ones((len(toggles), 2))
        mu2 = eigs[:, -2] if mode == "signed" else np.sort(np.abs(eigs))[:, -2]
        value = float(mu2[mu2.argmin()])  # argmin: the first of equal minima, as -0.0 and 0.0
        return value, first_hit(toggles, stack, eigs, mu2) if find else None

    rows = max(1, _BLOCK_ENTRIES // max(1, n * n))  # a stack of n x n float64 matrices
    return _search(g, (u, v), inst.budget_k, max_candidates, rows, score, min)


# -- the per-candidate "no" proof, as it was in rewirelab.sturm and rewirelab.rewiring


def _eigenvector_hints(mats: np.ndarray, mu2: np.ndarray) -> list:
    """Per propagation matrix and its float signed mu2, the integer vector
    `guided_mu2_leq` takes when mu2 is above tau: 2^40 y / max|y| rounded, where y is
    (D+I)^(-1/2) times the eigenvector of mu2.  The eigenvector is one step of inverse
    iteration from a fixed generic vector, shifted 2^-40 off mu2: one LU solve per
    matrix, on one BLAS thread, where `eigh` costs 4-8 times as much at n = 32-48 and
    keeps a second OpenBLAS thread spinning.
    """
    n = mats.shape[-1]
    shifted = mats - (mu2 + 2.0**-40)[:, None, None] * np.eye(n)
    try:
        y = np.linalg.solve(shifted, np.cos(np.arange(n)))
    except np.linalg.LinAlgError:  # a shift on an eigenvalue after all: exact_mu2_leq decides
        return [None] * len(mats)
    y *= np.sqrt(np.diagonal(mats, axis1=1, axis2=2))
    return np.rint(y * (2.0**40 / np.abs(y).max(axis=1, keepdims=True))).astype(np.int64).tolist()


def _check_decision(g: Graph, mode: str, exact_limit: int) -> None:
    if mode not in ("signed", "absolute"):
        raise ValueError(f"mode must be 'signed' or 'absolute', got {mode!r}")
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact eigenvalue decision limited to n <= {exact_limit}, got {g.n}")


def _pencil_form(g: Graph, a: int, b: int, x: list[int]) -> int:
    """x^T (a(A+I) - b(D+I)) x."""
    diag = sum((a - b * (d + 1)) * xi * xi for d, xi in zip(g.degrees, x))
    return diag + 2 * a * sum(x[i] * x[j] for i, j in g.edges)


def _certifies_above(g: Graph, tau: Fraction, x: list[int]) -> bool:
    """An integer proof that mu2 > tau, from the all-ones vector and x (Courant-Fischer).

    With M = q(A+I) - p(D+I), M1 = (q - p)(D+I)1, so 1^T M 1 = (q - p)(2m + n) > 0
    when tau < 1.  Then M is positive definite on span{1, x}, and has two positive
    eigenvalues, when (1^T M 1)(x^T M x) > (1^T M x)^2; dividing by q - p:
    (2m + n) x^T M x > (q - p)(sum (d_i + 1) x_i)^2.  The absolute mu2 is at least the
    signed one, so the proof holds in both modes.
    """
    p, q = tau.numerator, tau.denominator
    if q <= p or len(x) != g.n:
        return False
    weighted = sum((d + 1) * xi for d, xi in zip(g.degrees, x))
    return (2 * g.m + g.n) * _pencil_form(g, q, p, x) > (q - p) * weighted * weighted


def guided_mu2_leq(
    g: Graph,
    tau,
    mode: str,
    exact_limit: int,
    estimate: Fraction,
    vector: list[int] | None,
) -> bool:
    """`exact_mu2_leq(g, tau, mode)`, reached by a cheaper exact proof where the hints allow.

    The hints choose which proof to try; the answer rests on integers alone, so a
    wrong hint costs time, never the answer.  `estimate` is a rational guess of mu2.
    Above tau, `vector` is an integer guess of the eigenvector of the signed mu2, and
    `_certifies_above` proves "no" in O(n + m) in either mode.  Below tau, "yes" at the
    simplest rational tau' in [(estimate + tau) / 2, tau] is "yes" at tau, and with a
    smaller denominator than tau's its elimination is cheaper.  Anything else, such
    as an absolute mu2 above tau only through |mu_min|, is decided at tau.
    """
    _check_decision(g, mode, exact_limit)
    tau = Fraction(tau)
    if g.n >= 2:
        if estimate > tau and vector is not None:
            if _certifies_above(g, tau, vector):
                return False
        elif estimate < tau:
            easier = _simplest_between((estimate + tau) / 2, tau)
            if easier.denominator < tau.denominator and exact_mu2_leq(g, easier, mode, exact_limit):
                return True
    return exact_mu2_leq(g, tau, mode, exact_limit)
