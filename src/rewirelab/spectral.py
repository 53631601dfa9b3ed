"""Eigenvalue summaries, propagation simulation, and Dirichlet energy decay.

lambda2 always refers to the non-augmented normalized Laplacian (the quantity
Cheeger's inequality speaks about); mu2/mu_min refer to the propagation matrix,
self-loop augmented by default.  Small graphs get a full symmetric
eigendecomposition; large ones a deflated Lanczos iteration from a fixed start
vector, so repeated calls agree bit for bit, with an explicitly computed
residual bound.  scipy is imported only on the Lanczos path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, IsolatedVertex
from .graph import DENSE_LIMIT, Graph, matrix_of

__all__ = [
    "SpectralSummary",
    "spectral_summary",
    "propagate",
    "dirichlet_energy",
    "decay_report",
    "decay_report_csv",
]


@dataclass(frozen=True)
class SpectralSummary:
    """Fiedler value of the normalized Laplacian plus propagation-matrix extremes."""

    lambda2: float
    mu2: float
    mu_min: float
    slack: float  # max(|mu2|, |mu_min|): the honest decay rate
    method: str  # "dense_exact" or "iterative"
    residual_bound: float
    connected: bool


def _top_eigvec_normalized_adjacency(degrees: np.ndarray) -> np.ndarray:
    """Unit eigenvector for eigenvalue 1 of D^{-1/2} A D^{-1/2}: sqrt(degrees)."""
    v = np.sqrt(degrees)
    return v / np.linalg.norm(v)


def _lanczos_start(n: int) -> np.ndarray:
    """Fixed ARPACK start vector: without one, eigsh starts from a random vector."""
    return np.random.default_rng(0).standard_normal(n)


def _eigsh_extreme(op, which: str):
    """One extreme eigenpair by ARPACK at tolerance 1e-10 within 50 n iterations."""
    import scipy.sparse.linalg as spla

    n = op.shape[0]
    return spla.eigsh(op, k=1, which=which, tol=1e-10, maxiter=50 * n, v0=_lanczos_start(n))


def _second_largest_iterative(mat, top_vec: np.ndarray):
    """Largest eigenpair after deflating the known top eigenvector (eigenvalue 1).

    Shifting the top eigenvalue to -2 keeps everything else in [-1, 1], so the
    Lanczos extreme is the second-largest eigenvalue of the original operator.
    """
    import scipy.sparse.linalg as spla

    n = mat.shape[0]

    def matvec(x):
        return mat @ x - 3.0 * np.dot(top_vec, x) * top_vec

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    vals, vecs = _eigsh_extreme(op, "LA")
    theta = float(vals[0])
    x = vecs[:, 0]
    x = x - np.dot(top_vec, x) * top_vec
    x /= np.linalg.norm(x)
    residual = float(np.linalg.norm(mat @ x - theta * x))
    return theta, residual


def spectral_summary(
    g: Graph,
    augmented: bool = True,
    dense_limit: int = DENSE_LIMIT,
) -> SpectralSummary:
    """Compute lambda2, mu2, mu_min and the decay slack for a graph.

    Raises IsolatedVertex when a vertex has degree 0 (lambda2 needs the
    normalized Laplacian).  Disconnected graphs are allowed and flagged; their
    lambda2 is 0 and mu2 is 1 exactly.
    """
    n = g.n
    if n == 0:
        raise DimensionMismatch("empty graph")
    if n > 1 and min(g.degrees) == 0:
        bad = g.degrees.index(0)
        raise IsolatedVertex(f"vertex {bad} has degree 0; spectral summary undefined")
    connected = g.is_connected()

    if n == 1:
        # Single vertex: P = [1]; mu2 is undefined, reported as the sole eigenvalue.
        return SpectralSummary(0.0, 1.0, 1.0, 1.0, "dense_exact", 0.0, True)

    if n <= dense_limit:
        lap = matrix_of(g, "normalized_laplacian", dense_limit=dense_limit)
        prop = matrix_of(g, "propagation", augmented=augmented, dense_limit=dense_limit)
        wl, vl = np.linalg.eigh(lap)
        wp, vp = np.linalg.eigh(prop)
        lambda2 = float(wl[1]) if connected else 0.0
        mu2 = float(wp[-2]) if connected else 1.0
        mu_min = float(wp[0])
        res = max(
            float(np.linalg.norm(lap @ vl[:, 1] - wl[1] * vl[:, 1])),
            float(np.linalg.norm(prop @ vp[:, -2] - wp[-2] * vp[:, -2])),
            float(np.linalg.norm(prop @ vp[:, 0] - wp[0] * vp[:, 0])),
        )
        return SpectralSummary(lambda2, mu2, mu_min, max(abs(mu2), abs(mu_min)), "dense_exact", res, connected)

    # Iterative path: D^{-1/2} A D^{-1/2} is the plain propagation matrix.
    import scipy.sparse.linalg as spla

    deg = np.array(g.degrees, dtype=np.float64)
    d_eff = deg + 1.0 if augmented else deg
    norm_adj = matrix_of(g, "propagation", augmented=False, dense_limit=dense_limit)
    prop = matrix_of(g, "propagation", augmented=augmented, dense_limit=dense_limit)

    try:
        residuals = []
        if connected:
            # lambda2 = 1 - (second largest eigenvalue of D^{-1/2} A D^{-1/2})
            theta, r1 = _second_largest_iterative(norm_adj, _top_eigvec_normalized_adjacency(deg))
            lambda2 = 1.0 - theta
            mu2, r2 = _second_largest_iterative(prop, _top_eigvec_normalized_adjacency(d_eff))
            residuals += [r1, r2]
        else:
            lambda2 = 0.0
            mu2 = 1.0
        vals, vecs = _eigsh_extreme(prop, "SA")
        mu_min = float(vals[0])
        residuals.append(float(np.linalg.norm(prop @ vecs[:, 0] - mu_min * vecs[:, 0])))
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(
            f"eigensolver did not converge within {50 * n} iterations",
            best_estimate=getattr(exc, "eigenvalues", None),
        ) from exc
    return SpectralSummary(
        float(lambda2),
        float(mu2),
        float(mu_min),
        max(abs(float(mu2)), abs(float(mu_min))),
        "iterative",
        max(residuals),
        connected,
    )


def _check_features(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != g.n:
        raise DimensionMismatch(f"feature matrix has {x.shape[0]} rows for a {g.n}-vertex graph")
    if not np.all(np.isfinite(x)):
        raise DimensionMismatch("feature matrix has non-finite entries")
    return x


def propagate(g: Graph, x: np.ndarray, layers: int, augmented: bool = True) -> np.ndarray:
    """Return P^layers @ x with the (augmented) propagation matrix."""
    if layers < 0:
        raise DimensionMismatch(f"layer count must be >= 0, got {layers}")
    x = _check_features(g, x)
    if layers == 0:
        return x.copy()
    prop = matrix_of(g, "propagation", augmented=augmented)
    out = x
    for _ in range(layers):
        out = prop @ out
    return out


def dirichlet_energy(g: Graph, x: np.ndarray, augmented: bool = True) -> float:
    """trace(X^T (I - P) X): zero exactly on the top eigenspace of P."""
    x = _check_features(g, x)
    prop = matrix_of(g, "propagation", augmented=augmented)
    diff = x - prop @ x
    return float(np.sum(x * diff))


def decay_report(
    g: Graph, x: np.ndarray, max_layers: int, augmented: bool = True
) -> list[tuple[int, float, float, float]]:
    """Rows (layer, measured energy, slack bound, mu2-only bound) for L = 0..max_layers.

    The slack bound s^{2L} * E0 with s = max(|mu2|, |mu_min|) is the one that
    actually holds; the mu2-only bound is reported for comparison and may be
    violated when |mu_min| > mu2.
    """
    x = _check_features(g, x)
    summary = spectral_summary(g, augmented=augmented)
    e0 = dirichlet_energy(g, x, augmented=augmented)
    prop = matrix_of(g, "propagation", augmented=augmented)
    rows = []
    cur = x
    for layer in range(max_layers + 1):
        if layer > 0:
            cur = prop @ cur
        energy = float(np.sum(cur * (cur - prop @ cur)))
        s_bound = (summary.slack ** (2 * layer)) * e0
        mu2_bound = (summary.mu2 ** (2 * layer)) * e0
        rows.append((layer, energy, s_bound, mu2_bound))
    return rows


def decay_report_csv(rows: list[tuple[int, float, float, float]]) -> str:
    lines = ["layer,energy,s_bound,mu2_bound"]
    for layer, energy, s_bound, mu2_bound in rows:
        lines.append(f"{layer},{energy!r},{s_bound!r},{mu2_bound!r}")
    return "\n".join(lines) + "\n"
