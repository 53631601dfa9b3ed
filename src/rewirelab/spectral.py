"""Eigenvalue summaries, propagation simulation, and Dirichlet energy decay.

lambda2 always refers to the non-augmented normalized Laplacian (the quantity
Cheeger's inequality speaks about); mu2/mu_min refer to the propagation matrix,
self-loop augmented by default.  Small graphs get a full symmetric
eigendecomposition; large ones a deflated Lanczos iteration from a fixed start
vector, so repeated calls agree bit for bit, with an explicitly computed
residual bound.  scipy is imported only on the Lanczos path, which reads
connectivity from its CSR matrix.  There, on a d-regular graph, the mu2 solve
starts from lambda2's Ritz vector: P = (d N + I) / (d + 1) shares its
eigenvectors with N = D^{-1/2} A D^{-1/2}, in the same order.  Elsewhere N's
second eigenvector may be orthogonal to P's, so mu2 keeps the fixed start.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

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


@cache
def _scipy_openblas():
    """scipy's bundled OpenBLAS, or None where scipy links another BLAS."""
    import ctypes
    import glob
    import os

    import scipy

    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib
    return None


@contextmanager
def _one_scipy_blas_thread():
    """Run ARPACK's BLAS calls on the calling thread alone.

    The numpy and scipy wheels each bundle an OpenBLAS, each with its own
    worker threads, which spin for about 0.1 s after a threaded call.  A
    threaded ARPACK call therefore leaves a thread spinning that competes with
    the next dense numpy call for the cores, so that call's latency depends on
    what ran before it.  ARPACK's vector work gains nothing from the second
    thread.  Elsewhere (scipy on another BLAS) this does nothing.
    """
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    count = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(count)


def _eigsh_extreme(op, which: str, v0: np.ndarray | None = None):
    """One extreme eigenpair by ARPACK at tolerance 1e-10 within 50 n iterations,
    started from v0, or from the fixed start vector when v0 is None."""
    import scipy.sparse.linalg as spla

    n = op.shape[0]
    start = _lanczos_start(n) if v0 is None else v0
    with _one_scipy_blas_thread():
        return spla.eigsh(op, k=1, which=which, tol=1e-10, maxiter=50 * n, v0=start)


def _second_largest_iterative(mat, top_vec: np.ndarray, v0: np.ndarray | None = None):
    """Largest eigenpair after deflating the known top eigenvector (eigenvalue 1).

    Shifting the top eigenvalue to -2 keeps everything else in [-1, 1], so the
    Lanczos extreme is the second-largest eigenvalue of the original operator.
    Returns the eigenvalue, its residual and the unit Ritz vector.
    """
    import scipy.sparse.linalg as spla

    n = mat.shape[0]

    def matvec(x):
        return mat @ x - 3.0 * np.dot(top_vec, x) * top_vec

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    vals, vecs = _eigsh_extreme(op, "LA", v0)
    theta = float(vals[0])
    x = vecs[:, 0]
    x = x - np.dot(top_vec, x) * top_vec
    x /= np.linalg.norm(x)
    residual = float(np.linalg.norm(mat @ x - theta * x))
    return theta, residual, x


def spectral_summary(g: Graph, augmented: bool = True) -> SpectralSummary:
    """Compute lambda2, mu2, mu_min and the decay slack for a graph.

    Dense up to DENSE_LIMIT vertices, Lanczos above.  Raises IsolatedVertex when a
    vertex has degree 0 (lambda2 needs the normalized Laplacian).  Disconnected
    graphs are allowed and flagged; their lambda2 is 0 and mu2 is 1 exactly.
    """
    n = g.n
    if n == 0:
        raise DimensionMismatch("empty graph")
    if n > 1 and min(g.degrees) == 0:
        bad = g.degrees.index(0)
        raise IsolatedVertex(f"vertex {bad} has degree 0; spectral summary undefined")

    if n == 1:
        # Single vertex: P = [1]; mu2 is undefined, reported as the sole eigenvalue.
        return SpectralSummary(0.0, 1.0, 1.0, 1.0, "dense_exact", 0.0, True)

    if n <= DENSE_LIMIT:
        connected = g.is_connected()
        lap = matrix_of(g, "normalized_laplacian", dense_limit=DENSE_LIMIT)
        prop = matrix_of(g, "propagation", augmented=augmented, dense_limit=DENSE_LIMIT)
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
    from scipy.sparse.csgraph import connected_components

    deg = np.array(g.degrees, dtype=np.float64)
    norm_adj = matrix_of(g, "propagation", augmented=False, dense_limit=DENSE_LIMIT)
    prop = matrix_of(g, "propagation", dense_limit=DENSE_LIMIT) if augmented else norm_adj
    connected = connected_components(norm_adj, directed=False, return_labels=False) == 1

    try:
        residuals = []
        if connected:
            # lambda2 = 1 - (second largest eigenvalue of D^{-1/2} A D^{-1/2})
            theta, r1, x = _second_largest_iterative(norm_adj, _top_eigvec_normalized_adjacency(deg))
            lambda2 = 1.0 - theta
            if augmented:
                v0 = x if deg.min() == deg.max() else None  # regular: N and P share eigenvectors
                mu2, r2, _ = _second_largest_iterative(prop, _top_eigvec_normalized_adjacency(deg + 1.0), v0)
            else:
                mu2, r2 = theta, r1  # prop is norm_adj: the same solve
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
    cur = _check_features(g, x)
    summary = spectral_summary(g, augmented=augmented)
    prop = matrix_of(g, "propagation", augmented=augmented)
    rows = []
    for layer in range(max_layers + 1):
        nxt = prop @ cur  # layer L's product is layer L + 1's features
        energy = float(np.sum(cur * (cur - nxt)))
        if layer == 0:
            e0 = energy
        s_bound = (summary.slack ** (2 * layer)) * e0
        mu2_bound = (summary.mu2 ** (2 * layer)) * e0
        rows.append((layer, energy, s_bound, mu2_bound))
        cur = nxt
    return rows


def decay_report_csv(rows: list[tuple[int, float, float, float]]) -> str:
    lines = ["layer,energy,s_bound,mu2_bound"]
    for layer, energy, s_bound, mu2_bound in rows:
        lines.append(f"{layer},{energy!r},{s_bound!r},{mu2_bound!r}")
    return "\n".join(lines) + "\n"
