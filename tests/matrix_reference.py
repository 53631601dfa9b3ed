"""Reference matrix builders for the differential tests: the two formulas
per kind that `rewirelab.graph.matrix_of` replaced, kept as written there.

`matrix_of` fills a dense adjacency in a Python loop over the edges and scales
it by broadcasting; above `dense_limit` it hands over to `_sparse_matrix_of`,
which builds the CSR adjacency the same way and scales it by diagonal matmuls.
"""

from __future__ import annotations

import numpy as np

from rewirelab.errors import IsolatedVertex
from rewirelab.graph import DENSE_LIMIT, MATRIX_KINDS, Graph


def matrix_of(g: Graph, kind: str, augmented: bool = True, dense_limit: int = DENSE_LIMIT):
    """Return the requested n x n matrix view of the graph.

    The two propagation kinds use the self-loop augmented pair (A+I, D+I) when
    `augmented` is true (the default); with `augmented=False` they fall back to
    the plain normalized forms, which require every degree to be positive.
    The normalized Laplacian is always the non-augmented I - D^{-1/2} A D^{-1/2}.
    Dense ndarray for n <= dense_limit, scaled by broadcasting; scipy CSR
    beyond, and only that branch imports scipy.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {MATRIX_KINDS}")
    n = g.n
    deg = np.array(g.degrees, dtype=np.float64)
    needs_positive_degree = kind == "normalized_laplacian" or (
        kind in ("propagation", "row_stochastic_propagation") and not augmented
    )
    if needs_positive_degree and n and deg.min() == 0:
        isolated = int(np.argmin(deg))
        raise IsolatedVertex(f"vertex {isolated} has degree 0; {kind} is undefined")
    if n > dense_limit:
        return _sparse_matrix_of(g, kind, augmented, deg)

    a = np.zeros((n, n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    if kind == "adjacency":
        return a
    if kind == "degree":
        return np.diag(deg)
    if kind == "combinatorial_laplacian":
        return np.diag(deg) - a
    if kind == "normalized_laplacian":
        s = 1.0 / np.sqrt(deg)
        return np.eye(n) - s[:, None] * a * s[None, :]

    d_eff = deg
    if augmented:
        a.flat[:: n + 1] += 1.0
        d_eff = deg + 1.0
    if kind == "propagation":
        s = 1.0 / np.sqrt(d_eff)
        a *= s[:, None]
        a *= s[None, :]
        return a
    # row_stochastic_propagation
    a *= (1.0 / d_eff)[:, None]
    return a


def _sparse_matrix_of(g: Graph, kind: str, augmented: bool, deg: np.ndarray):
    """CSR form of `matrix_of` above the dense limit."""
    import scipy.sparse as sp

    n = g.n
    rows, cols = [], []
    for u, v in g.edges:
        rows += [u, v]
        cols += [v, u]
    a = sp.csr_array((np.ones(len(rows)), (np.array(rows), np.array(cols))), shape=(n, n))

    def diag(values):
        return sp.diags_array(values, format="csr")

    if kind == "adjacency":
        return a
    if kind == "degree":
        return diag(deg)
    if kind == "combinatorial_laplacian":
        return diag(deg) - a
    if kind == "normalized_laplacian":
        s = 1.0 / np.sqrt(deg)
        return diag(np.ones(n)) - (diag(s) @ a @ diag(s))

    if augmented:
        a_eff = a + diag(np.ones(n))
        d_eff = deg + 1.0
    else:
        a_eff = a
        d_eff = deg
    if kind == "propagation":
        s = 1.0 / np.sqrt(d_eff)
        return diag(s) @ a_eff @ diag(s)
    # row_stochastic_propagation
    return diag(1.0 / d_eff) @ a_eff
