"""References for the spectral differential tests.

`decay_report` is `rewirelab.spectral.decay_report` as written before it read layer
0's energy and each next layer's features off one product per layer.  It takes E0
from `dirichlet_energy`, which builds a second propagation matrix, and makes two
products per layer: one for the energy, one for the next features.

`lanczos_summary` is the Lanczos branch of `rewirelab.spectral.spectral_summary` as
written before it read connectivity from the CSR matrix and reused the lambda2 solve.
It walks the graph with `Graph.is_connected` and runs three ARPACK solves, each from
the fixed start vector.
"""

from __future__ import annotations

import numpy as np

from rewirelab.graph import Graph, matrix_of
from rewirelab.spectral import (
    SpectralSummary,
    _check_features,
    _eigsh_extreme,
    _second_largest_iterative,
    _top_eigvec_normalized_adjacency,
    dirichlet_energy,
    spectral_summary,
)


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


def lanczos_summary(g: Graph, augmented: bool = True) -> SpectralSummary:
    """The Lanczos branch for a graph with every degree positive."""
    connected = g.is_connected()
    deg = np.array(g.degrees, dtype=np.float64)
    d_eff = deg + 1.0 if augmented else deg
    norm_adj = matrix_of(g, "propagation", augmented=False, dense_limit=1)
    prop = matrix_of(g, "propagation", augmented=augmented, dense_limit=1)
    residuals = []
    if connected:
        theta, r1, _ = _second_largest_iterative(norm_adj, _top_eigvec_normalized_adjacency(deg))
        lambda2 = 1.0 - theta
        mu2, r2, _ = _second_largest_iterative(prop, _top_eigvec_normalized_adjacency(d_eff))
        residuals += [r1, r2]
    else:
        lambda2 = 0.0
        mu2 = 1.0
    vals, vecs = _eigsh_extreme(prop, "SA")
    mu_min = float(vals[0])
    residuals.append(float(np.linalg.norm(prop @ vecs[:, 0] - mu_min * vecs[:, 0])))
    return SpectralSummary(
        float(lambda2),
        float(mu2),
        float(mu_min),
        max(abs(float(mu2)), abs(float(mu_min))),
        "iterative",
        max(residuals),
        connected,
    )
