"""Reference energy decay for the differential tests: `rewirelab.spectral.decay_report`
as written before it read layer 0's energy and each next layer's features off one
product per layer, kept as written there.

It takes E0 from `dirichlet_energy`, which builds a second propagation matrix, and
makes two products per layer: one for the energy, one for the next features.
"""

from __future__ import annotations

import numpy as np

from rewirelab.graph import Graph, matrix_of
from rewirelab.spectral import _check_features, dirichlet_energy, spectral_summary


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
