import random

import numpy as np
import pytest

import spectral_reference
from conftest import make_connected, make_connected_regular, make_gnp
from rewirelab import (
    build_graph,
    complete_graph,
    cycle_graph,
    decay_report,
    decay_report_csv,
    dirichlet_energy,
    propagate,
    random_regular_graph,
    spectral,
    spectral_summary,
)
from rewirelab.errors import DimensionMismatch, IsolatedVertex


def test_c4_fiedler_value():
    s = spectral_summary(cycle_graph(4), augmented=False)
    assert abs(s.lambda2 - 1.0) < 1e-12
    assert s.method == "dense_exact"
    assert s.residual_bound <= 1e-10


def test_k2_k3_augmented_mu2():
    assert abs(spectral_summary(complete_graph(2)).mu2) < 1e-12
    s3 = spectral_summary(complete_graph(3))
    assert abs(s3.mu2) < 1e-12 and abs(s3.mu_min) < 1e-12


def test_eigenvalue_ranges_on_corpus():
    rng = random.Random(11)
    for _ in range(25):
        g = make_connected(rng, rng.randrange(2, 12))
        s = spectral_summary(g)
        eps = s.residual_bound + 1e-12
        assert -eps <= s.lambda2 <= 2 + eps
        assert -1 - eps <= s.mu_min <= s.mu2 <= 1 + eps
        assert s.slack == max(abs(s.mu2), abs(s.mu_min))


def test_regular_graph_identity_non_augmented():
    rng = random.Random(5)
    for _ in range(10):
        d = rng.choice([3, 4])
        n = rng.choice([8, 10, 12])
        g = make_connected_regular(rng, n, d)
        s = spectral_summary(g, augmented=False)
        assert abs(s.mu2 - (1.0 - s.lambda2)) <= 1e-9


def test_disconnected_flagged():
    g = build_graph(4, [(0, 1), (2, 3)])
    s = spectral_summary(g)
    assert not s.connected
    assert abs(s.lambda2) < 1e-10
    assert abs(s.mu2 - 1.0) < 1e-10


def test_disconnected_dense_summary_is_exact():
    # two triangles: eigh alone gives lambda2 ~ 4e-16; 0 and 1 are exact here
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for augmented in (True, False):
        s = spectral_summary(g, augmented=augmented)
        assert s.method == "dense_exact" and not s.connected
        assert s.lambda2 == 0.0 and s.mu2 == 1.0


def test_isolated_vertex_rejected():
    with pytest.raises(IsolatedVertex):
        spectral_summary(build_graph(3, [(0, 1)]))


def test_single_vertex_summary():
    s = spectral_summary(build_graph(1, []))
    assert s.lambda2 == 0.0 and s.mu2 == 1.0 and s.mu_min == 1.0


def test_iterative_matches_dense(monkeypatch):
    g = make_connected_regular(random.Random(2), 60, 3)
    dense = spectral_summary(g)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    it = spectral_summary(g)
    assert it.method == "iterative"
    assert abs(it.lambda2 - dense.lambda2) < 1e-7
    assert abs(it.mu2 - dense.mu2) < 1e-7
    assert abs(it.mu_min - dense.mu_min) < 1e-7
    assert it.residual_bound < 1e-6


def test_iterative_summary_is_reproducible():
    g = make_connected_regular(random.Random(5), 2000, 3)
    a = spectral_summary(g)
    b = spectral_summary(g)
    assert a.method == "iterative"
    assert (a.lambda2, a.mu2, a.mu_min) == (b.lambda2, b.mu2, b.mu_min)
    # pinned values: any change to the Lanczos operators or start vector shows here
    plain = spectral_summary(g, augmented=False)
    pinned = [0.060667251573019665, 0.9544995613202315, -0.4556949030378187, 0.9393327484269803, -0.9409265373837591]
    assert [a.lambda2, a.mu2, a.mu_min, plain.mu2, plain.mu_min] == pytest.approx(pinned, abs=1e-9)
    assert plain.lambda2 == a.lambda2


def test_lanczos_runs_arpack_on_one_blas_thread(monkeypatch):
    """Each ARPACK call sees one scipy BLAS thread, and the count is restored after it."""
    import scipy.sparse.linalg as spla

    class FakeBlas:
        count = 2

        def scipy_openblas_get_num_threads(self):
            return self.count

        def scipy_openblas_set_num_threads(self, k):
            self.count = k

    blas = FakeBlas()
    seen = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        seen.append(blas.count)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "_scipy_openblas", lambda: blas)
    monkeypatch.setattr(spla, "eigsh", spy)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    s = spectral_summary(make_connected_regular(random.Random(2), 60, 3))
    assert s.method == "iterative"
    assert seen == [1, 1, 1] and blas.count == 2


def test_propagate_zero_layers_identity():
    g = cycle_graph(5)
    x = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(propagate(g, x, 0), x)


def test_propagate_fixed_point():
    g = make_gnp(random.Random(4), 7, 0.6)
    x = np.sqrt(np.array(g.degrees, dtype=float) + 1.0)
    out = propagate(g, x, 3)
    assert np.allclose(out, x, atol=1e-12)


def test_propagate_k2_annihilates_alternating():
    out = propagate(complete_graph(2), np.array([1.0, -1.0]), 1)
    assert np.allclose(out, 0.0)


def test_propagate_additivity():
    rng = random.Random(9)
    for _ in range(10):
        g = make_gnp(rng, 6, 0.5)
        x = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(6)])
        a, b = rng.randrange(0, 4), rng.randrange(0, 4)
        lhs = propagate(g, x, a + b)
        rhs = propagate(g, propagate(g, x, a), b)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        propagate(cycle_graph(4), np.zeros(3), 1)
    with pytest.raises(DimensionMismatch):
        dirichlet_energy(cycle_graph(4), np.zeros(5))


def test_dirichlet_energy_values():
    k2 = complete_graph(2)
    assert abs(dirichlet_energy(k2, np.array([1.0, -1.0])) - 2.0) < 1e-12
    assert dirichlet_energy(k2, np.zeros(2)) == 0.0
    g = make_gnp(random.Random(8), 6, 0.7)
    top = np.sqrt(np.array(g.degrees, dtype=float) + 1.0)
    assert abs(dirichlet_energy(g, top)) < 1e-10


def test_decay_report_rows_and_bound():
    k2 = complete_graph(2)
    rows = decay_report(k2, np.array([1.0, -1.0]), 2)
    layer0 = rows[0]
    assert layer0[0] == 0 and abs(layer0[1] - 2.0) < 1e-12 and abs(layer0[2] - 2.0) < 1e-12
    assert abs(rows[1][1]) < 1e-12 and abs(rows[1][2]) < 1e-12  # s = 0 for K2


def test_decay_bound_holds_on_random_graphs():
    rng = random.Random(13)
    for _ in range(10):
        g = make_connected(rng, rng.randrange(3, 9))
        x = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(g.n)])
        for layer, energy, s_bound, _ in decay_report(g, x, 10):
            assert energy <= s_bound + 1e-9


@pytest.mark.parametrize("augmented", [True, False])
def test_decay_report_matches_reference_bytes(augmented):
    # the reference makes two products per layer and a second propagation matrix; the rows
    # must match by repr at the test process's OpenBLAS thread count (dense below 513
    # vertices, CSR above)
    rng = random.Random(2203)
    graphs = [random_regular_graph(2000, 3, seed=2203), make_gnp(rng, 300, 0.05), make_gnp(rng, 40, 0.2)]
    features = np.random.default_rng(2203)
    for g in graphs:
        assert min(g.degrees) > 0  # spectral_summary takes no isolated vertex
        for cols in (1, 8):
            x = features.standard_normal((g.n, cols))
            got = decay_report(g, x, 32, augmented=augmented)
            want = spectral_reference.decay_report(g, x, 32, augmented=augmented)
            assert repr(got) == repr(want), (g.n, cols)


def test_decay_csv_header():
    rows = decay_report(complete_graph(2), np.array([1.0, -1.0]), 1)
    text = decay_report_csv(rows)
    assert text.splitlines()[0] == "layer,energy,s_bound,mu2_bound"
    assert len(text.splitlines()) == 3
