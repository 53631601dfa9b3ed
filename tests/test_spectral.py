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
from rewirelab.graph import matrix_of


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



# -- the Lanczos branch: connectivity from the CSR matrix, the warm-started mu2 -------


def _disjoint(*graphs):
    """The disjoint union of the given graphs, numbered in order."""
    edges, base = [], 0
    for h in graphs:
        edges += [(base + u, base + v) for u, v in h.edges]
        base += h.n
    return build_graph(base, edges)


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _hypercube(k):
    n = 1 << k
    return build_graph(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b)])


def _circulant(n, offsets):
    return build_graph(n, {(min(v, (v + o) % n), max(v, (v + o) % n)) for v in range(n) for o in offsets})


# Two copies of one 42-vertex graph (a 10-vertex core with a tree hung on it), vertex
# v of the first mirrored by v + 42 of the second, joined by (9, 51) and (13, 55).  The
# mirror splits every eigenvector into an even and an odd one; here the second
# eigenvector of N = D^{-1/2} A D^{-1/2} is odd and that of the augmented P even.
_MIRROR_HALF = [
    (0, 1), (0, 4), (0, 7), (0, 19), (0, 28), (1, 4), (1, 7), (2, 3), (2, 5), (2, 8), (2, 9),
    (2, 33), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 8), (4, 20), (4, 30), (5, 6),
    (5, 8), (5, 9), (5, 10), (5, 15), (6, 8), (6, 9), (6, 11), (7, 8), (8, 9), (9, 12),
    (10, 17), (10, 23), (11, 13), (11, 16), (12, 31), (12, 37), (13, 14), (13, 24), (13, 35),
    (14, 18), (14, 34), (16, 38), (17, 40), (18, 22), (19, 21), (19, 29), (20, 25), (20, 32),
    (22, 26), (26, 27), (34, 41), (35, 36), (38, 39),
]


def _mirror_graph():
    edges = _MIRROR_HALF + [(u + 42, v + 42) for u, v in _MIRROR_HALF] + [(9, 51), (13, 55)]
    return build_graph(84, edges)


def _dense_spectrum(g):
    """(lambda2, mu2, mu_min) from dense eigvalsh of the normalized Laplacian and P."""
    lap = np.linalg.eigvalsh(matrix_of(g, "normalized_laplacian", dense_limit=g.n))
    prop = np.linalg.eigvalsh(matrix_of(g, "propagation", dense_limit=g.n))
    return lap[1], prop[-2], prop[0]


def test_lanczos_connectivity_reads_the_components(monkeypatch):
    # connectivity is read before any solve, so a stand-in eigensolver keeps the
    # 3000-vertex path (about 10 s of ARPACK) fast
    def eigsh_stand_in(op, which, v0=None):
        return np.array([0.5]), np.random.default_rng(0).standard_normal((op.shape[0], 1))

    monkeypatch.setattr(spectral, "_eigsh_extreme", eigsh_stand_in)
    rng = random.Random(33)
    graphs = [
        make_connected_regular(rng, 600, 3),
        make_connected(rng, 520),
        _path(3000),
        _disjoint(cycle_graph(300), cycle_graph(300)),
        _disjoint(cycle_graph(200), _path(200), complete_graph(150)),
        _disjoint(cycle_graph(200), _path(200), cycle_graph(150), complete_graph(2)),
    ]
    components = [len(h.connected_components()) for h in graphs]
    assert components == [1, 1, 1, 2, 3, 4]
    for h, count in zip(graphs, components):
        g = build_graph(h.n, h.edges)  # a fresh graph: no neighbour sets built yet
        s = spectral_summary(g)
        assert s.method == "iterative"
        assert type(s.connected) is bool and s.connected == (count == 1), (g.n, count)
        assert "neighbors" not in g.__dict__  # no Python walk over neighbour sets


def test_lanczos_warm_start_only_on_regular_graphs(monkeypatch):
    starts = []
    eigsh_extreme = spectral._eigsh_extreme

    def spy(op, which, v0=None):
        starts.append(v0)
        return eigsh_extreme(op, which, v0)

    monkeypatch.setattr(spectral, "_eigsh_extreme", spy)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    regular = make_connected_regular(random.Random(4), 600, 3)
    spectral_summary(regular)
    lam_start, mu2_start, mu_min_start = starts
    assert lam_start is None and mu_min_start is None
    assert abs(np.linalg.norm(mu2_start) - 1.0) < 1e-12  # lambda2's unit Ritz vector

    for g in (make_connected(random.Random(4), 600), _mirror_graph(), _path(40)):
        starts.clear()
        spectral_summary(g)
        assert [v0 is None for v0 in starts] == [True, True, True]


@pytest.mark.parametrize("regular", [True, False])
def test_lanczos_non_augmented_reuses_the_lambda2_solve(monkeypatch, regular):
    import scipy.sparse.linalg as spla

    calls = []
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: calls.append(kw["which"]) or eigsh(*a, **kw))
    rng = random.Random(5)
    g = make_connected_regular(rng, 700, 3) if regular else make_connected(rng, 700)
    got = spectral_summary(g, augmented=False)
    assert calls == ["LA", "SA"]
    want = spectral_reference.lanczos_summary(g, augmented=False)
    assert got == want  # every field, bit for bit


def test_lanczos_summary_matches_reference_bits():
    # lambda2, mu_min, connected and method keep their bits; so does mu2 off regular
    # graphs, and on regular ones it moves in the last bits only
    rng = random.Random(29)
    graphs = [
        make_connected(rng, 600),
        make_gnp(rng, 900, 0.01),
        _disjoint(cycle_graph(300), _path(300)),
        _disjoint(make_connected_regular(rng, 300, 3), make_connected_regular(rng, 300, 3)),
        make_connected_regular(rng, 600, 3),
        make_connected_regular(rng, 1500, 3),
        make_connected_regular(rng, 800, 4),
    ]
    for g in graphs:
        assert min(g.degrees) > 0  # spectral_summary takes no isolated vertex
        regular = min(g.degrees) == max(g.degrees)
        for augmented in (True, False):
            got = spectral_summary(g, augmented=augmented)
            want = spectral_reference.lanczos_summary(g, augmented=augmented)
            assert (got.lambda2, got.mu_min, got.connected, got.method) == (
                want.lambda2, want.mu_min, want.connected, want.method
            )
            if regular and augmented:
                assert abs(got.mu2 - want.mu2) <= 1e-13
            else:
                assert got.mu2 == want.mu2


def test_lanczos_warm_start_keeps_the_mirror_graph_mu2(monkeypatch):
    # a warm start from N's (odd) eigenvector would stay in the odd subspace and return
    # P's third eigenvalue, 6.7e-4 below its second
    g = _mirror_graph()
    assert max(g.degrees) != min(g.degrees)
    _, vn = np.linalg.eigh(matrix_of(g, "propagation", augmented=False))
    _, vp = np.linalg.eigh(matrix_of(g, "propagation"))
    n_vec, p_vec = vn[:, -2], vp[:, -2]
    assert np.allclose(n_vec[:42], -n_vec[42:]) and np.allclose(p_vec[:42], p_vec[42:])

    monkeypatch.setattr(spectral, "DENSE_LIMIT", 10)
    s = spectral_summary(g)
    assert s.method == "iterative"
    assert np.allclose((s.lambda2, s.mu2, s.mu_min), _dense_spectrum(g), rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "name",
    ["reg3-520", "reg3-700", "reg3-1200", "reg4-520", "reg4-700", "reg4-1200", "reg5-520", "reg5-700",
     "reg5-1200", "cycle600", "hypercube10", "circulant800", "two-cycle300"],
)
def test_lanczos_summary_matches_dense(name):
    if name.startswith("reg"):
        d, n = map(int, name[3:].split("-"))
        g = random_regular_graph(n, d, seed=0)
    else:
        g = {
            "cycle600": lambda: cycle_graph(600),
            "hypercube10": lambda: _hypercube(10),
            "circulant800": lambda: _circulant(800, (1, 5, 17)),
            "two-cycle300": lambda: _disjoint(cycle_graph(300), cycle_graph(300)),
        }[name]()
    s = spectral_summary(g)
    assert s.method == "iterative" and s.connected == (name != "two-cycle300")
    assert np.allclose((s.lambda2, s.mu2, s.mu_min), _dense_spectrum(g), rtol=0, atol=1e-10)


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
