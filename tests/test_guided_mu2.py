"""The exact proofs `decide_gros` composes, against the plain inertia count: the block
kernel `_proves_above` proves "no" only where mu2 > tau, `guided_mu2_leq` answers as
`exact_mu2_leq` does, and a wrong hint costs time only, never the answer."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_gnp
from rewirelab import (
    Graph,
    GrosInstance,
    barbell_graph,
    build_graph,
    complete_graph,
    cycle_graph,
    decide_gros,
    exact_mu2_leq,
    matrix_of,
    sturm,
)
from rewirelab.rewiring import _eigenvector_hints
from rewirelab.sturm import _proves_above, _simplest_between, guided_mu2_leq

MODES = ("signed", "absolute")


def _fixed_graphs():
    return [
        Graph(n=1, edges=frozenset()),
        build_graph(2, []),
        build_graph(2, [(0, 1)]),
        build_graph(5, []),  # edgeless: every eigenvalue is 1
        build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # disconnected: mu2 = 1
        build_graph(4, [(0, 1)]),  # an edge and two isolated vertices
        cycle_graph(4),  # mu2 = 1/3 exactly
        cycle_graph(6),  # bipartite: -1 is an eigenvalue
        complete_graph(5),
        barbell_graph(4),
    ]


def _hints(g, mode):
    """The estimate, and the int64 vector `decide_gros` hands the kernel for g when its
    signed mu2 is above tau (None on one vertex or a singular solve)."""
    if g.n < 2:
        return Fraction(1), None
    mat = matrix_of(g, "propagation")
    eigs = np.linalg.eigvalsh(mat)
    mu2 = eigs[-2] if mode == "signed" else np.sort(np.abs(eigs))[-2]
    x = _eigenvector_hints(mat[None], eigs[None, -2])
    return Fraction(float(mu2)), None if x is None else x[0].tolist()


def _proves(g, tau, x) -> bool:
    """`_proves_above` on a block of g alone."""
    adj = matrix_of(g, "adjacency", dense_limit=g.n).astype(np.int8)
    return bool(_proves_above(adj[None], np.array([x], np.int64), Fraction(tau))[0])


def _thresholds(rng, estimate):
    """The degenerate thresholds 0, +-1, +-1/2, 1/3 and a p/20; the estimate itself; and
    grid thresholds 1e-6 and 1e-9 either side of it, as the benchmark's are."""
    grid = [Fraction(round(estimate * 10**7) + d, 10**7) for d in (-10, 10)]
    near = [estimate + Fraction(d, 10**9) for d in (-1, 1)]
    fixed = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]
    return fixed + [Fraction(rng.randrange(-20, 21), 20), estimate] + grid + near


def test_guided_matches_exact_on_a_seeded_corpus(monkeypatch):
    # composed as decide_gros composes them: the kernel where the float mu2 is above tau,
    # then guided_mu2_leq for what it leaves open
    calls = []  # the thresholds of the exact_mu2_leq calls made inside guided_mu2_leq

    def counted(g, tau, *args):
        calls.append(Fraction(tau))
        return exact_mu2_leq(g, tau, *args)

    monkeypatch.setattr(sturm, "exact_mu2_leq", counted)
    rng = random.Random(1818)
    paths = {"no proof": 0, "yes proof": 0, "exact at tau": 0}
    decisions = 0
    graphs = _fixed_graphs()
    while decisions < 100_000:
        for g in graphs:
            adj = matrix_of(g, "adjacency", dense_limit=g.n).astype(np.int8)[None]
            for mode in MODES:
                estimate, hint = _hints(g, mode)
                x = None if hint is None else np.array([hint], np.int64)
                for tau in _thresholds(rng, estimate):
                    want = exact_mu2_leq(g, tau, mode)
                    if estimate > tau and x is not None and _proves_above(adj, x, tau)[0]:
                        assert not want, (g, tau, mode)
                        paths["no proof"] += 1
                    else:
                        calls.clear()
                        assert guided_mu2_leq(g, tau, mode, 64, estimate) == want, (g, tau, mode)
                        paths["exact at tau" if calls[-1] == tau else "yes proof"] += 1
                    decisions += 1
        n = rng.randrange(9, 17) if rng.random() < 0.1 else rng.randrange(2, 9)
        graphs = [make_gnp(rng, n, rng.choice((0.0, 0.15, 0.3, 0.5, 0.8, 1.0, rng.random())))]
    assert min(paths.values()) > 2_000, paths


def test_simplest_between_has_the_least_denominator():
    rng = random.Random(1819)
    for _ in range(2_000):
        lo = Fraction(rng.randrange(-300, 300), rng.randrange(1, 60))
        hi = lo + Fraction(rng.randrange(0, 50), rng.randrange(1, 400))
        got = _simplest_between(lo, hi)
        q = 1
        while -(-lo.numerator * q // lo.denominator) > hi * q:  # no multiple of 1/q in [lo, hi]
            q += 1
        assert lo <= got <= hi and got.denominator == q, (lo, hi, got)


@st.composite
def _hinted_decisions(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    q = draw(st.integers(1, 20))
    tau = Fraction(draw(st.integers(-q, q)), q)
    mode = draw(st.sampled_from(MODES))
    estimate, true_vector = _hints(g, mode)
    wrong = [tau, tau - Fraction(1, 7), tau + Fraction(1, 7), Fraction(0), Fraction(1)]
    estimate = draw(st.sampled_from([estimate] + wrong))
    vector = draw(
        st.sampled_from([[0] * n, [1] * n, true_vector or [0] * n])
        | st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n)
        | st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)  # past the int64 bound
    )
    return g, tau, mode, estimate, vector


@settings(max_examples=400, deadline=None)
@given(case=_hinted_decisions())
def test_a_hint_never_decides(case):
    # a zero, all-ones, random or overflowing vector never proves "no" where mu2 <= tau,
    # and a wrong-side estimate never changes the answer of guided_mu2_leq
    g, tau, mode, estimate, vector = case
    want = exact_mu2_leq(g, tau, mode)
    assert not (want and _proves(g, tau, vector))
    assert guided_mu2_leq(g, tau, mode, 64, estimate) == want


def test_no_proof_holds_only_above_tau():
    # the two-vector proof of mu2 > tau is a proof: it never passes at or above mu2
    c4 = cycle_graph(4)  # propagation eigenvalues 1, 1/3, 1/3, -1/3
    x = [1, 0, -1, 0]  # an eigenvector of 1/3; D + I is 3I, so no rescaling
    assert _proves(c4, Fraction(33, 100), x)
    assert not _proves(c4, Fraction(1, 3), x)
    assert not _proves(c4, Fraction(1, 3), [1, 1, 1, 1])
    assert not _proves(c4, Fraction(1), x)  # tau = 1: 1^T M 1 = 0


def test_rows_past_the_int64_bound_are_left_unproved(monkeypatch):
    # the sums are exact while n^2 max|x|^2 < _INT64_RANGE; a row past it goes unproved
    c4, tau = cycle_graph(4), Fraction(33, 100)
    monkeypatch.setattr(sturm, "_INT64_RANGE", 16 * 1000**2 + 1)
    assert _proves(c4, tau, [1000, 0, -1000, 0])
    assert not _proves(c4, tau, [1001, 0, -1001, 0])
    monkeypatch.undo()
    assert _proves(c4, tau, [2**20, 0, -(2**20), 0])
    adj = matrix_of(c4, "adjacency").astype(np.int8)
    x = np.array([[1, 0, -1, 0], [-(2**63), 0, 2**62, 0], [2**62, 0, -(2**62), 0]], np.int64)
    assert _proves_above(np.stack([adj] * 3), x, tau).tolist() == [True, False, False]


def test_absolute_mu2_above_tau_through_mu_min_alone_is_decided_at_tau(monkeypatch):
    # K3,3: propagation eigenvalues 1, 1/4 (four times) and -1/2.  At tau = 1/3 the signed
    # mu2 is below tau and |mu_min| above it, so in absolute mode no proof applies, and
    # the answer is the inertia count of exact_mu2_leq at tau.
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    tau = Fraction(1, 3)
    assert exact_mu2_leq(k33, tau, "signed") and not exact_mu2_leq(k33, tau, "absolute")
    calls = []

    def counted(g, tau, *args):
        calls.append((Fraction(tau), *args))
        return exact_mu2_leq(g, tau, *args)

    monkeypatch.setattr(sturm, "exact_mu2_leq", counted)
    decision = decide_gros(GrosInstance(k33, 0, tau, "absolute"))
    assert decision.answer == "no" and abs(decision.value_achieved - 0.5) < 1e-12
    assert calls == [(tau, "absolute", 64)]
    calls.clear()
    estimate, vector = _hints(k33, "absolute")
    assert not _proves(k33, tau, vector)  # the signed mu2 is below tau
    assert estimate > tau and not guided_mu2_leq(k33, tau, "absolute", 64, estimate)
    assert calls == [(tau, "absolute", 64)]
