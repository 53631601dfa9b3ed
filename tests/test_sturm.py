import random
from fractions import Fraction

import numpy as np
import pytest

import sturm_reference
from conftest import make_connected_regular, make_gnp
from rewirelab import build_graph, complete_graph, cycle_graph, exact_mu2_leq, matrix_of
from rewirelab.errors import ExactLimitExceeded
from rewirelab.sturm import bareiss_determinant, count_roots_above, count_roots_below, propagation_charpoly


def test_bareiss_matches_numpy():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(1, 7)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        expect = round(float(np.linalg.det(np.array(mat, dtype=float))))
        assert bareiss_determinant(mat) == expect


def test_charpoly_k2():
    # det(x(D+I) - (A+I)) for K2 is (2x-1)^2 - 1 = 4x^2 - 4x
    assert propagation_charpoly(complete_graph(2)) == [0, -4, 4]


def test_charpoly_coefficients_match_float_eigenvalues():
    rng = random.Random(7)
    for _ in range(25):
        g = make_gnp(rng, rng.randrange(2, 9), rng.random())
        coeffs = propagation_charpoly(g)
        eigs = np.linalg.eigvalsh(matrix_of(g, "propagation"))
        det_d = float(np.prod([d + 1 for d in g.degrees]))
        expect = det_d * np.poly(eigs)  # high degree first
        got = np.array(list(reversed(coeffs)), dtype=float)
        assert np.allclose(got, expect, atol=1e-6 * max(1.0, det_d))


def test_multiplicity_aware_counting():
    # K3: eigenvalues {1, 0, 0}
    q = propagation_charpoly(complete_graph(3))
    assert count_roots_above(q, Fraction(-1, 2)) == 3
    assert count_roots_above(q, Fraction(0)) == 1
    assert count_roots_below(q, Fraction(0)) == 0
    assert count_roots_below(q, Fraction(1)) == 2


def test_sturm_counts_on_c4():
    q = propagation_charpoly(cycle_graph(4))  # eigenvalues 1, 1/3, 1/3, -1/3
    assert count_roots_above(q, Fraction(1, 3)) == 1
    assert count_roots_above(q, Fraction(1, 4)) == 3


def _oracle_corpus():
    """G(n, p) for n = 1..11, the special spectra below, and a 3-regular graph."""
    rng = random.Random(25)
    graphs = [make_gnp(rng, n, rng.random()) for n in range(1, 12)]
    graphs += [complete_graph(5), build_graph(5, [(0, 1), (1, 2), (3, 4)]), cycle_graph(4), _k33(), build_graph(4, [])]
    return graphs + [make_connected_regular(random.Random(10), 10, 3)]


# every threshold k/den in [-1, 1] with den <= 12: many sit exactly on eigenvalues
_THETAS = sorted({Fraction(k, den) for den in range(1, 13) for k in range(-den, den + 1)})


def test_charpoly_matches_interpolation_reference():
    graphs = _oracle_corpus() + [make_connected_regular(random.Random(n), n, 3) for n in (16, 24, 64)]
    for g in graphs:
        assert propagation_charpoly(g) == sturm_reference.propagation_charpoly(g), (g.n, g.edges)


def test_root_counts_match_sturm_reference():
    for g in _oracle_corpus():
        q = propagation_charpoly(g)
        for theta in _THETAS:
            got = count_roots_above(q, theta), count_roots_below(q, theta)
            expect = sturm_reference.count_roots_above(q, theta), sturm_reference.count_roots_below(q, theta)
            assert got == expect, (g.n, g.edges, theta)


def test_exact_decision_spec_examples():
    k2 = complete_graph(2)
    assert exact_mu2_leq(k2, 0, mode="signed") is True
    assert exact_mu2_leq(k2, Fraction(-1, 100), mode="signed") is False
    assert exact_mu2_leq(build_graph(1, []), Fraction(-1)) is True  # vacuous


def test_exact_decision_absolute_mode():
    c4 = cycle_graph(4)  # propagation eigenvalues 1, 1/3, 1/3, -1/3
    assert exact_mu2_leq(c4, Fraction(1, 3), mode="absolute") is True
    assert exact_mu2_leq(c4, Fraction(33, 100), mode="absolute") is False
    assert exact_mu2_leq(c4, Fraction(-1, 10), mode="absolute") is False


def test_exact_decision_disconnected_multiplicity():
    # two K2 components: eigenvalue 1 has multiplicity 2, so mu2 = 1
    g = build_graph(4, [(0, 1), (2, 3)])
    assert exact_mu2_leq(g, Fraction(99, 100)) is False
    assert exact_mu2_leq(g, Fraction(1)) is True


def test_exact_limit():
    with pytest.raises(ExactLimitExceeded):
        exact_mu2_leq(cycle_graph(12), 0, exact_limit=10)


def test_exact_agrees_with_float_sampler():
    rng = random.Random(3)
    checked = 0
    while checked < 60:
        g = make_gnp(rng, rng.randrange(2, 9), rng.random())
        eigs = np.sort(np.linalg.eigvalsh(matrix_of(g, "propagation")))
        mu2 = float(eigs[-2])
        tau = Fraction(rng.randrange(-100, 101), 100)
        if abs(float(tau) - mu2) <= 1e-6:
            continue
        assert exact_mu2_leq(g, tau) == (mu2 <= float(tau))
        checked += 1


def _oracle_mu2_leq(g, tau, mode, charpoly=None):
    """The characteristic-polynomial + Sturm decision, kept as the reference."""
    if g.n == 1:
        return True
    q = propagation_charpoly(g) if charpoly is None else charpoly
    above = count_roots_above(q, tau)
    if mode == "signed":
        return above <= 1
    if tau < 0:
        return False
    return above + count_roots_below(q, -tau) <= 1


def test_inertia_decision_matches_charpoly_oracle():
    # small denominators put tau exactly on eigenvalues (0, +-1, 1/3, 1/2, ...) often
    rng = random.Random(2024)
    disagreements = []
    for _ in range(1000):
        g = make_gnp(rng, rng.randrange(1, 12), rng.random())
        den = rng.randrange(1, 13)
        tau = Fraction(rng.randrange(-den, den + 1), den)
        mode = rng.choice(("signed", "absolute"))
        if exact_mu2_leq(g, tau, mode=mode) != _oracle_mu2_leq(g, tau, mode):
            disagreements.append((g.n, g.edges, tau, mode))
    assert disagreements == []


def _k33():
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


@pytest.mark.parametrize(
    "g, taus",
    [
        # K_n: spectrum 1, 0 x (n-1)
        (complete_graph(5), [Fraction(0), Fraction(-1, 100), Fraction(1, 100)]),
        # disconnected: eigenvalue 1 is repeated
        (build_graph(5, [(0, 1), (1, 2), (3, 4)]), [Fraction(1), Fraction(99, 100)]),
        # C4: 1, 1/3, 1/3, -1/3; at 1/3 the diagonal of 3(A+I) - (D+I) is all zero
        (cycle_graph(4), [Fraction(1, 3), Fraction(-1, 3)]),
        # 3-regular at 1/4: 4(A+I) - (D+I) = 4A has a zero diagonal; K_{3,3} has 1/4 x 4
        (_k33(), [Fraction(1, 4), Fraction(-1, 2), Fraction(1, 2)]),
        (make_connected_regular(random.Random(5), 10, 3), [Fraction(1, 4), Fraction(-1, 4)]),
        # edgeless: P = I, and at tau = 1 the whole matrix is zero
        (build_graph(4, []), [Fraction(1), Fraction(0), Fraction(-1)]),
    ],
)
def test_inertia_decision_at_exact_eigenvalues(g, taus):
    for tau in taus:
        for mode in ("signed", "absolute"):
            assert exact_mu2_leq(g, tau, mode=mode) == _oracle_mu2_leq(g, tau, mode), (tau, mode)


def test_inertia_decision_exact_eigenvalue_answers():
    assert exact_mu2_leq(complete_graph(5), 0) is True
    assert exact_mu2_leq(cycle_graph(4), Fraction(1, 3), mode="absolute") is True
    assert exact_mu2_leq(cycle_graph(4), Fraction(-1, 3)) is False
    assert exact_mu2_leq(_k33(), Fraction(1, 4)) is True
    assert exact_mu2_leq(_k33(), Fraction(1, 4), mode="absolute") is False  # |-1/2| > 1/4
    assert exact_mu2_leq(build_graph(4, []), Fraction(1)) is True
    assert exact_mu2_leq(build_graph(4, []), Fraction(99, 100)) is False


def test_inertia_decision_n64_regular_near_mu2():
    g = make_connected_regular(random.Random(64), 64, 3)
    mu2 = float(np.sort(np.linalg.eigvalsh(matrix_of(g, "propagation")))[-2])
    charpoly = propagation_charpoly(g)
    for offset, expect in ((1e-6, True), (-1e-6, False)):
        tau = Fraction(mu2 + offset)
        assert exact_mu2_leq(g, tau) is expect
        assert _oracle_mu2_leq(g, tau, "signed", charpoly) is expect
