"""Exact eigenvalue threshold decisions by integer inertia counts.

The augmented random-walk matrix (D+I)^{-1}(A+I) is cospectral with the
symmetric propagation matrix P = (D+I)^{-1/2}(A+I)(D+I)^{-1/2}.  D+I is positive
definite, so for tau = p/q (q > 0) the integer symmetric matrix q(A+I) - p(D+I)
is congruent to q*P - p*I, and by Sylvester's law of inertia its number of
positive eigenvalues is the number of eigenvalues of P above tau.  One
fraction-free symmetric elimination (Bareiss) counts them: `exact_mu2_leq`
decides mu2 <= tau that way, in Python integers only.

`_proves_above` proves mu2 > tau for a block of candidates at once by a two-vector
Courant-Fischer check: the all-ones vector is the exact top eigenvector of the
pencil, since (A+I)1 = (D+I)1, so M positive definite on span{1, x} has two positive
eigenvalues; x is an integer guess of the signed mu2's eigenvector, valid in both
modes, since the absolute mu2 is never less.  `guided_mu2_leq` decides one
candidate: "yes" is `exact_mu2_leq` at the simplest rational between a float
estimate and tau, which has smaller entries; mu2 <= tau' <= tau.  Anything else
falls back to `exact_mu2_leq` at tau.

The characteristic-polynomial path is kept as an independent oracle:
det(x(D+I) - (A+I)) is an integer polynomial whose roots, with multiplicity,
are the eigenvalues of P, so all of them are real.  One Bareiss determinant at a
large enough integer point carries every coefficient as a balanced digit
(Kronecker substitution).  For a polynomial with only real roots, Descartes' rule
of signs is exact with multiplicity, so `count_roots_above` / `count_roots_below`
count sign changes of the coefficients after a shift to the threshold.

Everything here is Python-int, bounded int64 or Fraction arithmetic; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

import numpy as np

from .errors import ExactLimitExceeded
from .graph import Graph

#: Largest graph the exact decision procedure accepts by default.
EXACT_EIGEN_LIMIT = 64


# -- the characteristic-polynomial oracle -----------------------------------------


def _shifted(p: list[int], theta) -> list[int]:
    """b^d p((y + a) / b) for theta = a/b and d = deg p: the roots of p moved by -theta, scaled by b."""
    theta = Fraction(theta)
    a, b = theta.numerator, theta.denominator
    d = len(p) - 1
    c = [coeff * b ** (d - k) for k, coeff in enumerate(p)]
    for i in range(d):  # Taylor shift y -> y + a, one Horner pass per coefficient
        for k in range(d - 1, i - 1, -1):
            c[k] += a * c[k + 1]
    return c


def _sign_changes(c: list[int]) -> int:
    signs = [x > 0 for x in c if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots_above(p: list[int], theta) -> int:
    """Roots of p above theta, counted with multiplicity.

    p must have only real roots: then Descartes' rule of signs counts the
    positive roots of the shifted polynomial exactly.
    """
    return _sign_changes(_shifted(p, theta))


def count_roots_below(p: list[int], theta) -> int:
    """Roots of p below theta, counted with multiplicity; p must have only real roots."""
    return _sign_changes([-x if k % 2 else x for k, x in enumerate(_shifted(p, theta))])


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def propagation_charpoly(g: Graph) -> list[int]:
    """det(x*(D+I) - (A+I)) as an integer polynomial (low degree first).

    Its roots, with multiplicity, are exactly the eigenvalues of the augmented
    propagation matrix.  Expanding the determinant row by row, the coefficient of
    x^k is a sum over the k-sets S of prod_{i in S} (d_i + 1) times a principal
    minor of A+I off S, whose rows have 1-norm d_i + 1.  So no coefficient exceeds
    B = prod 2(d_i + 1) in absolute value, and one determinant at X = 2B + 1
    holds them all as balanced base-X digits.
    """
    n = g.n
    d_tilde = [d + 1 for d in g.degrees]
    bound = prod(2 * d for d in d_tilde)
    x = 2 * bound + 1
    rows = []
    for i in range(n):
        row = [0] * n
        for j in g.neighbors[i]:
            row[j] = -1
        row[i] = x * d_tilde[i] - 1
        rows.append(row)
    value = bareiss_determinant(rows)
    coeffs = []
    for _ in range(n + 1):
        digit = (value + bound) % x - bound
        coeffs.append(digit)
        value = (value - digit) // x
    return coeffs


# -- inertia counts and the public decision --------------------------------------


def _pencil_upper(g: Graph, a: int, b: int) -> list[list[int]]:
    """Upper triangle of a(A+I) - b(D+I): row i holds the entries from column i on."""
    n = g.n
    rows = []
    for i in range(n):
        row = [0] * (n - i)
        row[0] = a - b * (g.degrees[i] + 1)
        for j in g.neighbors[i]:
            if j > i:
                row[j - i] = a
        rows.append(row)
    return rows


def _positive_inertia(upper: list[list[int]], stop: int) -> int:
    """Positive eigenvalues of a symmetric integer matrix, counted up to `stop`.

    `upper[i][j - i]` holds entry (i, j) for j >= i.  Fraction-free symmetric
    elimination on a nonzero diagonal pivot keeps every entry an integer minor
    of a congruent matrix, so each division by the previous pivot is exact.
    When the whole remaining diagonal is zero, the congruence row_i += row_j,
    col_i += col_j on a nonzero a_ij makes the diagonal entry 2*a_ij.  An
    all-zero remaining block adds only zero eigenvalues.  The eliminated
    pivots split off as a diagonal block (Haynsworth inertia additivity), so
    the count of positive pivots is a lower bound at every step: it may stop
    at `stop`.
    """
    count = 0
    prev = 1
    while upper:
        k = next((i for i, row in enumerate(upper) if row[0]), None)
        if k is None:
            m = len(upper)
            full = [[upper[min(i, j)][abs(j - i)] for j in range(m)] for i in range(m)]
            pair = next(((i, j) for i, row in enumerate(full) for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            i, j = pair
            full[i] = [x + y for x, y in zip(full[i], full[j])]
            for row in full:
                row[i] += row[j]
            upper = [row[r:] for r, row in enumerate(full)]
            k = i
        pivot = upper[k][0]
        if (pivot > 0) == (prev > 0):  # the LDL^T pivot pivot/prev is positive
            count += 1
            if count >= stop:
                return count
        col = [upper[i][k - i] for i in range(k)] + upper[k]  # column k, full length
        del col[k]  # now indexed like the reduced block
        reduced = []
        for i, row in enumerate(upper):
            if i == k:
                continue
            if i < k:
                row = row[: k - i] + row[k - i + 1 :]
            r = len(reduced)
            ci = col[r]
            if ci:
                reduced.append([(x * pivot - ci * y) // prev for x, y in zip(row, col[r:])])
            else:
                reduced.append([x * pivot // prev for x in row])
        upper = reduced
        prev = pivot
    return count


def exact_mu2_leq(g: Graph, tau, mode: str = "signed", exact_limit: int = EXACT_EIGEN_LIMIT) -> bool:
    """Decide mu2(P) <= tau exactly, never touching floating point.

    `mode="signed"` compares the second-largest eigenvalue; `mode="absolute"`
    the second-largest absolute eigenvalue.  For a single-vertex graph mu2 is
    undefined and the decision is vacuously true.  With tau = p/q, the
    eigenvalues above tau are the positive inertia of q(A+I) - p(D+I) and
    those below -tau the positive inertia of -q(A+I) - p(D+I).
    """
    if mode not in ("signed", "absolute"):
        raise ValueError(f"mode must be 'signed' or 'absolute', got {mode!r}")
    if g.n > exact_limit:
        raise ExactLimitExceeded(f"exact eigenvalue decision limited to n <= {exact_limit}, got {g.n}")
    tau = Fraction(tau)
    if g.n == 1:
        return True
    if mode == "absolute" and tau < 0:
        return False  # all n >= 2 absolute eigenvalues exceed a negative threshold
    p, q = tau.numerator, tau.denominator
    above = _positive_inertia(_pencil_upper(g, q, p), stop=2)
    if mode == "signed" or above > 1:
        return above <= 1
    return above + _positive_inertia(_pencil_upper(g, -q, p), stop=2 - above) <= 1


# -- hinted proofs -----------------------------------------------------------------


#: The int64 sums of `_proves_above` are exact below this bound.
_INT64_RANGE = 1 << 63


def _proves_above(adj: np.ndarray, x: np.ndarray, tau: Fraction) -> np.ndarray:
    """Per row, an integer proof that mu2 > tau, from the all-ones vector and x (Courant-Fischer).

    `adj` stacks 0/1 adjacency matrices A' on n vertices, `x` int64 guesses of their
    signed mu2's eigenvectors.  With M = q(A'+I) - p(D'+I), M1 = (q - p)(D'+I)1, so
    1^T M 1 = (q - p)(2m' + n) > 0 when tau < 1.  Then M is positive definite on
    span{1, x}, and has two positive eigenvalues, when (1^T M 1)(x^T M x) > (1^T M x)^2;
    dividing by q - p: (2m' + n)(q x^T(A'+I)x - p sum (d'_i + 1) x_i^2) >
    (q - p)(sum (d'_i + 1) x_i)^2.  The absolute mu2 is at least the signed one, so the
    proof holds in both modes.  The block's sums are int64, from (A'+I)x and d' by
    `einsum`; with |x_i| <= b none exceeds n^2 b^2, so they are exact while
    n^2 b^2 < 2^63 (the hints of `decide_gros` keep it at most 2^62 at every n), and a
    row past that bound is left unproved, never wrapped.  The inequality is finished in
    Python ints.
    """
    p, q = tau.numerator, tau.denominator
    bound = isqrt((_INT64_RANGE - 1) // x.shape[1] ** 2)
    fits = (x <= bound).all(axis=1) & (x >= -bound).all(axis=1) & (q > p)
    x = np.where(fits[:, None], x, 0)
    ax = np.einsum("rij,rj->ri", adj, x) + x  # (A'+I)x
    d1 = np.einsum("rij->ri", adj, dtype=np.int64) + 1
    sums = ((x * ax).sum(axis=1), (d1 * x * x).sum(axis=1), ax.sum(axis=1), d1.sum(axis=1))
    proofs = [vol * (q * form - p * diag) > (q - p) * w * w for form, diag, w, vol in zip(*(a.tolist() for a in sums))]
    return fits & np.array(proofs, bool)


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in [lo, hi], lo <= hi: a Stern-Brocot descent
    that peels off the continued-fraction terms both ends share, in integers."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    h0, h1, k0, k1 = 0, 1, 1, 0  # the value is (h1 t + h0) / (k1 t + k0) for the tail t
    while ln % ld and ((a := ln // ld) + 1) * hd > hn:  # a < lo and a + 1 > hi
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld  # lo, hi = 1 / (hi - a), 1 / (lo - a)
    t = -(-ln // ld)  # an integer in [lo, hi]
    return Fraction(h1 * t + h0, k1 * t + k0)


def guided_mu2_leq(g: Graph, tau, mode: str, exact_limit: int, estimate: Fraction) -> bool:
    """`exact_mu2_leq(g, tau, mode)`, reached by a cheaper exact proof where the estimate allows.

    `estimate` is a rational guess of mu2; it chooses which proof to try, and the answer
    rests on integers alone, so a wrong estimate costs time, never the answer.  Below
    tau, "yes" at the simplest rational tau' in [(estimate + tau) / 2, tau] is "yes" at
    tau, and with a smaller denominator than tau's its elimination is cheaper.
    Anything else is decided at tau; "no" above tau is `_proves_above`'s, for a block.
    """
    tau = Fraction(tau)
    if estimate < tau:
        easier = _simplest_between((estimate + tau) / 2, tau)
        if easier.denominator < tau.denominator and exact_mu2_leq(g, easier, mode, exact_limit):
            return True
    return exact_mu2_leq(g, tau, mode, exact_limit)
