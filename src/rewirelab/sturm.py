"""Exact eigenvalue threshold decisions by integer inertia counts.

The augmented random-walk matrix (D+I)^{-1}(A+I) is cospectral with the
symmetric propagation matrix P = (D+I)^{-1/2}(A+I)(D+I)^{-1/2}.  D+I is positive
definite, so for tau = p/q (q > 0) the integer symmetric matrix q(A+I) - p(D+I)
is congruent to q*P - p*I, and by Sylvester's law of inertia its number of
positive eigenvalues is the number of eigenvalues of P above tau.  One
fraction-free symmetric elimination (Bareiss) counts them: `exact_mu2_leq`
decides mu2 <= tau that way, in Python integers only.

The characteristic-polynomial path is kept as an independent oracle:
det(x(D+I) - (A+I)) is an integer polynomial with the same roots (including
multiplicities), computed by Bareiss determinants at integer points plus Newton
interpolation, and `count_roots_above` / `count_roots_below` count its roots
against a rational threshold with multiplicity-aware Sturm chains (a Sturm
chain counts distinct roots, so they iterate down the gcd(p, p') chain).

Everything here is big-integer / Fraction arithmetic; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import ExactLimitExceeded
from .graph import Graph

#: Largest graph the exact decision procedure accepts by default.
EXACT_EIGEN_LIMIT = 64

#: Eigenvalues of the propagation matrix lie in [-1, 1]; +-2 safely brackets them.
_ROOT_BOUND = Fraction(2)

Poly = list  # coefficient list, low degree first


# -- integer/rational polynomial helpers ------------------------------------------


def poly_trim(c: Poly) -> Poly:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def poly_degree(c: Poly) -> int:
    return len(c) - 1


def poly_eval(c: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def poly_deriv(c: Poly) -> Poly:
    return poly_trim([i * c[i] for i in range(1, len(c))])


def poly_add(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_scale(a: Poly, s) -> Poly:
    return [x * s for x in a]


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a divided by b over the rationals."""
    r = [Fraction(x) for x in a]
    db = poly_degree(b)
    lead = Fraction(b[-1])
    while poly_degree(poly_trim(r)) >= db and poly_trim(r):
        r = poly_trim(r)
        shift = poly_degree(r) - db
        factor = r[-1] / lead
        for i in range(db + 1):
            r[shift + i] -= factor * b[i]
        r[-1] = Fraction(0)
    return poly_trim(r)


def primitive_int_poly(c: Poly) -> list:
    """Scale by a positive rational so coefficients are coprime integers.

    Only positive scaling is used, so sign patterns (and hence Sturm sign
    variations) are preserved.
    """
    c = poly_trim(list(c))
    if not c:
        return []
    fracs = [Fraction(x) for x in c]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // int_gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    return [v // g for v in ints]


def poly_gcd(a: Poly, b: Poly) -> list:
    """Primitive integer gcd (monic up to sign) of two polynomials."""
    a = primitive_int_poly(a)
    b = primitive_int_poly(b)
    while b:
        a, b = b, primitive_int_poly(poly_rem(a, b))
    return a


def _synthetic_div(c: Poly, x0: Fraction) -> list:
    """Quotient of c by (x - x0); only valid when x0 is a root."""
    d = len(c) - 1
    q = [Fraction(0)] * d
    q[d - 1] = Fraction(c[d])
    for k in range(d - 1, 0, -1):
        q[k - 1] = Fraction(c[k]) + x0 * q[k]
    return q


def deflate_root(c: Poly, x0: Fraction) -> tuple[list, int]:
    """Divide out (x - x0) as long as x0 is a root; returns (quotient, multiplicity)."""
    c = [Fraction(x) for x in poly_trim(list(c))]
    mult = 0
    while len(c) > 1 and poly_eval(c, x0) == 0:
        c = poly_trim(_synthetic_div(c, x0))
        mult += 1
    return primitive_int_poly(c), mult


# -- Sturm chains ---------------------------------------------------------------


def sturm_chain(p: Poly) -> list[list]:
    """Canonical Sturm chain p, p', -rem(...), ... with primitive integer entries."""
    p0 = primitive_int_poly(p)
    chain = [p0]
    p1 = primitive_int_poly(poly_deriv(p0))
    if p1:
        chain.append(p1)
    while poly_degree(chain[-1]) >= 1:
        r = poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive_int_poly(poly_scale(r, -1)))
    return chain


def sign_variations_at(chain: list[list], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in (a, b]; requires p(a) != 0 and p(b) != 0."""
    if poly_eval([Fraction(c) for c in p], a) == 0 or poly_eval([Fraction(c) for c in p], b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    chain = sturm_chain(p)
    return sign_variations_at(chain, a) - sign_variations_at(chain, b)


def count_roots_above(p: Poly, theta: Fraction, upper: Fraction = _ROOT_BOUND) -> int:
    """Roots of p in (theta, upper], counted with multiplicity."""
    total = 0
    cur = primitive_int_poly(p)
    while poly_degree(cur) >= 1:
        defl, _ = deflate_root(cur, theta)
        defl, _ = deflate_root(defl, upper) if defl else (defl, 0)
        if poly_degree(defl) >= 1:
            total += count_distinct_roots(defl, theta, upper)
        cur = poly_gcd(cur, poly_deriv(cur))
    return total


def count_roots_below(p: Poly, theta: Fraction, lower: Fraction = -_ROOT_BOUND) -> int:
    """Roots of p in [lower, theta), counted with multiplicity."""
    total = 0
    cur = primitive_int_poly(p)
    while poly_degree(cur) >= 1:
        defl, _ = deflate_root(cur, theta)
        defl, _ = deflate_root(defl, lower) if defl else (defl, 0)
        if poly_degree(defl) >= 1:
            total += count_distinct_roots(defl, lower, theta)
        cur = poly_gcd(cur, poly_deriv(cur))
    return total


# -- integer determinants and the characteristic polynomial ------------------------


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


def interpolate_integer_poly(xs: list[int], ys: list[int]) -> list[int]:
    """Newton interpolation through integer points; asserts an integer result."""
    npts = len(xs)
    dd = [Fraction(y) for y in ys]
    newton = [dd[0]]
    for level in range(1, npts):
        for i in range(npts - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
        newton.append(dd[level])
    poly: Poly = []
    basis: Poly = [Fraction(1)]
    for k in range(npts):
        poly = poly_add(poly, poly_scale(basis, newton[k]))
        basis = poly_mul(basis, [Fraction(-xs[k]), Fraction(1)])
    out = []
    for c in poly:
        f = Fraction(c)
        if f.denominator != 1:
            raise AssertionError("interpolated characteristic polynomial is not integral")
        out.append(f.numerator)
    return out


def propagation_charpoly(g: Graph) -> list[int]:
    """det(x*(D+I) - (A+I)) as an integer polynomial (low degree first).

    Its roots, with multiplicity, are exactly the eigenvalues of the augmented
    propagation matrix.
    """
    n = g.n
    d_tilde = [d + 1 for d in g.degrees]
    adj = g.adjacency_masks

    def det_at(x: int) -> int:
        rows = []
        for i in range(n):
            row = [0] * n
            mask = adj[i]
            while mask:
                j = (mask & -mask).bit_length() - 1
                row[j] = -1
                mask &= mask - 1
            row[i] = x * d_tilde[i] - 1
            rows.append(row)
        return bareiss_determinant(rows)

    xs = list(range(n + 1))
    ys = [det_at(x) for x in xs]
    return interpolate_integer_poly(xs, ys)


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
