"""Recognition of algebraic numbers from p-adic approximations.

LLL reduces the lattice {c : sum c_i r^i = 0 mod p^k}, r = alpha mod p^k,
whose short vectors are the candidate relations; a candidate is accepted
only after substitution to full precision and an exact factorization check.
"""

import math
from fractions import Fraction

from .padic import poly_at
from .series import ser_trim

__all__ = ["algdep", "lll_reduce"]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll_reduce(basis):
    """LLL-reduced basis (delta = 3/4) of linearly independent integer rows.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3:
    the Gram-Schmidt data mu and B, computed once in exact rationals, are
    updated in place by each size reduction RED(k, l) and each swap.
    """
    b = [list(row) for row in basis]
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (_dot(b[i], b[j]) - sum(
                mu[j][l] * mu[i][l] * B[l] for l in range(j))) / B[j]
        B.append(Fraction(_dot(b[i], b[i])) - sum(
            mu[i][l] ** 2 * B[l] for l in range(i)))

    def red(k, l):
        q = round(mu[k][l])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k = 1
    while k < n:
        red(k, k - 1)
        if B[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]:
            # SWAP(k)
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            m = mu[k][k - 1]
            Bk = B[k] + m * m * B[k - 1]
            mu[k][k - 1] = m * B[k - 1] / Bk
            B[k - 1], B[k] = Bk, B[k - 1] * B[k] / Bk
            for row in mu[k + 1:]:
                t = row[k]
                row[k] = row[k - 1] - m * t
                row[k - 1] = t + mu[k][k - 1] * row[k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


def _normalize(poly):
    """Primitive, positive leading coefficient, low-to-high."""
    poly = ser_trim(list(poly))
    g = math.gcd(*poly) or 1
    if poly and poly[-1] < 0:
        g = -g
    return [c // g for c in poly]


def _vanishes(poly, alpha, k):
    val = poly_at(poly, alpha)
    return val.is_zero or val.valuation() >= min(k, int(val.abs_prec)) - 3


def _irreducible_part(poly, alpha, k):
    """poly itself if irreducible over Q, else the factor vanishing at alpha.
    sympy factors a candidate of degree 2 or more; a linear one is
    irreducible, so recognizing a rational number never imports sympy."""
    if len(poly) == 2:
        return _normalize(poly)
    from sympy import Poly, Symbol

    _, factors = Poly(poly[::-1], Symbol("x")).factor_list()
    if len(factors) == 1 and factors[0][1] == 1:
        return _normalize(poly)
    for fac, _mult in factors:
        fpoly = [int(c) for c in reversed(fac.all_coeffs())]
        if len(fpoly) >= 2 and _vanishes(fpoly, alpha, k):
            return _normalize(fpoly)
    return None


def algdep(alpha, degree_bound, height_bound=10 ** 8, prec=None):
    """Integer polynomial of degree <= degree_bound with alpha as a root.

    Searches short vectors of the lattice of congruences
    c_0 + c_1 alpha + ... + c_d alpha^d = 0 mod p^k; a candidate is returned
    (low-to-high coefficients, primitive, positive leading coefficient) only
    if it re-verifies by substitution to full precision and is irreducible
    over Q, or has a verified irreducible factor.  Returns None when no
    relation exists within the bounds.  prec caps the number of digits of
    alpha actually trusted (for representatives of a certified residue
    class known to fewer digits than they carry).
    """
    if alpha.e != 1:
        raise TypeError("algdep recognizes unramified p-adic numbers")
    ctx = alpha.ctx
    if alpha.is_zero:
        return [0, 1]
    if alpha.valuation() < 0:
        # a relation for 1/alpha with no constant term says 1/alpha = 0 to
        # precision: alpha is infinity, and reversing would leave degree 0
        rev = algdep(alpha.inverse(), degree_bound, height_bound, prec=prec)
        return _normalize(rev[::-1]) if rev and rev[0] else None

    k = min(int(alpha.abs_prec), ctx.N)
    if prec is not None:
        k = min(k, int(prec))
    pk = ctx.pk(k)
    d = degree_bound
    r = alpha.residue(k)

    # basis p^k e_0 and e_i - (r^i mod p^k) e_0 of the congruence lattice
    rows = [[pk] + [0] * d]
    rows += [[-pow(r, i, pk)] + [int(j == i) for j in range(1, d + 1)]
             for i in range(1, d + 1)]

    for row in lll_reduce(rows):
        cand = ser_trim(row)
        if len(cand) < 2:
            continue
        if max(abs(c) for c in cand) > height_bound:
            continue
        # sqrt(2) |c| <= p^(k/(d+2)): well below p^(k/(d+1)), the shortest
        # length in a lattice of determinant p^k with no planted relation
        norm2 = sum(c * c for c in cand)
        if norm2 ** (d + 2) * 2 ** (d + 2) > pk * pk:
            continue
        if not _vanishes(cand, alpha, k):
            continue
        out = _irreducible_part(cand, alpha, k)
        if out and len(out) >= 2:
            return out
    return None
