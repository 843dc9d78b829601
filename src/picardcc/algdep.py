"""Recognition of algebraic numbers from p-adic approximations.

Small-dimension lattice reduction over the rationals, specialized to the
degree <= 6 relations we ever need; any candidate relation is verified by
substitution to full precision and by an exact factorization check.
"""

import math
from fractions import Fraction

from .padic import PadicElement, poly_at, sympy_poly

__all__ = ["algdep", "lll_reduce"]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll_reduce(basis, delta=Fraction(3, 4)):
    """LLL reduction of integer row vectors; returns the reduced rows.

    Plain textbook implementation with rational Gram-Schmidt data recomputed
    on structural changes; fine for the dimension <= 8 lattices used here.
    """
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)

    def gso():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            w = list(b[i])
            for j in range(i):
                denom = _dot(star[j], star[j])
                mu[i][j] = _dot(b[i], star[j]) / denom if denom else Fraction(0)
                w = [x - mu[i][j] * y for x, y in zip(w, star[j])]
            star.append(w)
        return star, mu

    star, mu = gso()
    k = 1
    while k < n:
        changed = False
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                changed = True
        if changed:
            star, mu = gso()
        lhs = _dot(star[k], star[k])
        rhs = (delta - mu[k][k - 1] ** 2) * _dot(star[k - 1], star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gso()
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in b]


def _trim(poly):
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def _normalize(poly):
    """Primitive, positive leading coefficient, low-to-high."""
    poly = _trim(list(poly))
    g = 0
    for c in poly:
        g = math.gcd(g, abs(c))
    if g > 1:
        poly = [c // g for c in poly]
    if poly and poly[-1] < 0:
        poly = [-c for c in poly]
    return poly


def _vanishes(poly, alpha, k):
    val = poly_at(poly, alpha)
    return val.is_zero or val.valuation() >= min(k, int(val.abs_prec)) - 3


def _irreducible_part(poly, alpha, k):
    """poly itself if irreducible over Q, else the factor vanishing at alpha."""
    _, factors = sympy_poly(poly).factor_list()
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
    if not isinstance(alpha, PadicElement):
        raise TypeError("algdep recognizes unramified p-adic numbers")
    ctx = alpha.ctx
    if alpha.is_zero:
        return [0, 1]
    if alpha.valuation() < 0:
        rev = algdep(ctx.from_int(1) / alpha, degree_bound, height_bound,
                     prec=prec)
        return _normalize(list(reversed(rev))) if rev else None

    k = min(int(alpha.abs_prec), ctx.N)
    if prec is not None:
        k = min(k, int(prec))
    pk = ctx.pk(k)
    d = degree_bound
    r = alpha.residue(k)
    powers = [pow(r, i, pk) for i in range(d + 1)]

    # weight the congruence column so any vector with a nonzero residual
    # modulo p^k is far longer than a true relation of height <= H
    K = pk
    rows = []
    for i in range(d + 1):
        row = [0] * (d + 2)
        row[i] = 1
        row[d + 1] = K * powers[i]
        rows.append(row)
    rows.append([0] * (d + 1) + [K * pk])

    for row in lll_reduce(rows):
        cand = _trim(list(row[: d + 1]))
        if len(cand) < 2:
            continue
        if max(abs(c) for c in cand) > height_bound:
            continue
        # a genuine relation is far shorter than the ~p^(k/(d+2)) expected
        # for the shortest vector of a random lattice of this shape
        norm2 = sum(c * c for c in cand)
        if norm2 ** (d + 2) * 2 ** (d + 2) > pk * pk:
            continue
        if not _vanishes(cand, alpha, k):
            continue
        out = _irreducible_part(cand, alpha, k)
        if out and len(out) >= 2:
            return out
    return None
