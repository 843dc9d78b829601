"""Picard curve model: validation, prime selection, residue disks with
their centers, and rational point search.

A curve is y^3 = f(x) with f monic, quartic, squarefree.  A point is
(x, y), or the point at infinity.  The local expansion of a residue disk
around its center belongs to the integrator that uses it
(`ColemanIntegrator._disk_data`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ComputationFailure,
    CurveValidationError,
    NotMonic,
    NotSquarefree,
    WrongDegree,
)
from .padic import (
    PadicContext,
    cube_roots,
    disc_adj,
    hensel_lift_root,
    is_prime,
    poly_at,
    poly_eval_mod,
)
from .series import ser_trim


class PicardCurve:
    """y^3 = f(x), f monic quartic squarefree; genus 3."""

    def __init__(self, f_coefficients, discriminant=None, label=None):
        f = [Fraction(c) for c in f_coefficients]
        if len(f) != 5 or f[4] == 0:
            raise WrongDegree(f"f must be quartic, got degree {len(f) - 1}")
        if f[4] != 1:
            raise NotMonic(f"leading coefficient {f[4]} != 1")
        if any(c.denominator != 1 for c in f):
            raise NotMonic("f must have integer coefficients")
        self.f = [int(c) for c in f]
        self.disc_f = disc_adj(self.f)[0]  # Res(f, f') = disc(f), f a monic quartic
        if self.disc_f == 0:
            raise NotSquarefree("f has a repeated root")
        d = None if discriminant is None else Fraction(discriminant)
        if d is not None and d.denominator != 1:
            raise CurveValidationError(f"discriminant {discriminant!r} is not an integer")
        self.discriminant = None if d is None else int(d)
        self.label = label

    def f_eval(self, x):
        """f(x) on ints, Fractions, and ring elements."""
        return poly_at(self.f, x)

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.f) if c)
        return f"PicardCurve(y^3 = {terms})"


@dataclass
class CurvePoint:
    """A point of X over Q_p or Q_p(p^(1/e)), or the point at infinity."""

    x: object = None
    y: object = None
    inf: bool = False
    exact_x: object = None  # Fraction, when the point is known exactly
    exact_y: object = None
    certificate: dict = None  # how a Chabauty root was certified

    def __repr__(self):
        if self.inf:
            return "Point(inf)"
        if self.exact_x is not None:
            return f"Point({self.exact_x}, {self.exact_y})"
        return f"Point({self.x!r}, {self.y!r})"


GOOD = "good"
BAD_FINITE = "bad_finite"
BAD_INFINITE = "bad_infinite"


@dataclass
class ResidueDisk:
    """The points of X(Q_p) reducing to one F_p-point.  The center is the
    point at t = 0 of the disk's uniformizer: the lifted root of f on a
    finite bad disk, infinity on the infinite one, and on a good disk the
    point above the integer x of the reduction on the branch of its y."""

    reduction: object  # (x mod p, y mod p) or "inf"
    kind: str
    center: CurvePoint

    def __repr__(self):
        return f"Disk({self.reduction}, {self.kind})"


def prime_rejection(curve: PicardCurve, p: int, split_poly=None):
    """Why p cannot be the prime for this curve, or None when it can.

    p must be a prime > 3 dividing neither disc(f) nor the supplied curve
    discriminant; when split_poly g is given, g must split completely mod p.
    """
    if p <= 3 or not is_prime(p):
        return f"p = {p} is not a prime > 3"
    if curve.disc_f % p == 0 or (
            curve.discriminant and curve.discriminant % p == 0):
        return f"p = {p} is a prime of bad reduction for this curve"
    if split_poly is not None and split_roots(split_poly, p) is None:
        return (f"p = {p} rejected: the divisor field is not completely "
                "split at p")
    return None


def good_prime(curve: PicardCurve, min_prime: int = 5, split_poly=None):
    """Smallest p >= min_prime that prime_rejection accepts."""
    p = max(min_prime, 5)
    while prime_rejection(curve, p, split_poly):
        p += 1
    return p


def split_roots(g, p):
    """The roots of the integer polynomial g in F_p, ascending, when g has
    deg(g) distinct roots there (so every one is simple); else None.

    A p-divisible leading coefficient means a root off Z_p: not split.
    """
    g = ser_trim(g)
    if not g or g[-1] % p == 0:
        return None
    roots = [a for a in range(p) if poly_eval_mod(g, a, p) == 0]
    return roots if len(roots) == len(g) - 1 else None


def points_over_Fp(curve: PicardCurve, p: int):
    """All F_p-points, the infinite one encoded as "inf"."""
    cubes = {}
    for y in range(p):
        cubes.setdefault(pow(y, 3, p), []).append(y)
    pts = []
    for x in range(p):
        for y in cubes.get(poly_eval_mod(curve.f, x, p), []):
            pts.append((x, y))
    pts.append("inf")
    return pts


def classify_disks(curve: PicardCurve, ctx: PadicContext):
    """One ResidueDisk per F_p-point, p = ctx.p, each with its center lifted
    to Q_p."""
    disks = []
    for pt in points_over_Fp(curve, ctx.p):
        if pt == "inf":
            disks.append(ResidueDisk("inf", BAD_INFINITE, CurvePoint(inf=True)))
        elif pt[1] == 0:
            # ramification point: lift the root of f (simple mod p at good p)
            xr = hensel_lift_root(curve.f, pt[0], ctx)
            center = CurvePoint(xr, ctx.zero())
            disks.append(ResidueDisk(pt, BAD_FINITE, center))
        else:
            disks.append(ResidueDisk(pt, GOOD, branch_point(curve, ctx.element(pt[0]), pt[1])))
    return disks


def branch_point(curve: PicardCurve, x, y0):
    """(x, y) with y the cube root of f(x) that reduces to y0 != 0 mod p."""
    for y in cube_roots(curve.f_eval(x)):
        if y.residue(1) == y0:
            return CurvePoint(x, y)
    raise ComputationFailure(f"no cube root of f({x!r}) reduces to {y0} mod {x.ctx.p}")


def reduce_point(point: CurvePoint, p: int):
    """The F_p-point a Q_p-point reduces to (key into the disk list)."""
    if point.inf:
        return "inf"
    x, y = point.x, point.y
    if x.valuation() < 0:
        return "inf"
    yv = 0 if (y.is_zero or y.valuation() > 0) else y.residue(1)
    return (x.residue(1), yv)


# --- rational point search ----------------------------------------------


def _icbrt(n: int) -> int:
    """Integer cube root of n rounded toward zero, exact for every int:
    Newton's r <- (2r + m // r^2) // 3 from a power of two above cbrt(m)
    decreases strictly until it reaches floor(cbrt(m))."""
    m = abs(n)
    if m == 0:
        return 0
    r = 1 << -(-m.bit_length() // 3)
    while (s := (2 * r + m // (r * r)) // 3) < r:
        r = s
    return r if n > 0 else -r


_CUBES = {m: {pow(r, 3, m) for r in range(m)} for m in (63, 13, 19, 37)}  # 63 = 7 * 9


def rational_point_search(curve: PicardCurve):
    """All (a/b, y) in X(Q) with gcd(a, b) = 1, max(|a|, b) <= H = 1000, plus
    infinity.

    The search is exact.  Let F(a, b) = b^4 f(a/b) and y = r/s in lowest
    terms.  f is monic, so gcd(F(a, b), b) = gcd(a^4, b) = 1, and
    r^3 b^4 = F(a, b) s^3 forces s^3 = b^4.  Hence b = d^3, s = d^4 and
    r^3 = F(a, d^3): only cube denominators are searched, and a point is
    kept exactly when F(a, d^3) is a perfect cube.  A cube is a cube modulo
    every m, so a sieve loses no point: only the a where F(a, d^3) is a cube
    modulo 63, 13, 19 and 37 (about 1%) get the exact test.
    """
    H = 1000
    found = []
    for d in range(1, _icbrt(H) + 1):
        b = d ** 3
        # F(a, b) = b^4 f(a/b) as a polynomial in a; ok[m][a % m]: a cube mod m
        F = [c * b ** (4 - i) for i, c in enumerate(curve.f)]
        ok = {m: [poly_eval_mod(F, a, m) in _CUBES[m] for a in range(m)] for m in _CUBES}
        for a in [a for c in range(63) if ok[63][c] for a in range((c + H) % 63 - H, H + 1, 63)
                  if ok[13][a % 13] and ok[19][a % 19] and ok[37][a % 37] and math.gcd(a, d) == 1]:
            n = poly_at(F, a)
            r = _icbrt(n)
            if r ** 3 == n:
                x = Fraction(a, b)
                y = Fraction(r, d ** 4)
                if y ** 3 != curve.f_eval(x):
                    raise ComputationFailure(f"({x}, {y}) is not on the curve")
                found.append(CurvePoint(exact_x=x, exact_y=y))
    found.sort(key=lambda P: (P.exact_x, P.exact_y))
    return [CurvePoint(inf=True)] + found
