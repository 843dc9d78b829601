"""Exact arithmetic on y^3 = f(x) made apart from picardcc.

Everything here uses integers and Fractions only, so the benchmark can check
the program's reports against computations that share no code with it.
"""

import math
from fractions import Fraction


def icbrt(n):
    """The integer cube root of n, or None when n is not a perfect cube."""
    m = abs(n)
    r = round(m ** (1.0 / 3.0))
    while r ** 3 > m:
        r -= 1
    while (r + 1) ** 3 <= m:
        r += 1
    if r ** 3 != m:
        return None
    return r if n >= 0 else -r


def poly_at(poly, x):
    """poly (coefficients low to high) at x, in Fractions."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def on_curve(f, x, y):
    return Fraction(y) ** 3 == poly_at(f, Fraction(x))


def rational_points(f, height):
    """Affine rational points (x, y) with x = a/b, max(|a|, b) <= height.

    With gcd(a, b) = 1, y^3 b^4 = F(a, b) and gcd(F(a, b), b) = 1 force
    b = d^3 and F(a, d^3) a perfect cube, so only cube denominators are
    tried and every candidate is confirmed with integers.
    """
    out = []
    d = 1
    while d ** 3 <= height:
        b = d ** 3
        for a in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            n = sum(c * a ** i * b ** (4 - i) for i, c in enumerate(f))
            r = icbrt(n)
            if r is not None:
                out.append((Fraction(a, b), Fraction(r, d ** 4)))
        d += 1
    return sorted(out)


def count_points_Fp(f, p):
    """#X(F_p) by brute force, the point at infinity included."""
    cubes = [0] * p
    for y in range(p):
        cubes[y ** 3 % p] += 1
    return 1 + sum(cubes[sum(c * x ** i for i, c in enumerate(f)) % p]
                   for x in range(p))
