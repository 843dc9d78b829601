"""Tests for the Picard curve model, disks, local coordinates, point search."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from picardcc.curve import (
    BAD_FINITE,
    BAD_INFINITE,
    GOOD,
    CurvePoint,
    PicardCurve,
    classify_disks,
    good_prime,
    lift_point,
    local_expansion,
    points_over_Fp,
    prime_rejection,
    rational_point_search,
    reduce_point,
    _icbrt,
)
from picardcc.errors import NotMonic, NotSquarefree, WrongDegree
from picardcc.padic import PadicContext, poly_at, poly_deriv, poly_eval_mod


EX1 = [-64, -48, 0, 6, 1]      # y^3 = x^4 + 6x^3 - 48x - 64
EX2 = [-24, 76, -78, 25, 1]    # y^3 = x^4 + 25x^3 - 78x^2 + 76x - 24
EX3 = [-2, 0, 0, 0, 1]         # y^3 = x^4 - 2
EX4 = [2, 5, 6, 2, 1]          # y^3 = x^4 + 2x^3 + 6x^2 + 5x + 2


def test_validate_ok():
    PicardCurve(EX3)


def test_validate_not_squarefree():
    with pytest.raises(NotSquarefree):
        PicardCurve([0, 0, 0, 0, 1])  # x^4


def test_validate_wrong_degree():
    with pytest.raises(WrongDegree):
        PicardCurve([1, 0, 0, 1])  # cubic


def test_validate_not_monic():
    with pytest.raises(NotMonic):
        PicardCurve([1, 0, 0, 0, 2])


def test_good_prime_appendix_entries():
    c = PicardCurve([1, -3, 0, 3, 1], discriminant=31492800)
    assert good_prime(c) == 7  # 5 | disc


def test_good_prime_split():
    c = PicardCurve(EX4)
    assert good_prime(c, split_poly=[-1, 1, 1]) == 11  # x^2 + x - 1


def test_good_prime_linear_split_is_noop():
    c = PicardCurve(EX4)
    assert good_prime(c, split_poly=[-1, 1]) == good_prime(c)


def _admissible(curve, p, g):
    """prime_rejection's contract spelled out directly."""
    if p <= 3 or any(p % d == 0 for d in range(2, p)):
        return False
    if curve.disc_f % p == 0 or (curve.discriminant and curve.discriminant % p == 0):
        return False
    if g is None:
        return True
    roots = [a for a in range(p) if sum(c * a ** i for i, c in enumerate(g)) % p == 0]
    return g[-1] % p != 0 and len(roots) == len(g) - 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.one_of(st.none(), st.integers(1, 10 ** 6)),
       st.one_of(st.none(),
                 st.tuples(st.lists(st.integers(-8, 8), max_size=3),
                           st.integers(-3, 3).filter(bool))))
def test_prime_rejection_matches_definition(f, disc, g):
    try:
        curve = PicardCurve(f + [1], discriminant=disc)
    except NotSquarefree:
        assume(False)
    g = None if g is None else g[0] + [g[1]]
    ok = [p for p in range(60) if _admissible(curve, p, g)]
    for p in range(60):
        assert (prime_rejection(curve, p, g) is None) == (p in ok), p
    if ok:
        assert good_prime(curve, split_poly=g) == ok[0]
        assert good_prime(curve, ok[0], split_poly=g) == ok[0]


def test_prime_rejection_reasons():
    c = PicardCurve(EX4)  # disc(f) = 13 * 17^2
    assert "not a prime > 3" in prime_rejection(c, 25)
    assert "not a prime > 3" in prime_rejection(c, 3)
    assert "bad reduction" in prime_rejection(c, 13)
    assert "bad reduction" in prime_rejection(PicardCurve(EX4, discriminant=5 * 7), 7)
    assert "not completely split" in prime_rejection(c, 7, [-1, 1, 1])
    assert prime_rejection(c, 11, [-1, 1, 1]) is None


def test_points_over_Fp_contains_inf():
    c = PicardCurve(EX3)
    assert "inf" in points_over_Fp(c, 13)


def test_points_over_Fp_count_p_2_mod_3():
    # cubing is a bijection mod p = 2 mod 3: exactly p + 1 points
    c = PicardCurve(EX1)
    assert len(points_over_Fp(c, 5)) == 6
    assert len(points_over_Fp(c, 11)) == 12


def test_points_over_Fp_oracle():
    c = PicardCurve(EX3)
    pts = points_over_Fp(c, 13)
    expect = {(x, y) for x in range(13) for y in range(13)
              if pow(y, 3, 13) == poly_eval_mod(c.f, x, 13)}
    assert set(p for p in pts if p != "inf") == expect


def test_classify_disks_partition():
    c = PicardCurve(EX3)
    p = 13
    disks = classify_disks(c, p)
    assert len(disks) == len(points_over_Fp(c, p))
    n_inf = sum(1 for d in disks if d.kind == BAD_INFINITE)
    assert n_inf == 1
    n_bad = sum(1 for d in disks if d.kind == BAD_FINITE)
    n_roots = len([x for x in range(p) if poly_eval_mod(c.f, x, p) == 0])
    assert n_bad == n_roots
    n_good = sum(1 for d in disks if d.kind == GOOD)
    assert n_good == len(disks) - n_bad - 1


def test_classify_disks_example1():
    c = PicardCurve(EX1)
    # f = (x+2)(x+4)(x^2-8): 8 is a square mod 17 but not mod 5
    disks17 = classify_disks(c, 17)
    assert sum(1 for d in disks17 if d.kind == BAD_FINITE) == 4
    disks5 = classify_disks(c, 5)
    assert sum(1 for d in disks5 if d.kind == BAD_FINITE) == 2


def test_bad_center_reduces_correctly():
    c = PicardCurve(EX1)
    ctx = PadicContext(17, 8)
    for d in classify_disks(c, 17, ctx):
        if d.kind == BAD_FINITE:
            assert reduce_point(d.very_bad_point, 17) == d.reduction
            fx = c.f_eval(d.very_bad_point.x)
            assert fx.is_zero


def test_lift_point_examples():
    ctx = PadicContext(11, 5)
    c2 = PicardCurve(EX2)
    pts = lift_point(c2, 2, ctx)   # f(2) = 32
    assert len(pts) == 1
    assert pts[0].y.residue(1) == 10

    c1 = PicardCurve(EX1)
    root = [P for P in lift_point(c1, -4, ctx)]  # f(-4) = 0
    assert len(root) == 1 and root[0].y.is_zero


def check_expansion(curve, exp, mod, T):
    """y(t)^3 = f(x(t)) as Laurent series, exactly mod (p^W, t^(T+1))."""
    from picardcc.series import ser_mul
    y3 = ser_mul(ser_mul(exp.y_coeffs, exp.y_coeffs, mod, T),
                 exp.y_coeffs, mod, T)
    y3_shift = 3 * exp.y_shift
    # f(x(t)): x = t^x_shift * X(t)
    if exp.x_shift == 0:
        from picardcc.curve import _poly_of_series
        fx = _poly_of_series(curve.f, exp.x_coeffs, mod, T)
        fx_shift = 0
    else:
        # x = t^-3: f(x) = t^-12 (t^12 f(t^-3)) with X = [1]
        assert exp.x_shift == -3 and exp.x_coeffs[0] == 1
        c0, c1, c2, c3, _ = curve.f
        fx = [0] * (T + 1)
        for k, c in zip((0, 3, 6, 9, 12), (1, c3, c2, c1, c0)):
            if k <= T:
                fx[k] = c % mod
        fx_shift = -12
    assert y3_shift == fx_shift
    for i in range(min(len(y3), len(fx), T + 1)):
        assert y3[i] % mod == fx[i] % mod, f"coefficient {i}"


def test_local_expansion_good_disk():
    c = PicardCurve(EX1)
    ctx = PadicContext(5, 8)
    disks = classify_disks(c, 5, ctx)
    good = [d for d in disks if d.kind == GOOD][0]
    x0, y0 = good.reduction
    center = [P for P in lift_point(c, x0, ctx) if P.y.residue(1) == y0][0]
    exp = local_expansion(c, good, ctx, T=30, center=center)
    check_expansion(c, exp, 5 ** 8, 30)
    # t = 0 recovers the center
    assert exp.x_coeffs[0] == center.x.residue(8)
    assert exp.y_coeffs[0] == center.y.residue(8)


def test_local_expansion_bad_finite():
    c = PicardCurve(EX3)
    ctx = PadicContext(5, 8)  # f = x^4 - 2 has roots mod 5? f(x)=x^4-2: 2 is 4th power mod 5? 1,16=1,81=1,256=1 -> x^4 in {0,1}; no roots mod 5
    c17 = PicardCurve(EX1)
    ctx17 = PadicContext(17, 8)
    disks = classify_disks(c17, 17, ctx17)
    bad = [d for d in disks if d.kind == BAD_FINITE][0]
    exp = local_expansion(c17, bad, ctx17, T=30)
    check_expansion(c17, exp, 17 ** 8, 30)
    # x(t) = a + t^3/f'(a) + O(t^6)
    a = bad.very_bad_point.x.residue(8)
    mod = 17 ** 8
    fprime_a = poly_eval_mod(poly_deriv(c17.f), a, mod)
    assert exp.x_coeffs[3] == pow(fprime_a, -1, mod)
    assert exp.x_coeffs[1] == 0 and exp.x_coeffs[2] == 0


def test_local_expansion_infinite():
    c = PicardCurve(EX1)
    ctx = PadicContext(5, 8)
    disks = classify_disks(c, 5, ctx)
    inf_disk = [d for d in disks if d.kind == BAD_INFINITE][0]
    exp = local_expansion(c, inf_disk, ctx, T=30)
    check_expansion(c, exp, 5 ** 8, 30)
    # u(t) = 1 + (c3/3) t^3 + O(t^6)
    mod = 5 ** 8
    c3 = c.f[3]
    assert exp.y_coeffs[0] == 1
    assert exp.y_coeffs[3] == (c3 * pow(3, -1, mod)) % mod
    assert exp.y_coeffs[1] == 0 and exp.y_coeffs[2] == 0


def test_laurent_eval_matches_point():
    # evaluating the good-disk expansion at t in pZ_p gives a curve point
    c = PicardCurve(EX1)
    ctx = PadicContext(7, 8)
    disks = classify_disks(c, 7, ctx)
    good = [d for d in disks if d.kind == GOOD][0]
    x0, y0 = good.reduction
    center = [P for P in lift_point(c, x0, ctx) if P.y.residue(1) == y0][0]
    exp = local_expansion(c, good, ctx, T=12, center=center)
    t = ctx.from_int(7)
    xv = poly_at(exp.x_coeffs, t) * t ** exp.x_shift
    yv = poly_at(exp.y_coeffs, t) * t ** exp.y_shift
    assert (yv ** 3).is_congruent(c.f_eval(xv), 7)


def test_rational_point_search_ex1():
    c = PicardCurve(EX1)
    pts = rational_point_search(c, 50)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(-3), Fraction(-1)) in coords
    assert pts[0].inf


def test_rational_point_search_ex3():
    c = PicardCurve(EX3)
    pts = rational_point_search(c, 10)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(1), Fraction(-1)) in coords
    assert (Fraction(-1), Fraction(-1)) in coords


def test_rational_point_search_x4_minus_40():
    # monic model of y^3 = 2x^4 - 5 under (x, y) -> (2x, 2y)
    c = PicardCurve([-40, 0, 0, 0, 1])
    pts = rational_point_search(c, 10)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(4), Fraction(6)) in coords
    assert (Fraction(-4), Fraction(6)) in coords


def test_rational_point_search_ex4_empty():
    c = PicardCurve(EX4)
    pts = rational_point_search(c, 100)
    assert len(pts) == 1 and pts[0].inf


def test_rational_point_search_monotone():
    c = PicardCurve(EX1)
    small = {(P.exact_x, P.exact_y) for P in rational_point_search(c, 20) if not P.inf}
    large = {(P.exact_x, P.exact_y) for P in rational_point_search(c, 60) if not P.inf}
    assert small <= large


def test_rational_point_search_denominator_cube():
    # f(1/8) = 1/4096 = (1/16)^3: denominator b = 2^3, y = r / 2^4
    c = PicardCurve([1, 0, 1, -520, 1])
    coords = {(P.exact_x, P.exact_y)
              for P in rational_point_search(c, 1000) if not P.inf}
    assert (Fraction(1, 8), Fraction(1, 16)) in coords


def _brute_force_points(f, H):
    """Every (a/b, y) with b <= H, |a| <= H, gcd(a, b) = 1: y^3 = f(a/b) iff
    n b^2 is a cube, n = b^4 f(a/b); then y = cbrt(n b^2) / b^2."""
    out = set()
    for b in range(1, H + 1):
        for a in range(-H, H + 1):
            if math.gcd(a, b) != 1:
                continue
            m = sum(c * a ** i * b ** (4 - i) for i, c in enumerate(f)) * b * b
            r, exact = sympy.integer_nthroot(abs(m), 3)
            if exact:
                out.add((Fraction(a, b), Fraction(r if m >= 0 else -r, b * b)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4),
       st.integers(1, 40))
def test_rational_point_search_matches_brute_force(f, H):
    try:
        c = PicardCurve(f + [1])
    except NotSquarefree:
        assume(False)
    pts = rational_point_search(c, H)
    assert pts[0].inf and not any(P.inf for P in pts[1:])
    assert {(P.exact_x, P.exact_y) for P in pts[1:]} == _brute_force_points(c.f, H)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10, 2 ** 53 + 1, 10 ** 20 + 7,
                               3 ** 150, 10 ** 100, 10 ** 200])
@pytest.mark.parametrize("j", [-1, 0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_icbrt_exact(k, j, sign):
    # floor(cbrt(k^3 + j)) is k - 1 for j = -1 and k otherwise (k >= 1)
    assert _icbrt(sign * (k ** 3 + j)) == sign * (k - 1 if j < 0 else k)
