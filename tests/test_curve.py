"""Tests for the Picard curve model, disks, point search, and the local
expansion of each residue disk that the integrator builds."""

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
    points_over_Fp,
    prime_rejection,
    rational_point_search,
    reduce_point,
    _icbrt,
)
from picardcc.coleman import ColemanIntegrator
from picardcc.errors import NotMonic, NotSquarefree, WrongDegree
from picardcc.frobenius import BASIS, frobenius_matrix
from picardcc.padic import (
    PadicContext,
    poly_at,
    poly_deriv,
    poly_eval_mod,
    taylor_shift,
)
from picardcc.series import ser_mul


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
    disks = classify_disks(c, PadicContext(p, 12))
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
    disks17 = classify_disks(c, PadicContext(17, 12))
    assert sum(1 for d in disks17 if d.kind == BAD_FINITE) == 4
    disks5 = classify_disks(c, PadicContext(5, 12))
    assert sum(1 for d in disks5 if d.kind == BAD_FINITE) == 2


def test_bad_center_reduces_correctly():
    # a finite bad center is a root of f; a good center lies above the
    # integer x of its reduction, on the branch of its y (f(x) has three
    # cube roots mod 13, one mod 17)
    c = PicardCurve(EX1)
    for p in (13, 17):
        ctx = PadicContext(p, 8)
        disks = classify_disks(c, ctx)
        assert {d.kind for d in disks} == {GOOD, BAD_FINITE, BAD_INFINITE}
        for d in disks:
            if d.kind == BAD_INFINITE:
                assert d.center.inf
                continue
            assert reduce_point(d.center, p) == d.reduction
            fx = c.f_eval(d.center.x)
            if d.kind == BAD_FINITE:
                assert d.center.y.is_zero and fx.is_zero
            else:
                assert d.center.x.residue(8) == d.reduction[0]
                assert (d.center.y ** 3 - fx).is_zero


# --- local expansions of the residue disks (`ColemanIntegrator._disk_data`) --


def _integrator(coeffs, p, N=8):
    """An integrator at N digits; e = 1 cuts the bad-disk expansions near
    t^(N + 26)."""
    return ColemanIntegrator(frobenius_matrix(PicardCurve(coeffs), p, N), N=N, e=1)


def _power(s, n, mod, T):
    out = [1]
    for _ in range(n):
        out = ser_mul(out, s, mod, T)
    return out + [0] * (T + 1 - len(out))


def _g(eng, dd, b, T):
    """g_b = y^b/f (u^b/Ft at infinity) to t^T, read off the form dx y^b/f,
    which is -3 t^(8-4b) g_b dt at infinity."""
    mod = eng.ctx.pk(eng.W)
    _, cf = dd["forms"][BASIS.index((0, b))]
    scale = 1 if "u" not in dd else pow(-3, -1, mod)
    return [scale * c % mod for c in cf[:T + 1]]


def _good_disk_data(eng):
    good = next(d for d in eng.disks if d.kind == GOOD)
    return good.center, eng._disk_data(good)


def test_local_expansion_good_disk():
    eng = _integrator(EX1, 5)
    W, T = eng.W, eng.T_good
    mod = 5 ** W
    center, dd = _good_disk_data(eng)
    x0 = center.x.residue(W)
    F = taylor_shift(eng.curve.f, x0, mod)  # f(x(t)), x(t) = x0 + t
    g1, g2 = _g(eng, dd, 1, T), _g(eng, dd, 2, T)
    assert _power(g2, 2, mod, T) == g1
    assert ser_mul(_power(g2, 3, mod, T), F, mod, T) == [1] + [0] * T
    # y = F g_1 = 1/g_2: y^3 = f(x(t)), and t = 0 recovers the center
    y = ser_mul(F, g1, mod, T)
    assert _power(y, 3, mod, T) == F + [0] * (T + 1 - len(F))
    assert y[0] == center.y.residue(W)


def test_local_expansion_bad_finite():
    eng = _integrator(EX1, 17)
    W, T = eng.W, eng.T_bad
    mod = 17 ** W
    bad = next(d for d in eng.disks if d.kind == BAD_FINITE)
    xt = eng._disk_data(bad)["xt"]
    # y = t, so f(x(t)) = t^3
    fx = [0]
    for c in reversed(eng.curve.f):
        fx = ser_mul(fx, xt, mod, T)
        fx[0] = (fx[0] + c) % mod
    assert fx == [0, 0, 0, 1] + [0] * (T - 3)
    # x(t) = a + t^3/f'(a) + O(t^6), a the very bad point at t = 0
    a = bad.center.x.residue(W)
    fprime_a = poly_eval_mod(poly_deriv(eng.curve.f), a, mod)
    assert xt[0] == a
    assert xt[3] == pow(fprime_a, -1, mod)
    assert xt[1] == 0 and xt[2] == 0


def test_local_expansion_infinite():
    eng = _integrator(EX1, 5)
    W, T = eng.W, eng.T_bad
    mod = 5 ** W
    dd = eng._disk_data(next(d for d in eng.disks if d.kind == BAD_INFINITE))
    u = dd["u"]
    # Ft = t^12 f(t^-3): f[j] is the coefficient of t^(12 - 3j)
    Ft = [0] * (T + 1)
    for j, c in enumerate(eng.curve.f):
        Ft[12 - 3 * j] = c % mod
    # y = t^-4 u, x = t^-3: y^3 = f(x) is u^3 = Ft
    assert _power(u, 3, mod, T) == Ft
    # g_2 = Ft^(-1/3) and g_1 = g_2^2, the forms being cut at t^(T - 10)
    Tg = T - 10
    g1, g2 = _g(eng, dd, 1, Tg), _g(eng, dd, 2, Tg)
    assert _power(g2, 2, mod, Tg) == g1
    assert ser_mul(_power(g2, 3, mod, Tg), Ft, mod, Tg) == [1] + [0] * Tg
    # u(t) = 1 + (c3/3) t^3 + O(t^6)
    c3 = eng.curve.f[3]
    assert u[0] == 1
    assert u[3] == (c3 * pow(3, -1, mod)) % mod
    assert u[1] == 0 and u[2] == 0


def test_laurent_eval_matches_point():
    # evaluating the good-disk expansion at t in pZ_p gives a curve point
    eng = _integrator(EX1, 7)
    center, dd = _good_disk_data(eng)
    t = eng.ctx.from_int(7)
    xv = center.x + t
    yv = poly_at(_g(eng, dd, 2, eng.T_good), t).inverse()  # y = 1/g_2
    assert (yv ** 3).is_congruent(eng.curve.f_eval(xv), 7)


def _search(curve, H):
    """The points of the one search (height 1000) of height max(|a|, b) <= H,
    x = a/b, with infinity first."""
    return [P for P in rational_point_search(curve)
            if P.inf or max(abs(P.exact_x.numerator), P.exact_x.denominator) <= H]


def test_rational_point_search_ex1():
    c = PicardCurve(EX1)
    pts = _search(c, 50)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(-3), Fraction(-1)) in coords
    assert pts[0].inf


def test_rational_point_search_ex3():
    c = PicardCurve(EX3)
    pts = _search(c, 10)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(1), Fraction(-1)) in coords
    assert (Fraction(-1), Fraction(-1)) in coords


def test_rational_point_search_x4_minus_40():
    # monic model of y^3 = 2x^4 - 5 under (x, y) -> (2x, 2y)
    c = PicardCurve([-40, 0, 0, 0, 1])
    pts = _search(c, 10)
    coords = {(P.exact_x, P.exact_y) for P in pts if not P.inf}
    assert (Fraction(4), Fraction(6)) in coords
    assert (Fraction(-4), Fraction(6)) in coords


def test_rational_point_search_ex4_empty():
    c = PicardCurve(EX4)
    pts = _search(c, 100)
    assert len(pts) == 1 and pts[0].inf


def test_rational_point_search_monotone():
    # infinity first, then the affine points in increasing (x, y), each of
    # height at most 1000
    pts = rational_point_search(PicardCurve(EX1))
    coords = [(P.exact_x, P.exact_y) for P in pts[1:]]
    assert pts[0].inf and len(coords) > 1 and coords == sorted(set(coords))
    assert len(_search(PicardCurve(EX1), 1000)) == len(pts)


def test_rational_point_search_denominator_cube():
    # f(1/8) = 1/4096 = (1/16)^3: denominator b = 2^3, y = r / 2^4
    c = PicardCurve([1, 0, 1, -520, 1])
    coords = {(P.exact_x, P.exact_y)
              for P in rational_point_search(c) if not P.inf}
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
    pts = _search(c, H)
    assert pts[0].inf and not any(P.inf for P in pts[1:])
    assert {(P.exact_x, P.exact_y) for P in pts[1:]} == _brute_force_points(c.f, H)


def _unsieved_search(f, H):
    """The search without the sieve: for each cube denominator d^3 <= H,
    every a with |a| <= H and gcd(a, d) = 1 gets the exact cube test."""
    out = []
    for d in range(1, _icbrt(H) + 1):
        b = d ** 3
        F = [c * b ** (4 - i) for i, c in enumerate(f)]
        for a in range(-H, H + 1):
            if math.gcd(a, d) != 1:
                continue
            n = poly_at(F, a)
            r = _icbrt(n)
            if r ** 3 == n:
                out.append((Fraction(a, b), Fraction(r, d ** 4)))
    return sorted(out)


POOL = [[-5, -2, -5, 1, 1], [-1, -6, -6, -6, 1], [1, 1, 2, -3, 1],
        [4, -4, -1, 2, 1], [2, -4, 4, -2, 1], [-5, 5, -5, -6, 1]]


@pytest.mark.parametrize("f", [EX1, EX2, EX3, EX4, [-40, 0, 0, 0, 1]] + POOL)
def test_rational_point_search_matches_unsieved(f):
    # the cube-residue sieve keeps every point the full loop finds, in order
    # (H < 63 is covered by the brute-force property above)
    pts = rational_point_search(PicardCurve(f))
    assert [(P.exact_x, P.exact_y) for P in pts[1:]] == _unsieved_search(f, 1000)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=3, max_size=3),
       st.integers(-1000, 1000), st.integers(0, 1000), st.integers(-60, 60),
       st.sampled_from([1, 21, 13, 19, 37, 63 * 13 * 19 * 37]))
def test_rational_point_search_finds_planted_point(c, a, s, k, m):
    # c0 = r^3 - sum_(i >= 1) c_i a^i puts (a, r) on the curve, H >= |a|; r
    # is a multiple of m, so f(a) = r^3 is 0 modulo the sieve moduli dividing m^3
    H, r = min(1000, max(1, abs(a) + s)), k * m
    try:
        curve = PicardCurve([r ** 3 - poly_at([0] + c + [1], a)] + c + [1])
    except NotSquarefree:
        assume(False)
    coords = {(P.exact_x, P.exact_y) for P in _search(curve, H) if not P.inf}
    assert (Fraction(a), Fraction(r)) in coords


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10, 2 ** 53 + 1, 10 ** 20 + 7,
                               3 ** 150, 10 ** 100, 10 ** 200])
@pytest.mark.parametrize("j", [-1, 0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_icbrt_exact(k, j, sign):
    # floor(cbrt(k^3 + j)) is k - 1 for j = -1 and k otherwise (k >= 1)
    assert _icbrt(sign * (k ** 3 + j)) == sign * (k - 1 if j < 0 else k)


# --- disc(f) and prime selection without sympy, with sympy as the oracle ----


def _monic_quartic(draw_c):
    return st.one_of(
        st.lists(draw_c, min_size=4, max_size=4).map(lambda c: c + [1]),
        # (x - a)^2 (x^2 + b x + c): a repeated root
        st.tuples(draw_c, draw_c, draw_c).map(
            lambda t: [t[0] ** 2 * t[2], t[0] ** 2 * t[1] - 2 * t[0] * t[2],
                       t[0] ** 2 - 2 * t[0] * t[1] + t[2], t[1] - 2 * t[0], 1]))


@settings(max_examples=300, deadline=None)
@given(_monic_quartic(st.integers(-10 ** 4, 10 ** 4)))
def test_disc_f_matches_sympy_discriminant(f):
    disc = sympy.Poly(f[::-1], sympy.Symbol("x")).discriminant()
    if disc == 0:
        with pytest.raises(NotSquarefree):
            PicardCurve(f)
    else:
        assert PicardCurve(f).disc_f == disc


@settings(max_examples=100, deadline=None)
@given(_monic_quartic(st.integers(-50, 50)), st.integers(-3, 60))
def test_good_prime_is_the_least_admissible_prime(f, min_prime):
    assume(sympy.Poly(f[::-1], sympy.Symbol("x")).discriminant() != 0)
    curve = PicardCurve(f)
    p = sympy.nextprime(max(min_prime, 5) - 1)
    while curve.disc_f % p == 0:
        p = sympy.nextprime(p)
    assert good_prime(curve, min_prime) == p
