"""Tests for the Frobenius action on cohomology and the zeta certificates."""

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from picardcc.curve import (
    GOOD,
    PicardCurve,
    classify_disks,
    lift_point,
    points_over_Fp,
)
from picardcc.frobenius import (
    BASIS,
    REGULAR,
    ExactPart,
    FrobeniusData,
    _bezout_unit,
    _binomial_cutoff,
    _entry_add,
    _f_adic_digits,
    _fpow_table,
    _pullback_terms,
    _Reducer,
    frobenius_matrix,
    zeta_consistency_check,
)
from picardcc.padic import PadicContext, RamifiedElement, taylor_shift
from picardcc.series import ser_add, ser_inverse_root, ser_mul, ser_trim

EX1 = [-64, -48, 0, 6, 1]
EX3 = [-2, 0, 0, 0, 1]
EX4 = [2, 5, 6, 2, 1]


def test_basis_differentials():
    # omega = x^a y^b dx/f; omega_1..omega_3 are the regular forms
    # dx/y^2, x dx/y^2 and dx/y
    assert len(BASIS) == 6 and len(set(BASIS)) == 6
    assert [BASIS[i] for i in REGULAR] == [(0, 1), (1, 1), (0, 2)]
    assert BASIS[3:] == [(2, 1), (1, 2), (2, 2)]


def test_lift_series_defining_relation():
    # pA = f(x^p) - f(x)^p and u = pA/f^p = 0 mod p
    c = PicardCurve(EX1)
    p = 5
    fd = frobenius_matrix(c, p, 6)
    A, W = fd.A_poly, fd.N_work
    mod = p ** W
    fx = [q % mod for q in c.f]
    fxp = [0] * (4 * p + 1)
    for i, q in enumerate(fx):
        fxp[i * p] = q
    fp = [1]
    for _ in range(p):
        fp = ser_mul(fp, fx, mod)
    for i in range(4 * p + 1):
        lhs = p * (A[i] if i < len(A) else 0) % mod
        assert lhs == (fxp[i] - fp[i]) % mod


def _poly_of_series(poly, xs, mod, T):
    acc = [0]
    for c in reversed(poly):
        acc = ser_mul(acc, xs, mod, T)
        if not acc:
            acc = [0]
        acc[0] = (acc[0] + c) % mod
    return acc


def check_identity(coeffs, p, N, L=36):
    """phi^* omega_i = d f_i + sum_j M_ij omega_j as t-series at a good disk."""
    c = PicardCurve(coeffs)
    fd = frobenius_matrix(c, p, N)
    W = fd.N_work
    S = max([fd.sigma_max] +
            [-int(e.valuation()) for row in fd.M for e in row
             if not e.is_zero and e.valuation() < 0])
    mod = p ** (W + S)
    ctx = PadicContext(p, W + S)
    disks = classify_disks(c, p, ctx)
    good = [d for d in disks if d.kind == GOOD][0]
    x0, y0 = good.reduction
    center = [P for P in lift_point(c, x0, ctx) if P.y.residue(1) == y0][0]
    # x = x0 + t, y = F r^2 and 1/y = r for r = F^(-1/3), F = f(x0 + t)
    x0 = center.x.residue(W + S)
    xs = [x0, 1] + [0] * (L - 1)
    dx = [(i + 1) * xc % mod for i, xc in enumerate(xs[1:], 0)]
    F = taylor_shift(c.f, x0, mod)
    yinv = ser_inverse_root(F, 3, pow(center.y.residue(W + S), -1, mod), mod, L)
    ys = ser_mul(F, ser_mul(yinv, yinv, mod, L), mod, L)
    Finv = ser_inverse_root(F, 1, pow(F[0], -1, mod), mod, L)

    Fp = [1]
    base, n = F, p
    while n:
        if n & 1:
            Fp = ser_mul(Fp, base, mod, L)
        n >>= 1
        if n:
            base = ser_mul(base, base, mod, L)
    Fpinv = ser_inverse_root(Fp, 1, pow(Fp[0], -1, mod), mod, L)
    Aser = _poly_of_series([q % mod for q in fd.A_poly], xs, mod, L)
    one_u = ser_mul([p], ser_mul(Aser, Fpinv, mod, L), mod, L)
    one_u = (one_u + [0])[:L + 1]
    one_u[0] = (one_u[0] + 1) % mod
    winv = ser_inverse_root(one_u, 3, 1, mod, L)  # (1 + u)^(-1/3)
    pw = {1: ser_mul(winv, winv, mod, L), 2: winv}

    cache = {}

    def y_m(m):
        if m not in cache:
            r = [1]
            src = ys if m >= 0 else yinv
            for _ in range(abs(m)):
                r = ser_mul(r, src, mod, L)
            cache[m] = r
        return cache[m]

    def x_a(a):
        r = [1]
        for _ in range(a):
            r = ser_mul(r, xs, mod, L)
        return r

    for i, (a, b) in enumerate(BASIS):
        lhs = ser_mul(x_a(p * a + p - 1), y_m(p * b), mod, L)
        lhs = ser_mul(lhs, pw[b], mod, L)
        lhs = ser_mul(lhs, Fpinv, mod, L)
        lhs = ser_mul(lhs, dx, mod, L)
        lhs = [p ** (S + 1) * q % mod for q in lhs]

        fi = [0] * (L + 1)
        for m, (sig, poly) in fd.exact_parts[i].levels.items():
            term = ser_mul(_poly_of_series([q % mod for q in poly], xs, mod, L),
                           y_m(m), mod, L)
            sc = p ** (S - sig)
            for ii, q in enumerate(term[:L + 1]):
                fi[ii] = (fi[ii] + sc * q) % mod
        rhs = [(ii + 1) * q % mod for ii, q in enumerate(fi[1:], 0)]
        rhs += [0] * (L + 1 - len(rhs))
        for jj, (aj, bj) in enumerate(BASIS):
            e = fd.M[i][jj]
            if e.is_zero:
                continue
            sc = e.unit * pow(p, S + e.v, mod) % mod
            om = ser_mul(ser_mul(x_a(aj), y_m(bj), mod, L), Finv, mod, L)
            om = ser_mul(om, dx, mod, L)
            for ii, q in enumerate(om[:L + 1]):
                rhs[ii] = (rhs[ii] + sc * q) % mod

        for ii in range(L - 2):
            assert (lhs[ii] - rhs[ii]) % p ** (S + N) == 0, (i, ii)


def test_identity_ex1_p5():
    check_identity(EX1, 5, 8)


def test_identity_ex3_p7():
    check_identity(EX3, 7, 6, L=30)


# char polys frozen from independent point counts over F_p, F_p^2, F_p^3
# (Newton's identities on s_k = p^k + 1 - #X(F_p^k) plus the functional
# equation), leading coefficient first
KNOWN_CHARPOLY = {
    (tuple(EX1), 5): [1, 0, 3, 0, 15, 0, 125],
    (tuple(EX3), 13): [1, 11, 66, 271, 858, 1859, 2197],
}


def test_charpoly_oracle_ex1_p5():
    fd = frobenius_matrix(PicardCurve(EX1), 5, 10)
    z = zeta_consistency_check(fd)
    assert z.char_poly == KNOWN_CHARPOLY[(tuple(EX1), 5)]
    assert z.all_ok


def test_charpoly_oracle_ex3_p13():
    fd = frobenius_matrix(PicardCurve(EX3), 13, 10)
    z = zeta_consistency_check(fd)
    assert z.char_poly == KNOWN_CHARPOLY[(tuple(EX3), 13)]
    assert z.all_ok


def test_zeta_certificates_ex4_p11():
    fd = frobenius_matrix(PicardCurve(EX4), 11, 8)
    z = zeta_consistency_check(fd)
    assert z.all_ok
    assert z.char_poly[0] == 1 and z.char_poly[-1] == 11 ** 3
    assert z.point_count == len(points_over_Fp(PicardCurve(EX4), 11))


def test_trace_zero_for_p_2_mod_3():
    # cubing is a bijection: #X(F_p) = p + 1, so tr(M) = 0
    fd = frobenius_matrix(PicardCurve(EX1), 5, 8)
    z = zeta_consistency_check(fd)
    assert z.trace == 0 and z.trace_ok


def _agree_mod(e1, e2, p, n):
    """The (sigma, ints) values p^-sigma ints agree modulo p^n."""
    (s1, c1), (s2, c2) = e1, e2
    s = max(s1, s2)
    size = max(len(c1), len(c2))
    c1 = list(c1) + [0] * (size - len(c1))
    c2 = list(c2) + [0] * (size - len(c2))
    return all((a * p ** (s - s1) - b * p ** (s - s2)) % p ** (n + s) == 0
               for a, b in zip(c1, c2))


def _check_linear(red, terms, N):
    """One sweep over all terms equals the sum of the sweeps over each term
    alone, to N digits."""
    p, mod = red.p, red.mod
    whole, whole_exact = red.reduce(terms)
    total, total_exact = (0, [0] * 6), {}
    for t, g in terms.items():
        one, one_exact = red.reduce({t: g})
        total = _entry_add(total, one, p, mod)
        for m, entry in one_exact.items():
            total_exact[m] = _entry_add(total_exact.get(m, (0, [])), entry,
                                        p, mod)
    assert _agree_mod(whole, total, p, N)
    assert set(whole_exact) == set(total_exact)
    for m in whole_exact:
        assert _agree_mod(whole_exact[m], total_exact[m], p, N), m


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 10), (EX4, 11, 8)])
def test_sweep_is_linear_in_terms(coeffs, p, N):
    c = PicardCurve(coeffs)
    fd = frobenius_matrix(c, p, N)
    mod = p ** fd.N_work
    powers = [[1]]
    for _ in range(_binomial_cutoff(p, fd.N_work)):
        powers.append(ser_mul(powers[-1], fd.A_poly, mod))
    a, b = BASIS[-1]
    terms = _pullback_terms(p, a, b, powers, mod)
    assert len(terms) > 1
    _check_linear(_Reducer(c, p, fd.N_work), terms, N)


def test_sweep_rescales_terms_joining_at_positive_sigma():
    # the pole step at t = p + 3 divides by 3 - t = -p, so the term at t = p
    # joins a numerator stored at sigma = 1
    p = 5
    terms = {p + 3: [1, 2, 3, 4, 5, 6, 7], p: [1, 1, 1]}
    _check_linear(_Reducer(PicardCurve(EX1), p, 12), terms, 8)


def test_trace_to_N_digits_p7():
    # p + 1 - tr(M) = #X(F_p) to the N digits the pipeline relies on (the
    # guard digits above N are not all right on this curve)
    c = PicardCurve([-5, 5, -5, -6, 1])
    p, N = 7, 10
    fd = frobenius_matrix(c, p, N)
    tr = fd.ctx.zero()
    for i in range(6):
        tr = tr + fd.M[i][i]
    d = fd.ctx.from_int(p + 1 - len(points_over_Fp(c, p))) - tr
    assert d.residue(N) == 0


# lengths of h: empty, under one digit, and one off a power-of-two block
DIGIT_LENGTHS = st.sampled_from(
    [0, 1, 2, 3] + [4 * 2 ** i + d for i in range(8) for d in (-1, 1)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17]), st.integers(1, 30), DIGIT_LENGTHS,
       st.randoms(use_true_random=False))
def test_f_adic_digits_reassemble(p, W, n, rng):
    mod = p ** W
    f = [rng.randrange(mod) for _ in range(4)] + [1]
    h = [rng.randrange(mod) for _ in range(n)]
    level = ((max(n, 1) - 1) // 8).bit_length()  # n <= 8 * 2^level
    digits = _f_adic_digits(h, level, _fpow_table(f, level + 1, mod), mod)
    assert all(len(r) <= 4 for r in digits)
    acc = []
    for r in reversed(digits):
        acc = ser_add(ser_mul(acc, f, mod), r, mod)
    assert ser_trim(acc) == ser_trim(h)


def _reference_frobenius(fd):
    """Exact parts and FrobeniusData at fd's precision from the raw pullback
    of each form, one sweep over its binomial terms (no f-adic expansion)."""
    curve, p, W = fd.curve, fd.p, fd.N_work
    mod, ctx = p ** W, PadicContext(p, W)
    powers = [[1]]
    for _ in range(_binomial_cutoff(p, W)):
        powers.append(ser_mul(powers[-1], fd.A_poly, mod))
    red = _Reducer(curve, p, W)
    rows, parts = [], []
    for a, b in BASIS:
        row, exact = red.reduce(_pullback_terms(p, a, b, powers, mod))
        rows.append(row)
        parts.append(exact)
    sigma_max = max(max(s for s, _ in rows),
                    max(e[0] for ex in parts for e in ex.values()))
    M = [[RamifiedElement(ctx, 1, -s, [c], W - s) for c in coeffs]
         for s, coeffs in rows]
    return parts, FrobeniusData(curve, p, W, ctx, M,
                                [ExactPart(ex) for ex in parts], sigma_max,
                                fd.A_poly)


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 15), (EX4, 11, 8),
                                        ([-5, 5, -5, -6, 1], 7, 10)])
def test_digit_sweep_matches_raw_pullback(coeffs, p, N):
    c = PicardCurve(coeffs)
    fd = frobenius_matrix(c, p, N)
    parts, ref = _reference_frobenius(fd)
    for i in range(6):
        for j in range(6):
            d = fd.M[i][j] - ref.M[i][j]
            assert d.valuation() >= N and d.abs_prec >= N, (i, j)
        levels = fd.exact_parts[i].levels
        for m in set(levels) | set(parts[i]):
            assert _agree_mod(levels.get(m, (0, [])), parts[i].get(m, (0, [])),
                              p, N), (i, m)
    assert zeta_consistency_check(fd).char_poly == \
        zeta_consistency_check(ref).char_poly


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 15), (EX4, 11, 8)])
def test_sweep_numerators_stay_short(monkeypatch, coeffs, p, N):
    # the sweep sees x^(pa) times an f-adic digit, never the whole pullback
    lengths = []
    reduce = _Reducer.reduce

    def spy(self, terms):
        lengths.extend(len(g) for g in terms.values())
        return reduce(self, terms)

    monkeypatch.setattr(_Reducer, "reduce", spy)
    frobenius_matrix(PicardCurve(coeffs), p, N)
    assert len(lengths) > 6 and max(lengths) <= 2 * p + 4


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=4, max_size=4),
       st.sampled_from([5, 7, 11, 13, 17, 101]), st.integers(1, 40))
def test_bezout_unit_matches_gcdex(c, p, W):
    # beta = f'^-1 mod f from the adjugate, against sympy's extended gcd
    f = c + [1]
    x = sympy.Symbol("x")
    fpoly = sympy.Poly(f[::-1], x)
    assume(fpoly.discriminant() % p != 0)
    _, beta, h = fpoly.gcdex(fpoly.diff())
    assert h.degree() == 0
    mod = p ** W
    want = [int(q.p) * pow(int(q.q), -1, mod) % mod for q in beta.all_coeffs()[::-1]]
    assert _bezout_unit(PicardCurve(f), p, mod) == want + [0] * (4 - len(want))
