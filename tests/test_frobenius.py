"""Tests for the Frobenius action on cohomology and the zeta certificates."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from picardcc.curve import (
    GOOD,
    PicardCurve,
    classify_disks,
    points_over_Fp,
)
from picardcc.frobenius import (
    BASIS,
    DECAY,
    NEED_MARGIN,
    REGULAR,
    FrobeniusData,
    _bezout_unit,
    _binomial_cutoff,
    _entry_add,
    _f_adic_digits,
    _fpow_table,
    _numerator,
    _Reducer,
    _strip,
    _times_x,
    frobenius_matrix,
    working_precision,
    zeta_consistency_check,
)
from picardcc.padic import (PadicContext, RamifiedElement, _pval, disc_adj, poly_deriv,
                            poly_eval_mod, taylor_shift)
from picardcc.series import ser_add, ser_inverse_root, ser_mul, ser_spread, ser_trim

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
    disks = classify_disks(c, ctx)
    good = [d for d in disks if d.kind == GOOD][0]
    center = good.center
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
        for m, (sig, poly) in fd.exact_parts[i].items():
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
    # the six survey pool curves (bench/survey_pool.jsonl), none with a finite
    # bad disk, as a matrix stated to W = N + 16 digits gave them at N = 10
    ((-5, -2, -5, 1, 1), 7): [1, -1, 6, -11, 42, -49, 343],
    ((-1, -6, -6, -6, 1), 5): [1, 0, 1, 0, 5, 0, 125],
    ((1, 1, 2, -3, 1), 5): [1, 0, 7, 0, 35, 0, 125],
    ((4, -4, -1, 2, 1), 5): [1, 0, 7, 0, 35, 0, 125],
    ((2, -4, 4, -2, 1), 7): [1, -1, -3, 34, -21, -49, 343],
    ((-5, 5, -5, -6, 1), 7): [1, -1, 6, -11, 42, -49, 343],
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


@pytest.mark.parametrize("coeffs,p", list(KNOWN_CHARPOLY)[2:])
def test_charpoly_pool_curves(coeffs, p):
    # the matrix at W = N + 9 with its guard digits dropped gives the same
    # integers
    z = zeta_consistency_check(frobenius_matrix(PicardCurve(coeffs), p, 10))
    assert z.char_poly == KNOWN_CHARPOLY[(coeffs, p)]
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


def _reducer(curve, p, W):
    """A _Reducer on the level-0 table of f mod p^W."""
    mod = p ** W
    return _Reducer(curve, p, W, _fpow_table([c % mod for c in curve.f], 1, mod, 4))


def _agree_mod(e1, e2, p, n):
    """The (sigma, ints) values p^-sigma ints agree modulo p^n."""
    (s1, c1), (s2, c2) = e1, e2
    s = max(s1, s2)
    size = max(len(c1), len(c2))
    c1 = list(c1) + [0] * (size - len(c1))
    c2 = list(c2) + [0] * (size - len(c2))
    return all((a * p ** (s - s1) - b * p ** (s - s2)) % p ** (n + s) == 0
               for a, b in zip(c1, c2))


def _digit_terms(terms, f, mod):
    """The raw terms {t: g} in digit form: g = sum_j r_j f^j with deg r_j < 4
    is sum_j r_j dx/y^(t - 3j) since f = y^3; the digit that reaches t <= 2
    keeps the rest of g whole."""
    out = {}
    for t, g in terms.items():
        level = ((max(len(g), 1) - 1) // 8).bit_length()
        r = _f_adic_digits(g, level, _fpow_table(f, level + 1, mod, 4 * 2 ** level), mod)
        cut = max((t - 1) // 3, 0)  # the digit at pole order t - 3 cut <= 2
        rest = []
        for d in reversed(r[cut:]):
            rest = ser_add(ser_mul(rest, f, mod), d, mod)
        for j, d in enumerate(r[:cut] + [ser_trim(rest)]):
            out[t - 3 * j] = ser_add(out.get(t - 3 * j, []), d, mod)
    return out


def _check_linear(curve, p, W, terms, N):
    """The sweep of all raw terms in digit form equals the sum of the sweeps
    of each term's digits alone, and the polynomial sweep of the raw terms,
    to N digits."""
    red, mod = _reducer(curve, p, W), p ** W
    whole, whole_exact, _ = red.reduce(_digit_terms(terms, red.f, mod))
    total, total_exact = (0, [0] * 6), {}
    for t, g in terms.items():
        one, one_exact, _ = red.reduce(_digit_terms({t: g}, red.f, mod))
        total = _entry_add(total, one, p, mod)
        for m, entry in one_exact.items():
            total_exact[m] = _entry_add(total_exact.get(m, (0, [])), entry,
                                        p, mod)
    ref, ref_exact = _ReferenceReducer(curve, p, W).reduce(terms)
    assert _agree_mod(whole, total, p, N)
    assert _agree_mod(whole, ref, p, N)
    assert set(whole_exact) == set(total_exact)
    for m in set(whole_exact) | set(ref_exact):
        entry = whole_exact.get(m, (0, []))
        assert _agree_mod(entry, total_exact.get(m, (0, [])), p, N), m
        assert _agree_mod(entry, ref_exact.get(m, (0, [])), p, N), m


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 10), (EX4, 11, 8)])
def test_sweep_is_linear_in_terms(coeffs, p, N):
    c = PicardCurve(coeffs)
    fd = frobenius_matrix(c, p, N)
    mod = p ** fd.N_work
    powers = _a_powers(fd.A_poly, _binomial_cutoff(p, fd.N_work), mod)
    a, b = BASIS[-1]
    terms = {t: [0] * (p * a) + g
             for t, g in _pullback_terms(p, b, powers, mod).items()}
    assert len(terms) > 1
    _check_linear(c, p, fd.N_work, terms, N)


def test_sweep_rescales_terms_joining_at_positive_sigma():
    # the pole step at t = p + 3 divides by 3 - t = -p, so the digits at
    # t = p join a numerator stored at sigma = 1
    p = 5
    terms = {p + 3: [1, 2, 3, 4, 5, 6, 7], p: [1, 1, 1]}
    _check_linear(PicardCurve(EX1), p, 12, terms, 8)


def test_trace_to_every_stated_digit_p7():
    # p + 1 - tr(M) = #X(F_p) to every digit M states: with no finite bad
    # disk the guard digits that the sweep loses are dropped
    c = PicardCurve([-5, 5, -5, -6, 1])
    p, N = 7, 10
    fd = frobenius_matrix(c, p, N)
    tr = fd.ctx.zero()
    for i in range(6):
        tr = tr + fd.M[i][i]
    d = fd.ctx.from_int(p + 1 - len(points_over_Fp(c, p))) - tr
    assert d.is_zero and d.abs_prec == fd.N_work == N + NEED_MARGIN + DECAY


def _stated_value(x, p):
    """The rational number that the entry x of M states."""
    return Fraction(0) if x.is_zero else Fraction(x.unit) * Fraction(p) ** x.v


@st.composite
def _infinite_only_curves(draw):
    """(f, p, N): a monic quartic f with no root mod p, p good for it."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17]))
    f = [draw(st.integers(-30, 30)) for _ in range(4)] + [1]
    assume(all(poly_eval_mod(f, x, p) for x in range(p)))
    assume(disc_adj(f)[0] % p != 0)
    return f, p, draw(st.integers(1, 15))


@settings(max_examples=40, deadline=None)
@given(_infinite_only_curves())
def test_stated_digits_match_more_internal_digits(case):
    # with no finite bad disk every digit that M and each exact-part level
    # state agrees with a matrix computed with 10 more internal digits, and
    # the sweep's loss stays within the guard digits (frobenius_matrix raises
    # PrecisionExhausted otherwise)
    import picardcc.frobenius as frob
    f, p, N = case
    fd = frobenius_matrix(PicardCurve(f), p, N)
    W, guard = working_precision(p, N, False)
    assert fd.N_work == W
    with pytest.MonkeyPatch.context() as mp:  # the reference keeps every digit
        mp.setattr(frob, "working_precision", lambda p, N, finite: (W + guard + 10, 0))
        ref = frobenius_matrix(PicardCurve(f), p, N)
    for row, ref_row in zip(fd.M, ref.M):
        for x, y in zip(row, ref_row):
            d = _stated_value(x, p) - _stated_value(y, p)
            assert d == 0 or _pval(d.numerator, p) - _pval(d.denominator, p) >= x.abs_prec
    for part, ref_part in zip(fd.exact_parts, ref.exact_parts):
        for m in set(part) | set(ref_part):
            sig = (part.get(m) or ref_part[m])[0]
            assert _agree_mod(part.get(m, (sig, [])), ref_part.get(m, (0, [])), p, W - sig), m


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
    digits = _f_adic_digits(h, level, _fpow_table(f, level + 1, mod, 4 * 2 ** level), mod)
    assert all(len(r) <= 4 for r in digits)
    acc = []
    for r in reversed(digits):
        acc = ser_add(ser_mul(acc, f, mod), r, mod)
    assert ser_trim(acc) == ser_trim(h)


# --- the polynomial pole step, kept as the reference for the sweep --------


def _poly_sub(a, b, mod):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % mod
            for i in range(n)]


def _poly_divmod_monic(a, f, mod):
    """Divide by the monic polynomial f: a = q*f + r, deg r < deg f."""
    a = list(a)
    d = len(f) - 1
    q = [0] * max(len(a) - d, 0)
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % mod
        if c:
            q[i - d] = c
            for j, fj in enumerate(f[:d]):
                a[i - d + j] -= c * fj
    return q, ser_trim([c % mod for c in a[:d]])


class _ReferenceReducer:
    """The sweep with the polynomial pole step: a numerator g of any degree
    is split as g = u f + v f' by division with remainder by f, then
    g <- u - 3/(3 - t) v' and the exact level is 3/(3 - t) v.  The degree
    steps at t <= 2 are the same as the library's."""

    def __init__(self, curve, p, W):
        self.p = p
        self.mod = p ** W
        self.f = [c % self.mod for c in curve.f]
        self.df = [c % self.mod for c in poly_deriv(curve.f)]
        self.beta = [row[0] for row in _bezout_unit(curve, p, self.mod)]
        self.inv3 = pow(3, -1, self.mod)

    def _inv_tracked(self, n):
        v = _pval(n, self.p)
        return pow(n // self.p ** v, -1, self.mod), v

    def pole_step(self, sigma, g, t):
        """(sigma, g, exact level 3 - t) after the pole step at t > 2."""
        mod, p, f = self.mod, self.p, self.f
        q, gbar = _poly_divmod_monic(g, f, mod)
        v = _poly_divmod_monic(ser_mul(gbar, self.beta, mod), f, mod)[1]
        u = ser_add(q, _poly_divmod_monic(
            _poly_sub(gbar, ser_mul(v, self.df, mod), mod), f, mod)[0], mod)
        dv = poly_deriv(v)
        inv, extra = self._inv_tracked(3 - t)
        sigma += extra
        if extra:
            u = [c * p ** extra % mod for c in u]
        coef = 3 * inv % mod
        g = _poly_sub(u, [c * coef % mod for c in dv], mod)
        level = _strip(sigma, [c * coef % mod for c in v], p)
        sigma, g = _strip(sigma, g, p)
        return sigma, g, level

    def reduce(self, terms):
        """((sigma, coeffs[6]), exact) for sum_t g_t dx/y^t, as
        `_Reducer.reduce` returns them."""
        mod, p = self.mod, self.p
        sigma, g, exact = 0, [], {}
        t = max(terms)
        while True:
            if t in terms:
                g = ser_add(g, [c * p ** sigma for c in terms[t]], mod)
            if t <= 2:
                break
            sigma, g, exact[3 - t] = self.pole_step(sigma, g, t)
            t -= 3
        while len(g) > 3:
            d = len(g) - 1
            m = d - 3
            inv, extra = self._inv_tracked(3 * m + 12 - 4 * t)
            lead = g[-1]
            sigma += extra
            if extra:
                g = [c * p ** extra % mod for c in g]
            c = lead * 3 % mod * inv % mod
            sub = [0] * (d + 1)
            for j, fc in enumerate(self.f):
                if m >= 1:
                    sub[m - 1 + j] = (sub[m - 1 + j] + c * m % mod * fc) % mod
            coef2 = c * (3 - t) % mod * self.inv3 % mod
            for j, fc in enumerate(self.df):
                sub[m + j] = (sub[m + j] + coef2 * fc) % mod
            g = _poly_sub(g, sub, mod)
            exact[3 - t] = _entry_add(exact.get(3 - t, (0, [])),
                                      (sigma, [0] * m + [c]), p, mod)
            sigma, g = _strip(sigma, g, p)
        coeffs = [0] * 6
        for d, c in enumerate(g):
            coeffs[((0, 1, 3) if t == 2 else (2, 4, 5))[d]] = c % mod
        return (sigma, coeffs), exact


# --- the Horner numerator, kept as the reference for the product tree -----


def _a_powers(A, K, mod):
    """[A^0, ..., A^K] mod p^W, every power the Horner numerator reads."""
    powers = [[1]]
    for _ in range(K):
        powers.append(ser_mul(powers[-1], A, mod))
    return powers


def _binomial_coefficients(p, b, K, mod):
    """[c_0..c_K] with c_k = p^(k+1) C((b-3)/3, k) mod p^W."""
    alpha = Fraction(b - 3, 3)
    binom = Fraction(1)  # C(alpha, k)
    out = []
    for k in range(K + 1):
        if k > 0:
            binom = binom * (alpha - (k - 1)) / k
        ck = Fraction(p) ** (k + 1) * binom  # p-integral, unit denominator
        out.append(ck.numerator * pow(ck.denominator, -1, mod) % mod)
    return out


def _pullback_terms(p, b, powers, mod, coeffs=None):
    """phi^*(y^b dx/f) as a dict t -> g: term k is c_k x^(p-1) A^k dx/y^t
    with t = 3p(k+1) - pb, for the powers A^k given; c_k = p^(k+1)
    C((b-3)/3, k) unless coeffs gives them; terms that vanish mod p^W are
    left out."""
    if coeffs is None:
        coeffs = _binomial_coefficients(p, b, len(powers) - 1, mod)
    shift = [0] * (p - 1)
    return {3 * p * (k + 1) - p * b: shift + [ck * c % mod for c in Ak]
            for k, (ck, Ak) in enumerate(zip(coeffs, powers)) if ck % mod}


def _horner_numerator(p, terms, F, mod):
    """(H, t_max) with sum_t g_t dx/y^t = H dx/y^t_max: H is
    sum_t g_t F^((t_max - t)/3p), F = f^p, by Horner in F over increasing t."""
    t_max = max(terms)
    H = []
    for t in range(min(terms), t_max + 1, 3 * p):
        H = ser_add(ser_mul(H, F, mod), terms.get(t, []), mod)
    return H, t_max


def _internal_precision(f, p, N):
    """The digits frobenius_matrix computes with: W and the guard digits
    it drops, by whether f has a root mod p (a finite bad disk)."""
    return sum(working_precision(p, N, any(poly_eval_mod(f, x, p) == 0 for x in range(p))))


def _lift_polys(f, p, W):
    """(A, f^p mod p^(W+1)) with pA = f(x^p) - f^p, A mod p^W."""
    mod1 = p ** (W + 1)
    fp = [1]
    for _ in range(p):
        fp = ser_mul(fp, [c % mod1 for c in f], mod1)
    diff = ser_add(ser_spread([c % mod1 for c in f], p), [-c for c in fp], mod1)
    assert all(c % p == 0 for c in diff)
    return ser_trim([c // p % p ** W for c in diff]), fp


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17]), st.integers(1, 15),
       st.sampled_from(["binomial", "interior", "top", "interior+top", "random"]),
       st.randoms(use_true_random=False))
def test_tree_numerator_matches_horner(p, N, shape, rng):
    # the product tree's H and t_max equal the Horner in f^p bit for bit, for
    # b = 1 and 2 on one pair of power caches, with the binomial c_k and with
    # lists that have zero interior or top entries
    f = [rng.randrange(-50, 51) for _ in range(4)] + [1]
    W = _internal_precision(f, p, N)
    mod = p ** W
    A, fp = _lift_polys(f, p, W)
    K = _binomial_cutoff(p, W)
    powers = _a_powers(A, K, mod)
    powA, powF = {1: A}, {1: [c % mod for c in fp]}
    for b in (1, 2):
        c = _binomial_coefficients(p, b, K, mod)
        if shape == "random":
            c = [rng.randrange(mod) for _ in c]
        if "interior" in shape:
            for k in rng.sample(range(1, K), rng.randrange(1, K)):
                c[k] = 0
        if "top" in shape:  # zero the last n entries, so K' < K
            n = rng.randrange(1, K + 1)
            c[K + 1 - n:] = [0] * n
        assume(any(c))
        H, t_max = _numerator(p, b, list(c), powA, powF, mod)
        ref_H, ref_t = _horner_numerator(p, _pullback_terms(p, b, powers, mod, c),
                                         fp, mod)
        assert t_max == ref_t
        assert ser_trim(H) == ser_trim(ref_H)


@pytest.mark.parametrize("coeffs,p,N", [(EX4, 11, 8), (EX1, 5, 15),
                                        ([-5, 5, -5, -6, 1], 7, 10),
                                        ([-1, -6, -6, -6, 1], 5, 10),
                                        ([-40, 0, 0, 0, 1], 13, 15)])
def test_matrix_numerators_match_horner(monkeypatch, coeffs, p, N):
    # frobenius_matrix passes the binomial c_k, and its H and t_max for
    # b = 1, 2 are the Horner numerator's, bit for bit
    import picardcc.frobenius as frob
    seen = []

    def spy(p_, b, c, A, F, mod):
        seen.append((b, c, _numerator(p_, b, c, A, F, mod)))
        return seen[-1][2]

    monkeypatch.setattr(frob, "_numerator", spy)
    fd = frobenius_matrix(PicardCurve(coeffs), p, N)
    W = _internal_precision(coeffs, p, N)
    mod = p ** W
    A, fp = _lift_polys(coeffs, p, W)
    assert ser_trim([c % p ** fd.N_work for c in A]) == fd.A_poly
    powers = _a_powers(A, _binomial_cutoff(p, W), mod)
    assert [b for b, _, _ in seen] == [1, 2]
    for b, c, (H, t_max) in seen:
        assert c == _binomial_coefficients(p, b, len(powers) - 1, mod)
        ref_H, ref_t = _horner_numerator(p, _pullback_terms(p, b, powers, mod), fp, mod)
        assert (ser_trim(H), t_max) == (ser_trim(ref_H), ref_t)


def _reference_frobenius(fd):
    """Exact parts and FrobeniusData at fd's precision from the raw pullback
    of each form, one sweep of polynomial pole steps over its binomial terms
    (no f-adic expansion)."""
    curve, p, W = fd.curve, fd.p, fd.N_work
    mod, ctx = p ** W, PadicContext(p, W)
    powers = _a_powers(fd.A_poly, _binomial_cutoff(p, W), mod)
    red = _ReferenceReducer(curve, p, W)
    rows, parts = [], []
    for a, b in BASIS:
        row, exact = red.reduce({t: [0] * (p * a) + g for t, g in
                                 _pullback_terms(p, b, powers, mod).items()})
        rows.append(row)
        parts.append(exact)
    sigma_max = max(max(s for s, _ in rows),
                    max(e[0] for ex in parts for e in ex.values()))
    M = [[RamifiedElement(ctx, 1, -s, [c], W - s) for c in coeffs]
         for s, coeffs in rows]
    return parts, FrobeniusData(curve, p, W, ctx, M,
                                parts, sigma_max,
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
        levels = fd.exact_parts[i]
        for m in set(levels) | set(parts[i]):
            assert _agree_mod(levels.get(m, (0, [])), parts[i].get(m, (0, [])),
                              p, N), (i, m)
    assert zeta_consistency_check(fd).char_poly == \
        zeta_consistency_check(ref).char_poly


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 15), (EX4, 11, 8)])
def test_sweep_numerators_stay_short(monkeypatch, coeffs, p, N):
    # every term at t > 2 is an f-adic digit and every pole step acts on a
    # numerator of degree < 4, for the forms with a > 0 too
    terms, steps = [], []
    reduce, pole_step = _Reducer.reduce, _Reducer._pole_step

    def spy(self, ts):
        terms.extend(len(g) for t, g in ts.items() if t > 2)
        return reduce(self, ts)

    def step_spy(self, sigma, g, t):
        steps.append(len(g))
        return pole_step(self, sigma, g, t)

    monkeypatch.setattr(_Reducer, "reduce", spy)
    monkeypatch.setattr(_Reducer, "_pole_step", step_spy)
    frobenius_matrix(PicardCurve(coeffs), p, N)
    assert len(terms) > 6 and max(terms) <= 4
    assert len(steps) >= len(terms) and max(steps) <= 4


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17]), st.integers(1, 30),
       st.integers(0, 4), st.integers(1, 60), st.integers(1, 2),
       st.integers(0, 4), st.randoms(use_true_random=False))
def test_pole_step_matches_polynomial_step(p, W, sigma, k, j, n, rng):
    # the 4x4 step equals the polynomial step bit for bit: numerator, sigma
    # and exact level, at t = 3 + k p^j where p | 3 - t
    f = [rng.randrange(-50, 51) for _ in range(4)] + [1]
    assume(disc_adj(f)[0] % p != 0)
    curve, mod, t = PicardCurve(f), p ** W, 3 + k * p ** j
    g = [rng.randrange(mod) * p ** rng.choice([0, 0, 1, 2]) % mod
         for _ in range(n)]
    assert (_reducer(curve, p, W)._pole_step(sigma, g, t)
            == _ReferenceReducer(curve, p, W).pole_step(sigma, g, t))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17]), st.integers(1, 30),
       st.integers(1, 12), st.integers(0, 40), st.integers(0, 8),
       st.randoms(use_true_random=False))
def test_carried_digits_reassemble(p, W, J, n, last, rng):
    # the digits of x^n H from those of H reassemble x^n H mod p^W
    mod = p ** W
    f = [rng.randrange(-50, 51) for _ in range(4)] + [1]
    r = [[rng.randrange(mod) for _ in range(rng.randrange(5))]
         for _ in range(J - 1)] + [[rng.randrange(mod) for _ in range(last)]]

    def assemble(digits):
        acc = []
        for d in reversed(digits):
            acc = ser_add(ser_mul(acc, [c % mod for c in f], mod), d, mod)
        return ser_trim(acc)

    out = _times_x(r, n, f, mod)
    assert len(out) == J and all(len(d) <= 4 for d in out[:-1])
    assert assemble(out) == ser_trim(ser_mul([0] * n + [1], assemble(r), mod))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=4, max_size=4),
       st.sampled_from([5, 7, 11, 13, 17, 101]), st.integers(1, 40))
def test_bezout_unit_matches_gcdex(c, p, W):
    # V = (x^k f'^-1 mod f)_k from the adjugate, against sympy's extended gcd
    f = c + [1]
    x = sympy.Symbol("x")
    fpoly = sympy.Poly(f[::-1], x)
    assume(fpoly.discriminant() % p != 0)
    _, beta, h = fpoly.gcdex(fpoly.diff())
    assert h.degree() == 0
    mod = p ** W
    V = _bezout_unit(PicardCurve(f), p, mod)
    for k in range(4):  # column k is x^k beta mod f
        col = (sympy.Poly(x ** k, x) * beta).rem(fpoly)
        want = [int(q.p) * pow(int(q.q), -1, mod) % mod for q in col.all_coeffs()[::-1]]
        assert [row[k] for row in V] == want + [0] * (4 - len(want))
