"""Tests for the zero solver of a residue disk, its truncation bound, root
isolation and the integer series engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picardcc.errors import PicardCCError, PrecisionExhausted
from picardcc.padic import PadicContext, poly_eval_mod
from picardcc.series import (
    hensel_system_of_roots,
    ser_inverse_root,
    ser_mul,
    solve_zeros_in_disk,
    truncation_bound,
)


def _solve(ctx, fprime, c, prec=None, N=None):
    """Zeros of c + the antiderivative of sum(fprime[i] t^i), read as the
    row (i + 1, fprime[i], i + 1) the integrator builds, known by default
    to 2N digits so that the powers it lacks are zero to that precision."""
    terms = [(i + 1, a, i + 1) for i, a in enumerate(fprime) if a]
    prec = 2 * ctx.N if prec is None else prec
    return solve_zeros_in_disk(terms, prec, ctx.element(c), ctx.N if N is None else N)


def test_solve_constant_only():
    ctx = PadicContext(5, 6)
    recs, Np, lam, F = _solve(ctx, [], 7)
    assert (recs, Np, lam, F) == ([], 6, 0, [7])


def test_solve_linear_derivative():
    ctx = PadicContext(5, 6)
    # f = t + t^2: F(x) = f(5x)/5 = x + 5x^2, whose one root in Z_5 is 0
    recs, Np, lam, F = _solve(ctx, [1, 2], 0)
    assert (Np, lam, F) == (6, 1, [0, 1, 5])
    assert [r.residue for r in recs] == [0]


def test_solve_charges_integration_loss():
    ctx = PadicContext(5, 6)
    # f = t^5/5: delta = v_5(5) = 1 and F(x) = f(5x)/5^4 = x^5
    recs, Np, lam, F = _solve(ctx, [0, 0, 0, 0, 1], 0)
    assert (Np, lam, F) == (5, 4, [0, 0, 0, 0, 0, 1])


def test_solve_recovers_polynomial():
    p, N = 7, 6
    ctx = PadicContext(p, N)
    f = [3, 1, 4, 1, 5]
    recs, Np, lam, F = _solve(ctx, [f[i] * i for i in range(1, 5)], f[0])
    assert (Np, lam) == (N, 0)
    assert F == [c * p ** i % p ** N for i, c in enumerate(f) if c * p ** i % p ** N]


def test_truncation_bound_examples():
    assert truncation_bound(10, 0, PadicContext(5, 10)) == 12
    assert truncation_bound(1, 0, PadicContext(11, 4)) == 2


def test_truncation_bound_lambda_shift():
    ctx = PadicContext(7, 8)
    for N in (2, 5, 9):
        for lam in (0, 1, 3):
            assert truncation_bound(N, lam, ctx) == truncation_bound(N + lam, 0, ctx)


def test_solve_monomial():
    ctx = PadicContext(5, 4)
    _, _, lam, F = _solve(ctx, [1], 0)  # f = t
    assert (lam, F) == (1, [0, 1])


def test_solve_shifted():
    ctx = PadicContext(5, 4)
    _, _, lam, F = _solve(ctx, [1], 5)  # f = 5 + t: the constant becomes 1
    assert (lam, F) == (1, [1, 1])


def test_hensel_system_traced_examples():
    # x^2 - 1 mod 5^3: roots {1, 124}
    recs = hensel_system_of_roots([-1, 0, 1], 5, 3)
    got = sorted((r.residue, r.known_digits) for r in recs)
    assert got == [(1, 3), (124, 3)]
    assert all(r.certified_simple for r in recs)

    # x^2 - 5 mod 5^3: no roots
    assert hensel_system_of_roots([-5, 0, 1], 5, 3) == []

    # x^2 mod 5^3: every x = 0 mod 25 is a root; not simple
    recs = hensel_system_of_roots([0, 0, 1], 5, 3)
    assert [(r.residue, r.known_digits) for r in recs] == [(0, 2)]
    assert not recs[0].certified_simple


def brute_roots(F, p, N):
    pN = p ** N
    return sorted(x for x in range(pN)
                  if sum(c * pow(x, i, pN) for i, c in enumerate(F)) % pN == 0)


def expand_records(recs, p, N):
    out = set()
    for r in recs:
        step = p ** r.known_digits
        out.update(range(r.residue, p ** N, step))
    return sorted(out)


def test_hensel_system_oracle_random():
    rng = random.Random(7)
    for p in (5, 7):
        for N in (2, 3, 4):
            for _ in range(60):
                deg = rng.randint(1, 6)
                F = [rng.randrange(p ** N) for _ in range(deg + 1)]
                if all(c % p == 0 for c in F):
                    continue
                recs = hensel_system_of_roots(F, p, N)
                assert expand_records(recs, p, N) == brute_roots(F, p, N)


def test_hensel_system_properties():
    rng = random.Random(11)
    for _ in range(50):
        p, N = 5, 3
        F = [rng.randrange(p ** N) for _ in range(rng.randint(2, 7))]
        if all(c % p == 0 for c in F):
            continue
        pN = p ** N
        for rec in hensel_system_of_roots(F, p, N):
            r, k = rec.residue, rec.known_digits
            assert r < p ** k
            # (2): F(r + p^k s) identically zero mod p^N
            for s in range(p ** (N - k) + 1):
                val = sum(c * pow(r + p ** k * s, i, pN) for i, c in enumerate(F)) % pN
                assert val == 0
            # (3): minimality of k
            if k > 1:
                rp = r % p ** (k - 1)
                hit = False
                for s in range(pN):
                    val = sum(c * pow(rp + p ** (k - 1) * s, i, pN)
                              for i, c in enumerate(F)) % pN
                    if val != 0:
                        hit = True
                        break
                assert hit


def test_refine_root():
    recs = hensel_system_of_roots([-1, 0, 1], 5, 3)
    for rec in recs:
        # records are roots mod p^N already: the pipeline uses them as is
        r = rec.residue
        assert (r * r - 1) % 125 == 0


def test_solve_zeros_basepoint():
    ctx = PadicContext(5, 6)
    recs, Np, lam, F = _solve(ctx, [1], 0)
    assert len(recs) == 1 and recs[0].residue == 0


def test_solve_zeros_unit_constant():
    ctx = PadicContext(5, 6)
    recs, *_ = _solve(ctx, [1], 3)
    assert recs == []


def test_solve_zeros_one_simple():
    ctx = PadicContext(7, 6)
    # f' = 1 + t + t^2, c = 7u: Newton polygon gives one root in pZ_p
    recs, Np, lam, F = _solve(ctx, [1, 1, 1], 14)
    assert len(recs) == 1
    r = recs[0].residue
    # verify: t = p*r is a zero of c + t + t^2/2 + t^3/3 mod p^(Np - lam)
    t = 7 * r
    mod = 7 ** Np
    inv2, inv3 = pow(2, -1, mod), pow(3, -1, mod)
    val = (14 + t + t * t % mod * inv2 + pow(t, 3, mod) * inv3) % mod
    assert val % 7 ** (Np - lam - 1) == 0


def test_solve_zeros_double_root_not_certified():
    ctx = PadicContext(5, 4)
    # f' = 2t, c = 0 -> f = t^2: a double root, reported but not certified
    recs, Np, lam, F = _solve(ctx, [0, 2], 0)
    assert [(r.residue, r.certified_simple) for r in recs] == [(0, False)]


def test_solve_negative_valuation_constant_has_no_zeros():
    ctx = PadicContext(5, 6)
    # N' is still charged for the loss of t^5/5
    assert _solve(ctx, [0, 0, 0, 0, 1], Fraction(1, 5)) == ([], 5, None, None)


def test_solve_integration_loss_exhausts_precision():
    ctx = PadicContext(5, 1)
    with pytest.raises(PrecisionExhausted, match=r"^N' = 0 after integration loss 1$"):
        _solve(ctx, [0, 0, 0, 0, 1], 1)


def test_solve_zero_series_exhausts_precision():
    ctx = PadicContext(5, 4)
    # a term that is zero modulo p^prec counts as zero
    with pytest.raises(PrecisionExhausted,
                       match=r"^series is zero to precision: roots undetermined$"):
        _solve(ctx, [5 ** 3], 0, prec=3)


def test_solve_missing_power_is_zero_only_to_prec():
    ctx = PadicContext(5, 3)
    # the row stops before t^1, which is therefore only O(p^1): not enough
    # for three digits of F(x) = 1 + O(5^2) x
    with pytest.raises(PrecisionExhausted,
                       match=r"^coefficient 1 known only to O\(p\^1\)$"):
        solve_zeros_in_disk([], 1, ctx.one(), 3)


def test_solve_inexact_zero_constant_exhausts_precision():
    ctx = PadicContext(5, 4)
    with pytest.raises(PrecisionExhausted,
                       match=r"^coefficient 0 known only to O\(p\^1\)$"):
        solve_zeros_in_disk([(1, 1, 1)], 4, ctx.zero(1), 4)


def test_solve_few_digits_exhaust_precision():
    ctx = PadicContext(5, 5)
    # c = 1 known mod 5^2 gives the t coefficient two digits; F needs four
    with pytest.raises(PrecisionExhausted, match=r"^coefficient 1 has too few digits$"):
        solve_zeros_in_disk([(1, 1, 1)], 2, ctx.one(), 5)


def test_solve_digits_past_N_do_not_reach_F():
    ctx = PadicContext(5, 10)
    # F is known mod p^N' with N' <= N = 4: the 5^6 of the constant is gone
    *_, F = solve_zeros_in_disk([(1, 1, 1)], 10, ctx.from_int(1 + 5 ** 6), 4)
    assert F == [1, 5]


def test_solve_pole_term():
    ctx = PadicContext(5, 4)
    with pytest.raises(PicardCCError, match="pole"):
        solve_zeros_in_disk([(-1, 3, -1), (1, 1, 1)], 4, ctx.zero(), 4)
    # a pole term that is zero to precision is dropped
    _, _, lam, F = solve_zeros_in_disk([(-1, 5 ** 4, -1), (1, 1, 1)], 4, ctx.zero(), 4)
    assert (lam, F) == (1, [0, 1])


def test_solve_zeros_oracle_random():
    rng = random.Random(3)
    for _ in range(200):
        p, N = 5, 3
        ctx = PadicContext(p, N)
        deg = rng.randint(0, 7)
        fp = [rng.randrange(-20, 20) % p ** N for _ in range(deg + 1)]
        c = rng.choice([0, p, 2 * p, 1, 3, p * p]) * rng.choice([1, -1])
        try:
            recs, Np, lam, F = _solve(ctx, fp, c)
        except PrecisionExhausted:
            continue
        if F is None:
            continue
        # oracle: roots of F over Z/p^Np by exhaustion
        expect = brute_roots(F, p, Np)
        got = expand_records(recs, p, Np)
        assert got == expect
        assert all(poly_eval_mod(F, r.residue, p ** Np) == 0 for r in recs)


def test_ser_engine_inverse():
    mod = 5 ** 8
    a = [1, 3, 2, 7, 1, 4]
    z = ser_inverse_root(a, 1, 1, mod, 9)
    prod = ser_mul(a, z, mod, 9)
    assert prod[0] == 1 and all(c == 0 for c in prod[1:])


def test_ser_engine_cuberoot():
    # the cube root of a is a r^2 for r = a^(-1/3), seeded by 2^-1 as 8 = 2^3
    mod = 7 ** 8
    a = [8, 7, 3, 2, 0, 1]
    r = ser_inverse_root(a, 3, pow(2, -1, mod), mod, 9)
    root = ser_mul(ser_mul(a, r, mod, 9), r, mod, 9)
    cube = ser_mul(ser_mul(root, root, mod, 9), root, mod, 9)
    expect = (a + [0] * 10)[:10]
    assert cube == expect


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 3]), p=st.sampled_from([5, 7, 11, 13]),
       W=st.integers(1, 30), T=st.integers(0, 64), data=st.data())
def test_ser_inverse_root(k, p, W, T, data):
    # a with a unit constant term; for k = 3, a[0] = r0^-3 for a unit r0
    mod = p ** W
    unit = st.integers(1, mod - 1).filter(lambda c: c % p)
    a = data.draw(st.lists(st.integers(0, mod - 1), min_size=1, max_size=T + 3))
    if k == 1:
        a[0] = data.draw(unit)
        r0 = pow(a[0], -1, mod)
    else:
        r0 = data.draw(unit)
        a[0] = pow(r0, -3, mod)
    r = ser_inverse_root(a, k, r0, mod, T)
    assert len(r) == T + 1
    ark = a
    for _ in range(k):
        ark = ser_mul(ark, r, mod, T)
    assert ark + [0] * (T + 1 - len(ark)) == [1] + [0] * T
