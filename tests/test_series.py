"""Tests for series normalization, truncation bounds, and root isolation."""

import random

import pytest

from picardcc.padic import PadicContext
from picardcc.series import (
    PadicSeries,
    antiderivative,
    hensel_system_of_roots,
    normalize,
    ser_cuberoot,
    ser_inv,
    ser_mul,
    solve_zeros_in_disk,
    truncation_bound,
)
from picardcc.errors import DoubleRoot, PrecisionExhausted


def test_antiderivative_constant():
    ctx = PadicContext(5, 6)
    f = antiderivative(PadicSeries(ctx, []), 7)
    assert f.coeff(0).is_congruent(ctx.from_int(7))
    assert f.delta == 0


def test_antiderivative_linear():
    ctx = PadicContext(5, 6)
    f = antiderivative(PadicSeries(ctx, [1, 2]), 0)
    assert f.coeff(1).is_congruent(ctx.one())
    assert f.coeff(2).is_congruent(ctx.one())


def test_antiderivative_records_loss():
    ctx = PadicContext(5, 6)
    f = antiderivative(PadicSeries(ctx, [0, 0, 0, 0, 1]), 0)  # t^4 -> t^5/5
    assert f.coeff(5).valuation() == -1
    assert f.delta >= 1


def test_antiderivative_roundtrip():
    ctx = PadicContext(7, 6)
    f = PadicSeries(ctx, [3, 1, 4, 1, 5])
    df = PadicSeries(ctx, [f.coeff(i) * i for i in range(1, 5)], 3)
    g = antiderivative(df, f.coeff(0))
    for i in range(5):
        assert g.coeff(i).is_congruent(f.coeff(i), 5)


def test_truncation_bound_examples():
    assert truncation_bound(10, 0, PadicContext(5, 10)) == 12
    assert truncation_bound(1, 0, PadicContext(11, 4)) == 2


def test_truncation_bound_lambda_shift():
    ctx = PadicContext(7, 8)
    for N in (2, 5, 9):
        for lam in (0, 1, 3):
            assert truncation_bound(N, lam, ctx) == truncation_bound(N + lam, 0, ctx)


def test_normalize_monomial():
    ctx = PadicContext(5, 4)
    norm = normalize(PadicSeries(ctx, [0, 1]), 4)  # f = t
    assert norm.lam == 1
    assert norm.coeffs[1] == 1 and norm.coeffs[0] == 0


def test_normalize_shifted():
    ctx = PadicContext(5, 4)
    norm = normalize(PadicSeries(ctx, [5, 1]), 4)  # f = 5 + t
    assert norm.lam == 1
    assert norm.coeffs[0] == 1  # constant becomes 1


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
    recs, Np, lam, F = solve_zeros_in_disk(PadicSeries(ctx, [1]), 0, ctx)
    assert len(recs) == 1 and recs[0].residue == 0


def test_solve_zeros_unit_constant():
    ctx = PadicContext(5, 6)
    recs, *_ = solve_zeros_in_disk(PadicSeries(ctx, [1]), 3, ctx)
    assert recs == []


def test_solve_zeros_one_simple():
    ctx = PadicContext(7, 6)
    # f' = 1 + t + t^2, c = 7u: Newton polygon gives one root in pZ_p
    recs, Np, lam, F = solve_zeros_in_disk(PadicSeries(ctx, [1, 1, 1]), 14, ctx)
    assert len(recs) == 1
    r = recs[0].residue
    # verify: t = p*r is a zero of c + t + t^2/2 + t^3/3 mod p^(Np - lam)
    t = 7 * r
    mod = 7 ** Np
    inv2, inv3 = pow(2, -1, mod), pow(3, -1, mod)
    val = (14 + t + t * t % mod * inv2 + pow(t, 3, mod) * inv3) % mod
    assert val % 7 ** (Np - lam - 1) == 0


def test_solve_zeros_double_root():
    ctx = PadicContext(5, 4)
    # f = c + t^2/... constructed to force a double root: f' = 2t, c = 0 -> f = t^2
    with pytest.raises(DoubleRoot):
        solve_zeros_in_disk(PadicSeries(ctx, [0, 2]), 0, ctx)


def test_solve_zeros_oracle_random():
    rng = random.Random(3)
    for _ in range(200):
        p, N = 5, 3
        ctx = PadicContext(p, N)
        deg = rng.randint(0, 7)
        fp = [rng.randrange(-20, 20) for _ in range(deg + 1)]
        c = rng.choice([0, p, 2 * p, 1, 3, p * p]) * rng.choice([1, -1])
        try:
            recs, Np, lam, F = solve_zeros_in_disk(PadicSeries(ctx, fp), c, ctx)
        except (DoubleRoot, PrecisionExhausted):
            continue
        if F is None:
            continue
        # oracle: roots of F over Z/p^Np by exhaustion
        expect = brute_roots(F, p, Np)
        got = expand_records(recs, p, Np)
        assert got == expect


def test_ser_engine_inverse():
    mod = 5 ** 8
    a = [1, 3, 2, 7, 1, 4]
    z = ser_inv(a, mod, 9)
    prod = ser_mul(a, z, mod, 9)
    assert prod[0] == 1 and all(c == 0 for c in prod[1:])


def test_ser_engine_cuberoot():
    mod = 7 ** 8
    a = [8, 7, 3, 2, 0, 1]
    r = ser_cuberoot(a, mod, 9, 2)
    cube = ser_mul(ser_mul(r, r, mod, 9), r, mod, 9)
    expect = (a + [0] * 10)[:10]
    assert cube == expect
