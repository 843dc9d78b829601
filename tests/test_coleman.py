"""Tests for Coleman integration: tiny integrals, the Frobenius system,
boundary points, divisor integrals, and number-field point realization."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from picardcc import coleman, frobenius, series
from picardcc.coleman import (
    ColemanIntegrator,
    NumberFieldPointSpec,
    realize_nf_points,
)
from picardcc.chabauty import run_pipeline
from picardcc.curve import CurvePoint, PicardCurve, branch_point
from picardcc.errors import (
    BadYRule,
    ComputationFailure,
    IncreaseE,
    NotSplit,
    PoleInDisk,
    PrecisionExhausted,
)
from picardcc.frobenius import BASIS, REGULAR, frobenius_matrix
from picardcc.padic import (
    INF,
    PadicContext,
    RamifiedElement,
    _fold_mul,
    cube_roots,
    disc_adj,
    poly_at,
    poly_deriv,
    taylor_shift,
)
from picardcc.series import ser_mul

EX1 = [-64, -48, 0, 6, 1]
EX2 = [-24, 76, -78, 25, 1]
EX4 = [2, 5, 6, 2, 1]
X40 = [-40, 0, 0, 0, 1]
POOL1_5 = [-5, 5, -5, -6, 1]


@pytest.fixture(scope="module")
def ex1_p5():
    fd = frobenius_matrix(PicardCurve(EX1), 5, 10)
    return ColemanIntegrator(fd, N=10, e=40)


@pytest.fixture(scope="module")
def x40_p13():
    fd = frobenius_matrix(PicardCurve(X40), 13, 10)
    return ColemanIntegrator(fd, N=10, e=40)


def unit(i):
    v = [0] * 6
    v[i] = 1
    return v


def dot(omega, integrals):
    """int omega from the integrals of the basis forms."""
    return sum(v * c for c, v in zip(omega, integrals))


def _lifts(curve, x, ctx):
    """All points of X(Q_p) with x-coordinate x."""
    x = ctx.element(x)
    return [CurvePoint(x, y) for y in cube_roots(curve.f_eval(x))]


def _tiny_integral(eng, P, Q, omega):
    """int_P^Q omega for P and Q in one residue disk."""
    disk = eng.disk_of(P)
    assert eng.disk_of(Q) is disk
    return eng._tiny(disk, eng._param(disk, P), eng._param(disk, Q), [omega])[0]


def _point_endpoint(eng, R):
    """h(R) = f_i(R) - int_R^phi(R) omega_i with the Q_p point R of a good
    disk as its own endpoint of the linear system; the tiny integral runs
    from t(R) to t(phi(R)) = x(R)^p - x(center)."""
    disk = eng.disk_of(R)
    tiny = eng._tiny(disk, eng._param(disk, R), R.x ** eng.p - disk.center.x,
                     [unit(i) for i in range(6)])
    return [f - v for f, v in zip(eng._exact_at_unramified(R.x, R.y), tiny)]


def _solve_system(eng, c):
    """(I - M)^-1 c."""
    return [sum((x * y for x, y in zip(c[1:], row[1:])), c[0] * row[0])
            for row in eng.system_inverse]


def _system_integrals(eng, P, Q):
    """The six basis integrals from P to Q by the Frobenius system, with the
    good-disk Q_p points P and Q as their own endpoints."""
    return _solve_system(eng, [q - r for q, r in zip(_point_endpoint(eng, Q),
                                                     _point_endpoint(eng, P))])


# --- realize_nf_points ----------------------------------------------------


def test_realize_linear():
    ctx = PadicContext(11, 8)
    pts = realize_nf_points(PicardCurve(EX2), NumberFieldPointSpec([-2, 1]), ctx)
    assert len(pts) == 1
    assert pts[0].x.residue(8) == 2
    assert pts[0].y.residue(1) == 10  # unique cube root of 32


def test_realize_ex2_quadratic():
    ctx = PadicContext(11, 8)
    pts = realize_nf_points(PicardCurve(EX2), NumberFieldPointSpec([4, -6, 1]), ctx)
    assert len(pts) == 2
    for P in pts:
        x = P.x
        assert ((x * x - 6 * x + 4).is_zero or
                (x * x - 6 * x + 4).valuation() >= 8)
        assert (P.y ** 3).is_congruent(PicardCurve(EX2).f_eval(x))


def test_realize_ex4_quadratic():
    ctx = PadicContext(11, 8)
    pts = realize_nf_points(PicardCurve(EX4), NumberFieldPointSpec([-1, 1, 1]), ctx)
    assert len(pts) == 2


def test_realize_not_split():
    ctx = PadicContext(5, 6)
    # x^2 + x - 1 has discriminant 5: double root mod 5
    with pytest.raises(NotSplit):
        realize_nf_points(PicardCurve(EX4), NumberFieldPointSpec([-1, 1, 1]), ctx)


def test_realize_bad_y_rule():
    ctx = PadicContext(11, 8)
    with pytest.raises(BadYRule):
        realize_nf_points(PicardCurve(EX2),
                          NumberFieldPointSpec([-2, 1], y_rule=[1]), ctx)


# --- tiny integrals -------------------------------------------------------


def test_tiny_same_endpoint_zero(ex1_p5):
    eng = ex1_p5
    P = _lifts(eng.curve, 0, eng.ctx)[0]
    v = _tiny_integral(eng, P, P, unit(1))
    assert v.is_zero


def test_tiny_linearity(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = _lifts(eng.curve, 0, ctx)[0]
    Q = _lifts(eng.curve, 5, ctx)[0]
    a, b = 3, 7
    om = [a, b, 0, 0, 0, 0]
    lhs = _tiny_integral(eng, P, Q, om)
    rhs = _tiny_integral(eng, P, Q, unit(0)) * a + _tiny_integral(eng, P, Q, unit(1)) * b
    assert (lhs - rhs).valuation() >= eng.N


def test_tiny_additivity_same_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = _lifts(eng.curve, 0, ctx)[0]
    Q = _lifts(eng.curve, 5, ctx)[0]
    R = _lifts(eng.curve, 10, ctx)[0]
    for i in (0, 2, 4):
        d = (_tiny_integral(eng, P, R, unit(i))
             - _tiny_integral(eng, P, Q, unit(i)) - _tiny_integral(eng, Q, R, unit(i)))
        assert d.is_zero or d.valuation() >= eng.N


def test_pole_in_disk_at_infinity(ex1_p5):
    eng = ex1_p5
    disk, pi = eng.infinite_disk, RamifiedElement.pi(eng.ctx, eng.e, 1)
    # omega_6 = x^2 y^2 dx/f has a pole of order 6 at infinity
    with pytest.raises(PoleInDisk):
        eng._tiny(disk, None, pi, [unit(5)])
    # the regular ones integrate fine from the center to the boundary point
    # (the value lives at the boundary, so a bounded negative valuation is
    # expected)
    [v] = eng._tiny(disk, None, pi, [unit(0)])
    assert v.valuation() > -2


def test_infinite_disk_no_residues(ex1_p5):
    # all six basis differentials have zero residue at infinity: their rows
    # raise no PoleInDisk for a log term
    eng = ex1_p5
    for i in range(6):
        [(terms, _)] = eng.antiderivative_rows(eng.infinite_disk, [unit(i)])
        assert terms and all(j != 0 for j, _, _ in terms)


# --- the Frobenius-equivariant system ------------------------------------


def test_system_matches_tiny_in_shared_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = _lifts(eng.curve, 0, ctx)[0]
    Q = _lifts(eng.curve, 5, ctx)[0]
    v = _system_integrals(eng, P, Q)
    for i in range(6):
        t = _tiny_integral(eng, P, Q, unit(i))
        d = v[i] - t
        assert d.is_zero or d.valuation() >= eng.N, i


def test_fundamental_theorem_on_exact_form(ex1_p5):
    """3 d(y) = f'(x) y dx/f: reduce the x^3 part to the basis and check
    that the integral of the resulting combination telescopes to y."""
    from picardcc.frobenius import _Reducer, _fpow_table
    eng = ex1_p5
    ctx, p, W = eng.ctx, eng.p, eng.W
    mod = p ** W
    red = _Reducer(eng.curve, p, W, _fpow_table([c % mod for c in eng.curve.f], 1, mod, 4))
    (sigma, coeffs), exact, _ = red.reduce({2: [0, 0, 0, 1]})  # x^3 dx/y^2
    assert sigma == 0
    fp = poly_deriv(eng.curve.f)  # degree 3, leading coefficient 4
    # omega = f'(x)/3 y dx/f with the x^3 term rewritten via the reduction
    om = [0] * 6
    for a, slot in ((0, 0), (1, 1), (2, 3)):
        om[slot] = Fraction(fp[a], 3)
    for j in range(6):
        om[j] += Fraction(4, 3) * coeffs[j]
    P = _lifts(eng.curve, 0, ctx)[0]
    Q = _lifts(eng.curve, 2, ctx)[0]

    def correction(S):
        acc = ctx.zero()
        for m, (sig, poly) in exact.items():
            pv = ctx.zero()
            for c in reversed(poly):
                pv = pv * S.x + c
            acc = acc + pv * S.y ** m * ctx.from_rational(Fraction(1, p ** sig))
        return acc * Fraction(4, 3)

    lhs = dot(om, _system_integrals(eng, P, Q))
    rhs = (Q.y - P.y) - (correction(Q) - correction(P))
    d = lhs - rhs
    assert d.is_zero or d.valuation() >= eng.N - 1


def test_antiderivatives_share_one_power_table(ex1_p5, monkeypatch):
    # phi(S) at a finite boundary point S has several nonzero pi-digits, so
    # the six forms share one table of t^1, ..., t^k, k = isqrt(6J), and each
    # is a Horner in t^k: k - 1 + 6 (J // k) <= 2 sqrt(6J) full products
    # (70 here, J = 212), where one product per power t^1..t^J made 212
    eng = ex1_p5
    disk = next(d for d in eng.disks if d.kind == "bad_finite")
    S = eng.boundary_point(disk)
    t = eng._phi_param(disk, S)
    assert sum(1 for c in t.a if c) > 1
    rows = eng.antiderivative_rows(disk, [unit(i) for i in range(6)])
    each = [eng._eval_terms([row], t)[0] for row in rows]
    used = [j for terms, prec in rows for j, _, _ in terms
            if j <= (eng.e * prec) // t.pi_valuation() + 4]
    assert min(used) >= 0
    calls = []
    mul = RamifiedElement.__mul__

    def spy(self, other):  # counts the full products, both factors ramified
        calls.append(self.e > 1 and getattr(other, "e", 1) > 1)
        return mul(self, other)

    monkeypatch.setattr(RamifiedElement, "__mul__", spy)
    got = eng._eval_terms(rows, t)
    assert sum(calls) <= 2 * math.sqrt(6 * max(used))
    for a, b in zip(got, each):
        assert (a.m, a.a, a.A) == (b.m, b.a, b.A)


def _termwise_eval_terms(ctx, rows, t):
    """The termwise evaluation at a ramified t that is not a monomial: one
    full product per power t^1..t^J, shared by the rows, then one scalar
    product and one sum per term."""
    e, v = t.e, t.pi_valuation()
    rows = [([tm for tm in terms if tm[0] <= (e * prec) // v + 4], prec)
            for terms, prec in rows]
    exps = {j for terms, _ in rows for j, _, _ in terms}
    powers = {0: ctx.one()}
    for j in range(1, max(exps, default=0) + 1):
        powers[j] = powers[j - 1] * t
    if min(exps, default=0) < 0:
        tinv = t.inverse()
        powers.update((j, tinv ** (-j)) for j in exps if j < 0)

    def scalar(c, d, prec):
        el = RamifiedElement(ctx, 1, 0, [c], prec)
        return el if d == 1 else el * ctx.from_int(d).inverse()

    return [sum((powers[j] * scalar(c, d, prec) for j, c, d in terms), ctx.zero())
            for terms, prec in rows]


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([5, 7, 11, 13]), e=st.integers(2, 60), W=st.integers(2, 12),
       v=st.integers(1, 15), unit=st.lists(st.integers(0, 10 ** 30), min_size=60, max_size=60),
       data=st.data())
def test_eval_terms_matches_termwise_sum(p, e, W, v, unit, data):
    # t = pi^v times a unit with several nonzero pi-digits, stated to its full
    # relative precision like phi(S); the rows run from t^-6 up past the
    # precision cut, with divisors that p divides
    ctx = PadicContext(p, W)
    t = RamifiedElement(ctx, e, 0, [unit[0] * p + 1] + unit[1:e], INF).shift_pi(v)
    assume(t.monomial() is None)
    J = min(150, e * W // v + 6)
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        prec = data.draw(st.integers(1, W))
        lo, hi = data.draw(st.integers(-6, J)), data.draw(st.integers(-6, J))
        terms = []
        for j in range(min(lo, hi), max(lo, hi) + 1):
            c = data.draw(st.integers(0, ctx.pk(W) - 1))
            d = data.draw(st.sampled_from([1, j or 1, p, -p, 2 * p * p, p ** 3 + p]))
            if c and j:  # no row holds t^0: a t^-1 dt term raises PoleInDisk
                terms.append((j, c, d))
        rows.append((terms, prec))
    stand_in = SimpleNamespace(ctx=ctx, p=p)
    got = ColemanIntegrator._eval_terms(stand_in, rows, t)
    want = _termwise_eval_terms(ctx, rows, t)
    assert [(g.e, g.m, g.a, g.A, g.w) for g in got] == [(w.e, w.m, w.a, w.A, w.w) for w in want]


# --- boundary points and bad-disk routing ---------------------------------


def test_boundary_point_on_curve(ex1_p5):
    eng = ex1_p5
    for disk in eng.disks:
        if disk.kind == "good":
            continue
        S = eng.boundary_point(disk)
        res = (S.y ** 3 - eng.curve.f_eval(S.x))
        v = res.valuation()
        assert v == INF or v * eng.e >= eng.e * eng.N, disk


def test_ramification_classes_are_torsion(ex1_p5):
    # [R - inf] is 3-torsion for a ramification point R: regular integrals vanish
    eng = ex1_p5
    for disk in eng.disks:
        if disk.kind != "bad_finite":
            continue
        R = disk.center
        for i, v in enumerate(eng.integral(R)):
            assert v.e == 1
            assert v.is_zero or v.valuation() >= eng.N, (disk, i)


def test_principal_divisor_vanishes(x40_p13):
    # div(x - 4) - 3*inf is principal: f(4) = 216 has three 13-adic cube roots
    eng = x40_p13
    pts = _lifts(eng.curve, 4, eng.ctx)
    assert len(pts) == 3
    rows = [eng.integral(P) for P in pts]
    for i, vals in enumerate(zip(*rows)):
        assert any(not v.is_zero for v in vals)
        s = vals[0] + vals[1] + vals[2]
        assert s.is_zero or s.valuation() >= eng.N, i


def test_divisor_integral_principal(x40_p13):
    eng = x40_p13
    pts = _lifts(eng.curve, 4, eng.ctx)
    for v in eng.divisor_integral(pts):
        assert v.is_zero or v.valuation() >= eng.N


def test_abel_jacobi_map_at_infinity_and_on_divisors(ex1_p5):
    # integral is zero at its base point exactly, not to some precision, and
    # a divisor's integral is the sum of its points' integrals
    eng = ex1_p5
    for v in eng.integral(eng.infinite_disk.center):
        assert v.is_zero and v.abs_prec == INF
    pts = ([d.center for d in eng.disks if d.kind != "good"]
           + _lifts(eng.curve, 0, eng.ctx) + _lifts(eng.curve, 2, eng.ctx))
    rows = [eng.integral(P) for P in pts]
    assert any(not v.is_zero for row in rows for v in row)
    for got, col in zip(eng.divisor_integral(pts), zip(*rows)):
        want = sum(col[1:], col[0])
        assert (got - want).is_zero and got.abs_prec == want.abs_prec


def test_e_stability(ex1_p5):
    eng = ex1_p5
    eng80 = ColemanIntegrator(eng.fd, N=eng.N, e=80)
    P = _lifts(eng.curve, 0, eng.ctx)[0]
    for i, (a, b) in enumerate(zip(eng.integral(P), eng80.integral(P))):
        d = a - b
        assert d.is_zero or d.valuation() >= eng.N, i


def test_projected_result_is_padic(x40_p13):
    eng = x40_p13
    P = _lifts(eng.curve, 4, eng.ctx)[0]
    for v in eng.integral(P):
        assert v.e == 1
        assert int(v.abs_prec) >= eng.N


# --- caches, and the Frobenius system solved once over Q_p -----------------


def _good_point(eng, disk, x):
    """The Q_p point of `disk` with x-coordinate x."""
    return branch_point(eng.curve, eng.ctx.element(x), disk.reduction[1])


def test_good_disk_points_share_one_disk_data(ex1_p5):
    # tiny integrals, system endpoints and Chabauty rows of any number of
    # points of a good disk all read the one expansion around its center
    eng = ColemanIntegrator(ex1_p5.fd, N=ex1_p5.N, e=ex1_p5.e)
    disk = next(d for d in eng.disks if d.kind == "good")
    x0, p = disk.reduction[0], eng.p
    pts = [_good_point(eng, disk, x0 + k * p) for k in (0, 1, 2, 7, 25)]
    for P, Q in zip(pts, pts[1:]):
        _tiny_integral(eng, P, Q, unit(2))
        eng.integral(P)
        _system_integrals(eng, P, Q)
    eng.antiderivative_rows(disk, [unit(0)])
    # the one other disk read is the infinite one, around the base point
    assert sorted(eng._disk_data_cache, key=str) == sorted(
        [disk.reduction, eng.infinite_disk.reduction], key=str)


def test_system_factored_once_over_qp(monkeypatch):
    calls = []
    solve = frobenius._solve_linear

    def spy(rows, rhs):
        assert all(x.e == 1 for row in rows + rhs for x in row)
        calls.append(len(rows))
        return solve(rows, rhs)

    monkeypatch.setattr(frobenius, "_solve_linear", spy)
    fd = frobenius_matrix(PicardCurve(EX1), 5, 10)
    engines = [ColemanIntegrator(fd, N=10, e=e) for e in (10, 30)]
    assert calls == [6]
    assert engines[0].det_ord == engines[1].det_ord == fd.system[1] == 0
    eng = engines[0]
    disk = next(d for d in eng.disks if d.kind == "good")
    P = _good_point(eng, disk, disk.reduction[0])
    eng.integral(P)
    assert calls == [6]


def _ramified_gauss_jordan(eng, c):
    """(I - M) v = c solved directly over Q_p(pi), minimal-valuation pivots."""
    n = len(c)
    one = RamifiedElement.pi(eng.ctx, eng.e, 0)
    aug = [[one * ((1 if i == j else 0) - eng.fd.M[i][j])
            for j in range(n)] + [c[i]] for i in range(n)]
    for col in range(n):
        piv = min(range(col, n), key=lambda r: aug[r][col].pi_valuation())
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and not f.is_zero:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


@pytest.mark.parametrize("coeffs,p,N,e,other", [
    (EX1, 5, 10, 10, "good"),      # finite boundaries need e > 30 here
    (EX1, 5, 10, 40, "bad_finite"),
    (EX4, 11, 8, 40, "good"),      # no bad finite disk at 11
], ids=["ex1@5-e10", "ex1@5-e40", "ex4@11-e40"])
def test_basis_integrals_match_ramified_gauss_jordan(coeffs, p, N, e, other):
    eng = ColemanIntegrator(frobenius_matrix(PicardCurve(coeffs), p, N), N=N, e=e)
    disk = next(d for d in eng.disks if d.kind == other)
    c = [q - r for q, r in zip(eng._endpoint(disk), eng._endpoint(eng.infinite_disk))]
    c = [RamifiedElement.pi(eng.ctx, e, 0) * x for x in c]
    want = _ramified_gauss_jordan(eng, c)
    got = eng.basis_integrals(disk)
    for g, w in zip(got, want):
        assert g.e == e
        assert min(g.A, w.A) >= e * N
        assert (g - w).is_zero  # agreement to the smaller stated precision


def test_stated_digits_hold_at_higher_precision():
    # every digit an integral routed through Q_p(pi) states must agree with
    # the same integral computed at higher N and e
    curve = PicardCurve(EX1)
    p = 5
    vals = []
    for N, e in ((10, 40), (14, 50)):
        eng = ColemanIntegrator(frobenius_matrix(curve, p, N), N=N, e=e)
        P = [Q for Q in _lifts(curve, -3, eng.ctx) if Q.y.residue(1) == 4][0]
        vals.append(eng.integral(P))
    for a, b in zip(*vals):
        assert a.abs_prec >= 10
        k = min(a.abs_prec, b.abs_prec)
        lo = min(a.v, b.v, 0)
        diff = a.unit * p ** (a.v - lo) - b.unit * p ** (b.v - lo)
        assert diff % p ** int(k - lo) == 0, (a, b)


# --- exact parts at the boundary points of bad disks -----------------------


@lru_cache(maxsize=None)
def _frobenius(coeffs, p, N):
    return frobenius_matrix(PicardCurve(list(coeffs)), p, N)


def _reference_exact_at_infinity(eng, S):
    """Every level in full: poly(pi^-3) times u^m, u^m by steps of u^(+-1),
    shifted by pi^(-4m) p^-sigma and summed; with the (m, v) of each level."""
    e, uval = eng.e, S.y.shift_pi(4)
    uinv = uval.inverse()
    ms = [m for part in eng.fd.exact_parts for m in part]
    upow = {1: uval, -1: uinv}
    for k in range(2, max(ms) + 1):
        upow[k] = upow[k - 1] * uval
    for k in range(2, -min(ms) + 1):
        upow[-k] = upow[1 - k] * uinv
    mod = eng.ctx.pk(eng.W)
    out, diags = [], []
    for part in eng.fd.exact_parts:
        acc = eng.ctx.zero()
        for m, (sig, poly) in sorted(part.items()):
            # poly(pi^-3), each coefficient known modulo p^W
            at_x = RamifiedElement.from_terms(
                eng.ctx, e, [(-3 * j, c % mod, eng.W) for j, c in enumerate(poly) if c])
            term = (at_x * upow[m]).shift_pi(-4 * m - e * sig)
            if not term.is_zero:
                diags.append((m, term.pi_valuation()))
            acc = acc + term
        out.append(acc)
    return out, diags


def _reference_exact_at_finite(eng, S):
    """Every level in full: poly(x(pi)) from the x-power table as a
    RamifiedElement known to pi^(eW), shifted by pi^m p^-sigma (y = pi) and
    summed; with the (m, v) of each level."""
    ctx, p, e = eng.ctx, eng.p, eng.e
    mod = ctx.pk(eng.W)
    max_deg = max(len(poly) for part in eng.fd.exact_parts
                  for _, poly in part.values())
    xflat = [c * ctx.pk(S.x.m) % mod for c in S.x.a]
    xpows = [[1] + [0] * (e - 1)]
    for _ in range(max_deg - 1):
        xpows.append(_fold_mul(xpows[-1], xflat, e, p, mod))
    out, diags = [], []
    for part in eng.fd.exact_parts:
        acc = ctx.zero()
        for m, (sig, poly) in sorted(part.items()):
            buckets = [0] * e
            for j, c in enumerate(poly):
                for s in range(e):
                    buckets[s] = (buckets[s] + c * xpows[j][s]) % mod
            term = RamifiedElement(ctx, e, 0, buckets, e * eng.W).shift_pi(m - e * sig)
            if not term.is_zero:
                diags.append((m, term.pi_valuation()))
            acc = acc + term
        out.append(acc)
    return out, diags


@pytest.mark.parametrize("coeffs,p,N,e,kind", [
    (EX1, 5, 15, 10, "inf"), (EX1, 5, 15, 30, "inf"), (EX1, 5, 15, 50, "inf"),
    (EX4, 11, 8, 3, "inf"), (EX4, 11, 8, 40, "inf"),
    (POOL1_5, 7, 10, 7, "inf"), (POOL1_5, 7, 10, 40, "inf"),
    (EX1, 5, 15, 10, "finite"), (EX1, 5, 15, 30, "finite"), (EX1, 5, 15, 50, "finite"),
    (EX1, 5, 8, 40, "finite"),
    (EX1, 5, 15, 3, "finite"), (EX1, 5, 15, 6, "finite"), (EX1, 5, 15, 9, "finite"),
    pytest.param(X40, 13, 15, 40, "finite", marks=pytest.mark.slow),
    pytest.param(X40, 13, 15, 120, "finite", marks=pytest.mark.slow),
], ids=["ex1@5-e10", "ex1@5-e30", "ex1@5-e50", "ex4@11-e3", "ex4@11-e40",
        "pool1-5@7-e7", "pool1-5@7-e40",
        "ex1@5-e10-finite", "ex1@5-e30-finite", "ex1@5-e50-finite", "ex1@5-N8-e40-finite",
        "ex1@5-e3-finite", "ex1@5-e6-finite", "ex1@5-e9-finite",
        "x40@13-e40-finite", "x40@13-e120-finite"])
def test_exact_at_boundary_matches_level_by_level_sum(coeffs, p, N, e, kind, monkeypatch):
    eng = ColemanIntegrator(_frobenius(tuple(coeffs), p, N), N=N, e=e)
    if kind == "inf":
        disks, reference = [eng.infinite_disk], _reference_exact_at_infinity
    else:
        disks = [d for d in eng.disks if d.kind == "bad_finite"]
        reference = _reference_exact_at_finite
    assert disks
    seen, check = [], coleman._check_convergence

    def spy(diags, precs, *args):
        seen.append(Counter(diags))
        check(diags, precs, *args)

    monkeypatch.setattr(coleman, "_check_convergence", spy)
    for disk in disks:
        S = eng.boundary_point(disk)
        want, want_diags = reference(eng, S)
        try:
            check(want_diags, [a.A for a in want], e, N)
            want_exc = None
        except IncreaseE as exc:
            want_exc = str(exc)
        seen.clear()
        try:
            got = eng._exact_at_boundary(disk, S)
            got_exc = None
        except IncreaseE as exc:
            got_exc = str(exc)
        if kind == "finite" and e < 10:
            # ex1@5 at e = 3, 6 and 9: b_i0 X^i0, i0 the first b_i of least
            # v_p, may tie with an earlier b_j of higher v_p (e <= 3 i0), and
            # the plan refuses e before its convergence check; the full sum
            # refuses these e as well, so the refusal loses no e
            assert got_exc == f"terms of a level may tie at radius 1/{e}" and not seen
            assert want_exc.startswith(f"exact part blows up at radius 1/{e} ")
            continue
        assert seen == [Counter(want_diags)]
        assert got_exc == want_exc
        if want_exc is None:
            assert [(g.m, g.a, g.A) for g in got] == [(w.m, w.a, w.A) for w in want]


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 10), (EX4, 11, 8), (X40, 13, 10)],
                         ids=["ex1@5", "ex4@11", "x40@13"])
def test_exact_at_unramified_matches_level_by_level_sum(coeffs, p, N):
    # one power of y per level, summed mod p^k, as the Horner in y^-3 replaces
    eng = ColemanIntegrator(_frobenius(tuple(coeffs), p, N), N=N, e=40)
    ctx, W = eng.ctx, eng.W
    points = [P for x0 in range(p) if poly_at(coeffs, x0) % p
              for P in _lifts(eng.curve, x0, ctx)]
    assert points
    for P in points:
        k = min([W] + [int(a) for a in (P.x.abs_prec, P.y.abs_prec) if a != INF])
        mod = ctx.pk(k)
        xr, yr = P.x.residue(k), P.y.residue(k)
        want = []
        for part in eng.fd.exact_parts:
            smax = max(sig for sig, _ in part.values())
            acc = sum(poly_at(poly, xr) * pow(yr, m, mod) * p ** (smax - sig)
                      for m, (sig, poly) in part.items()) % mod
            want.append(repr(RamifiedElement(ctx, 1, -smax, [acc], k - smax)))
        assert [repr(v) for v in eng._exact_at_unramified(P.x, P.y)] == want


def _count_calls(monkeypatch, name):
    calls = []
    method = getattr(RamifiedElement, name)

    def counting(self, other):
        calls.append(1)
        return method(self, other)

    monkeypatch.setattr(RamifiedElement, name, counting)
    return calls


def test_exact_at_infinity_makes_few_ramified_products(monkeypatch):
    # the full level-by-level path makes 1,957 products here
    eng = ColemanIntegrator(_frobenius(tuple(EX4), 11, 8), N=8, e=40)
    disk = eng.infinite_disk
    S = eng.boundary_point(disk)
    calls = _count_calls(monkeypatch, "__mul__")
    eng._exact_at_boundary(disk, S)
    assert 0 < len(calls) <= 200


def test_plan_at_infinity_takes_u_known_to_W(monkeypatch):
    # the plan at infinity states each level's precision from u(pi) and
    # 1/u(pi) known to O(p^W); a boundary point whose u is known to less
    # fails the run with a typed failure instead of overstating the digits
    eng = ColemanIntegrator(_frobenius(tuple(EX4), 11, 8), N=8, e=14)
    disk = eng.infinite_disk
    S = eng.boundary_point(disk)
    u = S.y.shift_pi(4)
    assert u.abs_prec == u.inverse().abs_prec == eng.W
    eng._exact_at_boundary(disk, S)
    blurred = CurvePoint(S.x, S.y + eng.ctx.zero(eng.W - 1))
    with pytest.raises(PrecisionExhausted, match="^boundary point at infinity: u"):
        eng._exact_at_boundary(disk, blurred)
    boundary = ColemanIntegrator.boundary_point
    monkeypatch.setattr(ColemanIntegrator, "boundary_point", lambda self, d: (
        blurred if d.kind == "bad_infinite" else boundary(self, d)))
    rep = run_pipeline({"f": EX4, "divisors": [{"g": [-1, 1, 1]}], "p": 11}, {"N": 8})
    assert rep.status == "Failure"
    assert rep.failure_reason.startswith("precision-exhausted: boundary point at infinity: u")


def test_exact_at_finite_boundary_adds_no_ramified_elements(monkeypatch):
    # the level-by-level path adds one RamifiedElement per level
    eng = ColemanIntegrator(_frobenius(tuple(EX1), 5, 15), N=15, e=50)
    disk = next(d for d in eng.disks if d.kind == "bad_finite")
    S = eng.boundary_point(disk)
    calls = _count_calls(monkeypatch, "__add__")
    assert len(eng._exact_at_boundary(disk, S)) == 6
    assert not calls


def test_failed_attempt_makes_no_ramified_arithmetic(monkeypatch):
    # ex1@5 fails on a finite bad disk at e = 10 (blow-up) and at e = 3, 6
    # and 9 (terms that may tie); its plan refuses e before any integrator,
    # boundary point, product or Horner in X is made
    fd = _frobenius(tuple(EX1), 5, 15)
    assert fd.disks  # classified once per matrix, with Q_p products, for every e
    products, built, folds = _count_calls(monkeypatch, "__mul__"), [], []
    init, boundary = ColemanIntegrator.__init__, ColemanIntegrator.boundary_point
    fold = coleman._fold_mul
    monkeypatch.setattr(ColemanIntegrator, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(ColemanIntegrator, "boundary_point",
                        lambda self, d: built.append(d) or boundary(self, d))
    monkeypatch.setattr(coleman, "_fold_mul", lambda *a: folds.append(1) or fold(*a))
    refusals = {10: "exact part blows up at radius 1/10 (term of size p^13.2)"}
    refusals.update({e: f"terms of a level may tie at radius 1/{e}" for e in (3, 6, 9)})
    for e, reason in refusals.items():
        with pytest.raises(IncreaseE) as exc:
            coleman.plan_bad_disks(fd, 15, e)
        assert str(exc.value) == reason
    assert not products and not folds and not built


def test_choose_e_steps_where_the_plans_disagree_with_the_bounds(monkeypatch):
    # ex4@11 at N = 8: the bounds allow e >= 14, a decay bound at infinity
    # with no tie at e = 13 refuses 13, and the plans agree
    fd = _frobenius(tuple(EX4), 11, 8)
    plan, tried = coleman.plan_bad_disks, []
    assert coleman.choose_e(fd, 8, 200)[0] == 14
    with pytest.raises(IncreaseE, match="^the plans need e >= 14, above e_cap 13$"):
        coleman.choose_e(fd, 8, 13)

    def refusing(refused):
        def planned(fd, N, e):
            tried.append(e)
            if e in refused:
                raise IncreaseE("refused")
            return plan(fd, N, e)
        return planned

    # a plan refused where the bounds allow it (the decay check) moves e up
    monkeypatch.setattr(coleman, "plan_bad_disks", refusing({14, 15}))
    assert coleman.choose_e(fd, 8, 200)[0] == 16 and tried == [14, 15, 16]
    with pytest.raises(IncreaseE, match="^no e from 14 to 15 passes the plans$"):
        coleman.choose_e(fd, 8, 15)
    # the bounds are exact but where terms at infinity tie, so e is never
    # planned below them: the matrix made for N = 12 (W = 21) and planned for
    # N = 8 has precision to spare, and its decay bound still gives e = 14
    tried.clear()
    fd = _frobenius(tuple(EX4), 11, 12)
    monkeypatch.setattr(coleman, "plan_bad_disks", refusing(set()))
    assert coleman.choose_e(fd, 8, 200)[0] == 14 and tried == [14]


@st.composite
def _finite_disk_curves(draw):
    """(f, p, N): a monic quartic f with a root mod p, p good for it."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    f = [draw(st.integers(-30, 30)) for _ in range(4)] + [1]
    assume(any(poly_at(f, x) % p == 0 for x in range(p)))
    assume(disc_adj(f)[0] % p != 0)
    return f, p, draw(st.integers(1, 10))


@settings(max_examples=25, deadline=None)
@given(_finite_disk_curves())
def test_chosen_e_is_the_least_the_plans_accept(case):
    # the bounds of choose_e are exact on finite disks: the plans pass at
    # the chosen e and refuse e - 1, and no two terms of a finite level tie
    f, p, N = case
    fd = frobenius_matrix(PicardCurve(f), p, N)
    e, plans = coleman.choose_e(fd, N, 200)
    assert coleman.plan_bad_disks(fd, N, e) == plans
    with pytest.raises(IncreaseE):
        coleman.plan_bad_disks(fd, N, e - 1)
    finite = [d for d in fd.disks if d.kind == "bad_finite"]
    assert finite
    for disk in finite:
        for levels in fd.levels(disk.center.x.residue(fd.N_work)):
            assert all(e > 3 * i0 for _, _, _, _, i0 in levels)


def test_check_convergence_refuses_terms_that_do_not_decay():
    # eight levels: the two deepest (m <= 2) may not fall below the rest or
    # below 0; none falls below pi^(-DECAY e) and no precision is stated
    rest = [(m, -1) for m in range(3, 9)]
    coleman._check_convergence([(1, -1), (2, 0)] + rest, [INF], 10, 8)
    with pytest.raises(IncreaseE, match="^exact-part terms are not decaying at radius 1/10; "):
        coleman._check_convergence([(1, -2), (2, 0)] + rest, [INF], 10, 8)


def test_taylor_columns_made_once_per_run(monkeypatch):
    # choosing e and planning e = 10, 30 and 50 on one Frobenius matrix: each
    # (finite root, level) is shifted once, and only e = 50 passes
    fd = frobenius_matrix(PicardCurve(EX1), 5, 15)
    shifts, shift = [], frobenius.taylor_shift
    monkeypatch.setattr(frobenius, "taylor_shift",
                        lambda poly, a, mod: shifts.append((a, id(poly))) or shift(poly, a, mod))
    assert coleman.choose_e(fd, 15, 200)[0] == 39
    for e in (10, 30, 50):
        try:
            coleman.plan_bad_disks(fd, 15, e)
        except IncreaseE:
            assert e < 50
    roots = [d for d in fd.disks if d.kind == "bad_finite"]
    levels = sum(len(part) for part in fd.exact_parts)
    assert roots and len(shifts) == len(set(shifts)) == len(roots) * levels


# --- basis pullbacks and the points of a disk ------------------------------


@lru_cache(maxsize=None)
def _engine(coeffs, p, N, e):
    return ColemanIntegrator(_frobenius(coeffs, p, N), N=N, e=e)


def _ref_inv(a, mod, T):
    """1/a mod (p^W, t^(T+1)) by z <- z(2 - a z)."""
    z = [pow(a[0], -1, mod)]
    prec = 1
    while prec <= T:
        prec = min(2 * prec, T + 1)
        az = ser_mul(a[:prec], z, mod, prec - 1)
        two_minus = [(-x) % mod for x in az]
        two_minus[0] = (2 - az[0]) % mod
        z = ser_mul(z, two_minus, mod, prec - 1)
    return z + [0] * (T + 1 - len(z))


def _ref_cuberoot(a, mod, T, c0_root):
    """The cube root of a with constant term c0_root, as a r^2 for
    r <- r(4 - a r^3)/3."""
    inv3 = pow(3, -1, mod)
    r = [pow(c0_root, -1, mod)]
    prec = 1
    while prec <= T:
        prec = min(2 * prec, T + 1)
        ar3 = ser_mul(ser_mul(ser_mul(r, r, mod, prec - 1), r, mod, prec - 1),
                      a[:prec], mod, prec - 1)
        corr = [(-x) % mod for x in ar3]
        corr[0] = (4 - ar3[0]) % mod
        r = ser_mul(r, [inv3 * c % mod for c in corr], mod, prec - 1)
    out = ser_mul(ser_mul(r, r, mod, T), a[:T + 1], mod, T)
    return out + [0] * (T + 1 - len(out))


def _poly_of_series(poly, s, mod, T):
    """An integer polynomial evaluated on the series s, cut at t^T."""
    acc = [poly[-1] % mod]
    for c in reversed(poly[:-1]):
        acc = ser_mul(acc, s, mod, T) or [0]
        acc[0] = (acc[0] + c) % mod
    return acc + [0] * (T + 1 - len(acc))


def _reference_expansion(crv, disk, ctx, T, center=None):
    """(x(t), y(t)) built apart from the integrator: ([x0, 1], cube root of
    f(x0 + t)) on a good disk, (x(t), t) with x(t) from f(x) = t^3 by Newton
    with an inverse per step on a finite bad disk, and (None, u) at
    infinity, x = t^-3 and y = t^-4 u with u the cube root of Ft."""
    mod = ctx.pk(ctx.N)
    if disk.kind == "good":
        x0, y0 = center.x.residue(ctx.N), center.y.residue(ctx.N)
        fx = taylor_shift(crv.f, x0, mod)
        return [x0, 1], _ref_cuberoot(fx + [0] * max(0, T + 1 - len(fx)), mod, T, y0)
    if disk.kind == "bad_finite":
        Ts = T // 3 + 1
        xs, prec = [disk.center.x.residue(ctx.N)], 1
        while prec <= Ts:
            prec = min(2 * prec, Ts + 1)
            fxs = _poly_of_series(crv.f, xs, mod, prec - 1)
            num = [(-c) % mod for c in fxs]
            num[1] = (num[1] + 1) % mod
            dfxs = _poly_of_series(poly_deriv(crv.f), xs, mod, prec - 1)
            corr = ser_mul(num, _ref_inv(dfxs, mod, prec - 1), mod, prec - 1)
            xs = [(a + b) % mod for a, b in zip(xs + [0] * prec, corr)]
        xt = [0] * (T + 1)
        for k, c in enumerate(xs):
            if 3 * k <= T:
                xt[3 * k] = c
        return xt, [0, 1] + [0] * (T - 1)
    c0, c1, c2, c3, _ = crv.f
    rhs = [0] * (T + 1)
    for k, c in zip((0, 3, 6, 9, 12), (1, c3, c2, c1, c0)):
        rhs[k] = c % mod
    return None, _ref_cuberoot(rhs, mod, T, 1)


def _reference_rows(eng, disk, omegas, center=None):
    """Each omega pulled back on its own, its x^a y^b parts multiplied out
    with the disk's expansion, then integrated termwise."""
    ctx, f = eng.ctx, eng.curve.f
    mod = ctx.pk(eng.W)
    rows = []
    for omega in omegas:
        ints, floor = eng._lift_omega(omega)
        P = {1: [0, 0, 0], 2: [0, 0, 0]}  # coefficients of x^a for each y^b
        for ci, (a, b) in zip(ints, BASIS):
            P[b][a] = (P[b][a] + ci) % mod
        if disk.kind == "good":
            T = eng.T_good
            (x0, _), ys = _reference_expansion(eng.curve, disk, ctx, T, center)
            num = [0] * (T + 1)
            for b, yb in ((1, ys), (2, ser_mul(ys, ys, mod, T))):
                part = ser_mul(taylor_shift(P[b], x0, mod), yb, mod, T)
                for k, c in enumerate(part):
                    num[k] = (num[k] + c) % mod
            Finv = _ref_inv(_poly_of_series(f, [x0, 1], mod, T), mod, T)
            shift, arr = 0, ser_mul(num, Finv, mod, T)
        elif disk.kind == "bad_finite":
            # x^a y^b dx / f = t^(b-3) P_b(x(t)) x'(t) dt
            T = eng.T_bad
            xt, _ = _reference_expansion(eng.curve, disk, ctx, T)
            shift, arr = -2, [0] * (T + 1)
            for b in (1, 2):
                part = ser_mul(_poly_of_series(P[b], xt, mod, T), poly_deriv(xt), mod, T)
                for k, c in enumerate(part):
                    if k + b - 1 <= T:
                        arr[k + b - 1] = (arr[k + b - 1] + c) % mod
        else:
            # x^a y^b dx / f = -3 t^(8-3a-4b) u(t)^b / Ft(t) dt
            T = eng.T_bad
            _, u = _reference_expansion(eng.curve, disk, ctx, T)
            Ft = [0] * (T + 1)
            for k, c in zip((0, 3, 6, 9, 12), (1, f[3], f[2], f[1], f[0])):
                Ft[k] = c % mod
            Finv = _ref_inv(Ft, mod, T)
            g = {1: ser_mul(u, Finv, mod, T), 2: ser_mul(ser_mul(u, u, mod, T), Finv, mod, T)}
            shift, arr = -6, [0] * (T + 1)
            for ci, (a, b) in zip(ints, BASIS):
                off = 14 - 3 * a - 4 * b
                for k, c in enumerate(g[b][:T + 1 - off]):
                    arr[off + k] = (arr[off + k] + (-3 * ci % mod) * c) % mod
        terms = [(shift + i + 1, c, shift + i + 1) for i, c in enumerate(arr) if c]
        if any(j == 0 for j, _, _ in terms):
            raise PoleInDisk("nonzero residue: logarithmic term")
        rows.append((terms, floor))
    return rows


_INT = st.integers(0, 10 ** 40)


@pytest.mark.parametrize("e", [10, 40])
@settings(max_examples=15, deadline=None)
@given(ints=st.lists(_INT, min_size=6, max_size=6),
       elems=st.lists(st.one_of(st.none(), st.tuples(_INT, st.integers(0, 30))),
                      min_size=3, max_size=3))
def test_rows_combine_the_basis_pullbacks(e, ints, elems):
    # integer 6-vectors mod p^W, and 3-vectors over Q_p with exact
    # zeros (None) and reduced precision (n known mod p^k)
    eng = _engine(tuple(EX1), 5, 10, e)
    ctx, W = eng.ctx, eng.W
    padics = [ctx.zero() if x is None else
              RamifiedElement(ctx, 1, 0, [x[0]], min(x[1], W))
              for x in elems]
    omegas = [[n % ctx.pk(W) for n in ints], padics]
    good = next(d for d in eng.disks if d.kind == "good")
    for disk in eng.disks:
        assert (eng.antiderivative_rows(disk, omegas)
                == _reference_rows(eng, disk, omegas, disk.center)), disk


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 10), (EX4, 11, 8)], ids=["ex1@5", "ex4@11"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), r=st.integers(0, 10 ** 12))
def test_integral_through_center_matches_per_point_endpoint(coeffs, p, N, data, r):
    # the route that makes Q its own endpoint of the linear system, with
    # f(Q) - int_Q^phi(Q) from the expansion around Q itself, agrees with
    # the tiny integral from the center of Q's disk to every stated digit
    eng = _engine(tuple(coeffs), p, N, 40)
    disk = data.draw(st.sampled_from([d for d in eng.disks if d.kind == "good"]))
    Q = _good_point(eng, disk, disk.reduction[0] + p * r)
    inf = eng.infinite_disk
    rows = _reference_rows(eng, disk, [unit(i) for i in range(6)], Q)
    tiny = eng._eval_terms(rows, Q.x ** p - Q.x)
    hQ = [f - v for f, v in zip(eng._exact_at_unramified(Q.x, Q.y), tiny)]
    v = _solve_system(eng, [q - s for q, s in zip(hQ, eng._endpoint(inf))])
    to_S = eng._tiny(inf, None, RamifiedElement.pi(eng.ctx, eng.e, 1),
                     [unit(i) for i in REGULAR])
    want = [eng._project(v[i] + t) for i, t in zip(REGULAR, to_S)]
    for g, w in zip(eng.integral(Q), want):
        assert g.e == w.e == 1
        assert min(g.abs_prec, w.abs_prec) >= N
        assert (g - w).is_zero


def test_rows_make_no_series_products_after_disk_data(monkeypatch):
    # per-form pullbacks made 24 products a finite disk and 15 a good disk
    eng = ColemanIntegrator(_frobenius(tuple(EX1), 5, 10), N=10, e=50)
    ctx = eng.ctx
    omegas = [unit(i) for i in range(6)] + [[ctx.one(), ctx.from_int(-7), ctx.from_int(30)]]
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return series.ser_mul(*args, **kwargs)

    for disk in eng.disks:
        eng._disk_data(disk)
        with monkeypatch.context() as m:
            m.setattr(coleman, "ser_mul", spy)
            assert len(eng.antiderivative_rows(disk, omegas)) == 7
        assert not calls, disk


@pytest.mark.parametrize("kind,most", [("good", 1), ("bad_infinite", 2)])
def test_disk_data_reads_g_off_the_inverse_cube_root(monkeypatch, kind, most):
    # g_2 = F^(-1/3), g_1 = g_2^2 and, at infinity, u = Ft g_1: no inverse
    # of F, where y/f and y^2/f took one and three (good) or five products
    eng = ColemanIntegrator(_frobenius(tuple(EX1), 5, 10), N=10, e=50)
    disk = next(d for d in eng.disks if d.kind == kind)
    roots, products = [], []

    def root_spy(a, k, *args):
        roots.append(k)
        return series.ser_inverse_root(a, k, *args)

    def mul_spy(*args, **kwargs):
        products.append(1)
        return series.ser_mul(*args, **kwargs)

    monkeypatch.setattr(coleman, "ser_inverse_root", root_spy)
    monkeypatch.setattr(coleman, "ser_mul", mul_spy)
    eng._disk_data(disk)
    assert roots == [3]
    assert len(products) <= most


def _reference_center(eng, disk):
    """The point above the integer x of a good disk's reduction whose y
    reduces to the disk's y."""
    x = eng.ctx.element(disk.reduction[0])
    return next(P for P in _lifts(eng.curve, x, eng.ctx) if P.y.residue(1) == disk.reduction[1])


def _reference_point(eng, disk, center, t, Np):
    """The point at t as the Chabauty solver rebuilt a root: the cube-root
    lift on a good disk, Newton on f(x) = t^3 from the center on a finite
    disk, and at infinity the cube root of f(t^-3) nearest u(t) t^-4 with u
    cut after Np + 2 terms."""
    ctx, crv = eng.ctx, eng.curve
    if disk.kind == "good":
        x = center.x + t
        ys = [y for y in cube_roots(crv.f_eval(x)) if y.residue(1) == disk.reduction[1]]
        return CurvePoint(x, ys[0])
    if disk.kind == "bad_finite":
        target, df, x = t * t * t, poly_deriv(crv.f), center.x
        for _ in range(Np.bit_length() + 3):
            num = crv.f_eval(x) - target
            if num.is_zero:
                break
            x = x - num / poly_at(df, x)
        return CurvePoint(x, t)
    x = ctx.from_int(1) / (t * t * t)
    _, u = _reference_expansion(crv, disk, ctx, eng.T_bad)
    y_ser = poly_at([c % ctx.pk(ctx.N) for c in u[:Np + 2]], t) / (t * t * t * t)
    best, bestv = None, None
    for y in cube_roots(crv.f_eval(x)):
        d = y - y_ser
        v = d.valuation() if not d.is_zero else INF
        if best is None or v > bestv:
            best, bestv = y, v
    return CurvePoint(x, best)


def _digits(el):
    return repr(el)


@pytest.mark.parametrize("coeffs,p,N", [(EX1, 5, 10), (EX4, 11, 8)], ids=["ex1@5", "ex4@11"])
@settings(max_examples=25, deadline=None)
@given(r=st.integers(0, 10 ** 12), Np=st.integers(1, 10))
def test_point_at_matches_reference_lift(coeffs, p, N, r, Np):
    # t = p*r mod p^(Np+1), the representative the Chabauty solver passes
    eng = _engine(tuple(coeffs), p, N, 40)
    t_int = p * r % p ** (Np + 1)
    assume(t_int)
    t = eng.ctx.from_int(t_int)
    for disk in eng.disks:
        center = disk.center
        if disk.kind == "good":
            want_center = _reference_center(eng, disk)
            assert _digits(center.x) == _digits(want_center.x)
            assert _digits(center.y) == _digits(want_center.y)
        got = eng.point_at(disk, t)
        want = _reference_point(eng, disk, center, t, Np)
        assert (_digits(got.x), _digits(got.y)) == (_digits(want.x), _digits(want.y)), disk
        assert (got.y ** 3).is_congruent(eng.curve.f_eval(got.x))


def test_point_at_without_matching_cube_root_is_typed(ex1_p5, monkeypatch):
    # a good-disk point whose f(x) has no cube root over the disk's y
    eng = ex1_p5
    disk = next(d for d in eng.disks if d.kind == "good")
    t = eng.ctx.from_int(eng.p)
    assert eng.point_at(disk, t).y.residue(1) == disk.reduction[1]
    monkeypatch.setattr("picardcc.curve.cube_roots", lambda a: [])
    with pytest.raises(ComputationFailure):
        eng.point_at(disk, t)
