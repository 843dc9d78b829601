"""Tests for Coleman integration: tiny integrals, the Frobenius system,
boundary points, divisor integrals, and number-field point realization."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from picardcc.coleman import (
    ColemanIntegrator,
    DivisorSpec,
    NumberFieldPointSpec,
    realize_nf_points,
)
from picardcc import frobenius
from picardcc.curve import PicardCurve, lift_point
from picardcc.errors import BadYRule, IncreaseE, NotSameDisk, NotSplit, PoleInDisk
from picardcc.frobenius import frobenius_matrix
from picardcc.padic import (
    INF,
    PadicContext,
    PadicElement,
    RamifiedElement,
    _fold_mul,
    poly_deriv,
)

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


def test_tiny_not_same_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 2, ctx)[0]
    assert eng.disk_of(P) is not eng.disk_of(Q)
    with pytest.raises(NotSameDisk):
        eng.tiny_integral(P, Q, unit(0))


def test_tiny_same_endpoint_zero(ex1_p5):
    eng = ex1_p5
    P = lift_point(eng.curve, 0, eng.ctx)[0]
    v = eng.tiny_integral(P, P, unit(1))
    assert v.is_zero


def test_tiny_linearity(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 5, ctx)[0]
    a, b = 3, 7
    om = [a, b, 0, 0, 0, 0]
    lhs = eng.tiny_integral(P, Q, om)
    rhs = eng.tiny_integral(P, Q, unit(0)) * a + eng.tiny_integral(P, Q, unit(1)) * b
    assert (lhs - rhs).valuation() >= eng.N


def test_tiny_additivity_same_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 5, ctx)[0]
    R = lift_point(eng.curve, 10, ctx)[0]
    for i in (0, 2, 4):
        d = (eng.tiny_integral(P, R, unit(i))
             - eng.tiny_integral(P, Q, unit(i)) - eng.tiny_integral(Q, R, unit(i)))
        assert d.is_zero or d.valuation() >= eng.N


def test_pole_in_disk_at_infinity(ex1_p5):
    eng = ex1_p5
    inf = eng.infinite_disk.very_bad_point
    S = eng.boundary_point(eng.infinite_disk)
    # omega_6 = x^2 y^2 dx/f has a pole of order 6 at infinity
    with pytest.raises(PoleInDisk):
        eng.tiny_integral(inf, S, unit(5))
    # the regular ones integrate fine from the center (the value lives at
    # the boundary, so a bounded negative valuation is expected)
    v = eng.tiny_integral(inf, S, unit(0))
    assert v.valuation() > -2


def test_infinite_disk_no_residues(ex1_p5):
    # all six basis differentials have zero residue at infinity
    eng = ex1_p5
    for i in range(6):
        sh, cf, _ = eng.pullback_series(eng.infinite_disk, unit(i))
        assert cf[-1 - sh] == 0


# --- the Frobenius-equivariant system ------------------------------------


def test_system_matches_tiny_in_shared_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 5, ctx)[0]
    v = eng.basis_integrals(P, Q)
    for i in range(6):
        t = eng.tiny_integral(P, Q, unit(i))
        d = v[i] - t
        assert d.is_zero or d.valuation() >= eng.N, i


def test_cross_disk_additivity(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 2, ctx)[0]
    R = lift_point(eng.curve, 4, ctx)[0]
    PR, PQ, QR = eng.integral(P, R), eng.integral(P, Q), eng.integral(Q, R)
    for om in ([1, 0, 0], [0, 0, 1], [1, 2, 3]):
        d = dot(om, PR) - dot(om, PQ) - dot(om, QR)
        assert d.is_zero or d.valuation() >= eng.N


def test_cross_disk_additivity_through_bad_disk(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    R = [d for d in eng.disks if d.kind == "bad_finite"][0].very_bad_point
    inf = eng.infinite_disk.very_bad_point
    for a, b, c in zip(eng.integral(P, R), eng.integral(P, inf),
                       eng.integral(inf, R)):
        d = a - b - c
        assert d.is_zero or d.valuation() >= eng.N


def test_integral_reverses_sign(ex1_p5):
    eng = ex1_p5
    ctx = eng.ctx
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 2, ctx)[0]
    for a, b in zip(eng.integral(P, Q), eng.integral(Q, P)):
        s = a + b
        assert s.is_zero or s.valuation() >= eng.N


def test_fundamental_theorem_on_exact_form(ex1_p5):
    """3 d(y) = f'(x) y dx/f: reduce the x^3 part to the basis and check
    that the integral of the resulting combination telescopes to y."""
    from picardcc.frobenius import _Reducer
    eng = ex1_p5
    ctx, p, W = eng.ctx, eng.p, eng.W
    red = _Reducer(eng.curve, p, W)
    (sigma, coeffs), exact = red.reduce({2: [0, 0, 0, 1]})  # x^3 dx/y^2
    assert sigma == 0
    fp = poly_deriv(eng.curve.f)  # degree 3, leading coefficient 4
    # omega = f'(x)/3 y dx/f with the x^3 term rewritten via the reduction
    om = [0] * 6
    for a, slot in ((0, 0), (1, 1), (2, 3)):
        om[slot] = Fraction(fp[a], 3)
    for j in range(6):
        om[j] += Fraction(4, 3) * coeffs[j]
    P = lift_point(eng.curve, 0, ctx)[0]
    Q = lift_point(eng.curve, 2, ctx)[0]

    def correction(S):
        acc = ctx.zero()
        for m, (sig, poly) in exact.items():
            pv = ctx.zero()
            for c in reversed(poly):
                pv = pv * S.x + c
            acc = acc + pv * S.y ** m * ctx.from_rational(Fraction(1, p ** sig))
        return acc * Fraction(4, 3)

    lhs = dot(om, eng.basis_integrals(P, Q))
    rhs = (Q.y - P.y) - (correction(Q) - correction(P))
    d = lhs - rhs
    assert d.is_zero or d.valuation() >= eng.N - 1


def test_antiderivatives_share_one_power_table(ex1_p5, monkeypatch):
    # phi(S) at a finite boundary point S has several nonzero pi-digits, so
    # the six forms are evaluated from one table of t^1, ..., t^J
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

    def spy(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RamifiedElement, "__mul__", spy)
    got = eng._eval_terms(rows, t)
    assert len(calls) <= max(used)
    for a, b in zip(got, each):
        assert (a.m, a.a, a.A) == (b.m, b.a, b.A)


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
    inf = eng.infinite_disk.very_bad_point
    for disk in eng.disks:
        if disk.kind != "bad_finite":
            continue
        R = disk.very_bad_point
        for i, v in enumerate(eng.integral(inf, R)):
            assert isinstance(v, PadicElement)
            assert v.is_zero or v.valuation() >= eng.N, (disk, i)


def test_principal_divisor_vanishes(x40_p13):
    # div(x - 4) - 3*inf is principal: f(4) = 216 has three 13-adic cube roots
    eng = x40_p13
    pts = lift_point(eng.curve, 4, eng.ctx)
    assert len(pts) == 3
    rows = [eng.integral(eng.infinite_disk.very_bad_point, P) for P in pts]
    for i, vals in enumerate(zip(*rows)):
        assert any(not v.is_zero for v in vals)
        s = vals[0] + vals[1] + vals[2]
        assert s.is_zero or s.valuation() >= eng.N, i


def test_divisor_integral_principal(x40_p13):
    eng = x40_p13
    pts = lift_point(eng.curve, 4, eng.ctx)
    for v in eng.divisor_integral(DivisorSpec(pts)):
        assert v.is_zero or v.valuation() >= eng.N


def test_divisor_integral_degree_check(x40_p13):
    eng = x40_p13
    pts = lift_point(eng.curve, 4, eng.ctx)
    with pytest.raises(ValueError):
        eng.divisor_integral(DivisorSpec(pts, base_multiple=2))


def test_e_stability(ex1_p5):
    eng = ex1_p5
    eng80 = ColemanIntegrator(eng.fd, N=eng.N, e=80)
    inf = eng.infinite_disk.very_bad_point
    P = lift_point(eng.curve, 0, eng.ctx)[0]
    for i, (a, b) in enumerate(zip(eng.integral(inf, P), eng80.integral(inf, P))):
        d = a - b
        assert d.is_zero or d.valuation() >= eng.N, i


def test_projected_result_is_padic(x40_p13):
    eng = x40_p13
    P = lift_point(eng.curve, 4, eng.ctx)[0]
    for v in eng.integral(eng.infinite_disk.very_bad_point, P):
        assert isinstance(v, PadicElement)
        assert int(v.abs_prec) >= eng.N


# --- caches, and the Frobenius system solved once over Q_p -----------------


def _good_point(eng, disk, x):
    """The Q_p point of `disk` with x-coordinate x."""
    y0 = disk.reduction[1]
    return [P for P in lift_point(eng.curve, x, eng.ctx)
            if P.y.residue(1) == y0][0]


def test_disk_caches_key_on_center_value(ex1_p5):
    eng = ColemanIntegrator(ex1_p5.fd, N=ex1_p5.N, e=ex1_p5.e)
    disk = next(d for d in eng.disks if d.kind == "good")
    x0 = disk.reduction[0]
    P1, P2 = _good_point(eng, disk, x0), _good_point(eng, disk, x0)
    assert P1 is not P2
    s1 = eng.pullback_series(disk, unit(0), P1)
    s2 = eng.pullback_series(disk, unit(0), P2)
    assert s1 == s2
    assert len(eng._disk_data_cache) == 1 and len(eng._omega_cache) == 1
    Q = _good_point(eng, disk, x0 + eng.p)
    s3 = eng.pullback_series(disk, unit(0), Q)
    assert s3 != s1
    assert len(eng._disk_data_cache) == 2 and len(eng._omega_cache) == 2


def test_system_factored_once_over_qp(monkeypatch):
    calls = []
    solve = frobenius._solve_linear

    def spy(rows, rhs):
        assert all(isinstance(x, PadicElement) for row in rows + rhs for x in row)
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
    eng.integral(eng.infinite_disk.very_bad_point, P)
    assert calls == [6]


def _ramified_gauss_jordan(eng, c):
    """(I - M) v = c solved directly over Q_p(pi), minimal-valuation pivots."""
    n = len(c)
    aug = [[RamifiedElement.from_padic((1 if i == j else 0) - eng.fd.M[i][j], eng.e)
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
    P = eng.boundary_point(eng.infinite_disk)
    disk = next(d for d in eng.disks if d.kind == other)
    if other == "good":
        Q = _good_point(eng, disk, disk.reduction[0])
    else:
        Q = eng.boundary_point(disk)
    c = [q - r for q, r in zip(eng._endpoint(Q), eng._endpoint(P))]
    c = [x if isinstance(x, RamifiedElement) else RamifiedElement.from_padic(x, e)
         for x in c]
    want = _ramified_gauss_jordan(eng, c)
    got = eng.basis_integrals(P, Q)
    for g, w in zip(got, want):
        assert isinstance(g, RamifiedElement)
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
        P = [Q for Q in lift_point(curve, -3, eng.ctx) if Q.y.residue(1) == 4][0]
        inf = eng.infinite_disk.very_bad_point
        vals.append(eng.integral(inf, P))
    for a, b in zip(*vals):
        assert a.abs_prec >= 10
        k = min(a.abs_prec, b.abs_prec)
        lo = min(a.v, b.v, 0)
        diff = a.unit * p ** (a.v - lo) - b.unit * p ** (b.v - lo)
        assert diff % p ** (k - lo) == 0, (a, b)


# --- exact parts at the boundary points of bad disks -----------------------


@lru_cache(maxsize=None)
def _frobenius(coeffs, p, N):
    return frobenius_matrix(PicardCurve(list(coeffs)), p, N)


def _reference_exact_at_infinity(eng, S):
    """Every level in full: poly(pi^-3) times u^m, u^m by steps of u^(+-1),
    shifted by pi^(-4m) p^-sigma and summed; with the (m, v) of each level."""
    e, uval = eng.e, S._u_value
    uinv = uval.inverse()
    ms = [m for part in eng.fd.exact_parts for m in part.levels]
    upow = {1: uval, -1: uinv}
    for k in range(2, max(ms) + 1):
        upow[k] = upow[k - 1] * uval
    for k in range(2, -min(ms) + 1):
        upow[-k] = upow[1 - k] * uinv
    mod = eng.ctx.pk(eng.W)
    out, diags = [], []
    for part in eng.fd.exact_parts:
        acc = RamifiedElement.zero(eng.ctx, e)
        for m, (sig, poly) in sorted(part.levels.items()):
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
                  for _, poly in part.levels.values())
    xflat = [c * ctx.pk(S.x.m) % mod for c in S.x.a]
    xpows = [[1] + [0] * (e - 1)]
    for _ in range(max_deg - 1):
        xpows.append(_fold_mul(xpows[-1], xflat, e, p, mod))
    out, diags = [], []
    for part in eng.fd.exact_parts:
        acc = RamifiedElement.zero(ctx, e)
        for m, (sig, poly) in sorted(part.levels.items()):
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
    pytest.param(X40, 13, 15, 40, "finite", marks=pytest.mark.slow),
    pytest.param(X40, 13, 15, 120, "finite", marks=pytest.mark.slow),
], ids=["ex1@5-e10", "ex1@5-e30", "ex1@5-e50", "ex4@11-e3", "ex4@11-e40",
        "pool1-5@7-e7", "pool1-5@7-e40",
        "ex1@5-e10-finite", "ex1@5-e30-finite", "ex1@5-e50-finite", "ex1@5-N8-e40-finite",
        "x40@13-e40-finite", "x40@13-e120-finite"])
def test_exact_at_boundary_matches_level_by_level_sum(coeffs, p, N, e, kind, monkeypatch):
    eng = ColemanIntegrator(_frobenius(tuple(coeffs), p, N), N=N, e=e)
    if kind == "inf":
        disks, reference = [eng.infinite_disk], _reference_exact_at_infinity
    else:
        disks = [d for d in eng.disks if d.kind == "bad_finite"]
        reference = _reference_exact_at_finite
    assert disks
    seen = []
    check = eng._check_convergence

    def spy(diags, precs):
        seen.append(Counter(diags))
        check(diags, precs)

    monkeypatch.setattr(eng, "_check_convergence", spy)
    for disk in disks:
        S = eng.boundary_point(disk)
        want, want_diags = reference(eng, S)
        try:
            check(want_diags, [a.A for a in want])
            want_exc = None
        except IncreaseE as exc:
            want_exc = (str(exc), exc.e_min)
        seen.clear()
        try:
            got = eng._exact_at_boundary(disk, S)
            got_exc = None
        except IncreaseE as exc:
            got_exc = (str(exc), exc.e_min)
        assert seen == [Counter(want_diags)]
        assert got_exc == want_exc
        if want_exc is None:
            assert [(g.m, g.a, g.A) for g in got] == [(w.m, w.a, w.A) for w in want]


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


def test_exact_at_finite_boundary_adds_no_ramified_elements(monkeypatch):
    # the level-by-level path adds one RamifiedElement per level
    eng = ColemanIntegrator(_frobenius(tuple(EX1), 5, 15), N=15, e=50)
    disk = next(d for d in eng.disks if d.kind == "bad_finite")
    S = eng.boundary_point(disk)
    calls = _count_calls(monkeypatch, "__add__")
    assert len(eng._exact_at_boundary(disk, S)) == 6
    assert not calls
