"""Tests for vanishing differentials, the Chabauty set, classification,
and algebraic recognition."""

import gc
import os
import types
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from picardcc.algdep import (
    _dot,
    _irreducible_part,
    _normalize,
    _vanishes,
    algdep,
    lll_reduce,
)
import picardcc.chabauty as chabauty_mod
import picardcc.coleman as coleman_mod
from picardcc.chabauty import (
    _divisor_specs,
    _split_product,
    chabauty_set,
    classify_point,
    run_pipeline,
    vanishing_differentials,
)
from picardcc.coleman import (
    ColemanIntegrator,
    NumberFieldPointSpec,
    _integerize,
    realize_nf_points,
)
from picardcc.curve import CurvePoint, PicardCurve, branch_point
from picardcc.errors import BadDivisor, DegenerateDivisor, DoubleRoot, IncreaseE, PrecisionExhausted
from picardcc.frobenius import frobenius_matrix, zeta_consistency_check
from picardcc.padic import INF, PadicContext, RamifiedElement, cube_roots
from picardcc.series import ser_trim

EX1 = [-64, -48, 0, 6, 1]
EX4 = [2, 5, 6, 2, 1]
X40 = [-40, 0, 0, 0, 1]


@pytest.fixture(scope="module")
def ex4_p11():
    curve = PicardCurve(EX4)
    fd = frobenius_matrix(curve, 11, 12)
    eng = ColemanIntegrator(fd, N=12, e=40)
    divs = [realize_nf_points(curve, NumberFieldPointSpec([-1, 1, 1]), eng.ctx)]
    van = vanishing_differentials(eng, divs)
    return curve, eng, divs, van


@pytest.fixture(scope="module")
def x40_p13():
    curve = PicardCurve(X40)
    fd = frobenius_matrix(curve, 13, 12)
    return curve, ColemanIntegrator(fd, N=12, e=40)


# --- vanishing differentials ----------------------------------------------


def test_kernel_dimension_rank1(ex4_p11):
    _, _, _, van = ex4_p11
    assert len(van.vectors) == 2
    assert van.precision > 0


def test_kernel_annihilates_divisor(ex4_p11):
    _, eng, divs, van = ex4_p11
    row = eng.divisor_integral(divs[0])
    for vec in van.vectors:
        v = sum(c * I for c, I in zip(vec, row))
        assert v.is_zero or v.valuation() >= van.precision


def test_kernel_dimension_rank2(x40_p13):
    curve, eng = x40_p13
    divs = []
    for x0 in (4, -4):
        P = branch_point(curve, eng.ctx.element(x0), 6)
        divs.append([P])
    van = vanishing_differentials(eng, divs)
    assert len(van.vectors) == 1


def test_one_system_solve_per_disk(ex4_p11, monkeypatch):
    # the divisor integrals, the Chabauty set and the classification of its
    # members all go through infinity: (I - M) is solved once per disk they
    # reach, and int_inf^S to the infinite disk's boundary point S is made
    # once
    _, fixture_eng, divs, _ = ex4_p11
    eng = ColemanIntegrator(fixture_eng.fd, N=fixture_eng.N, e=fixture_eng.e)
    solves, to_boundary = [], []
    solve, tiny = ColemanIntegrator.basis_integrals, ColemanIntegrator._tiny

    def solve_spy(self, disk):
        solves.append(disk.reduction)
        return solve(self, disk)

    def tiny_spy(self, disk, tP, tQ, omegas):
        if disk is self.infinite_disk and tP is None:
            to_boundary.append(tQ)
        return tiny(self, disk, tP, tQ, omegas)

    monkeypatch.setattr(ColemanIntegrator, "basis_integrals", solve_spy)
    monkeypatch.setattr(ColemanIntegrator, "_tiny", tiny_spy)
    van = vanishing_differentials(eng, divs)
    pts = chabauty_set(eng, van)
    for Q in pts:
        classify_point(Q, eng, van)
    assert sorted(solves) == sorted(d.reduction for d in eng.disks if d is not eng.infinite_disk)
    assert len(to_boundary) == 1 and to_boundary[0].pi_valuation() == 1


def test_degenerate_divisor_rejected(x40_p13):
    curve, eng = x40_p13
    # div(x - 4) - 3*inf is principal: its integral vector vanishes
    x = eng.ctx.element(4)
    pts = [CurvePoint(x, y) for y in cube_roots(curve.f_eval(x))]
    with pytest.raises(DegenerateDivisor):
        vanishing_differentials(eng, [pts])


# --- chabauty_set and classification --------------------------------------


def test_chabauty_set_ex4(ex4_p11):
    _, eng, _, van = ex4_p11
    pts = chabauty_set(eng, van)
    assert len(pts) == 2
    assert sum(1 for Q in pts if Q.inf) == 1
    other = [Q for Q in pts if not Q.inf][0]
    # x = -1/2 in Q_11
    xm = other.x - eng.ctx.from_rational(Fraction(-1, 2))
    assert xm.is_zero or xm.valuation() >= 10


def test_classify_ex4(ex4_p11):
    _, eng, _, van = ex4_p11
    pts = chabauty_set(eng, van)
    tags = {}
    for Q in pts:
        cls = classify_point(Q, eng, van)
        tags[cls.tag] = cls
    assert "Rational" in tags  # the point at infinity
    assert "RecognizedAlgebraic" in tags
    cls = tags["RecognizedAlgebraic"]
    assert cls.minpoly_x == [1, 2]
    assert cls.minpoly_y == [-13, 0, 0, 16]


def test_classify_ramification(x40_p13):
    curve, eng = x40_p13
    # a lifted ramification point: y = 0, x^4 = 40 over Q_13
    disk = [d for d in eng.disks if d.kind == "bad_finite"][0]

    class FakeVan:  # only .precision is consulted before the test fires
        vectors = []
        precision = 12
        divisor_integrals = []

    Q = disk.center
    cls = classify_point(Q, eng, FakeVan())
    assert cls.tag == "Ramification"


def _classify_with_algdep_log(monkeypatch, record, params):
    """run_pipeline with every algdep call of classify_point logged per
    point as (coordinate, degree)."""
    logs = []
    classify, recognize = chabauty_mod.classify_point, chabauty_mod.algdep

    def classify_spy(Q, *args, **kwargs):
        logs.append((Q, []))
        return classify(Q, *args, **kwargs)

    def algdep_spy(alpha, d, *args, **kwargs):
        Q, log = logs[-1]
        coordinate = "x" if alpha is Q.x else "y" if alpha is Q.y else alpha
        log.append((coordinate, d))
        return recognize(alpha, d, *args, **kwargs)

    monkeypatch.setattr(chabauty_mod, "classify_point", classify_spy)
    monkeypatch.setattr(chabauty_mod, "algdep", algdep_spy)
    rep = run_pipeline(record, params)
    assert rep.status == "Success"
    return [log for _, log in logs]


@pytest.mark.parametrize("record,params", [
    ({"label": "ex4", "f": EX4, "divisors": [{"g": [-1, 1, 1]}], "p": 11},
     {"N": 8}),
    ({"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5},
     {"N": 15}),
], ids=["ex4@11", "ex1@5"])
def test_classify_recognizes_each_coordinate_once(monkeypatch, record, params):
    logs = _classify_with_algdep_log(monkeypatch, record, params)
    assert any(logs)
    for log in logs:
        assert len(log) == len(set(log)), log


# --- algdep ----------------------------------------------------------------


def test_algdep_rational():
    ctx = PadicContext(11, 15)
    assert algdep(ctx.from_rational(Fraction(-1, 2)), 1) == [1, 2]


def test_algdep_cube_root():
    ctx = PadicContext(11, 15)
    # cube root of 32 in Q_11 by Newton iteration
    mod = 11 ** 15
    r = 10
    for _ in range(6):
        r = (r - (r ** 3 - 32) * pow(3 * r * r, -1, mod)) % mod
    alpha = ctx.from_int(r)
    assert algdep(alpha, 3) == [-32, 0, 0, 1]


def test_algdep_cubic_p5():
    # root of t^3 - 24t - 48 in Q_5 (t = 4 mod 5)
    mod = 5 ** 15
    r = 4
    for _ in range(8):
        r = (r - (r ** 3 - 24 * r - 48) * pow(3 * r * r - 24, -1, mod)) % mod
    ctx = PadicContext(5, 15)
    assert algdep(ctx.from_int(r), 3) == [-48, -24, 0, 1]


def test_algdep_junk_rejected():
    ctx = PadicContext(5, 15)
    alpha = ctx.from_int(7351934762811)  # no small relation
    assert algdep(alpha, 3, height_bound=10 ** 6) is None


def test_algdep_prec_cap():
    # a representative carrying more digits than are actually known:
    # without the cap the junk digits poison the lattice
    ctx = PadicContext(11, 26)
    true_digits = 12
    val = (-pow(2, -1, 11 ** true_digits)) % 11 ** true_digits
    alpha = ctx.from_int(val)  # = -1/2 only mod 11^12
    assert algdep(alpha, 1, prec=true_digits) == [1, 2]


def test_algdep_negative_valuation():
    ctx = PadicContext(5, 15)
    alpha = ctx.from_rational(Fraction(2, 5))
    assert algdep(alpha, 1) == [-2, 5]


def test_algdep_refuses_infinity_to_precision():
    # 5^-9 + O(5^-1) at N = 8: 1/alpha = 5^9 is 0 mod 5^8, a root of x, and
    # reversing that relation would leave the constant "minimal polynomial" [1]
    ctx = PadicContext(5, 8)
    alpha = ctx.from_rational(Fraction(1, 5 ** 9)) + ctx.zero(-1)
    assert [algdep(alpha, d) for d in range(1, 5)] == [None] * 4
    # on ex1 at p = 5 and N = 8 with e = 40 such a member of the infinite
    # disk was tagged RecognizedAlgebraic with minpoly_x = minpoly_y = [1]
    fd = frobenius_matrix(PicardCurve(EX1), 5, 8)
    eng = ColemanIntegrator(fd, N=8, e=40)
    P = CurvePoint(fd.ctx.from_int(-3), fd.ctx.from_int(-1), exact_x=-3, exact_y=-1)
    van = vanishing_differentials(eng, [[P]])
    members = [(Q, classify_point(Q, eng, van)) for Q in chabauty_set(eng, van)]
    assert not [c for _, c in members if [1] in (c.minpoly_x, c.minpoly_y)]
    assert any(repr(Q.x).endswith("*5^-3 + O(5^21)") and c.tag == "Unrecognized"
               for Q, c in members)


# The previous recognition code, kept as references for the differential
# tests: the weighted (d+2)-column lattice reduced by an LLL that recomputes
# its Gram-Schmidt data after every change, and the (n, m) pair scan.


def _lll_recompute(basis, delta=Fraction(3, 4)):
    b = [[Fraction(x) for x in row] for row in basis]
    n = len(b)

    def gso():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            w = list(b[i])
            for j in range(i):
                denom = _dot(star[j], star[j])
                mu[i][j] = _dot(b[i], star[j]) / denom if denom else Fraction(0)
                w = [x - mu[i][j] * y for x, y in zip(w, star[j])]
            star.append(w)
        return star, mu

    star, mu = gso()
    k = 1
    while k < n:
        changed = False
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                changed = True
        if changed:
            star, mu = gso()
        lhs = _dot(star[k], star[k])
        rhs = (delta - mu[k][k - 1] ** 2) * _dot(star[k - 1], star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gso()
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in b]


def _algdep_weighted(alpha, degree_bound, height_bound=10 ** 8, prec=None):
    ctx = alpha.ctx
    if alpha.is_zero:
        return [0, 1]
    if alpha.valuation() < 0:
        rev = _algdep_weighted(ctx.from_int(1) / alpha, degree_bound,
                               height_bound, prec=prec)
        return _normalize(list(reversed(rev))) if rev else None
    k = min(int(alpha.abs_prec), ctx.N)
    if prec is not None:
        k = min(k, int(prec))
    pk = ctx.pk(k)
    d = degree_bound
    r = alpha.residue(k)
    rows = []
    for i in range(d + 1):
        row = [0] * (d + 2)
        row[i] = 1
        row[d + 1] = pk * pow(r, i, pk)
        rows.append(row)
    rows.append([0] * (d + 1) + [pk * pk])
    for row in _lll_recompute(rows):
        cand = ser_trim(list(row[: d + 1]))
        if len(cand) < 2 or max(abs(c) for c in cand) > height_bound:
            continue
        norm2 = sum(c * c for c in cand)
        if norm2 ** (d + 2) * 2 ** (d + 2) > pk * pk:
            continue
        if not _vanishes(cand, alpha, k):
            continue
        out = _irreducible_part(cand, alpha, k)
        if out and len(out) >= 2:
            return out
    return None


def _find_relation_scan(I, J, bound, tol):
    for n in range(1, bound + 1):
        nI = [v * n for v in I]
        for m in range(-bound, bound + 1):
            if m == 0:
                continue
            ok = True
            for a, b in zip(nI, J):
                d = a - b * m
                if not (d.is_zero or d.valuation() >= tol):
                    ok = False
                    break
            if ok:
                return (n, m)
    return None


PRIMES = st.sampled_from([5, 7, 11, 13, 17])


@st.composite
def algdep_inputs(draw):
    """(alpha, d, prec): a Hensel-lifted root of a random irreducible
    polynomial of small height, or a random residue, known mod p^k."""
    p, k = draw(PRIMES), draw(st.integers(4, 30))
    mod = p ** k
    if draw(st.booleans()):
        r = draw(st.integers(0, mod - 1))
    else:
        deg, height = draw(st.integers(1, 4)), draw(st.sampled_from([3, 30]))
        cs = [0] + [draw(st.integers(-height, height)) for _ in range(deg)]
        r = draw(st.integers(0, p - 1))
        # c_0 puts a root at r mod p
        cs[0] = -sum(c * r ** i for i, c in enumerate(cs)) % p \
            + p * draw(st.integers(-height // p - 1, height // p))
        dcs = [i * c for i, c in enumerate(cs)][1:]
        assume(cs[-1] != 0 and sum(c * r ** i for i, c in enumerate(dcs)) % p)
        assume(sympy.Poly(cs[::-1], sympy.Symbol("t")).is_irreducible)
        for _ in range(6):
            fr = sum(c * r ** i for i, c in enumerate(cs))
            dr = sum(c * r ** i for i, c in enumerate(dcs))
            r = (r - fr * pow(dr, -1, mod)) % mod
    prec = draw(st.none() | st.integers(4, k))
    return PadicContext(p, k).from_int(r), draw(st.integers(1, 4)), prec


@given(algdep_inputs())
@settings(max_examples=60, deadline=None)
def test_algdep_matches_weighted_lattice(case):
    alpha, d, prec = case
    assert algdep(alpha, d, prec=prec) == _algdep_weighted(alpha, d, prec=prec)


@st.composite
def congruence_lattices(draw):
    p, k, d = draw(PRIMES), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    pk = p ** k
    r = draw(st.integers(0, pk - 1))
    rows = [[pk] + [0] * d]
    for i in range(1, d + 1):
        rows.append([-pow(r, i, pk)] + [int(j == i) for j in range(1, d + 1)])
    return pk, r, rows


def _gram_schmidt(rows):
    star, mu = [], []
    for b in rows:
        w = [Fraction(x) for x in b]
        mu.append([_dot(b, s) / _dot(s, s) for s in star])
        for m, s in zip(mu[-1], star):
            w = [x - m * y for x, y in zip(w, s)]
        star.append(w)
    return [_dot(s, s) for s in star], mu


@given(congruence_lattices())
@settings(max_examples=100, deadline=None)
def test_lll_reduce_is_a_reduced_basis_of_the_lattice(lattice):
    pk, r, rows = lattice
    out = lll_reduce(rows)
    for c in out:
        assert sum(ci * pow(r, i, pk) for i, ci in enumerate(c)) % pk == 0
    assert abs(sympy.Matrix(out).det()) == pk
    B, mu = _gram_schmidt(out)
    assert all(abs(m) <= Fraction(1, 2) for row in mu for m in row)
    for k in range(1, len(out)):
        assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]


@st.composite
def relation_inputs(draw):
    """(I, J, bound, tol): random vectors of three Q_p elements, some with a
    planted relation n I = m J; entries may be zero to precision, known to
    few digits, or of nonzero valuation."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    ctx = PadicContext(p, draw(st.integers(6, 14)))

    def element():
        kind = draw(st.sampled_from(["full", "full", "low", "zero"]))
        if kind == "zero":
            return ctx.zero(draw(st.sampled_from([INF, 2, 5, 9])))
        v = draw(st.integers(-1, 4))
        u = draw(st.integers(1, p ** 6))
        x = ctx.from_rational(Fraction(u) * Fraction(p) ** v)
        if kind == "low":
            x = x + ctx.zero(v + draw(st.integers(1, 4)))
        return x

    I = [element() for _ in range(3)]
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8)) * draw(
            st.sampled_from([-1, 1]))
        J = [x * n / m for x in I]
        if draw(st.booleans()):  # p-adically small noise
            J = [y + ctx.from_int(p ** draw(st.integers(3, 10))) for y in J]
    else:
        J = [element() for _ in range(3)]
    return I, J, draw(st.integers(3, 12)), draw(st.integers(2, 9))


@given(relation_inputs())
@settings(max_examples=150, deadline=None)
def test_find_relation_matches_scan(case):
    I, J, bound, tol = case
    assert chabauty_mod._find_relation(I, J, bound, tol) == \
        _find_relation_scan(I, J, bound, tol)


# --- pipeline smoke test ---------------------------------------------------


def test_pipeline_report_shape(ex4_p11):
    rec = {"label": "ex4", "f": EX4, "divisors": [{"g": [-1, 1, 1]}],
           "p": 11}
    rep = run_pipeline(rec, {"N": 12})
    d = rep.to_dict()
    assert d["status"] == "Success"
    assert len(d["S"]) == 1 and len(d["T"]) == 1
    assert d["soundness_ok"] is True
    assert d["frobenius_certified"] is True
    assert d["kernel_dim"] == 2
    # JSON-native
    import json
    json.dumps(d)


def test_pipeline_composite_prime_is_failure():
    d = run_pipeline({"f": [-48, -24, 0, 0, 1]}, {"p": 25, "N": 8}).to_dict()
    assert d["status"] == "Failure"
    assert d["failure_reason"] == "bad-prime: p = 25 is not a prime > 3"
    # a record's p = 0 is a prime to refuse, not "choose p"
    d = run_pipeline({"f": EX4, "p": 0}, {"N": 8}).to_dict()
    assert d["failure_reason"] == "bad-prime: p = 0 is not a prime > 3" and d["p"] == 0


def test_pipeline_failure_names_the_prime_it_ran_at(monkeypatch):
    # ex1@5 needs e = 39: a cap below it fails before any integrator, and the
    # report carries no e
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1]}
    d = run_pipeline(rec, {"N": 15, "e_cap": 38}).to_dict()
    assert d["failure_reason"] == "increase-e: the plans need e >= 39, above e_cap 38"
    assert d["p"] == 5 and d["e"] is None
    # a double root at p = 5 moves the run to the next admissible prime
    primes = []

    def attempt(report, curve, p, *args):
        primes.append(p)
        raise (DoubleRoot if len(primes) == 1 else IncreaseE)("stub")

    monkeypatch.setattr(chabauty_mod, "_attempt", attempt)
    d = run_pipeline(rec, {"N": 15}).to_dict()
    assert d["failure_reason"] == "increase-e: stub"
    assert primes == [5, 7] and d["p"] == 7


def test_starved_disk_solve_is_precision_exhausted(monkeypatch):
    # a zero solve that runs out of digits fails the record with
    # precision-exhausted and the disk it ran on; e is chosen once, so no
    # larger e could help
    def starved(*args):
        raise PrecisionExhausted("stub")

    monkeypatch.setattr(chabauty_mod, "solve_zeros_in_disk", starved)
    rec = {"label": "pool1-0", "f": [-5, -2, -5, 1, 1], "point": [-1, -2], "p": 7}
    d = run_pipeline(rec, {"N": 10}).to_dict()
    assert d["status"] == "Failure" and d["e"] == 9
    assert d["failure_reason"].startswith("precision-exhausted: disk solver on disk ")
    assert d["failure_reason"].endswith(": stub")


def test_pipeline_uncertified_frobenius_is_typed_failure(monkeypatch):
    def broken_certificate(fd):
        z = zeta_consistency_check(fd)
        z.trace_ok = False
        return z

    monkeypatch.setattr(chabauty_mod, "zeta_consistency_check",
                        broken_certificate)
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    d = run_pipeline(rec, {"N": 8}).to_dict()
    assert d["status"] == "Failure"
    assert d["failure_reason"].startswith("frobenius-uncertified: ")
    assert d["frobenius_certified"] is False


def test_failed_e_attempts_are_freed_without_the_cycle_collector():
    # ex1 at p = 5: an e choice refused at the cap, and a run at its chosen
    # e = 39, leave no integrator and no frame of the package to a full
    # collection (an exception kept past its handler holds its frames)
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    pkg = os.path.dirname(chabauty_mod.__file__)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_pipeline(rec, {"N": 15, "e_cap": 38}).status == "Failure"
        rep = run_pipeline(rec, {"N": 15})
        assert rep.status == "Success" and rep.e == 39
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        pinned = [o for o in gc.garbage if isinstance(o, ColemanIntegrator) or
                  (isinstance(o, types.FrameType) and
                   o.f_code.co_filename.startswith(pkg))]
        assert not pinned
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_e_climb_from_e10_ex1_p5(monkeypatch):
    # the escalation benchmark's record and flags (--e 10 --e-increment 20):
    # e no longer climbs 10, 30, 50 but is chosen once, and only e = 39 is
    # planned, since the bounds of choose_e refuse e = 38 exactly
    attempts, plan, init = [], coleman_mod.plan_bad_disks, ColemanIntegrator.__init__
    built = []
    monkeypatch.setattr(coleman_mod, "plan_bad_disks",
                        lambda fd, N, e: attempts.append(e) or plan(fd, N, e))
    monkeypatch.setattr(ColemanIntegrator, "__init__",
                        lambda self, fd, N, e=40, plans=None: built.append(e) or init(self, fd, N, e, plans))
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    rep = run_pipeline(rec, {"N": 15, "e0": 10, "e_increment": 20})
    assert rep.status == "Success" and rep.e == 39
    assert attempts == built == [39]


# record, N, the e its plans choose, and what the run reported when it
# started at e = 40 (and climbed to 60 on a, b and c, which have a finite
# bad disk at p = 7): precision, S as (x, y) and T as (tag, minpoly_x)
RAMIFIED = "Ramification"
CHOSEN_E = [
    ("pool1-0", [-5, -2, -5, 1, 1], [-1, -2], 7, 10, 9, 9, [("-1", "-2")], []),
    ("pool1-1", [-1, -6, -6, -6, 1], [0, -1], 5, 10, 9, 8, [("0", "-1")], []),
    ("pool1-2", [1, 1, 2, -3, 1], [0, 1], 5, 10, 9, 8, [("0", "1")], []),
    ("pool1-3", [4, -4, -1, 2, 1], [-2, 2], 5, 10, 9, 8, [("-2", "2")], []),
    ("pool1-4", [2, -4, 4, -2, 1], [1, 1], 7, 10, 9, 9, [("1", "1")], []),
    ("pool1-5", [-5, 5, -5, -6, 1], [-1, -2], 7, 10, 9, 9, [("-1", "-2")], []),
    ("ex4", EX4, None, 11, 8, 14, 7, [], [("RecognizedAlgebraic", [1, 2])]),
    ("ex4", EX4, None, 11, 12, 14, 11, [], [("RecognizedAlgebraic", [1, 2])]),
    ("ex1", EX1, [-3, -1], 5, 15, 39, 13, [("0", "-4"), ("-3", "-1")],
     [(RAMIFIED, [4, 1]), (RAMIFIED, [2, 1]), ("LinearRelation", [-48, -24, 0, 1])]),
    ("a", [4, 2, -6, 0, 1], [1, 1], 7, 10, 47, 9, [("1", "1")], [(RAMIFIED, [-2, 1])]),
    ("b", [-1, 0, 6, -3, 1], [0, -1], 7, 10, 47, 9, [("0", "-1")],
     [(RAMIFIED, [-1, 0, 6, -3, 1])]),
    ("c", [0, 2, -3, 4, 1], [-1, -2], 7, 10, 47, 9, [("-1", "-2")],
     [(RAMIFIED, [0, 1]), (RAMIFIED, [2, -3, 4, 1])]),
    ("d", [5, 2, 0, 2, 1], [-2, 1], 5, 10, 32, 8, [("-4", "5"), ("-2", "1")],
     [(RAMIFIED, None), (RAMIFIED, None)]),
]


@pytest.mark.parametrize("label,f,point,p,N,e,precision,S,T", CHOSEN_E,
                         ids=[f"{c[0]}@{c[3]}-N{c[4]}" for c in CHOSEN_E])
def test_chosen_e(monkeypatch, label, f, point, p, N, e, precision, S, T):
    # the run's e is the least its plans accept: plan_bad_disks passes at e
    # and refuses e - 1.  Choosing it makes no disk expansion, boundary point
    # or ramified product, and the run reports what it did at e = 40 or 60
    record = {"label": label, "f": f, "p": p}
    record.update({"point": point} if point else {"divisors": [{"g": [-1, 1, 1]}]})
    chosen, work, choose = [], [], chabauty_mod.choose_e
    for name in ("_disk_data", "boundary_point"):
        method = getattr(ColemanIntegrator, name)
        monkeypatch.setattr(ColemanIntegrator, name,
                            lambda *a, _m=method, _n=name: work.append(_n) or _m(*a))
    mul = RamifiedElement.__mul__

    def ramified_mul(x, y):
        if x.e > 1 or getattr(y, "e", 1) > 1:
            work.append("ramified product")
        return mul(x, y)

    monkeypatch.setattr(RamifiedElement, "__mul__", ramified_mul)

    def spy(fd, n, cap):
        before = len(work)
        chosen.append((fd, choose(fd, n, cap)[0]))
        assert work[before:] == []
        return chosen[-1][1], None

    monkeypatch.setattr(chabauty_mod, "choose_e", spy)
    rep = run_pipeline(record, {"N": N}).to_dict()
    (fd, got), = chosen
    assert got == rep["e"] == e
    coleman_mod.plan_bad_disks(fd, N, e)
    with pytest.raises(IncreaseE):
        coleman_mod.plan_bad_disks(fd, N, e - 1)
    assert rep["status"] == "Success" and rep["precision"] == precision
    assert [(m["x"], m["y"]) for m in rep["S"] if m["x"] != "inf"] == S
    assert [(m["tag"], m.get("minpoly_x")) for m in rep["T"]] == T


_fraction = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def _qq_mul(a, b):
    x = sympy.Symbol("x")
    prod = sympy.Poly(a[::-1], x, domain="QQ") * sympy.Poly(b[::-1], x, domain="QQ")
    return [Fraction(int(c.p), int(c.q)) for c in prod.all_coeffs()[::-1]]


@st.composite
def _rational_polys(draw):
    """Non-monic g with Fraction coefficients, low-to-high; a square factor,
    zero leading coefficients and constants are all drawn."""
    g = draw(st.lists(_fraction, min_size=1, max_size=5))
    if draw(st.booleans()):
        h = draw(st.lists(_fraction, min_size=2, max_size=3))
        g = _qq_mul(_qq_mul(g, h), h)
    return g + [Fraction(0)] * draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(_rational_polys())
def test_divisor_squarefree_check_matches_sympy(g):
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in g[::-1]],
                      sympy.Symbol("x"))
    record = {"divisors": [{"g": [str(c) for c in g]}]}
    if poly.degree() >= 1 and poly.is_sqf:
        assert _divisor_specs(record)[0].x_minpoly == g
    else:
        with pytest.raises(BadDivisor):
            _divisor_specs(record)


@settings(max_examples=100, deadline=None)
@given(st.lists(_rational_polys(), min_size=1, max_size=3))
def test_split_product_matches_sympy(gs):
    assume(all(any(g[1:]) for g in gs))  # validated g are not constant
    specs = [NumberFieldPointSpec(g) for g in gs]
    x = sympy.Symbol("x")
    prod = sympy.Poly(1, x)
    for g in gs:
        prod *= sympy.Poly(_integerize(g)[::-1], x)
    assert _split_product(specs) == [int(c) for c in prod.all_coeffs()[::-1]]
