"""Tests for vanishing differentials, the Chabauty set, classification,
and algebraic recognition."""

import gc
import os
import types
from fractions import Fraction

import pytest

from picardcc.algdep import algdep
import picardcc.chabauty as chabauty_mod
from picardcc.chabauty import (
    chabauty_set,
    classify_point,
    run_pipeline,
    vanishing_differentials,
)
from picardcc.coleman import (
    ColemanIntegrator,
    DivisorSpec,
    NumberFieldPointSpec,
    realize_nf_points,
)
from picardcc.curve import CurvePoint, PicardCurve, lift_point
from picardcc.errors import ComputationFailure, DegenerateDivisor
from picardcc.frobenius import frobenius_matrix, zeta_consistency_check
from picardcc.padic import PadicContext

EX1 = [-64, -48, 0, 6, 1]
EX4 = [2, 5, 6, 2, 1]
X40 = [-40, 0, 0, 0, 1]


@pytest.fixture(scope="module")
def ex4_p11():
    curve = PicardCurve(EX4)
    fd = frobenius_matrix(curve, 11, 12)
    eng = ColemanIntegrator(fd, N=12, e=40)
    divs = [DivisorSpec(realize_nf_points(
        curve, NumberFieldPointSpec([-1, 1, 1]), eng.ctx), base_multiple=2)]
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
        P = [Q for Q in lift_point(curve, x0, eng.ctx)
             if Q.y.residue(1) == 6 % 13][0]
        divs.append(DivisorSpec([P]))
    van = vanishing_differentials(eng, divs)
    assert len(van.vectors) == 1


def test_vanishing_one_system_solve_per_point(x40_p13, monkeypatch):
    curve, eng = x40_p13
    P = [Q for Q in lift_point(curve, 4, eng.ctx) if Q.y.residue(1) == 6][0]
    calls = []
    solve = ColemanIntegrator.basis_integrals

    def spy(self, A, B):
        calls.append((A, B))
        return solve(self, A, B)

    monkeypatch.setattr(ColemanIntegrator, "basis_integrals", spy)
    vanishing_differentials(eng, [DivisorSpec([P])])
    assert len(calls) == 1


def test_point_from_root_without_matching_cube_root_is_typed(ex4_p11, monkeypatch):
    # a good-disk root whose f(x) has no cube root over the disk's y
    _, eng, _, _ = ex4_p11
    disk = next(d for d in eng.disks if d.kind == "good")
    center = [Q for Q in lift_point(eng.curve, disk.reduction[0], eng.ctx)
              if Q.y.residue(1) == disk.reduction[1]][0]
    Q = chabauty_mod._point_from_root(eng, disk, center, 1, 8)
    assert Q.y.residue(1) == disk.reduction[1]
    monkeypatch.setattr(chabauty_mod, "cube_roots", lambda a: [])
    with pytest.raises(ComputationFailure):
        chabauty_mod._point_from_root(eng, disk, center, 1, 8)


def test_degenerate_divisor_rejected(x40_p13):
    curve, eng = x40_p13
    # div(x - 4) - 3*inf is principal: its integral vector vanishes
    pts = lift_point(curve, 4, eng.ctx)
    with pytest.raises(DegenerateDivisor):
        vanishing_differentials(eng, [DivisorSpec(pts)])


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

    Q = disk.very_bad_point
    cls = classify_point(Q, eng, FakeVan())
    assert cls.tag == "Ramification"


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


def test_pipeline_uncertified_frobenius_is_typed_failure(monkeypatch):
    def broken_certificate(fd):
        z = zeta_consistency_check(fd)
        z.trace_ok = False
        return z

    monkeypatch.setattr(chabauty_mod, "zeta_consistency_check",
                        broken_certificate)
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    d = run_pipeline(rec, {"N": 8, "height": 10}).to_dict()
    assert d["status"] == "Failure"
    assert d["failure_reason"].startswith("frobenius-uncertified: ")
    assert d["frobenius_certified"] is False


def test_failed_e_attempts_are_freed_without_the_cycle_collector():
    # ex1 at p = 5 from e = 10 climbs to e = 50; each failed attempt's
    # integrator must die with its last reference, not wait for a full
    # collection (an exception kept across attempts holds its frames)
    rec = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    pkg = os.path.dirname(chabauty_mod.__file__)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        rep = run_pipeline(rec, {"N": 15, "e0": 10})
        assert rep.status == "Success" and rep.e == 50
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
