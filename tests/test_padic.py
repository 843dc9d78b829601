"""Tests for capped-precision p-adic and ramified arithmetic."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy.ntheory.residue_ntheory import nthroot_mod

from picardcc.padic import (
    INF,
    PadicContext,
    RamifiedElement,
    _fold_mul,
    _polymul_mod,
    charpoly_adj,
    cube_root_ramified,
    cube_roots,
    hensel_lift_root,
    is_prime,
    newton_lift,
    poly_at,
    poly_deriv,
    poly_eval_mod,
    taylor_shift,
)
from picardcc.errors import (
    ContextMismatch,
    DivisionByZeroPrecision,
    NegativeValuation,
    NoCubeRoot,
    NotSimpleRoot,
    PicardCCError,
    PrecisionExhausted,
)


def test_integer_embedding_mul():
    ctx = PadicContext(5, 4)
    prod = ctx.from_int(7) * ctx.from_int(8)
    assert prod.valuation() == 0
    assert prod.unit == 56 % 625
    assert prod.residue(4) == 56


def test_division_valuations():
    ctx = PadicContext(5, 4)
    q = ctx.from_int(5) / ctx.from_int(25)
    assert q.valuation() == -1
    assert q.unit == 1


def test_inverse_identity():
    ctx = PadicContext(11, 6)
    a = ctx.from_int(12)
    assert (a.inverse() * a).is_congruent(ctx.one())


def test_valuations():
    ctx = PadicContext(5, 6)
    assert ctx.zero().valuation() == INF
    assert ctx.from_int(50).valuation() == 2
    pi3 = RamifiedElement.pi(ctx, 4, 3)
    assert pi3.valuation() == Fraction(3, 4)


def test_residue_insufficient_precision_is_typed():
    ctx = PadicContext(5, 4)
    with pytest.raises(PrecisionExhausted):
        ctx.from_int(3).residue(6)


def test_residue_negative_valuation_is_typed():
    ctx = PadicContext(5, 4)
    with pytest.raises(NegativeValuation):
        ctx.from_rational(Fraction(2, 5)).residue(1)
    assert issubclass(NegativeValuation, PicardCCError)


def test_rational_constructor():
    ctx = PadicContext(7, 5)
    a = ctx.from_rational(Fraction(3, 14))
    b = a * ctx.from_int(14)
    assert b.is_congruent(ctx.from_int(3))


def test_context_mismatch():
    a = PadicContext(5, 4).from_int(2)
    b = PadicContext(7, 4).from_int(2)
    with pytest.raises(ContextMismatch):
        a + b


def test_zero_sentinel_precision():
    ctx = PadicContext(5, 4)
    a = ctx.from_int(1)
    d = a - a
    assert d.is_zero and d.abs_prec != INF
    assert d.abs_prec == 4
    with pytest.raises(DivisionByZeroPrecision):
        a / d


def test_precision_propagation_add():
    ctx = PadicContext(5, 4)
    # 5*(unit known to 4 digits) has absolute precision 5; adding a unit keeps 4
    a = ctx.from_int(5)
    b = ctx.from_int(2)
    s = a + b
    assert s.abs_prec == 4 and s.valuation() == 0


def test_cube_roots_zero():
    ctx = PadicContext(11, 5)
    roots = cube_roots(ctx.zero())
    assert len(roots) == 1 and roots[0].is_zero


def test_cube_roots_unique_p_2_mod_3():
    ctx = PadicContext(11, 5)
    roots = cube_roots(ctx.from_int(32))
    assert len(roots) == 1
    y = roots[0]
    assert y.residue(1) == 10
    assert (y ** 3).is_congruent(ctx.from_int(32))


def test_cube_roots_p_1_mod_3():
    ctx = PadicContext(13, 4)
    # oracle: cubes mod 13 are {0,1,5,8,12}; 5 is a cube
    expected = len([x for x in range(13) if pow(x, 3, 13) == 5])
    roots = cube_roots(ctx.from_int(5))
    assert len(roots) == expected
    assert len(roots) in (0, 3)
    for y in roots:
        assert (y ** 3).is_congruent(ctx.from_int(5))


def test_cube_roots_bad_valuation():
    ctx = PadicContext(11, 5)
    with pytest.raises(NoCubeRoot):
        cube_roots(ctx.from_int(11))


def test_hensel_linear():
    ctx = PadicContext(7, 5)
    r = hensel_lift_root([-3, 1], 3, ctx)
    assert r.is_congruent(ctx.from_int(3))


def test_hensel_sqrt_of_one():
    ctx = PadicContext(5, 3)
    r = hensel_lift_root([-1, 0, 1], 4, ctx)
    assert r.residue(3) == 124  # brute force: x^2 = 1 mod 125 has roots {1, 124}


def test_hensel_golden_ratio():
    ctx = PadicContext(11, 4)
    r0 = next(x for x in range(11) if (x * x + x - 1) % 11 == 0)
    r = hensel_lift_root([-1, 1, 1], r0, ctx)
    val = r.residue(4)
    assert (val * val + val - 1) % 11 ** 4 == 0


def test_hensel_not_simple():
    ctx = PadicContext(5, 3)
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root([0, 0, 1], 0, ctx)  # x^2, double root


def test_hensel_matches_exhaustion():
    for p in (5, 7):
        for N in (2, 3, 4):
            ctx = PadicContext(p, N)
            g = [3, -2, 0, 1, 1]  # x^4 + x^3 - 2x + 3
            dg = [-2, 0, 3, 4]
            simple = [r for r in range(p)
                      if sum(c * r ** i for i, c in enumerate(g)) % p == 0
                      and sum(c * r ** i for i, c in enumerate(dg)) % p != 0]
            brute = [x for x in range(p ** N)
                     if sum(c * x ** i for i, c in enumerate(g)) % p ** N == 0]
            for r0 in simple:
                lifted = hensel_lift_root(g, r0, ctx).residue(N)
                assert lifted in brute


@settings(max_examples=100, deadline=None)
@example(g=[1, 1, 0, 0, 1], p=5, N=24)  # x^4 + x + 5: root 5 * unit
@given(g=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=6),
       p=st.sampled_from([5, 7, 11, 13]), N=st.integers(1, 30))
def test_hensel_root_divisible_by_p_keeps_absolute_precision(g, p, N):
    # g(0) = 0 and g'(0) != 0 mod p: the root lifting 0 is divisible by p
    # and known modulo p^N whatever its valuation
    g = [p * g[0]] + g[1:]
    assume(g[1] % p)
    r = hensel_lift_root(g, 0, PadicContext(p, N))
    deep = hensel_lift_root(g, 0, PadicContext(p, 2 * N))
    assert r.abs_prec <= N
    assert r.residue(r.abs_prec) == deep.residue(2 * N) % p ** r.abs_prec


# --- integer polynomial helpers ------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=7),
       st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
       st.integers(2, 10 ** 9))
def test_taylor_shift_is_substitution(P, a, t, m):
    assert poly_eval_mod(taylor_shift(P, a, m), t, m) == poly_eval_mod(P, a + t, m)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=7),
       st.integers(-10 ** 8, 10 ** 8), st.sampled_from([5, 7, 11]))
def test_poly_at_padic_matches_residues(P, x, p):
    ctx = PadicContext(p, 6)
    assert poly_at(P, ctx.from_int(x)).residue(6) == poly_eval_mod(P, x, p ** 6)


def test_poly_at_generic_rings():
    assert poly_at([], 3) == 0
    assert poly_at([1, 2, 3], 2) == 17
    assert poly_at([Fraction(1, 2), 1], Fraction(1, 3)) == Fraction(5, 6)
    ctx = PadicContext(5, 6)
    assert poly_at([], ctx.from_int(7)).abs_prec == INF


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=5),
       st.sampled_from([5, 7, 11]), st.integers(1, 4))
def test_newton_lift_matches_brute_force(P, p, N):
    pN = p ** N
    dP = poly_deriv(P)
    for r0 in range(p):
        if poly_eval_mod(P, r0, p) or not poly_eval_mod(dP, r0, p):
            continue
        r = newton_lift(P, r0, p, N)
        assert poly_eval_mod(P, r, pN) == 0
        # Hensel: exactly one root mod p^N lies over a simple root mod p
        assert r == next(x for x in range(r0, pN, p)
                         if poly_eval_mod(P, x, pN) == 0)


small_ints = st.integers(min_value=-400, max_value=400)


@settings(max_examples=150, deadline=None)
@given(small_ints, small_ints, small_ints)
def test_ring_axioms(a, b, c):
    ctx = PadicContext(7, 5)
    A, B, C = ctx.from_int(a), ctx.from_int(b), ctx.from_int(c)
    assert ((A + B) + C).is_congruent(A + (B + C))
    assert (A * (B + C)).is_congruent(A * B + A * C)
    assert (A * B).is_congruent(B * A)


@settings(max_examples=150, deadline=None)
@given(small_ints, small_ints)
def test_valuation_properties(a, b):
    ctx = PadicContext(5, 6)
    A, B = ctx.from_int(a), ctx.from_int(b)
    if a and b:
        assert (A * B).valuation() == A.valuation() + B.valuation()
    s = A + B
    assert s.valuation() >= min(A.valuation(), B.valuation())


# --- differential oracle: Q_p against a reference implementation ----------
# _RefPadic is the capped-relative-precision Q_p type the library used before
# Q_p became Q_p(pi) at e = 1, kept verbatim as a reference: p^v * unit with
# a relative precision rel <= N, and a zero O(p^k) holding k in v.


class _RefPadic:
    __slots__ = ("ctx", "v", "unit", "rel")

    def __init__(self, ctx, v, unit, rel):
        self.ctx, self.v, self.unit, self.rel = ctx, v, unit, rel

    @staticmethod
    def zero(ctx, abs_prec=INF):
        return _RefPadic(ctx, abs_prec, 0, 0)

    @staticmethod
    def from_rational(ctx, q):
        q = Fraction(q)
        if q == 0:
            return _RefPadic.zero(ctx)
        num, den = q.numerator, q.denominator
        vn, vd = _ref_pval(num, ctx.p), _ref_pval(den, ctx.p)
        pN = ctx.pk(ctx.N)
        unit = (num // ctx.pk(vn)) * pow(den // ctx.pk(vd), -1, pN) % pN
        return _RefPadic(ctx, vn - vd, unit, ctx.N)

    @property
    def abs_prec(self):
        return self.v + self.rel if self.unit else self.v

    def residue(self, k):
        if self.unit == 0:
            if self.v < k:
                raise DivisionByZeroPrecision("zero has no residue")
            return 0
        if self.v < 0:
            raise NegativeValuation("negative valuation")
        if self.abs_prec < k:
            raise PrecisionExhausted("insufficient precision")
        return (self.unit * self.ctx.pk(self.v)) % self.ctx.pk(k)

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.ctx.p}^{self.v})"
        return f"{self.unit}*{self.ctx.p}^{self.v} + O({self.ctx.p}^{self.v + self.rel})"

    def _make(self, v, s, a):
        ctx = self.ctx
        if a <= v:
            return _RefPadic.zero(ctx, a)
        if a == INF:
            cap = ctx.N + (max(0, _ref_pval(s, ctx.p)) if s else 0)
        else:
            cap = min(a - v, ctx.N + (max(0, _ref_pval(s, ctx.p)) if s else 0))
        s %= ctx.pk(cap)
        if s == 0:
            return _RefPadic.zero(ctx, min(a, v + cap))
        w = _ref_pval(s, ctx.p)
        if w >= cap:
            return _RefPadic.zero(ctx, min(a, v + cap))
        rel = min((a - v - w) if a != INF else ctx.N, ctx.N)
        return _RefPadic(ctx, v + w, (s // ctx.pk(w)) % ctx.pk(rel), rel)

    def __add__(self, other):
        if self.unit == 0 and other.unit == 0:
            return _RefPadic.zero(self.ctx, min(self.v, other.v))
        if self.unit == 0:
            return other._add_zero(self.v)
        if other.unit == 0:
            return self._add_zero(other.v)
        a = min(self.abs_prec, other.abs_prec)
        m = min(self.v, other.v)
        s = self.unit * self.ctx.pk(self.v - m) + other.unit * self.ctx.pk(other.v - m)
        return self._make(m, s, a)

    def _add_zero(self, zero_absprec):
        a = min(self.abs_prec, zero_absprec)
        if a <= self.v:
            return _RefPadic.zero(self.ctx, a)
        rel = min(a - self.v, self.ctx.N)
        return _RefPadic(self.ctx, self.v, self.unit % self.ctx.pk(rel), rel)

    def __neg__(self):
        if self.unit == 0:
            return self
        return _RefPadic(self.ctx, self.v, self.ctx.pk(self.rel) - self.unit, self.rel)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.unit == 0 or other.unit == 0:
            return _RefPadic.zero(self.ctx, self.v + other.v)
        rel = min(self.rel, other.rel, self.ctx.N)
        return _RefPadic(self.ctx, self.v + other.v,
                         (self.unit * other.unit) % self.ctx.pk(rel), rel)

    def inverse(self):
        if self.unit == 0:
            raise DivisionByZeroPrecision("cannot invert zero")
        return _RefPadic(self.ctx, -self.v, pow(self.unit, -1, self.ctx.pk(self.rel)), self.rel)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n == 0:
            return _RefPadic.from_rational(self.ctx, 1)
        if n < 0:
            return self.inverse() ** (-n)
        if self.unit == 0:
            return _RefPadic.zero(self.ctx, INF if self.v == INF else self.v * n)
        return _RefPadic(self.ctx, self.v * n, pow(self.unit, n, self.ctx.pk(self.rel)), self.rel)


def _ref_pval(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _ref_cube_roots(a):
    ctx, p = a.ctx, a.ctx.p
    if a.unit == 0:
        return [_RefPadic.zero(ctx, INF if a.v == INF else -(-a.v // 3))]
    if a.v % 3 != 0:
        raise NoCubeRoot("valuation not divisible by 3")
    return [_RefPadic(ctx, a.v // 3, newton_lift([-a.unit, 0, 0, 1], r0, p, a.rel), a.rel)
            for r0 in range(1, p) if r0 ** 3 % p == a.unit % p]


def _ref_hensel_lift_root(g, r0, ctx):
    r = newton_lift(g, r0 % ctx.p, ctx.p, ctx.N)
    return _RefPadic.zero(ctx)._make(0, r, ctx.N)


@st.composite
def _qp_operand(draw, p, N):
    """(kind, value, precision) of a Q_p operand: p^v * u to abs precision k,
    zero to precision O(p^k), or an exact zero."""
    kind = draw(st.sampled_from(["unit", "unit", "unit", "zero", "exact"]))
    if kind == "exact":
        return kind, 0, INF
    if kind == "zero":
        return kind, 0, draw(st.integers(-3, 5 + N))
    v = draw(st.integers(-3, 5))
    u = draw(st.integers(1, p ** N - 1).filter(lambda n: n % p))
    return kind, Fraction(u) * Fraction(p) ** v, v + draw(st.integers(1, N))


def _build(ctx, op, zero, from_rational):
    """The operand through the public constructors: from_rational, capped by
    adding a zero O(p^k)."""
    kind, value, k = op
    if kind == "exact":
        return zero(ctx)
    if kind == "zero":
        return zero(ctx, k)
    return from_rational(ctx, value) + zero(ctx, k)


def _outcome(f, *args):
    """repr of f(*args), or the type of the error it raises."""
    try:
        out = f(*args)
    except (DivisionByZeroPrecision, NegativeValuation, PrecisionExhausted, NoCubeRoot) as exc:
        return type(exc).__name__
    return [repr(x) for x in out] if isinstance(out, list) else repr(out)


_P_N = st.sampled_from([5, 7, 13]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 15)))


@settings(max_examples=400, deadline=None)
@given(_P_N.flatmap(lambda pN: st.tuples(
    st.just(pN), _qp_operand(*pN), _qp_operand(*pN),
    st.integers(-3, 4), st.integers(1, 20))))
def test_qp_matches_reference_implementation(data):
    # Q_p against _RefPadic on +, -, *, /, **, inverse, residue, cube roots
    # and repr, zeros to precision included
    (p, N), op_a, op_b, n, k = data
    ctx = PadicContext(p, N)
    a = _build(ctx, op_a, lambda c, k=INF: c.zero(k), lambda c, q: c.from_rational(q))
    b = _build(ctx, op_b, lambda c, k=INF: c.zero(k), lambda c, q: c.from_rational(q))
    ra = _build(ctx, op_a, _RefPadic.zero, _RefPadic.from_rational)
    rb = _build(ctx, op_b, _RefPadic.zero, _RefPadic.from_rational)
    for f in (repr, lambda x: x.inverse(), lambda x: x ** n, lambda x: x.residue(k),
              lambda x: str(x.abs_prec)):
        assert _outcome(f, a) == _outcome(f, ra)
    assert _outcome(cube_roots, a) == _outcome(_ref_cube_roots, ra)
    for f in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
              lambda x, y: x / y):
        assert _outcome(f, a, b) == _outcome(f, ra, rb)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=5), st.sampled_from([5, 7, 13]),
       st.integers(1, 15), st.integers(0, 12))
def test_hensel_lift_root_matches_reference_implementation(g, p, N, r0):
    ctx = PadicContext(p, N)
    g = [g[0] - poly_eval_mod(g, r0, p)] + g[1:]  # r0 is a root mod p
    assume(poly_eval_mod(poly_deriv(g), r0, p) != 0)
    assert repr(hensel_lift_root(g, r0, ctx)) == repr(_ref_hensel_lift_root(g, r0, ctx))


def _ram(ctx, e, coeffs):
    """sum(c_i pi^i), built with the public arithmetic."""
    acc = ctx.zero()
    for i, c in enumerate(coeffs):
        acc = acc + RamifiedElement.pi(ctx, e, i) * ctx.element(c)
    return acc


def test_ramified_mul_against_symbolic():
    # (1 + 2 pi + 3 pi^2)(4 + 5 pi) in Q_5(5^(1/3)):
    # = 4 + 13 pi + 22 pi^2 + 15 pi^3 -> 4 + 75, 13 pi, 22 pi^2
    ctx = PadicContext(5, 6)
    a = _ram(ctx, 3, [1, 2, 3])
    b = _ram(ctx, 3, [4, 5, 0])
    c = a * b
    assert c.coefficient(0).is_congruent(ctx.from_int(4 + 15 * 5))
    assert c.coefficient(1).is_congruent(ctx.from_int(13))
    assert c.coefficient(2).is_congruent(ctx.from_int(22))


def test_ramified_pi_power_fold():
    ctx = PadicContext(5, 6)
    pi = RamifiedElement.pi(ctx, 4)
    p4 = pi ** 4
    assert p4.to_padic().is_congruent(ctx.from_int(5))  # pi^1..pi^3 parts vanish


def test_ramified_inverse():
    ctx = PadicContext(7, 6)
    a = _ram(ctx, 5, [3, 1, 0, 2, 6])
    ainv = a.inverse()
    prod = a * ainv
    assert prod.coefficient(0).is_congruent(ctx.one(), 4)
    for i in range(1, 5):
        c = prod.coefficient(i)
        assert c.is_zero or c.valuation() >= 4


def test_ramified_inverse_with_pi_valuation():
    ctx = PadicContext(5, 8)
    pi = RamifiedElement.pi(ctx, 3)
    a = pi * 2 + pi * pi * 3  # valuation 1/3
    assert a.valuation() == Fraction(1, 3)
    prod = a * a.inverse()
    assert prod.coefficient(0).is_congruent(ctx.one(), 6)


def test_ramified_projection_to_qp():
    ctx = PadicContext(5, 6)
    pi = RamifiedElement.pi(ctx, 4)
    a = pi ** 8  # = 25, pure Q_p value
    x = a.to_padic()
    assert x.is_congruent(ctx.from_int(25))


def test_ramified_valuation_of_mixed():
    ctx = PadicContext(5, 6)
    a = _ram(ctx, 4, [25, 5, 0, 0])
    # min(4*2+0, 4*1+1) = 5
    assert a.valuation() == Fraction(5, 4)


# --- the flat Q_p(pi) representation against exact Z[pi]/(pi^e - p) ------
#
# An exact value is (m, vec): p^m * sum(vec[i] pi^i) with integer vec.


def _exact_mul(X, Y, e, p):
    (m1, a), (m2, b) = X, Y
    c = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return m1 + m2, [c[i] + (p * c[i + e] if i + e < len(c) else 0)
                     for i in range(e)]


def _exact_add(X, Y, p):
    (m1, a), (m2, b) = X, Y
    m = min(m1, m2)
    return m, [x * p ** (m1 - m) + y * p ** (m2 - m) for x, y in zip(a, b)]


def _exact_val(X, e, p):
    m, a = X
    vals = []
    for i, c in enumerate(a):
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            vals.append(e * (m + v) + i)
    return min(vals) if vals else INF


def _agrees(x, X):
    """Every pi-adic digit that x states agrees with the exact value X."""
    p, e = x.ctx.p, x.e
    diff = _exact_add((x.m, x.a), (X[0], [-c for c in X[1]]), p)
    return _exact_val(diff, e, p) >= x.A


_E = st.sampled_from([1, 3, 10, 50])
_P = st.sampled_from([5, 7, 11])


@st.composite
def _flat_pair(draw):
    """(ctx, e, [(x, X), (y, Y)]): x states the digits of the exact X to
    full relative precision, or to fewer."""
    e, p = draw(_E), draw(_P)
    ctx = PadicContext(p, 6)
    out = []
    for _ in range(2):
        m = draw(st.integers(-2, 2))
        vec = [draw(st.integers(-p ** 4, p ** 4)) * p ** draw(st.integers(0, 2))
               for _ in range(e)]
        if not any(vec):
            vec[draw(st.integers(0, e - 1))] = 1
        x = RamifiedElement(ctx, e, m, vec, INF)
        rel = draw(st.integers(1, e * ctx.N))
        x = RamifiedElement(ctx, e, x.m, x.a, x.pi_valuation() + rel)
        out.append((x, (m, vec)))
    return ctx, e, out


@settings(max_examples=80, deadline=None)
@given(_flat_pair())
def test_flat_ring_ops_match_exact(data):
    ctx, e, [(x, X), (y, Y)] = data
    p = ctx.p
    assert x.pi_valuation() == _exact_val(X, e, p)
    assert y.pi_valuation() == _exact_val(Y, e, p)
    assert _agrees(x, X) and _agrees(y, Y)
    assert _agrees(x + y, _exact_add(X, Y, p))
    assert _agrees(x - y, _exact_add(X, (Y[0], [-c for c in Y[1]]), p))
    assert _agrees(-x, (X[0], [-c for c in X[1]]))
    assert _agrees(x * y, _exact_mul(X, Y, e, p))
    s = ctx.from_rational(Fraction(3, p))
    assert _agrees(x * s, _exact_mul(X, (-1, [3] + [0] * (e - 1)), e, p))
    # precision: the min-rule, capped at e*N digits past the valuation
    w1, w2 = x.pi_valuation(), y.pi_valuation()
    prod = x * y
    assert prod.A == min(w1 + w2 + e * ctx.N, x.A + w2, y.A + w1)


@settings(max_examples=60, deadline=None)
@given(_flat_pair(), st.integers(-120, 120))
def test_flat_shift_pi_is_mul_by_pi_power(data, k):
    ctx, e, [(x, X), _] = data
    p = ctx.p
    pik = RamifiedElement.pi(ctx, e, k)
    shifted = x.shift_pi(k)
    q, r = divmod(k, e)
    assert _agrees(shifted, _exact_mul(X, (q, [int(i == r) for i in range(e)]), e, p))
    assert shifted.A == x.A + k
    assert (shifted - x * pik).is_zero


@settings(max_examples=40, deadline=None)
@given(_flat_pair())
def test_flat_inverse_matches_exact(data):
    ctx, e, [(x, X), _] = data
    y = x.inverse()
    one = _exact_mul(X, (y.m, y.a), e, ctx.p)
    err = _exact_add(one, (0, [-1] + [0] * (e - 1)), ctx.p)
    # y is stated modulo pi^A, so x*y - 1 vanishes modulo pi^(A + v(x))
    assert _exact_val(err, e, ctx.p) >= y.A + x.pi_valuation()
    assert y.pi_valuation() == -x.pi_valuation()


@settings(max_examples=60, deadline=None)
@given(_flat_pair())
def test_flat_to_padic_matches_exact(data):
    ctx, e, [(x, X), _] = data
    m, vec = X
    a0 = vec[0] or 1
    c0 = RamifiedElement(ctx, e, m, [a0] + [0] * (e - 1), INF)
    got = c0.to_padic()
    want = ctx.from_rational(Fraction(a0) * Fraction(ctx.p) ** m)
    assert got.is_congruent(want) and got.abs_prec == -(-c0.A // e)
    if any(not x.coefficient(i).is_zero for i in range(1, e)):
        with pytest.raises(ValueError):
            x.to_padic()


# --- cube roots in Q_p(pi) ---------------------------------------------------


def _nested_inverse_cube_root(a):
    """Newton's z <- z - (z^3 - a)/(3 z^2) from z = 1, with a fresh Newton
    inverse of 3 z^2 in every step, each iterate read at full precision."""
    ctx, e = a.ctx, a.e
    z = RamifiedElement.pi(ctx, e, 0)
    three = ctx.from_int(3)
    for _ in range(max(1, math.ceil(math.log2(max(2, e * ctx.N)))) + 1):
        z = (z - (z * z * z - a) * (z * z * three).inverse())._refreshed()
    return z


@settings(max_examples=40, deadline=None)
@given(_P, _E, st.integers(2, 8), st.data())
def test_cube_root_ramified_matches_nested_newton(p, e, N, data):
    ctx = PadicContext(p, N)
    vec = [data.draw(st.integers(0, p ** N)) for _ in range(e)]
    vec[0] = 1 + p * vec[0]
    a = RamifiedElement(ctx, e, 0, vec, data.draw(st.integers(1, e * N)))
    got, want = cube_root_ramified(a), _nested_inverse_cube_root(a)
    assert (got.m, got.a, got.A) == (want.m, want.a, want.A)
    cube = got * got * got - a
    assert cube.is_zero and cube.A == a.A


def test_cube_root_ramified_makes_few_products(monkeypatch):
    # the cube root taken for phi(S) at a finite boundary point S of ex1@5;
    # the nested-inverse iteration makes 467 products on this input
    from picardcc import coleman
    from picardcc.curve import PicardCurve
    from picardcc.frobenius import frobenius_matrix

    eng = coleman.ColemanIntegrator(
        frobenius_matrix(PicardCurve([-64, -48, 0, 6, 1]), 5, 15), N=15, e=50)
    args = []
    monkeypatch.setattr(coleman, "cube_root_ramified",
                        lambda a: args.append(a) or cube_root_ramified(a))
    disk = next(d for d in eng.disks if d.kind == "bad_finite")
    eng._phi_param(disk, eng.boundary_point(disk))
    calls = []
    mul = RamifiedElement.__mul__
    monkeypatch.setattr(RamifiedElement, "__mul__",
                        lambda x, y: calls.append(1) or mul(x, y))
    [a] = args
    root = cube_root_ramified(a)
    assert 0 < len(calls) <= 100
    assert (root * root * root - a).is_zero


# --- the Kronecker kernel ---------------------------------------------------


def _schoolbook(a, b):
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return c


@st.composite
def _kernel_operands(draw, equal_lengths):
    """(p, mod, a, b) with mod = p^k, k <= 20, and operands of up to 64
    entries. Entries may be negative or all mod - 1, where every block sum
    is at its largest; b may be the same list as a."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17]))
    mod = p ** draw(st.integers(1, 20))
    la = draw(st.integers(1, 64))
    lb = la if equal_lengths else draw(st.integers(1, 64))
    if draw(st.booleans()):
        a, b = [mod - 1] * la, [mod - 1] * lb
    else:
        entry = st.integers(-mod * mod, mod * mod)
        a = draw(st.lists(entry, min_size=la, max_size=la))
        b = draw(st.lists(entry, min_size=lb, max_size=lb))
    if la == lb and draw(st.booleans()):
        b = a
    return p, mod, a, b


@settings(max_examples=200, deadline=None)
@given(_kernel_operands(equal_lengths=False))
@example((5, 5, [4], [4]))
@example((17, 17 ** 20, [17 ** 20 - 1] * 3, [-1, 2 * 17 ** 20]))
def test_polymul_mod_matches_schoolbook(data):
    _, mod, a, b = data
    assert _polymul_mod(a, b, mod) == [c % mod for c in _schoolbook(a, b)]


@settings(max_examples=200, deadline=None)
@given(_kernel_operands(equal_lengths=False), st.integers(-1, 130))
@example((17, 17 ** 20, [17 ** 20 - 1] * 3, [-1, 2 * 17 ** 20]), 2)
def test_polymul_mod_keeps_the_first_n_blocks(data, n):
    # the blocks past n are masked off before unpacking, not sliced after
    _, mod, a, b = data
    want = [c % mod for c in _schoolbook(a, b)][:max(n, 0)]
    assert _polymul_mod(a, b, mod, n) == want


@settings(max_examples=200, deadline=None)
@given(_kernel_operands(equal_lengths=True))
@example((5, 5, [4] * 4, [4] * 4))
@example((17, 17 ** 20, [17 ** 20 - 1] * 64, [17 ** 20 - 1] * 64))
def test_fold_mul_matches_schoolbook_folded(data):
    # pi^e = p: the coefficient of pi^(i+e) adds p times itself to pi^i
    p, mod, a, b = data
    e = len(a)
    c = _schoolbook(a, b) + [0]
    assert _fold_mul(a, b, e, p, mod) == [(c[i] + p * c[i + e]) % mod
                                          for i in range(e)]


# --- exact integer code in place of sympy, with sympy as the oracle ---------


def test_is_prime_below_10_5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == list(sympy.primerange(10 ** 5))


def _chernick(k0, count):
    """Carmichael numbers (6k + 1)(12k + 1)(18k + 1), all three factors prime."""
    out, k = [], k0
    while len(out) < count:
        fs = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        if all(sympy.isprime(q) for q in fs):
            out.append(math.prod(fs))
        k += 1
    return out


@pytest.mark.parametrize("n", [
    # the least strong pseudoprimes to the first 4, 9 and 12 prime bases
    3215031751, 3825123056546413051, 318665857834031151167461,
    *_chernick(7, 4), *_chernick(10 ** 6, 3)])
def test_is_prime_rejects_strong_pseudoprimes_and_carmichael_numbers(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10 ** 18 + 3, 10 ** 24 + 7, 3 * 10 ** 24 + 7,
                               2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1])
def test_is_prime_large_primes(n):
    assert sympy.isprime(n)
    assert is_prime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(10 ** 5, 3 * 10 ** 24), st.integers(0, 2))
def test_is_prime_matches_sympy(n, kind):
    # kind 1: a prime; kind 2: a product of two primes; kind 0: any n
    if kind:
        q = sympy.nextprime(n if kind == 1 else math.isqrt(n))
        n = q if kind == 1 else q * sympy.nextprime(q + n % 1000)
    assert is_prime(n) == sympy.isprime(n)


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100).flatmap(lambda k: st.lists(
    st.integers(-10 ** k, 10 ** k), min_size=36, max_size=36)))
def test_charpoly_adj_matches_sympy(entries):
    # the zeta certificate's char poly of a 6 x 6 integer matrix
    A = [entries[6 * i:6 * i + 6] for i in range(6)]
    c, adj = charpoly_adj(A)
    assert all(isinstance(x, int) for x in c + sum(adj, []))
    assert c[::-1] == sympy.Matrix(A).charpoly(sympy.Symbol("T")).all_coeffs()
    det = c[0]  # n = 6 is even
    assert _matmul(A, adj) == [[det * (i == j) for j in range(6)] for i in range(6)]


@pytest.mark.parametrize("p", list(sympy.primerange(5, 104)) + [109, 211, 397])
def test_cube_roots_residues_match_nthroot_mod(p):
    # ascending residues: nthroot_mod's order, so every point list keeps it
    ctx = PadicContext(p, 3)
    for u in range(1, p):
        roots = [r.residue(1) for r in cube_roots(ctx.from_int(u))]
        assert roots == [int(r) for r in nthroot_mod(u, 3, p, all_roots=True) or []]
        assert all(pow(r.unit, 3, p ** 3) == u for r in cube_roots(ctx.from_int(u)))
