"""Truncated power series over Q_p: normalization, truncation bounds, and
certified root isolation inside a residue disk.

Two layers live here.  The public `PadicSeries` carries capped-precision
coefficients and powers the root-solving pipeline.  The `ser_*` helpers are a
fast engine on plain integer coefficient lists modulo p^W, used by the curve
and Frobenius machinery where per-coefficient precision tracking would be
needless overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DoubleRoot,
    NoRootsGuaranteed,
    PrecisionExhausted,
)
from .padic import (
    PadicContext,
    PadicElement,
    _polymul_mod,
    _pval,
    poly_deriv,
    poly_eval_mod,
    taylor_shift,
)


# --- fast integer-coefficient series engine ------------------------------


def ser_trim(a):
    """Drop trailing zero coefficients."""
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def ser_mul(a, b, mod, T=None):
    """Product of coefficient lists modulo `mod`, truncated to degree T."""
    out = _polymul_mod(a, b, mod)
    if T is not None:
        out = out[:T + 1]
    return out


def ser_add(a, b, mod):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % mod
            for i in range(n)]


def ser_scalar(c, a, mod):
    return [(c * x) % mod for x in a]


def ser_inv(a, mod, T):
    """1/a mod (p^W, t^(T+1)); requires a[0] invertible mod `mod`."""
    z = [pow(a[0], -1, mod)]
    prec = 1
    while prec <= T:
        prec = min(2 * prec, T + 1)
        az = ser_mul(a[:prec], z, mod, prec - 1)
        # z <- z*(2 - a z)
        two_minus = [(-x) % mod for x in az]
        two_minus[0] = (2 - az[0]) % mod
        z = ser_mul(z, two_minus, mod, prec - 1)
    return z + [0] * (T + 1 - len(z))


def ser_cuberoot(a, mod, T, c0_root):
    """Cube root of a mod (p^W, t^(T+1)) with constant term c0_root.

    Requires c0_root^3 = a[0] mod `mod` and c0_root invertible.  Iterates on
    the inverse cube root r <- r(4 - a r^3)/3, which needs no divisions.
    """
    inv3 = pow(3, -1, mod)
    r = [pow(c0_root, -1, mod)]
    prec = 1
    while prec <= T:
        prec = min(2 * prec, T + 1)
        ar3 = ser_mul(ser_mul(ser_mul(r, r, mod, prec - 1), r, mod, prec - 1),
                      a[:prec], mod, prec - 1)
        corr = [(-x) % mod for x in ar3]
        corr[0] = (4 - ar3[0]) % mod
        r = ser_mul(r, ser_scalar(inv3, corr, mod), mod, prec - 1)
    # a * r^2 is the cube root
    out = ser_mul(ser_mul(r, r, mod, T), a[:T + 1], mod, T)
    return out + [0] * (T + 1 - len(out))


# --- public series type --------------------------------------------------


class PadicSeries:
    """Power series over Q_p known modulo t^(T+1), with capped coefficients."""

    __slots__ = ("ctx", "coeffs", "T", "delta")

    def __init__(self, ctx: PadicContext, coeffs, T=None):
        self.ctx = ctx
        self.coeffs = [ctx.element(c) for c in coeffs]
        self.T = T if T is not None else len(self.coeffs) - 1
        self.delta = 0  # precision loss recorded by antiderivative()

    def __repr__(self):
        return f"PadicSeries({self.coeffs!r}, T={self.T})"

    def coeff(self, i) -> PadicElement:
        return self.coeffs[i] if i < len(self.coeffs) else self.ctx.zero()


def antiderivative(fprime: PadicSeries, c) -> PadicSeries:
    """Term-wise a_i t^i -> a_i t^(i+1)/(i+1) with constant term c.

    The returned series carries `delta`, the worst v_p(i+1) over retained
    terms — the precision lost to the divisions.
    """
    ctx = fprime.ctx
    c = ctx.element(c)
    out = [c]
    delta = 0
    for i, a in enumerate(fprime.coeffs):
        out.append(a / ctx.from_int(i + 1))
        if not a.is_zero:
            delta = max(delta, _pval(i + 1, ctx.p))
    s = PadicSeries(ctx, out, fprime.T + 1)
    s.delta = delta
    return s


@dataclass
class NormalizedSeries:
    """F(x) = f(px)/p^lambda with coefficients in Z_p, not all divisible by p."""

    coeffs: list  # integer coefficients modulo p^Nprime
    lam: int
    Nprime: int
    ctx: PadicContext


@dataclass
class RootRecord:
    """Approximate root r of F_M modulo p^(k_r digits) with a Hensel certificate."""

    residue: int
    known_digits: int
    certified_simple: bool
    derivative_valuation: int


def truncation_bound(N: int, lam: int, ctx: PadicContext) -> int:
    """Least m with m - lam - log_p(m) > N, via the exact form p^(m-lam-N) > m."""
    m = max(N + lam + 1, 1)
    while not (m - lam - N >= 1 and ctx.p ** (m - lam - N) > m):
        m += 1
    return m


def normalize(f: PadicSeries, Nprime: int) -> NormalizedSeries:
    """Scale f(px) by p^-lambda so its coefficients are integral with a unit.

    Implements the root bijection r <-> pr between roots of f in pZ_p and
    roots of the output in Z_p.  Coefficients are returned as plain integers
    modulo p^Nprime; raises PrecisionExhausted if any coefficient of the
    truncated normalized series is not determined to that precision.
    """
    ctx = f.ctx
    c = f.coeff(0)
    if not c.is_zero and c.valuation() < 0:
        raise NoRootsGuaranteed(f"constant term has valuation {c.valuation()} < 0")

    # valuations of coefficients of f(px): v(b_i) + i
    vals = [b.v + i for i, b in enumerate(f.coeffs) if not b.is_zero]
    if not vals:
        raise PrecisionExhausted("series is zero to precision: roots undetermined")
    lam = min(vals)

    M = truncation_bound(Nprime, lam, ctx)
    out = []
    for i in range(0, M + 1):
        b = f.coeff(i)
        if b.is_zero:
            if b.abs_prec + i - lam < Nprime:
                raise PrecisionExhausted(
                    f"coefficient {i} known only to O(p^{b.abs_prec})")
            out.append(0)
            continue
        shifted_v = b.v + i - lam
        if shifted_v + b.rel < Nprime:
            raise PrecisionExhausted(f"coefficient {i} has too few digits")
        out.append((b.unit * ctx.pk(shifted_v)) % ctx.pk(Nprime))
    return NormalizedSeries(ser_trim(out), lam, Nprime, ctx)


def hensel_system_of_roots(F, p: int, N: int):
    """All approximate roots of the integer polynomial F modulo p^N.

    Depth-first search lifting roots mod p^i to mod p^(i+1).  Each returned
    record (r, k_r) satisfies: F(r) = 0 mod p^N; F(r + p^(k_r) s) is
    identically zero in (Z/p^N)[s]; and k_r is minimal with that property.
    Records with 2 v_p(F'(r)) < N are certified simple and approximate a
    unique root of F in Z_p to k_r digits.
    """
    pN = p ** N
    F = [c % pN for c in F]
    if all(c % p == 0 for c in F):
        raise ValueError("F is identically zero mod p")
    dF = poly_deriv(F)

    stack = [(b, 1) for b in range(p) if poly_eval_mod(F, b, p) == 0]
    records = []
    while stack:
        a, i = stack.pop(0)
        # coefficients of F(a + p^i s) mod p^N
        g0 = [c * pow(p, i * j, pN) % pN
              for j, c in enumerate(taylor_shift(F, a, pN))]
        if any(c % pN for c in g0):
            v = min(_pval(c, p) for c in g0 if c % pN)
            g = [(c // p ** v) % p for c in g0]
            new = [(a + p ** i * b, i + 1) for b in range(p)
                   if poly_eval_mod(g, b, p) == 0]
            stack = new + stack
        else:
            records.append((a, i))

    out = []
    for a, i in records:
        dval = _pval_capped(poly_eval_mod(dF, a, pN), p, N)
        out.append(RootRecord(a, i, 2 * dval < N, dval))
    return out


def _pval_capped(n, p, cap):
    if n == 0:
        return cap
    return min(_pval(n, p), cap)


def solve_zeros_in_disk(fprime: PadicSeries, c, ctx: PadicContext,
                        require_simple: bool = True):
    """Certified zeros of the antiderivative of fprime (constant term c) on pZ_p.

    Returns (records, Nprime, lam, F) where each record's residue r stands for
    the root t = p * r_tilde.  F is the truncated normalized polynomial mod
    p^Nprime, for later refinement.  Raises PrecisionExhausted when N' <= 0,
    DoubleRoot when a root cannot be certified simple (and require_simple).
    """
    f = antiderivative(fprime, c)
    Nprime = ctx.N - f.delta
    if Nprime <= 0:
        raise PrecisionExhausted(f"N' = {Nprime} after integration loss {f.delta}")
    try:
        norm = normalize(f, Nprime)
    except NoRootsGuaranteed:
        return [], Nprime, None, None
    records = hensel_system_of_roots(norm.coeffs, ctx.p, Nprime)
    if require_simple:
        for rec in records:
            if not rec.certified_simple:
                raise DoubleRoot(
                    f"root {rec.residue} mod p^{rec.known_digits} not certified simple")
    return records, Nprime, norm.lam, norm.coeffs
