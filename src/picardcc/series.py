"""Power series for the p-adic pipeline, with plain integer coefficients.

The `ser_*` helpers add and multiply series truncated at t^(T+1) with
coefficients modulo p^W, and one Newton, `ser_inverse_root`, gives a^(-1/k):
k = 1 for inverses, k = 3 for the residue-disk expansions of
`ColemanIntegrator._disk_data`.  Frobenius and the integrator build
pullbacks with them.  `solve_zeros_in_disk` reads one row of
`ColemanIntegrator.antiderivative_rows` (integer terms c t^j / d known
modulo p^prec) and isolates the zeros of that antiderivative on pZ_p:
precision accounting, the scaling F(x) = f(px)/p^lambda, the truncation
bound and a Hensel search for the roots of F.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PicardCCError, PrecisionExhausted
from .padic import (
    PadicContext,
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


def ser_spread(a, m, n=None, k0=0):
    """t^k0 a(t^m) as n coefficients (default: through its last term)."""
    if n is None:
        n = k0 + m * (len(a) - 1) + 1 if a else 0
    a = a[:len(range(k0, n, m))]
    out = [0] * n
    out[k0:k0 + m * len(a):m] = a
    return out


def ser_mul(a, b, mod, T=None):
    """Product of coefficient lists modulo `mod`, truncated to degree T."""
    return _polymul_mod(a, b, mod, None if T is None else T + 1)


def ser_add(a, b, mod):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % mod
            for i in range(n)]


def ser_inverse_root(a, k, r0, mod, T):
    """a^(-1/k) mod (p^W, t^(T+1)) from r0 = a[0]^(-1/k) mod p^W, by the
    division-free Newton step r <- r((k + 1) - a r^k)/k, the t-adic precision
    doubling per step; the series form of `padic._inverse_root`
    (Brent-Zimmermann, Modern Computer Arithmetic, 4.2).  k = 1 inverts a;
    k = 3 gives the inverse cube root, a r^2 being the cube root.  k must
    be a unit mod p."""
    kinv = pow(k, -1, mod)
    r = [r0 % mod]
    prec = 1
    while prec <= T:
        prec = min(2 * prec, T + 1)
        ark = a[:prec]
        for _ in range(k):
            ark = ser_mul(ark, r, mod, prec - 1)
        corr = [-kinv * c % mod for c in ark]
        corr[0] = (k + 1 - ark[0]) * kinv % mod
        r = ser_mul(r, corr, mod, prec - 1)
    return r + [0] * (T + 1 - len(r))


# --- zeros of an antiderivative in a residue disk -------------------------


@dataclass
class RootRecord:
    """Approximate root r of F_M modulo p^(k_r digits) with a Hensel certificate."""

    residue: int
    known_digits: int
    certified_simple: bool


def truncation_bound(N: int, lam: int, ctx: PadicContext) -> int:
    """Least m with m - lam - log_p(m) > N, via the exact form p^(m-lam-N) > m."""
    m = max(N + lam + 1, 1)
    while not (m - lam - N >= 1 and ctx.p ** (m - lam - N) > m):
        m += 1
    return m


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
        d = poly_eval_mod(dF, a, pN)
        dval = _pval(d, p) if d else N  # d < p^N
        out.append(RootRecord(a, i, 2 * dval < N))
    return out


def solve_zeros_in_disk(terms, prec, const, N: int):
    """Certified zeros on pZ_p of f(t) = const + sum(c/d t^j for (j, c, d) in terms).

    `terms` and `prec` are one row of `ColemanIntegrator.antiderivative_rows`:
    each c is an integer known modulo p^prec, and a power with no term is
    zero to that precision.  `const` is an element of Q_p and N the precision
    of the vanishing differentials.  Returns (records, Nprime, lam, F): N'
    is N less delta, the worst v_p(d) of a nonzero term; F(x) =
    f(px)/p^lam is the normalized series truncated at `truncation_bound`,
    modulo p^N', with some coefficient a unit; each record's residue r
    stands for the root t = p * r_tilde.  A constant of negative valuation
    leaves f no zeros:
    ([], N', None, None).  Raises PrecisionExhausted when N' <= 0 or when a
    coefficient of F is not known modulo p^N'.
    """
    ctx = const.ctx
    p, pN = ctx.p, ctx.pk(N)
    # coefficient of t^j as (v, unit, rel): p^v * unit known to rel digits,
    # or unit 0 for zero to O(p^v).  F needs at most N digits, so units are
    # kept mod p^N and rel is not capped
    if const.is_zero:
        coeffs = {0: (const.abs_prec, 0, 0)}
    else:
        v0 = int(const.valuation())
        rel0 = int(const.abs_prec) - v0
        coeffs = {0: (v0, const.shift_pi(-v0).residue(rel0), rel0)}
    delta = 0
    for j, c, d in terms:
        if j <= 0:
            if c % ctx.pk(min(prec, N)):
                raise PicardCCError("regular differential with a pole in a disk")
            continue
        vd = _pval(d, p)
        if c % ctx.pk(prec) == 0:
            coeffs[j] = (prec - vd, 0, 0)
            continue
        vc = _pval(c, p)
        coeffs[j] = (vc - vd, c // ctx.pk(vc) * pow(d // ctx.pk(vd), -1, pN) % pN, prec - vc)
        delta = max(delta, vd)

    Nprime = N - delta
    if Nprime <= 0:
        raise PrecisionExhausted(f"N' = {Nprime} after integration loss {delta}")
    if coeffs[0][1] and coeffs[0][0] < 0:
        return [], Nprime, None, None

    # the root bijection t = p x: coefficients of f(px) have valuation v + j
    vals = [v + j for j, (v, unit, _) in coeffs.items() if unit]
    if not vals:
        raise PrecisionExhausted("series is zero to precision: roots undetermined")
    lam = min(vals)
    F = []
    for j in range(truncation_bound(Nprime, lam, ctx) + 1):
        v, unit, rel = coeffs[j] if j in coeffs else (prec - _pval(j, p), 0, 0)
        if not unit:
            if v + j - lam < Nprime:
                raise PrecisionExhausted(f"coefficient {j} known only to O(p^{v})")
            F.append(0)
            continue
        shifted_v = v + j - lam
        if shifted_v + rel < Nprime:
            raise PrecisionExhausted(f"coefficient {j} has too few digits")
        F.append(unit * ctx.pk(shifted_v) % ctx.pk(Nprime))
    F = ser_trim(F)
    return hensel_system_of_roots(F, p, Nprime), Nprime, lam, F
