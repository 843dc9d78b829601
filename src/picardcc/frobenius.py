"""Frobenius lift on a Picard curve and its action on cohomology.

The lift sends x -> x^p and y -> y^p (1 + u)^(1/3) with
u = p A(x)/f(x)^p, pA = f(x^p) - f(x)^p.  Pulling back the basis
differential x^a y^b dx/f and expanding the binomial series gives

    phi^* (x^a y^b dx/f)
      = sum_k p^(k+1) C((b-3)/3, k) x^(pa+p-1) A(x)^k y^j dx / f(x)^(s_k)

with j = pb mod 3 in {1, 2} and s_k = p + pk - (pb - j)/3.  Term k is
g_k(x) dx / y^(t_k) with t_k = 3 s_k - j = 3p(k+1) - pb: the pole orders
are 3p apart and all congruent mod 3.  The whole sum is reduced to the basis
span plus an exact differential in one descending sweep (the order of
Kedlaya-style reduction): start at the largest t_k, lower t by 3 with pole
steps, add g_k into the running numerator when t reaches t_k, and finish
with degree steps once t <= 2.

  pole step (t > 2), g of degree < 4: g = u f + v f' with v = V g and
      u = U g, where column k of V is x^k beta mod f (beta f' = 1 mod f) and
      column k of U is (x^k - v_k f')/f, of degree <= 2; then
      g dx/y^t = [u - 3/(3-t) v'] dx/y^(t-3) + d(3/(3-t) v y^(3-t))
  degree step (t <= 2): d(x^m y^(3-t)) = [m x^(m-1) f + (3-t)/3 x^m f'] dx/y^t
      kills the top x-degree (leading coefficient (3m + 12 - 4t)/3 != 0).

Before the sweep the pullback is put over one denominator, H/y^t_max with
H = x^(p-1) sum_k c_k A^k F^(K-k), F = f^p, and H is taken in f-adic digits
H = sum_j r_j f^j (deg r_j < 4); r_j is the term at pole order t_max - 3j.
H itself is never formed.  The digits of x^(p-1) A^k come from those of
x^(p-1) A^(k-1) by one digit product with the digits of A (`_digit_mul`: a
product of two digits has degree <= 6, so a digit product is one polynomial
product with each digit spread over 7 coefficients, and each slot q f + r
keeps r and carries q into the next digit), and F^(K-k) = f^(p(K-k)) only
shifts digits.  Form (a, b) pulls back to x^(pa) times the (0, b) pullback,
so only b = 1, 2 are built, and the digits of x^(pa) H take one digit
product per a with the digits of x^p.  So every pole step acts on a
numerator of degree < 4 and is one step of the fixed 4x4 integer matrices
U and V (Harvey, Kedlaya's algorithm in larger characteristic, 2007;
Tuitman, Counting points on curves using a map to P^1, 2016).

All polynomial arithmetic is on integer coefficients modulo p^(W + guard)
(`working_precision`).  Divisions by p-divisible integers are tracked by a
global shift sigma (values are p^-sigma times the stored integers).  M and
the exact parts keep W digits, so an entry states O(p^(W - sigma)); the
guard digits cover that while sigma lies at most guard below the largest
sigma the sweep reached.

The reduction basis is [dx/y^2, x dx/y^2, dx/y, x^2 dx/y^2, x dx/y,
x^2 dx/y]: the first three are the regular omega_1, omega_2, omega_3; slot 4
replaces the traditional x^3 dx/y^2, which is exact when f has no x^3 term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ComputationFailure, PrecisionExhausted
from .padic import (INF, PadicContext, RamifiedElement, _polymul_mod, _pval, charpoly_adj,
                    disc_adj, poly_deriv, poly_eval_mod, taylor_shift)
from .series import ser_add, ser_mul, ser_spread, ser_trim
from .curve import PicardCurve, classify_disks, points_over_Fp


# The plan of a bad disk (`coleman.plan_disk`) needs every exact-part level
# to N + NEED_MARGIN digits at the boundary point, and refuses terms as large
# as pi^(-DECAY e).
NEED_MARGIN = 5
DECAY = 4

# internal reduction basis: (a, b) with omega = x^a y^b dx/f
BASIS = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)]
REGULAR = (0, 1, 2)  # indices of omega_1..omega_3 in BASIS


# --- polynomial helpers (integer coefficients mod p^W) -------------------


def _poly_sub(a, b, mod):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % mod
            for i in range(n)]


def _bezout_unit(curve: PicardCurve, p, mod):
    """The rows of V mod p^W, column k of V being x^k beta mod f, where
    alpha f + beta f' = 1: V = adj / disc(f) inverts q -> f' q on Q[x]/(f)
    (`disc_adj`), so beta = f'^-1 mod f is its column 0."""
    disc, adj = disc_adj(curve.f)
    if disc % p == 0:
        raise PrecisionExhausted(f"p = {p} divides disc(f): Bezout denominators not p-integral")
    dinv = pow(disc, -1, mod)
    return [[c * dinv % mod for c in row] for row in adj]


# --- the reduction -------------------------------------------------------


def _strip(sigma, poly, p):
    """Remove common p-content (up to p^sigma) so the denominator exponent
    sigma stays minimal.  Stored residues divisible by p^d are divided out
    exactly; intermediate reduction values regain the divisibility that the
    divisions by (3 - t) consume, so sigma stays bounded instead of growing
    with the pole order.  (Every pipeline run validates the resulting matrix
    with zeta_consistency_check.)"""
    poly = ser_trim(poly)
    if sigma <= 0 or not poly:
        return 0 if not poly else sigma, poly
    d = sigma
    for c in poly:
        if c:
            d = min(d, _pval(c, p))
            if d == 0:
                return sigma, poly
    q = p ** d
    return sigma - d, [c // q for c in poly]


def _entry_add(e1, e2, p, mod):
    """Add two (sigma, poly) pairs representing p^-sigma * poly."""
    s1, p1 = e1
    s2, p2 = e2
    s = max(s1, s2)
    if s1 < s:
        p1 = [c * p ** (s - s1) % mod for c in p1]
    if s2 < s:
        p2 = [c * p ** (s - s2) % mod for c in p2]
    return _strip(s, ser_add(p1, p2, mod), p)


class _Reducer:
    """Reduces sums of g(x) dx / y^t into basis coordinates plus an exact part.

    All values are (sigma, integer data) pairs meaning p^-sigma times the
    stored integers, coefficients modulo p^W.
    """

    def __init__(self, curve, p, W):
        self.p = p
        self.mod = mod = p ** W
        self.f = [c % mod for c in curve.f]
        self.df = [c % mod for c in poly_deriv(curve.f)]
        self.inv3 = pow(3, -1, mod)
        self.V = _bezout_unit(curve, p, mod)
        # column k of U is the quotient (x^k - v f')/f, v column k of V
        cols = []
        for k in range(4):
            h = _poly_sub([0] * k + [1], ser_mul([r[k] for r in self.V], self.df, mod), mod)
            cols.append(_f_adic_digits(h, self.f, mod, 2)[1])
        self.U = [[c[i] for c in cols] for i in range(3)]

    def _inv_tracked(self, n):
        """(inverse of unit part, p-valuation) of the integer n != 0."""
        v = _pval(n, self.p)
        return pow(n // self.p ** v, -1, self.mod), v

    def _pole_step(self, sigma, g, t):
        """(sigma, g, exact level 3 - t) after the pole step at t > 2 on the
        numerator g of degree < 4: g = u f + v f' with v = V g, u = U g."""
        mod, p = self.mod, self.p
        g0, g1, g2, g3 = g + [0] * (4 - len(g))
        v = [(a * g0 + b * g1 + c * g2 + d * g3) % mod for a, b, c, d in self.V]
        u = [a * g0 + b * g1 + c * g2 + d * g3 for a, b, c, d in self.U]
        inv, extra = self._inv_tracked(3 - t)
        # the division by (3 - t) raises sigma by extra; v and v' sit inside
        # that division so they stay at the old scale, while u must be
        # rescaled to the new one
        sigma += extra
        scale = p ** extra
        coef = 3 * inv % mod  # 3/(3-t) with the p-part moved into sigma
        g = [(scale * u[i] - (i + 1) * coef * v[i + 1]) % mod for i in range(3)]
        level = _strip(sigma, [c * coef % mod for c in v], p)
        return (*_strip(sigma, g, p), level)

    def reduce(self, terms):
        """Reduce sum_t g_t dx/y^t, terms a dict t -> g_t with all t
        congruent mod 3 and deg g_t < 4 for t > 2 (f-adic digits), in one
        sweep of pole steps from the largest t down; each g_t joins the
        running numerator when the sweep reaches t.

        Returns ((sigma, coeffs[6]), exact, peak) with
        sum = p^-sigma sum coeffs_i omega_i + d(sum of exact entries),
        exact a dict y_exp -> (sigma_e, poly) and peak the largest sigma the
        sweep reaches, before a strip takes it back down."""
        mod, p = self.mod, self.p
        sigma = peak = 0
        g = []
        exact = {}
        t = max(terms)

        while True:
            if t in terms:
                scale = p ** sigma
                g = ser_add(g, [c * scale for c in terms[t]], mod)
            if t <= 2:
                break
            peak = max(peak, sigma + _pval(3 - t, p))
            sigma, g, exact[3 - t] = self._pole_step(sigma, g, t)
            t -= 3

        # degree reduction at t in {1, 2}
        while len(g) > 3:
            d = len(g) - 1
            m = d - 3
            lead_num = 3 * m + 12 - 4 * t
            inv, extra = self._inv_tracked(lead_num)
            lead = g[-1]  # pre-rescale: the division by p^extra cancels it
            sigma += extra
            peak = max(peak, sigma)
            if extra:
                scale = p ** extra
                g = [c * scale % mod for c in g]
            c = lead * 3 % mod * inv % mod
            # subtract c * d(x^m y^(3-t)) = c [m x^(m-1) f + (3-t)/3 x^m f'] dx/y^t
            sub = [0] * (d + 1)
            for j, fc in enumerate(self.f):
                if m >= 1:
                    sub[m - 1 + j] = (sub[m - 1 + j] + c * m % mod * fc) % mod
            coef2 = c * (3 - t) % mod * self.inv3 % mod
            for j, fc in enumerate(self.df):
                sub[m + j] = (sub[m + j] + coef2 * fc) % mod
            g = _poly_sub(g, sub, mod)
            key = 3 - t
            exact[key] = _entry_add(exact.get(key, (0, [])),
                                    (sigma, [0] * m + [c]), p, mod)
            sigma, g = _strip(sigma, g, p)

        # map the residual deg <= 2 poly into basis slots
        # t=2: {1, x, x^2} dx/y^2 = omega_1, omega_2, omega_4'
        # t=1: {1, x, x^2} dx/y  = omega_3, omega_5, omega_6
        coeffs = [0] * 6
        slots = (0, 1, 3) if t == 2 else (2, 4, 5)
        for d, c in enumerate(g):
            coeffs[slots[d]] = c % mod
        return (sigma, coeffs), exact, peak


# --- Frobenius data ------------------------------------------------------


@dataclass
class FrobeniusData:
    curve: PicardCurve
    p: int
    N_work: int
    ctx: PadicContext           # working context (N = N_work)
    M: list                     # 6x6, entries in Q_p
    exact_parts: list           # 6 dicts y_exp -> (sigma, poly), f_i being
                                # sum p^-sigma poly(x) y^y_exp
    sigma_max: int
    A_poly: list = None         # pA = f(x^p) - f(x)^p support data
    _levels: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def system(self):
        """((I - M)^-1, ord_p det(I - M)), factored once over Q_p and shared
        by every integrator built on this matrix."""
        ctx, n = self.ctx, len(self.M)
        rows = [[(1 if i == j else 0) - self.M[i][j] for j in range(n)]
                for i in range(n)]
        eye = [[ctx.one() if i == j else ctx.zero() for j in range(n)]
               for i in range(n)]
        return _solve_linear(rows, eye)

    @cached_property
    def disks(self):
        """The residue disks (`classify_disks`), shared by the choice of e and
        every integrator built on this matrix."""
        return classify_disks(self.curve, self.ctx)

    @cached_property
    def level_rows(self):
        """Per exact part (smax, top, rows), which the exact parts at good
        disks read: smax its largest sigma, top its highest level and rows[j]
        the coefficients of level lo + 3j, lo its lowest, times
        p^(smax - sigma) mod p^W ([] for a missing level)."""
        p, mod, out = self.p, self.ctx.pk(self.N_work), []
        for part in self.exact_parts:
            smax = max((sig for sig, _ in part.values()), default=0)
            rows = [[c * p ** (smax - part[m][0]) % mod for c in part[m][1]] if m in part else []
                    for m in range(min(part, default=0), max(part, default=0) + 1, 3)]
            out.append((smax, max(part, default=0), rows))
        return out

    def levels(self, x0=None):
        """Per exact part, the data of each level p^-sigma poly(x) y^m that the
        plans of the bad disks read, made once for every e.  At infinity (x0
        None) it is (m, sigma, terms, top), terms the (j, c, v_p(c)) of the
        nonzero coefficients of poly and top three times its degree; at the
        integer x0 it is (m, sigma, b, k, i0), b the Taylor coefficients of
        poly at x0 mod p^W, k = min v_p(b_i) and i0 the first i with it."""
        if x0 not in self._levels:
            p, mod = self.p, self.ctx.pk(self.N_work)
            vp = {p ** k: k for k in range(self.N_work + 1)}  # v_p(c) = vp[gcd(c, p^W)]
            self._levels[x0] = [[] for _ in self.exact_parts]
            for levels, part in zip(self._levels[x0], self.exact_parts):
                for m, (sig, poly) in part.items():
                    if x0 is None:
                        terms = [(j, c, vp[math.gcd(c, mod)]) for j, c in enumerate(poly) if c]
                        levels.append((m, sig, terms, 3 * terms[-1][0]))
                    else:
                        b = taylor_shift(poly, x0, mod)
                        g = math.gcd(mod, *b)
                        i0 = next((i for i, c in enumerate(b) if c % (g * p)), 0)
                        levels.append((m, sig, b, vp[g], i0))
        return self._levels[x0]


def _solve_linear(rows, rhs):
    """Solve A X = B over Q_p by Gauss-Jordan with minimal-valuation pivoting.

    rows is the n x n matrix A and rhs the n x k matrix B, both over Q_p.
    Returns (X, ord_p det A).
    """
    n = len(rows)
    aug = [list(rows[i]) + list(rhs[i]) for i in range(n)]
    det_ord = 0
    for col in range(n):
        piv, piv_val = None, INF
        for r in range(col, n):
            v = aug[r][col].valuation()
            if v < piv_val:
                piv, piv_val = r, v
        if piv is None or piv_val == INF:
            raise PrecisionExhausted("matrix is singular to working precision")
        aug[col], aug[piv] = aug[piv], aug[col]
        det_ord += int(piv_val)
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor.is_zero:
                continue
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], det_ord


def working_precision(p: int, N: int, finite_disk: bool):
    """(W, guard): M and the exact parts state W digits, and the sweep runs
    with guard more that it drops.  With no finite bad disk W = N + 9, the
    N + NEED_MARGIN digits the plan at infinity reads after terms as large
    as pi^(-DECAY e), and guard = floor(log_p q_max) digits for the sweep's
    loss, q_max = 3p(k_max + 1) the largest pole order at W + guard digits
    (Kedlaya 2001).  With a finite bad disk the deep levels y^m set e
    through W, and W = N + 8 + 2 ceil(log_p q_max) states its guard digits
    (guard = 0)."""
    if finite_disk:
        q_max = 3 * p * (_binomial_cutoff(p, N + 8) + 1)
        return N + 8 + 2 * max(1, math.ceil(math.log(q_max, p))), 0
    W, guard = N + NEED_MARGIN + DECAY, 0
    while p ** (guard + 1) <= 3 * p * (_binomial_cutoff(p, W + guard) + 1):
        guard += 1
    return W, guard


def _binomial_cutoff(p: int, W: int) -> int:
    """Smallest K such that v_p(p^(k+1)/k!) >= W for all k >= K."""
    k = 1
    while True:
        lower = k + 1 - sum(k // p ** j for j in range(1, 40) if p ** j <= k)
        if lower >= W:
            return k
        k += 1


def _f_adic_digits(h, f, mod, n):
    """The n digits r_j of h = sum_(j<n) r_j f^j mod p^W, each a list of 4
    coefficients, for the monic quartic f and len(h) <= 4n: h is divided by
    f once per digit, top term first."""
    digits = []
    for _ in range(n):
        h, q = list(h) + [0] * (4 - len(h)), [0] * (len(h) - 4)
        for i in range(len(h) - 1, 3, -1):  # h = q f + r
            c = q[i - 4] = h[i] % mod
            for j in range(4):
                h[i - 4 + j] -= c * f[j]
        digits.append([x % mod for x in h[:4]])
        h = q
    return digits


def _digit_mul(d, a, f, mod):
    """The len(d) + len(a) digits of (sum_j d_j f^j)(sum_i a_i f^i) from the
    digits d_j and a_i (4 coefficients each).  Each digit is spread over 7
    coefficients, so one product puts s_n = sum_(i+j=n) d_j a_i, of degree
    <= 6, in coefficients 7n..7n+6; then s_n = q_n f + r_n with deg q_n <= 2
    and digit n is r_n + q_(n-1)."""
    pad = [0, 0, 0]
    s = _polymul_mod([c for r in d for c in r + pad][:-3],
                     [c for r in a for c in r + pad][:-3], mod)
    f0, f1, f2, f3 = f[:4]
    out, q0, q1, q2 = [], 0, 0, 0
    for n in range(0, len(s), 7):
        h0, h1, h2, h3, h4, h5, c2 = s[n:n + 7]
        c1 = (h5 - c2 * f3) % mod
        c0 = (h4 - c2 * f2 - c1 * f3) % mod
        out.append([(h0 - c0 * f0 + q0) % mod, (h1 - c1 * f0 - c0 * f1 + q1) % mod,
                    (h2 - c2 * f0 - c1 * f1 - c0 * f2 + q2) % mod,
                    (h3 - c2 * f1 - c1 * f2 - c0 * f3) % mod])
        q0, q1, q2 = c0, c1, c2
    return out + [[q0, q1, q2, 0]]


def _numerator_digits(p, b, c, deltas, mod):
    """(r, t_max): the t_max // 3 + 1 digits r_j of H with
    sum_k c_k x^(p-1) A^k dx/y^(3p(k+1) - pb) = H dx/y^t_max, K the last k
    with c_k != 0 and t_max = 3p(K+1) - pb.  Term k gains F^(K-k) = f^(p(K-k)),
    a shift by p(K-k) of deltas[k], the digits of x^(p-1) A^k to the p^W that
    c_k leaves; deg H < 4 (t_max // 3 + 1), so digits past r_J are zero."""
    c = ser_trim(c)
    K, t_max = len(c) - 1, 3 * p * len(c) - p * b
    r = [[0] * 4 for _ in range(t_max // 3 + 1)]
    for k, ck in enumerate(c):
        for acc, d in zip(r[p * (K - k):], deltas[k]):
            for i in range(4):
                acc[i] += ck * d[i]
    return [[x % mod for x in d] for d in r], t_max


def frobenius_matrix(curve: PicardCurve, p: int, N: int) -> FrobeniusData:
    """M and exact parts f_i with phi^* omega_i = d f_i + sum_j M_ij omega_j,
    stated to W digits and computed to W + guard (`working_precision`).
    PrecisionExhausted when a stated entry's sigma lies more than guard
    below the largest sigma its sweep reached."""
    finite = any(poly_eval_mod(curve.f, x, p) == 0 for x in range(p))
    W, guard = working_precision(p, N, finite)
    Wg = W + guard
    mod = p ** Wg

    # pA = f(x^p) - f(x)^p, computed mod p^(Wg+1) so A is exact mod p^Wg
    mod1 = mod * p
    f1, fp = [c % mod1 for c in curve.f], [1]
    for _ in range(p):
        fp = ser_mul(fp, f1, mod1)
    diff = _poly_sub(ser_spread(f1, p), fp, mod1)  # f(x^p) - f(x)^p
    if any(c % p for c in diff):
        raise ComputationFailure(f"f(x^p) != f(x)^p mod p at p = {p}")
    A = ser_trim([(c // p) % mod for c in diff])

    reducer = _Reducer(curve, p, Wg)
    f, cs = reducer.f, []
    for b in (1, 2):
        c = [Fraction(p)]  # c_k = p^(k+1) C((b-3)/3, k) = c_(k-1) p (b - 3k)/(3k)
        for k in range(1, _binomial_cutoff(p, Wg) + 1):
            c.append(c[-1] * p * (b - 3 * k) / (3 * k))  # unit denominators
        cs.append([q.numerator * pow(q.denominator, -1, mod) % mod for q in c])
    # the digits of x^(p-1) A^k for every k the numerators read, each from the
    # one before by one digit product with the p digits of A; read times c_k,
    # they are needed mod p^(Wg - v_p(c_k)), or to what a later k needs
    need = [max(Wg - _pval(c, p) if c else 0 for c in ck) for ck in zip(*cs)]
    alpha = _f_adic_digits(A, f, mod, p)
    deltas = [_f_adic_digits([0] * (p - 1) + [1], f, mod, (p + 3) // 4)]
    while len(deltas) < max(len(ser_trim(c)) for c in cs):
        deltas.append(_digit_mul(deltas[-1], alpha, f, p ** max(need[len(deltas):])))
    xp = _f_adic_digits([0] * p + [1], f, mod, p // 4 + 1)
    rows, parts = [None] * 6, [None] * 6
    stated = p ** W
    for b, c in zip((1, 2), cs):
        # digit r_j sits at pole order t_max - 3j; the last, at t_max mod 3,
        # takes the digits past it whole
        r, t_max = _numerator_digits(p, b, c, deltas, mod)
        J = t_max // 3
        for a in (0, 1, 2):  # form (a, b) pulls back to x^(pa) H_b dx/y^t_max
            if a:
                r = _digit_mul(r, xp, f, mod)
            last = []
            for d in reversed(r[J:]):
                last = ser_add(ser_mul(last, f, mod), d, mod)
            (sigma, coeffs), exact, peak = reducer.reduce(
                {t_max - 3 * j: ser_trim(d) for j, d in enumerate(r[:J] + [last])})
            i = BASIS.index((a, b))
            rows[i] = (sigma, coeffs)
            # the guard digits are dropped: a level zero mod p^W is zero to
            # the digits it states
            parts[i] = {m: (sig, kept) for m, (sig, poly) in exact.items()
                        if (kept := ser_trim([c % stated for c in poly]))}
            low = min([sigma] + [sig for sig, _ in parts[i].values()])
            if guard and peak - low > guard:
                raise PrecisionExhausted(
                    f"the sweep of form {i + 1} lost {peak - low} digits, "
                    f"above its {guard} guard digits")
    sigma_max = max([s for s, _ in rows] + [sig for part in parts for sig, _ in part.values()])

    # the matrix over Q_p: entry = p^-sigma * int, known mod p^(W - sigma)
    ctx = PadicContext(p, W)
    M = [[RamifiedElement(ctx, 1, -sigma, [c], W - sigma) for c in coeffs]
         for sigma, coeffs in rows]
    if W - sigma_max < N:
        raise PrecisionExhausted(
            f"guard digits exhausted: W={W}, sigma={sigma_max}, N={N}")
    return FrobeniusData(curve, p, W, ctx, M, parts, sigma_max, ser_trim([c % stated for c in A]))


# --- zeta / consistency --------------------------------------------------


@dataclass
class ZetaReport:
    char_poly: list          # integer coefficients, degree 6, leading 1
    det_ok: bool
    integrality_ok: bool
    functional_eq_ok: bool
    trace_ok: bool
    point_count: int
    trace: int
    weil_ok: bool

    @property
    def all_ok(self):
        return (self.det_ok and self.integrality_ok and self.functional_eq_ok
                and self.trace_ok and self.weil_ok)


def _balanced(c, mod):
    c %= mod
    return c - mod if c > mod // 2 else c


def zeta_consistency_check(fd: FrobeniusData) -> ZetaReport:
    """Integer char poly, det = p^3, functional equation, trace vs #X(F_p)."""
    p, W = fd.p, fd.N_work
    Wp = W - fd.sigma_max
    modp = p ** Wp
    # entries may have bounded denominators (valuation >= -s); scale by p^s,
    # take the char poly of the integral matrix, and divide the scaling back
    # out: c_i(M) = c_i(p^s M) / p^(s (6 - i))
    s = 0
    for row in fd.M:
        for e in row:
            if not e.is_zero and e.valuation() < -s:
                s = -int(e.valuation())
    def scaled(e):  # p^s e as an integer, to the digits it has
        x = e * e.ctx.from_int(p ** s)
        return 0 if x.is_zero else x.residue(min(Wp, int(x.abs_prec)))

    # degree 6 monic, over Z (huge ints)
    chi = charpoly_adj([[scaled(e) for e in row] for row in fd.M])[0]
    # Weil bounds: |c_{6-i}| for chi = prod (T - alpha_i), |alpha_i| = sqrt(p)
    bounds = [math.comb(6, i) * (p ** 0.5) ** i * 1.000001 for i in range(7)]
    integrality = True
    coeffs = []
    for i in range(7):  # c0..c6 of chi(T) for M itself
        d = chi[i] % modp
        scale = p ** (s * (6 - i))
        if d % scale:
            integrality = False
            coeffs.append(_balanced(d, modp))
            continue
        # balanced lift at just enough digits to pin the Weil-bounded
        # integer (guard digits above the effective precision are noise)
        avail = Wp - s * (6 - i)
        need = math.ceil(math.log(2 * bounds[6 - i] + 1, p)) + 2
        k_use = min(avail, need)
        coeffs.append(_balanced(d // scale, p ** k_use))

    det_ok = coeffs[0] == p ** 3
    weil_ok = all(abs(coeffs[6 - i]) <= bounds[i] for i in range(7))
    integrality_ok = integrality and weil_ok
    func_ok = all(coeffs[6 - i] * p ** 3 == coeffs[i] * p ** i for i in range(7))
    tr = -coeffs[5]
    count = len(points_over_Fp(fd.curve, p))
    trace_ok = (p + 1 - tr) == count
    return ZetaReport(coeffs[::-1], det_ok, integrality_ok, func_ok, trace_ok,
                      count, tr, weil_ok)
