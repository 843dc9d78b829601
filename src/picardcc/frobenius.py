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
H = x^(p-1) sum_k c_k A^k F^(K-k), F = f^p, built by a product tree that
splits the range of k in halves, and H is expanded once in f-adic digits
H = sum_j r_j f^j (deg r_j < 4); r_j is the term at pole order t_max - 3j.
Form (a, b) pulls back to x^(pa) times the (0, b) pullback, so only b = 1, 2
are expanded.  The digits of x^(pa) H come from those of H by pa passes of
x r_j = (x r_j - c_j f) + c_j f, c_j the x^3 coefficient of r_j, the c_j f
carried into r_(j+1).  So every pole step acts on a numerator of degree < 4
and is one step of the fixed 4x4 integer matrices U and V (Harvey, Kedlaya's
algorithm in larger characteristic, 2007; Tuitman, Counting points on curves
using a map to P^1, 2016).

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
from .padic import (INF, PadicContext, RamifiedElement, _pval, charpoly_adj, disc_adj,
                    poly_deriv, poly_eval_mod, taylor_shift)
from .series import ser_add, ser_inverse_root, ser_mul, ser_spread, ser_trim
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


def _power(cache, n, mod):
    """cache[n] = cache[1]^n mod `mod`, by squaring through cache[n // 2]."""
    if n not in cache:
        h = _power(cache, n // 2, mod)
        h = ser_mul(h, h, mod)
        cache[n] = ser_mul(h, cache[1], mod) if n % 2 else h
    return cache[n]


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
    stored integers, coefficients modulo p^W; table: `_fpow_table` of f.
    """

    def __init__(self, curve, p, W, table):
        self.p = p
        self.mod = mod = p ** W
        self.f = table[0][0]
        self.df = [c % mod for c in poly_deriv(curve.f)]
        self.inv3 = pow(3, -1, mod)
        self.V = _bezout_unit(curve, p, mod)
        # column k of U is the quotient (x^k - v f')/f, v column k of V
        cols = []
        for k in range(4):
            h = _poly_sub([0] * k + [1], ser_mul([r[k] for r in self.V], self.df, mod), mod)
            cols.append(_f_adic_digits(h, 0, table, mod)[1] + [0] * 3)
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


def _tree(c, lo, hi, A, F, mod):
    """S(lo, hi) = sum_{k=lo..hi} c_k A^(k-lo) F^(hi-k) by the product tree
    S(lo, m) F^(hi-m) + A^(m+1-lo) S(m+1, hi), m the midpoint (von zur
    Gathen-Gerhard, Modern Computer Algebra, 10.1); A, F: `_power` caches."""
    if lo == hi:
        return [c[lo]]
    m = (lo + hi) // 2
    return ser_add(ser_mul(_tree(c, lo, m, A, F, mod), _power(F, hi - m, mod), mod),
                   ser_mul(_power(A, m + 1 - lo, mod), _tree(c, m + 1, hi, A, F, mod), mod), mod)


def _numerator(p, b, c, A, F, mod):
    """(H, t_max) with sum_k c_k x^(p-1) A^k dx/y^(3p(k+1) - pb) = H dx/y^t_max:
    t_max = 3p(K'+1) - pb, K' the last k with c_k != 0, and term k gains
    f^(p(K'-k)), so H = x^(p-1) S(0, K') with F = f^p (`_tree`)."""
    c = ser_trim(c)
    return [0] * (p - 1) + _tree(c, 0, len(c) - 1, A, F, mod), 3 * p * len(c) - p * b


def _fpow_table(f, levels, mod, n_top):
    """[(f^(2^i), 1/rev(f^(2^i)) to 4 * 2^i terms) for i < levels], the top
    reciprocal cut to n_top terms, the most `_f_adic_digits` reads of it; f
    is monic, so each reversal has constant term 1.  Levels up to 2 divide
    by f directly and keep no reciprocal."""
    table = []
    for i in range(levels):
        if i:
            f = ser_mul(f, f, mod)
        n = n_top if i == levels - 1 else len(f) - 1
        table.append((f, ser_inverse_root(f[::-1], 1, 1, mod, n - 1) if i > 2 else None))
    return table


def _f_adic_digits(h, level, table, mod):
    """The 2^(level+1) digits r_j (deg r_j < 4) of h = sum_j r_j f^j, exact
    mod p^W for the monic quartic f = table[0][0], len(h) <= 8 * 2^level.
    Above level 2 the quotient by f^(2^level) comes from the reciprocal of
    its reversal and each half recurses; at level 2 and below (h of at most
    32 coefficients) h is divided by f once per digit."""
    if level <= 2:
        f0, f1, f2, f3 = table[0][0][:4]
        digits = []
        for _ in range(2 ** (level + 1)):
            h, q = list(h), [0] * (len(h) - 4)
            for i in range(len(h) - 1, 3, -1):  # h = q f + r, top term first
                c = q[i - 4] = h[i] % mod
                h[i - 1] -= c * f3
                h[i - 2] -= c * f2
                h[i - 3] -= c * f1
                h[i - 4] -= c * f0
            digits.append(ser_trim([x % mod for x in h[:4]]))
            h = q
        return digits
    F, inv = table[level]
    D = len(F) - 1
    m = len(h) - D  # quotient length; q and h[D:] are empty when m <= 0
    q = ser_mul(h[D:][::-1], inv[:m], mod, m - 1)[::-1]
    r = _poly_sub(h[:D], ser_mul(q, F[:D], mod, D - 1), mod)
    return (_f_adic_digits(r, level - 1, table, mod)
            + _f_adic_digits(q, level - 1, table, mod))


def _times_x(r, n, f, mod):
    """The f-adic digits of x^n sum_j r_j f^j for the monic quartic f, given
    its digits r_j (deg r_j < 4 except the last, which is kept whole).  Each
    of n passes maps r_j to x r_j - c_j f + c_(j-1), c_j the x^3 coefficient
    of r_j, whose c_j f is carried into r_(j+1); the last digit becomes
    x r_j + c_(j-1)."""
    r = [d + [0] * (4 - len(d)) for d in r[:-1]] + [r[-1]]
    f0, f1, f2, f3 = f[:4]
    for _ in range(n):
        c = 0
        for j, (r0, r1, r2, r3) in enumerate(r[:-1]):
            r[j], c = [(c - r3 * f0) % mod, (r0 - r3 * f1) % mod,
                       (r1 - r3 * f2) % mod, (r2 - r3 * f3) % mod], r3
        r[-1] = [c] + r[-1]
    return r[:-1] + [ser_trim(r[-1])]


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
    fxp = ser_spread([c % mod1 for c in curve.f], p)  # f(x^p)
    fp = _power({1: [c % mod1 for c in curve.f]}, p, mod1)
    diff = _poly_sub(fxp, fp, mod1)
    if any(c % p for c in diff):
        raise ComputationFailure(f"f(x^p) != f(x)^p mod p at p = {p}")
    A = ser_trim([(c // p) % mod for c in diff])

    k_max = _binomial_cutoff(p, Wg)
    powA, powF = {1: A}, {1: [c % mod for c in fp]}  # shared by b = 1, 2
    numerators = []
    for b in (1, 2):
        c = [Fraction(p)]  # c_k = p^(k+1) C((b-3)/3, k) = c_(k-1) p (b - 3k)/(3k)
        for k in range(1, k_max + 1):
            c.append(c[-1] * p * (b - 3 * k) / (3 * k))  # unit denominators
        c = [q.numerator * pow(q.denominator, -1, mod) % mod for q in c]
        numerators.append((b, *_numerator(p, b, c, powA, powF, mod)))
    # every numerator has at most 8 * 2^top coefficients, and the top
    # reciprocal is read to the longest quotient by f^(2^top)
    n = max(len(H) for _, H, _ in numerators)
    top = ((n - 1) // 8).bit_length()
    table = _fpow_table([c % mod for c in curve.f], top + 1, mod, max(1, n - 4 * 2 ** top))
    reducer = _Reducer(curve, p, Wg, table)
    rows, parts = [None] * 6, [None] * 6
    stated = p ** W
    for b, H, t_max in numerators:
        # digit r_j sits at pole order t_max - 3j; deg H < 4 (t_max // 3 + 1),
        # so the last, at t_max mod 3, is the whole quotient H // f^(t_max // 3)
        r = _f_adic_digits(H, top, table, mod)
        r = [r[j] if j < len(r) else [] for j in range(t_max // 3 + 1)]
        for a in (0, 1, 2):  # form (a, b) pulls back to x^(pa) H_b dx/y^t_max
            if a:
                r = _times_x(r, p, curve.f, mod)
            (sigma, coeffs), exact, peak = reducer.reduce(
                {t_max - 3 * j: d for j, d in enumerate(r)})
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
