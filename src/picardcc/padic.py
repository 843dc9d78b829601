"""Capped-precision arithmetic in the totally ramified extensions
Q_p(pi), pi^e = p, of which Q_p is the case e = 1.

Elements are immutable and flat: p^m * sum(a[i] pi^i) + O(pi^A), e integers
and one absolute precision A in pi-units, with the relative precision capped
by e times the context's N.  At e = 1 this is p^v * (unit + O(p^r)), r <= N.
Zero to precision O(pi^A) keeps its precision, so that precision exhaustion
is distinguishable from a true zero (A = inf).
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    ContextMismatch,
    DivisionByZeroPrecision,
    NegativeValuation,
    NoCubeRoot,
    NotSimpleRoot,
    PrecisionExhausted,
)

INF = math.inf


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41: exact below 3.3 * 10^24, a
    probable-prime test above (Sorenson-Webster 2015; the bases up to 37
    alone pass the composite 318665857834031151167461)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in bases:
        powers = [pow(a, (n - 1) >> (s - i), n) for i in range(s)]  # a^(d 2^i)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _pval(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicContext:
    """Prime p > 3 and coefficient precision cap N (in p-adic digits)."""

    __slots__ = ("p", "N", "_pk")

    def __init__(self, p: int, N: int):
        if p <= 3 or not is_prime(p):
            raise ValueError(f"p must be a prime > 3, got {p}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self.p = p
        self.N = N
        self._pk = {}

    def pk(self, k: int) -> int:
        """p^k, cached."""
        if k not in self._pk:
            self._pk[k] = self.p ** k
        return self._pk[k]

    def __eq__(self, other):
        return isinstance(other, PadicContext) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash((self.p, self.N))

    def __repr__(self):
        return f"PadicContext(p={self.p}, N={self.N})"

    # constructors: elements of Q_p, the case e = 1 --------------------------

    def zero(self, abs_prec=INF) -> "RamifiedElement":
        return RamifiedElement(self, 1, 0, [0], abs_prec)

    def one(self) -> "RamifiedElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "RamifiedElement":
        return RamifiedElement(self, 1, 0, [n], INF)

    def from_rational(self, q) -> "RamifiedElement":
        q = Fraction(q)
        vd = _pval(q.denominator, self.p)
        unit = pow(q.denominator // self.pk(vd), -1, self.pk(self.N))
        return RamifiedElement(self, 1, -vd, [q.numerator * unit], INF)

    def element(self, x) -> "RamifiedElement":
        """x in this context: an element of it, or an int or Fraction read in Q_p."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.from_rational(x)
        if x.ctx is not self and x.ctx != self:
            raise ContextMismatch("element from a different context")
        return x


class RamifiedElement:
    """Element p^m * sum(a[i] pi^i) + O(pi^A) of Q_p(pi), pi^e = p; Q_p is e = 1.

    `a` is a list of e integers and A the absolute precision in pi-units
    (INF only for an exact zero).  The constructor normalizes: every a[i] is
    reduced modulo the digits it is known to, some a[i] is a p-unit unless
    the element is zero to precision (then a is all zero and m = 0), and the
    relative precision A - w is capped at e*N, w being the pi-adic valuation.
    At e = 1 a nonzero element is p^v * (unit + O(p^r)), r <= N, with
    v = m and unit = a[0].
    """

    __slots__ = ("ctx", "e", "m", "a", "A", "w")

    def __init__(self, ctx: PadicContext, e: int, m: int, a, A):
        if e < 1:
            raise ValueError("ramification index e must be >= 1")
        if len(a) != e:
            raise ValueError(f"need exactly e={e} coefficients, got {len(a)}")
        self.ctx, self.e = ctx, e
        p = ctx.p
        if e == 1:  # Q_p: one integer to reduce and strip of its p-power
            s = a[0]
            if A != INF:
                s %= ctx.pk(A - m) if A > m else 1
            if not s:
                self.m, self.a, self.A, self.w = 0, [0], A, INF
                return
            v = _pval(s, p)
            if v:
                s //= ctx.pk(v)
                m += v
            if A > m + ctx.N:
                A = m + ctx.N
                s %= ctx.pk(ctx.N)
            self.m, self.a, self.A, self.w = m, [s], A, m
            return
        a = _reduce_flat(ctx, e, m, a, A)
        g = math.gcd(*a)
        if g == 0:
            self.m, self.a, self.A, self.w = 0, a, A, INF
            return
        v = _pval(g, p)
        if v:
            pv = ctx.pk(v)
            a = [c // pv for c in a]
            m += v
        w = e * m + next(i for i, c in enumerate(a) if c % p)
        if A > w + e * ctx.N:
            A = w + e * ctx.N
            a = _reduce_flat(ctx, e, m, a, A)
        self.m, self.a, self.A, self.w = m, a, A, w

    # constructors -------------------------------------------------------

    @classmethod
    def pi(cls, ctx: PadicContext, e: int, power: int = 1) -> "RamifiedElement":
        """pi^power for any integer power (pi^e = p)."""
        return cls(ctx, e, 0, [1] + [0] * (e - 1), e * ctx.N).shift_pi(power)

    @classmethod
    def from_terms(cls, ctx: PadicContext, e: int, terms) -> "RamifiedElement":
        """sum(n * pi^k) over (k, n, prec), each integer n known modulo p^prec."""
        terms = [(divmod(k, e), n, k + e * prec) for k, n, prec in terms]
        if not terms:
            return cls(ctx, e, 0, [0] * e, INF)
        m = min(q for (q, _), _, _ in terms)
        a = [0] * e
        for (q, s), n, _ in terms:
            a[s] += n * ctx.pk(q - m)
        return cls(ctx, e, m, a, min(A for _, _, A in terms))

    @staticmethod
    def combine(terms) -> "RamifiedElement":
        """sum(s * x for s, x in terms), each s in Q_p and every x in one ring,
        normalized once: the products p^(m_s + m_x) u_s a_x are added into e
        integer buckets at one base, and the sum is known to the least of the
        terms' precisions by the product rule of `__mul__`."""
        ctx, e = terms[0][1].ctx, terms[0][1].e
        base = min(s.m + x.m for s, x in terms)  # a zero has m = 0 and a = 0
        acc = [0] * e
        for s, x in terms:
            c = s.a[0] * ctx.pk(s.m + x.m - base)
            acc = [y + c * z for y, z in zip(acc, x.a)]
        A = min(min(x.A + e * min(s.w, s.A), e * s.A + min(x.w, x.A)) for s, x in terms)
        return RamifiedElement(ctx, e, base, acc, A)

    # accessors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the element is zero to its precision."""
        return self.w == INF

    def valuation(self):
        """p-adic valuation as a Fraction with denominator dividing e (inf if zero)."""
        return INF if self.w == INF else Fraction(self.w, self.e)

    def pi_valuation(self):
        """Valuation in pi-units (integer, or inf)."""
        return self.w

    @property
    def abs_prec(self):
        """Absolute precision: the element is known modulo p^abs_prec, a
        Fraction with denominator dividing e (inf for an exact zero)."""
        return INF if self.A == INF else Fraction(self.A, self.e)

    # the e = 1 reading p^v * unit of a nonzero element, as bench/checks.py
    # reads the Frobenius matrix
    v = property(lambda self: self.m)
    unit = property(lambda self: self.a[0])

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k of the pi^0 part, which is the
        element itself at e = 1; for e > 1, k = 1 gives the image in the
        residue field F_p.  Requires valuation >= 0 and the element known
        past pi^(e(k - 1))."""
        if self.w == INF:
            if self.A <= self.e * (k - 1):
                raise DivisionByZeroPrecision(
                    f"zero to O(p^{self.abs_prec}) has no residue mod p^{k}")
            return 0
        if self.w < 0:
            raise NegativeValuation("negative valuation element has no integer residue")
        if self.A <= self.e * (k - 1):
            raise PrecisionExhausted(f"insufficient precision ({self.abs_prec} < {k})")
        return self.a[0] * self.ctx.pk(self.m) % self.ctx.pk(k)

    def integers(self) -> list:
        """The e integers c[i] with self = sum(c[i] pi^i) + O(pi^A), for an
        element of valuation >= 0."""
        pm = self.ctx.pk(self.m)
        return [c * pm for c in self.a]

    def monomial(self):
        """(r, mu, U, k) with self = p^mu U pi^r, U an integer unit known
        modulo p^k, when self has a single nonzero coefficient (as every
        nonzero element of Q_p has), else None."""
        nz = [i for i, c in enumerate(self.a) if c]
        if len(nz) != 1:
            return None
        r = nz[0]
        return r, self.m, self.a[r], -((r - self.A) // self.e) - self.m

    def coefficient(self, i: int) -> "RamifiedElement":
        """The coefficient of pi^i, an element of Q_p."""
        prec = INF if self.A == INF else -((i - self.A) // self.e)
        return RamifiedElement(self.ctx, 1, self.m, [self.a[i]], prec)

    def to_padic(self, noise_floor=None) -> "RamifiedElement":
        """Project to Q_p, requiring the pi^i (i>0) parts to vanish to precision.

        noise_floor: minimal p-adic valuation demanded of the junk coefficients
        (default: none may be nonzero to precision).
        """
        junk = INF
        for i in range(1, self.e):
            if not self.a[i]:
                continue
            c = self.coefficient(i)
            if noise_floor is None or c.w < noise_floor:
                raise ValueError(f"pi^{i} coefficient {c!r} is not zero to precision")
            junk = min(junk, c.w)
        # cap the precision by the observed noise level
        return self.coefficient(0) + self.ctx.zero(junk)

    def __repr__(self):
        p = self.ctx.p
        if self.e > 1:
            return f"Ramified(e={self.e}, {p}^{self.m}*{self.a} + O(pi^{self.A}))"
        if self.w == INF:
            return f"O({p}^{self.A})"
        return f"{self.a[0]}*{p}^{self.m} + O({p}^{self.A})"

    # arithmetic ---------------------------------------------------------

    def _embedded(self, e: int) -> "RamifiedElement":
        """An element of Q_p as an element of Q_p(pi), pi^e = p."""
        return RamifiedElement(self.ctx, e, self.m, self.a + [0] * (e - 1), e * self.A)

    def _pair(self, other):
        """(self, other) in one ring: ints and Fractions are read in Q_p, and
        an element of Q_p meeting a ramified one is embedded in its ring."""
        other = self.ctx.element(other)
        if other.e == self.e:
            return self, other
        if other.e == 1:
            return self, other._embedded(self.e)
        if self.e == 1:
            return self._embedded(other.e), other
        raise ContextMismatch("ramified elements from different rings")

    def __add__(self, other):
        x, y = self._pair(other)
        A = min(x.A, y.A)
        if x.w == INF or y.w == INF:
            z = x if y.w == INF else y
            return z if z.A <= A else RamifiedElement(z.ctx, z.e, z.m, z.a, A)
        m = min(x.m, y.m)
        s1, s2 = x.ctx.pk(x.m - m), x.ctx.pk(y.m - m)
        return RamifiedElement(x.ctx, x.e, m, [c * s1 + d * s2 for c, d in zip(x.a, y.a)], A)

    __radd__ = __add__

    def __neg__(self):
        return RamifiedElement(self.ctx, self.e, self.m, [-c for c in self.a], self.A)

    def __sub__(self, other):
        x, y = self._pair(other)
        return x + (-y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self.ctx.element(other)
        x, y = (other, self) if self.e == 1 else (self, other)
        ctx, e = x.ctx, x.e
        if y.e != 1 and y.e != e:
            raise ContextMismatch("ramified elements from different rings")
        # O(pi^A1) * y + x * O(pi^A2), a zero's valuation being its
        # precision; s converts y's pi-units to x's
        s = e // y.e
        A = min(x.A + s * min(y.w, y.A), s * y.A + min(x.w, x.A))
        if x.w == INF or y.w == INF:
            return RamifiedElement(ctx, e, 0, [0] * e, A)
        m = x.m + y.m
        if s == e:  # y in Q_p scales each coefficient: at e = 1 one product
            u = y.a[0]
            return RamifiedElement(ctx, e, m, [c * u for c in x.a], A)
        # A is finite here; the pi^0 coefficient needs the most digits
        mod = ctx.pk(-(-A // e) - m)
        return RamifiedElement(ctx, e, m, _fold_mul(x.a, y.a, e, ctx.p, mod), A)

    __rmul__ = __mul__

    def _refreshed(self) -> "RamifiedElement":
        """Reinterpret the stored digits at full nominal precision.

        Used inside Newton loops, where the min-rule would charge the iterate
        for error the iteration itself corrects; callers must certify the
        final answer independently.
        """
        return RamifiedElement(self.ctx, self.e, self.m, self.a, INF)

    def inverse(self) -> "RamifiedElement":
        """1/x to the relative precision of x, which must be nonzero to
        precision: a monomial p^mu U pi^r (every element of Q_p) by one
        modular inverse, any other x by the Newton step of `_inverse_root`
        with k = 1."""
        if self.is_zero:
            raise DivisionByZeroPrecision(f"cannot invert {self!r}")
        ctx, e, w = self.ctx, self.e, self.w
        mono = self.monomial()
        if mono is not None:
            # p^-mu U^-1 pi^-r, with pi^-r = p^-1 pi^(e - r) for r > 0
            r, mu, U, k = mono
            a = [0] * e
            a[-r % e] = pow(U, -1, ctx.pk(k))
            return RamifiedElement(ctx, e, -mu - (r > 0), a, self.A - 2 * w)
        a = self.shift_pi(-w)._refreshed()  # unit: pi-valuation 0, a[0] a p-unit
        z = _inverse_root(a, 1, ctx.from_int(pow(a.a[0], -1, ctx.pk(ctx.N))))
        # the relative-precision cap limits the certifiable error to ~p^(N-1)
        if (a * z - 1).w < e * (ctx.N - 2):
            raise DivisionByZeroPrecision("ramified inverse failed to converge")
        # 1/x is known to the relative precision A - w of x
        z = z.shift_pi(-w)
        return RamifiedElement(ctx, e, z.m, z.a, min(z.A, self.A - 2 * w))

    def shift_pi(self, k: int) -> "RamifiedElement":
        """Multiply by pi^k (k may be negative): rotate a, folding pi^e = p."""
        e = self.e
        q, r = divmod(k, e)
        a = [self.ctx.p * c for c in self.a[e - r:]] + self.a[:e - r]
        return RamifiedElement(self.ctx, e, self.m + q, a, self.A + k)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        return self * self.ctx.element(other).inverse()

    # comparisons --------------------------------------------------------

    def is_congruent(self, other, k=None) -> bool:
        """Equality modulo p^k (default: the joint available precision)."""
        d = self - other
        return d.is_zero or (k is not None and d.valuation() >= k)

    def __eq__(self, other):
        try:
            return self.is_congruent(other)
        except ContextMismatch:
            return False

    def __hash__(self):
        raise TypeError("p-adic equality is to-precision; not hashable")


def _reduce_flat(ctx, e, m, a, A):
    """a with each a[i] reduced modulo the p^k it is known to: p^m a[i] pi^i
    is known modulo pi^A, so k = ceil((A - i)/e) - m."""
    if A == INF:
        return list(a)
    q, r = divmod(A - e * m, e)
    hi, lo = ctx.pk(max(q + 1, 0)), ctx.pk(max(q, 0))
    return [c % hi for c in a[:r]] + [c % lo for c in a[r:]]


def _fold_mul(a, b, e, p, mod):
    """Product of two length-e integer vectors in Z[pi]/(pi^e - p), mod `mod`.

    pi^e = p is folded on the packed product: block i of prod >> e*B is the
    coefficient of pi^(i+e), and the blocks are sized to hold p + 1 of them."""
    prod, Bb = _kronecker(a, b, mod, p + 1)
    shift = 8 * Bb * e
    return _unpack((prod & ((1 << shift) - 1)) + p * (prod >> shift), e, Bb, mod)


def _polymul_mod(a, b, mod, n=None):
    """The first n coefficients (default: all) of the product of two integer
    coefficient lists, reduced mod `mod`.

    Uses Kronecker substitution so that CPython's big-integer multiplication
    does the heavy lifting; only the n kept blocks are unpacked.
    """
    if not a or not b:
        return []
    prod, Bb = _kronecker(a, b, mod, 1)
    n = len(a) + len(b) - 1 if n is None else max(min(n, len(a) + len(b) - 1), 0)
    return _unpack(prod & ((1 << 8 * Bb * n) - 1), n, Bb, mod)


def _kronecker(a, b, mod, spread):
    """(a * b packed, B): entries reduced mod `mod`, in B-byte blocks that hold
    spread * min(len(a), len(b)) * mod^2.  A square packs its operand once."""
    Bb = ((spread * min(len(a), len(b)) * mod * mod).bit_length() + 7) // 8
    x = _pack(a, mod, Bb)
    return (x * x if a is b else x * _pack(b, mod, Bb)), Bb


def _pack(a, mod, Bb):
    """The integer whose Bb-byte blocks are the entries of a, reduced mod `mod`."""
    return int.from_bytes(b"".join([(c % mod).to_bytes(Bb, "little") for c in a]), "little")


def _unpack(x, n, Bb, mod):
    """The n Bb-byte blocks of x, each reduced mod `mod`."""
    buf = x.to_bytes(n * Bb, "little")
    return [int.from_bytes(buf[i:i + Bb], "little") % mod for i in range(0, n * Bb, Bb)]


# --- integer polynomials -------------------------------------------------
# Coefficient lists are low-to-high.


def poly_eval_mod(poly, x, mod):
    """Evaluate an integer coefficient list at x modulo `mod` (Horner)."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % mod
    return acc


def poly_at(poly, x):
    """Horner evaluation in the ring of x: ints, Fractions, p-adic elements.

    Coefficients may be ints or Fractions; the empty polynomial is x * 0.
    """
    if not poly:
        return x * 0
    acc = x * 0 + poly[-1]
    for c in reversed(poly[:-1]):
        acc = acc * x + c
    return acc


def poly_deriv(poly):
    return [i * c for i, c in enumerate(poly)][1:]


def charpoly_adj(A):
    """(c, adj): det(T I - A) = sum(c[i] T^i) and the adjugate of A, by
    Faddeev-LeVerrier over Z or Q (ints or Fractions): its exact divisions by
    k = 1..n would fail mod p^W at k = p.  det(A) = (-1)^n c[0]."""
    n = len(A)
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(a * M[l][j] for l, a in enumerate(row)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i, row in enumerate(A)]
        tr = -sum(a * M[l][i] for i, row in enumerate(A) for l, a in enumerate(row))
        c[n - k] = tr // k if isinstance(tr, int) else tr / k
    return c, [[(-1) ** (n - 1) * x for x in row] for row in M]


def disc_adj(g):
    """(D, adj) for g monic of degree d: D = Res(g, g') = (-1)^(d(d-1)/2)
    disc(g) is the determinant of q -> g' q on Q[x]/(g), basis 1, ..., x^(d-1),
    and adj its adjugate, so g'^-1 mod g is column 0 of adj / D."""
    col, cols = poly_deriv(g), []
    for _ in range(len(g) - 1):
        cols.append(col)  # x^j g' mod g; x^d = -(g_0 + ... + g_(d-1) x^(d-1))
        col = [c - col[-1] * gi for c, gi in zip([0] + col[:-1], g)]
    c, adj = charpoly_adj([list(row) for row in zip(*cols)])
    return (-1) ** len(cols) * c[0], adj


def taylor_shift(poly, a, mod):
    """Coefficients of poly(a + t) mod `mod`."""
    c = [x % mod for x in poly]
    n = len(c)
    for k in range(n):
        for j in range(n - 2, k - 1, -1):
            c[j] = (c[j] + a * c[j + 1]) % mod
    return c


def newton_lift(poly, r: int, p: int, N: int) -> int:
    """The root modulo p^N of the integer polynomial poly that lifts r, a
    simple root of poly mod p; the correct digits double with each step."""
    pN = p ** N
    dpoly = poly_deriv(poly)
    for _ in range(N.bit_length() + 1):
        fr = poly_eval_mod(poly, r, pN)
        if fr == 0:
            break
        r = (r - fr * pow(poly_eval_mod(dpoly, r, pN), -1, pN)) % pN
    return r


def hensel_lift_root(g, r0: int, ctx: PadicContext) -> RamifiedElement:
    """Unique root of the integer polynomial g in Z_p congruent to r0 mod p.

    Requires g(r0) = 0 and g'(r0) != 0 mod p (a simple root); Newton
    iteration then converges quadratically to N digits.  The root is known
    modulo p^N, so a root divisible by p keeps absolute precision N.
    """
    p, N = ctx.p, ctx.N
    if poly_eval_mod(g, r0, p) != 0 or poly_eval_mod(poly_deriv(g), r0, p) == 0:
        raise NotSimpleRoot(f"r0={r0} is not a simple root of g mod {p}")
    return RamifiedElement(ctx, 1, 0, [newton_lift(g, r0 % p, p, N)], N)


def cube_roots(a: RamifiedElement):
    """All cube roots of a in Q_p, each to the precision of a, in the
    ascending order of their residues mod p.

    Returns 0, 1, or 3 roots (1 when p = 2 mod 3 and a is a unit times an
    exact cube of p).  Raises NoCubeRoot if v_p(a) is not divisible by 3.
    """
    ctx = a.ctx
    if a.is_zero:
        return [ctx.zero(INF if a.A == INF else -(-a.A // 3))]
    if a.m % 3 != 0:
        raise NoCubeRoot(f"valuation {a.m} not divisible by 3")
    p, unit, rel = ctx.p, a.a[0], a.A - a.m
    # Newton-lift each cube root of the unit part mod p
    return [RamifiedElement(ctx, 1, a.m // 3, [newton_lift([-unit, 0, 0, 1], r0, p, rel)],
                            a.m // 3 + rel)
            for r0 in range(1, p) if r0 * r0 * r0 % p == unit % p]


def _inverse_root(a: RamifiedElement, k: int, r: RamifiedElement) -> RamifiedElement:
    """a^(-1/k) for a unit a of Q_p(pi), from r, a root to positive pi-adic
    precision, by the division-free Newton step r <- r((k + 1) - a r^k)/k
    (Brent-Zimmermann, Modern Computer Arithmetic, 4.2); k = 1 or 3 is a
    unit since p > 3.  The correct pi-digits double per step, and each iterate is read
    at full nominal precision (`_refreshed`)."""
    ctx, e = a.ctx, a.e
    steps = max(1, math.ceil(math.log2(max(2, e * ctx.N)))) + 1
    kinv = ctx.from_int(pow(k, -1, ctx.pk(ctx.N)))
    for _ in range(steps):
        rk = r
        for _ in range(k - 1):
            rk = rk * r
        r = (r * ((k + 1) - a * rk) * kinv)._refreshed()
    return r


def cube_root_ramified(a: RamifiedElement) -> RamifiedElement:
    """The cube root of a = 1 mod pi in Q_p(pi) that is 1 mod pi: a r^2 for
    r = a^(-1/3), stated at full nominal precision like the Newton iterates."""
    r = _inverse_root(a, 3, a.ctx.one())
    return (a * r * r)._refreshed()
