"""Capped-precision arithmetic in Q_p and in totally ramified extensions Q_p(p^(1/e)).

Elements are immutable.  A nonzero element stores (valuation v, unit, relative
precision r) and represents p^v * (unit + O(p^r)); the relative precision is
capped by the context's N.  Zero is a dedicated sentinel "O(p^k)" so that
precision exhaustion is distinguishable from a true zero.
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

    # constructors -------------------------------------------------------

    def zero(self, abs_prec=INF) -> "PadicElement":
        return PadicElement(self, abs_prec, 0, 0, _raw=True)

    def one(self) -> "PadicElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "PadicElement":
        if n == 0:
            return self.zero()
        v = _pval(n, self.p)
        unit = (n // self.pk(v)) % self.pk(self.N)
        return PadicElement(self, v, unit, self.N, _raw=True)

    def from_rational(self, q) -> "PadicElement":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        num, den = q.numerator, q.denominator
        vn, vd = _pval(num, self.p), _pval(den, self.p)
        v = vn - vd
        pN = self.pk(self.N)
        unit = (num // self.pk(vn)) * pow(den // self.pk(vd), -1, pN) % pN
        return PadicElement(self, v, unit, self.N, _raw=True)

    def element(self, x) -> "PadicElement":
        if isinstance(x, PadicElement):
            if x.ctx != self:
                raise ContextMismatch("element from a different context")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        return self.from_rational(x)


class PadicElement:
    """An element of Q_p to capped relative precision.

    Nonzero: value = p^v * unit with unit a p-unit in [1, p^rel).
    Zero sentinel: unit == 0, rel == 0, and v holds the absolute precision k,
    meaning the element is O(p^k) (k = +inf for an exact zero).
    """

    __slots__ = ("ctx", "v", "unit", "rel")

    def __init__(self, ctx, v, unit, rel, _raw=False):
        if not _raw:
            raise TypeError("use PadicContext constructors")
        self.ctx = ctx
        self.v = v
        self.unit = unit
        self.rel = rel

    # predicates and accessors ------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when the element is zero to its precision."""
        return self.unit == 0

    @property
    def abs_prec(self):
        """Absolute precision: the element is known modulo p^abs_prec."""
        return self.v + self.rel if self.unit else self.v

    def valuation(self):
        """v_p; +inf for any element that is zero to precision."""
        return INF if self.unit == 0 else self.v

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k (requires v >= 0 and abs_prec >= k)."""
        if self.unit == 0:
            if self.v < k:
                raise DivisionByZeroPrecision(f"zero to O(p^{self.v}) has no residue mod p^{k}")
            return 0
        if self.v < 0:
            raise NegativeValuation("negative valuation element has no integer residue")
        if self.abs_prec < k:
            raise PrecisionExhausted(f"insufficient precision ({self.abs_prec} < {k})")
        return (self.unit * self.ctx.pk(self.v)) % self.ctx.pk(k)

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.ctx.p}^{self.v})"
        return f"{self.unit}*{self.ctx.p}^{self.v} + O({self.ctx.p}^{self.v + self.rel})"

    # arithmetic ---------------------------------------------------------

    def _check(self, other) -> "PadicElement":
        if isinstance(other, (int, Fraction)):
            return self.ctx.element(other)
        if not isinstance(other, PadicElement):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        return other

    def _make(self, v, s, a):
        """Build an element from p^v * s known modulo p^(a - v); s an integer."""
        ctx = self.ctx
        if a <= v:
            return ctx.zero(a if a != INF else INF)
        if a == INF:
            cap = ctx.N + (max(0, _pval(s, ctx.p)) if s else 0)
        else:
            cap = min(a - v, ctx.N + (max(0, _pval(s, ctx.p)) if s else 0))
        s %= ctx.pk(cap)
        if s == 0:
            return ctx.zero(min(a, v + cap))
        w = _pval(s, ctx.p)
        if w >= cap:
            return ctx.zero(min(a, v + cap))
        rel = min((a - v - w) if a != INF else ctx.N, ctx.N)
        unit = (s // ctx.pk(w)) % ctx.pk(rel)
        return PadicElement(ctx, v + w, unit, rel, _raw=True)

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.unit == 0 and other.unit == 0:
            return self.ctx.zero(min(self.v, other.v))
        if self.unit == 0:
            return other._add_zero(self.v)
        if other.unit == 0:
            return self._add_zero(other.v)
        a = min(self.abs_prec, other.abs_prec)
        m = min(self.v, other.v)
        s = self.unit * self.ctx.pk(self.v - m) + other.unit * self.ctx.pk(other.v - m)
        return self._make(m, s, a)

    def _add_zero(self, zero_absprec):
        """Add a zero-to-precision O(p^k) to a nonzero element."""
        a = min(self.abs_prec, zero_absprec)
        if a <= self.v:
            return self.ctx.zero(a)
        rel = min(a - self.v, self.ctx.N)
        return PadicElement(self.ctx, self.v, self.unit % self.ctx.pk(rel), rel, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicElement(self.ctx, self.v, self.ctx.pk(self.rel) - self.unit, self.rel, _raw=True)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.unit == 0 or other.unit == 0:
            # O(p^a) * (p^v unit) = O(p^(a+v)); O(p^a) * O(p^b) = O(p^(a+b))
            return self.ctx.zero(self.v + other.v)
        rel = min(self.rel, other.rel, self.ctx.N)
        unit = (self.unit * other.unit) % self.ctx.pk(rel)
        return PadicElement(self.ctx, self.v + other.v, unit, rel, _raw=True)

    __rmul__ = __mul__

    def inverse(self) -> "PadicElement":
        if self.unit == 0:
            raise DivisionByZeroPrecision(f"cannot invert {self!r}")
        unit = pow(self.unit, -1, self.ctx.pk(self.rel))
        return PadicElement(self.ctx, -self.v, unit, self.rel, _raw=True)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return self.ctx.one()
        if n < 0:
            return self.inverse() ** (-n)
        if self.unit == 0:
            return self.ctx.zero(INF if self.v == INF else self.v * n)
        unit = pow(self.unit, n, self.ctx.pk(self.rel))
        return PadicElement(self.ctx, self.v * n, unit, self.rel, _raw=True)

    # comparisons --------------------------------------------------------

    def is_congruent(self, other, k=None) -> bool:
        """Equality modulo p^k (default: the joint available precision)."""
        other = self._check(other)
        d = self - other
        if k is None:
            return d.is_zero
        return d.is_zero or d.v >= k

    def __eq__(self, other):
        try:
            other = self._check(other)
        except ContextMismatch:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.is_congruent(other)

    def __hash__(self):
        raise TypeError("PadicElement equality is to-precision; not hashable")


# --- ramified extension --------------------------------------------------


class RamifiedElement:
    """Element p^m * sum(a[i] pi^i) + O(pi^A) of Q_p(pi), pi^e = p.

    `a` is a list of e integers and A the absolute precision in pi-units
    (INF only for an exact zero).  The constructor normalizes: every a[i] is
    reduced modulo the digits it is known to, some a[i] is a p-unit unless
    the element is zero to precision (then a is all zero and m = 0), and the
    relative precision A - w is capped at e*N, w being the pi-adic valuation.
    With e = 1 the arithmetic agrees with PadicElement.
    """

    __slots__ = ("ctx", "e", "m", "a", "A", "w")

    def __init__(self, ctx: PadicContext, e: int, m: int, a, A):
        if e < 1:
            raise ValueError("ramification index e must be >= 1")
        if len(a) != e:
            raise ValueError(f"need exactly e={e} coefficients, got {len(a)}")
        self.ctx, self.e = ctx, e
        p = ctx.p
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
    def from_padic(cls, x: PadicElement, e: int) -> "RamifiedElement":
        if x.unit == 0:
            return cls(x.ctx, e, 0, [0] * e, e * x.v)
        return cls(x.ctx, e, x.v, [x.unit] + [0] * (e - 1), e * x.abs_prec)

    @classmethod
    def pi(cls, ctx: PadicContext, e: int, power: int = 1) -> "RamifiedElement":
        """pi^power for any integer power (pi^e = p)."""
        return cls.from_padic(ctx.one(), e).shift_pi(power)

    @classmethod
    def zero(cls, ctx: PadicContext, e: int) -> "RamifiedElement":
        return cls(ctx, e, 0, [0] * e, INF)

    @classmethod
    def from_terms(cls, ctx: PadicContext, e: int, terms) -> "RamifiedElement":
        """sum(n * pi^k) over (k, n, prec), each integer n known modulo p^prec."""
        terms = [(divmod(k, e), n, k + e * prec) for k, n, prec in terms]
        if not terms:
            return cls.zero(ctx, e)
        m = min(q for (q, _), _, _ in terms)
        a = [0] * e
        for (q, s), n, _ in terms:
            a[s] += n * ctx.pk(q - m)
        return cls(ctx, e, m, a, min(A for _, _, A in terms))

    # accessors ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.w == INF

    def valuation(self):
        """pi-adic valuation as a Fraction with denominator dividing e (inf if zero)."""
        return INF if self.w == INF else Fraction(self.w, self.e)

    def pi_valuation(self):
        """Valuation in pi-units (integer, or inf)."""
        return self.w

    def coefficient(self, i: int) -> PadicElement:
        """The coefficient of pi^i, an element of Q_p."""
        prec = INF if self.A == INF else -((i - self.A) // self.e)
        return _int_to_padic(self.ctx, self.a[i], self.m, prec)

    def to_padic(self, noise_floor=None) -> PadicElement:
        """Project to Q_p, requiring the pi^i (i>0) parts to vanish to precision.

        noise_floor: minimal p-adic valuation demanded of the junk coefficients
        (default: none may be nonzero to precision).
        """
        junk = INF
        for i in range(1, self.e):
            if not self.a[i]:
                continue
            c = self.coefficient(i)
            if noise_floor is None or c.v < noise_floor:
                raise ValueError(f"pi^{i} coefficient {c!r} is not zero to precision")
            junk = min(junk, c.v)
        c0 = self.coefficient(0)
        if junk == INF:
            return c0
        return c0._add_zero(junk)  # cap the precision by the observed noise level

    def __repr__(self):
        return f"Ramified(e={self.e}, {self.ctx.p}^{self.m}*{self.a} + O(pi^{self.A}))"

    # arithmetic ---------------------------------------------------------

    def _check(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            return RamifiedElement.from_padic(self.ctx.element(other), self.e)
        if not isinstance(other, RamifiedElement):
            return NotImplemented
        if other.ctx != self.ctx or other.e != self.e:
            raise ContextMismatch("ramified elements from different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        A = min(self.A, other.A)
        if self.w == INF or other.w == INF:
            x = self if other.w == INF else other
            return x if x.A <= A else RamifiedElement(x.ctx, x.e, x.m, x.a, A)
        m = min(self.m, other.m)
        s1, s2 = self.ctx.pk(self.m - m), self.ctx.pk(other.m - m)
        return RamifiedElement(self.ctx, self.e, m,
                               [x * s1 + y * s2 for x, y in zip(self.a, other.a)], A)

    __radd__ = __add__

    def __neg__(self):
        return RamifiedElement(self.ctx, self.e, self.m, [-c for c in self.a], self.A)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, s: PadicElement) -> "RamifiedElement":
        # O(pi^A1) * y + x * O(pi^A2), a zero's valuation being its precision
        e = self.e
        A = min(self.A + e * s.v, e * s.abs_prec + min(self.w, self.A))
        if s.unit == 0 or self.w == INF:
            return RamifiedElement(self.ctx, e, 0, [0] * e, A)
        return RamifiedElement(self.ctx, e, self.m + s.v, [c * s.unit for c in self.a], A)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            return self.scalar_mul(self.ctx.element(other))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        ctx, e = self.ctx, self.e
        A = min(self.A + min(other.w, other.A), other.A + min(self.w, self.A))
        if self.w == INF or other.w == INF:
            return RamifiedElement(ctx, e, 0, [0] * e, A)
        m = self.m + other.m
        # A is finite here; the pi^0 coefficient needs the most digits
        mod = ctx.pk(-(-A // e) - m)
        return RamifiedElement(ctx, e, m, _fold_mul(self.a, other.a, e, ctx.p, mod), A)

    __rmul__ = __mul__

    def _refreshed(self) -> "RamifiedElement":
        """Reinterpret the stored digits at full nominal precision.

        Used inside Newton loops, where the min-rule would charge the iterate
        for error the iteration itself corrects; callers must certify the
        final answer independently.
        """
        return RamifiedElement(self.ctx, self.e, self.m, self.a, INF)

    def inverse(self) -> "RamifiedElement":
        """1/x by the Newton step of `_inverse_root` with k = 1; requires x
        nonzero to precision."""
        if self.is_zero:
            raise DivisionByZeroPrecision("cannot invert ramified zero")
        w = self.w
        a = self.shift_pi(-w)._refreshed()  # unit: pi-valuation 0, a[0] a p-unit
        ctx, e = self.ctx, self.e
        z = _inverse_root(a, 1, RamifiedElement.from_padic(a.coefficient(0).inverse(), e))
        # the relative-precision cap limits the certifiable error to ~p^(N-1)
        err = a * z - RamifiedElement.from_padic(ctx.one(), e)
        if err.w < e * (ctx.N - 2):
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
        result = RamifiedElement.from_padic(self.ctx.one(), self.e)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            return self.scalar_mul(self.ctx.element(other).inverse())
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def reduce_residue(self) -> int:
        """Image in the residue field F_p (requires pi-valuation >= 0)."""
        if self.is_zero:
            return 0
        if self.w < 0:
            raise NegativeValuation("negative valuation: no residue")
        return self.a[0] % self.ctx.p if self.m == 0 else 0


def _reduce_flat(ctx, e, m, a, A):
    """a with each a[i] reduced modulo the p^k it is known to: p^m a[i] pi^i
    is known modulo pi^A, so k = ceil((A - i)/e) - m."""
    if A == INF:
        return list(a)
    q, r = divmod(A - e * m, e)
    hi, lo = ctx.pk(max(q + 1, 0)), ctx.pk(max(q, 0))
    return [c % hi for c in a[:r]] + [c % lo for c in a[r:]]


def _int_to_padic(ctx: PadicContext, s: int, shift_v: int, abs_prec) -> PadicElement:
    """p^shift_v * s with the given absolute p-adic precision bound."""
    if s == 0:
        return ctx.zero(abs_prec)
    probe = PadicElement(ctx, 0, 1, ctx.N, _raw=True)
    return probe._make(shift_v, s, abs_prec)


def _fold_mul(a, b, e, p, mod):
    """Product of two length-e integer vectors in Z[pi]/(pi^e - p), mod `mod`.

    pi^e = p is folded on the packed product: block i of prod >> e*B is the
    coefficient of pi^(i+e), and the blocks are sized to hold p + 1 of them."""
    prod, Bb = _kronecker(a, b, mod, p + 1)
    shift = 8 * Bb * e
    return _unpack((prod & ((1 << shift) - 1)) + p * (prod >> shift), e, Bb, mod)


def _polymul_mod(a, b, mod):
    """Product of two integer coefficient lists, coefficients reduced mod `mod`.

    Uses Kronecker substitution so that CPython's big-integer multiplication
    does the heavy lifting.
    """
    if not a or not b:
        return []
    prod, Bb = _kronecker(a, b, mod, 1)
    return _unpack(prod, len(a) + len(b) - 1, Bb, mod)


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


def hensel_lift_root(g, r0: int, ctx: PadicContext) -> PadicElement:
    """Unique root of the integer polynomial g in Z_p congruent to r0 mod p.

    Requires g(r0) = 0 and g'(r0) != 0 mod p (a simple root); Newton
    iteration then converges quadratically to N digits.  The root is known
    modulo p^N, so a root divisible by p keeps absolute precision N.
    """
    p, N = ctx.p, ctx.N
    if poly_eval_mod(g, r0, p) != 0 or poly_eval_mod(poly_deriv(g), r0, p) == 0:
        raise NotSimpleRoot(f"r0={r0} is not a simple root of g mod {p}")
    r = newton_lift(g, r0 % p, p, N)
    return _int_to_padic(ctx, r, 0, N)


def cube_roots(a: PadicElement):
    """All cube roots of a in Q_p, each to the precision of a, in the
    ascending order of their residues mod p.

    Returns 0, 1, or 3 roots (1 when p = 2 mod 3 and a is a unit times an
    exact cube of p).  Raises NoCubeRoot if v_p(a) is not divisible by 3.
    """
    ctx = a.ctx
    if a.is_zero:
        return [ctx.zero(INF if a.v == INF else -(-a.v // 3))]
    if a.v % 3 != 0:
        raise NoCubeRoot(f"valuation {a.v} not divisible by 3")
    p = ctx.p
    u0 = a.unit % p
    out = []
    rel = a.rel
    for r0 in (r for r in range(1, p) if r * r * r % p == u0):
        # Newton-lift r0 to a cube root of the unit part
        r = newton_lift([-a.unit, 0, 0, 1], r0, p, rel)
        out.append(PadicElement(ctx, a.v // 3, r, rel, _raw=True))
    return out


def _inverse_root(a: RamifiedElement, k: int, r: RamifiedElement) -> RamifiedElement:
    """a^(-1/k) for a unit a of Q_p(pi), from r, a root to positive pi-adic
    precision, by the division-free Newton step r <- r((k + 1) - a r^k)/k
    (Brent-Zimmermann, Modern Computer Arithmetic, 4.2); k = 1 or 3 is a
    unit since p > 3.  The correct pi-digits double per step, and each iterate is read
    at full nominal precision (`_refreshed`)."""
    ctx, e = a.ctx, a.e
    steps = max(1, math.ceil(math.log2(max(2, e * ctx.N)))) + 1
    k1 = RamifiedElement.from_padic(ctx.from_int(k + 1), e)
    kinv = ctx.from_int(k).inverse()
    for _ in range(steps):
        rk = r
        for _ in range(k - 1):
            rk = rk * r
        r = (r * (k1 - a * rk)).scalar_mul(kinv)._refreshed()
    return r


def cube_root_ramified(a: RamifiedElement) -> RamifiedElement:
    """The cube root of a = 1 mod pi in Q_p(pi) that is 1 mod pi: a r^2 for
    r = a^(-1/3), stated at full nominal precision like the Newton iterates."""
    one = RamifiedElement.from_padic(a.ctx.one(), a.e)
    r = _inverse_root(a, 3, one)
    return (a * r * r)._refreshed()
