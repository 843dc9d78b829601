"""Coleman integration on Picard curves y^3 = f(x).

`integral(Q)` is the Abel--Jacobi map with base point infinity: the vector
of the regular integrals int_inf^Q omega_i, i = 1..3.  A divisor is a list
of points, standing for sum(points) - len(points) * infinity, and
`divisor_integral` sums `integral` over it.  Tiny integrals integrate the
disk expansion around the disk's center termwise.  Between disks, as in
Balakrishnan--Tuitman, each disk D has one endpoint E_D of the
Frobenius-equivariant system: the center of a good disk, or the boundary
point S at t = pi over Q_p(pi), pi^e = p, of a bad one, whose Frobenius
image is at t = pi^p at infinity.  `basis_integrals(D)` solves
(I - M) v = h(E_D) - h(S_inf) once per disk, M being Frobenius on H^1, h
the exact parts and endpoint corrections and S_inf the boundary point at
infinity; (I - M) is inverted once over Q_p (`FrobeniusData.system`).
With int_inf^S_inf, made once, that gives int_inf^E_D, which a tiny
integral joins to any point of D.  e is chosen once per Frobenius matrix,
before any integrator is built, as the least e at which the plan of every
bad disk, made from valuations alone, passes (`choose_e`).  Results at Q_p
points are projected to Q_p.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .curve import (
    BAD_FINITE,
    GOOD,
    CurvePoint,
    PicardCurve,
    branch_point,
    reduce_point,
    split_roots,
)
from .errors import (
    BadYRule,
    IncreaseE,
    NotSplit,
    PoleInDisk,
    PrecisionExhausted,
    WrongDisk,
)
from .frobenius import BASIS, DECAY, NEED_MARGIN, REGULAR, FrobeniusData
from .padic import (
    INF,
    PadicContext,
    RamifiedElement,
    _fold_mul,
    _pval,
    cube_root_ramified,
    cube_roots,
    hensel_lift_root,
    poly_at,
    poly_deriv,
    taylor_shift,
)
from .series import ser_add, ser_inverse_root, ser_mul, ser_spread


# --- input records --------------------------------------------------------


@dataclass
class NumberFieldPointSpec:
    """Points with conjugate x-coordinates: the roots of x_minpoly.

    y_rule, when given, is a polynomial h with y = h(x) on each point;
    without it the unique cube-root branch is used (requires p = 2 mod 3).
    Coefficients are low-to-high and may be Fractions.
    """

    x_minpoly: list
    y_rule: list = None


# the basis differentials omega_1..omega_6, and the regular ones, as
# coefficient vectors
_BASIS_UNITS = [[int(i == j) for j in range(6)] for i in range(6)]
_REGULAR_UNITS = [_BASIS_UNITS[i] for i in REGULAR]


def _integerize(poly):
    """Clear denominators of a rational coefficient list."""
    fracs = [Fraction(c) for c in poly]
    den = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
    return [int(f * den) for f in fracs]


def realize_nf_points(curve: PicardCurve, spec: NumberFieldPointSpec,
                      ctx: PadicContext):
    """The p-adic points of the spec, one per root of x_minpoly mod p.

    Requires x_minpoly to split completely mod p (NotSplit otherwise); the
    y-coordinate comes from y_rule, checked against the curve (BadYRule), or
    from the unique cube root when there is exactly one.
    """
    g = _integerize(spec.x_minpoly)
    roots = split_roots(g, ctx.p)
    if roots is None:
        raise NotSplit(f"{spec.x_minpoly} does not split completely mod {ctx.p}")
    points = []
    for a in roots:
        x = hensel_lift_root(g, a, ctx)
        fx = curve.f_eval(x)
        if spec.y_rule is not None:
            y = poly_at(spec.y_rule, x)
            if not (y ** 3).is_congruent(fx):
                raise BadYRule(f"y-rule does not satisfy y^3 = f(x) at x = {x!r}")
        else:
            roots = cube_roots(fx)
            if len(roots) != 1:
                raise BadYRule("ambiguous cube-root branch; supply a y_rule")
            y = roots[0]
        points.append(CurvePoint(x, y))
    return points


def _add_shifted(ctx, acc, base, c, k, vec):
    """acc += c pi^k sum(vec[i] pi^i) in place, acc holding the coefficients
    of p^base pi^i and pi^e = p folded; k must be at least e * base."""
    e = len(acc)
    q, r = divmod(k, e)
    lo, hi = c * ctx.pk(q - base), c * ctx.pk(q + 1 - base)
    acc[:r] = [x + hi * a for x, a in zip(acc[:r], vec[e - r:])]
    acc[r:] = [x + lo * a for x, a in zip(acc[r:], vec)]


def _poly_of_series(poly, s, mod, T):
    """An integer polynomial evaluated on the series s, cut at t^T."""
    acc = [poly[-1] % mod]
    for c in reversed(poly[:-1]):
        acc = ser_mul(acc, s, mod, T) or [0]
        acc[0] = (acc[0] + c) % mod
    return acc + [0] * (T + 1 - len(acc))


class ColemanIntegrator:
    """Coleman integrals on one curve at one good prime.

    N is the number of p-adic digits aimed for in final answers; e is the
    ramification index used for boundary points of bad disks, and plans, if
    given, are the bad disks' plans at e (`choose_e`).
    """

    def __init__(self, fd: FrobeniusData, N: int, e: int, plans=None):
        self.fd = fd
        self.curve = fd.curve
        self.p = fd.p
        self.ctx = fd.ctx
        self.W = fd.N_work
        self.N = N
        if e < 1:
            raise ValueError(f"ramification index e must be >= 1, got {e}")
        self.e = e
        self.disks = fd.disks
        self._disk_by_key = {d.reduction: d for d in self.disks}
        self.infinite_disk = self._disk_by_key["inf"]
        self.system_inverse, self.det_ord = fd.system
        self.T_good = N + 16
        self.T_bad = e * (N + 10) + 16
        self._disk_data_cache = {}
        self._endpoint_cache = {}
        self._boundary_cache = {}
        self._plan_cache = dict(plans or {})
        self._to_endpoint_cache = {}

    # -- disks and local data ---------------------------------------------

    def disk_of(self, P: CurvePoint):
        disk = self._disk_by_key.get(reduce_point(P, self.p))
        if disk is None:
            raise WrongDisk(f"point {P!r} reduces outside X(F_{self.p})")
        return disk

    def _disk_data(self, disk):
        """The disk's local expansion around its center and its six basis
        differentials pulled back once, cached per disk.

        forms[i] = (k0, coeffs) with omega_i = sum(coeffs[j] t^(k0+j)) dt,
        coefficients mod p^W; every other form is their combination
        (`antiderivative_rows`).  Form (a, b) = x^a y^b dx / f is
        (x0 + t)^a g_b cut at t^T on a good disk (t = x - x0); t^(b-3) x^a x'
        cut at t^(T-2) on a finite bad disk (t = y, x(t) from f(x) = t^3 by
        Newton); and -3 t^(8-3a-4b) g_b cut at t^(T-6) at infinity
        (x = t^-3, y = t^-4 u, Ft = t^12 f(t^-3)).  As y^3 = f, g_b = y^b/f
        is y^(b-3): g_2 = r and g_1 = r^2 for r = F^(-1/3), F = f(x0 + t)
        from r(0) = 1/y0 or F = Ft from r(0) = 1, and u = Ft r^2.  Bad disks
        also keep x(t) as "xt" or u(t) as "u"; x(t) and Ft are series in
        s = t^3, so the bad disks form their products in s.
        """
        got = self._disk_data_cache.get(disk.reduction)
        if got is not None:
            return got
        W, f = self.W, self.curve.f
        mod = self.ctx.pk(W)
        if disk.kind == GOOD:
            T, x0 = self.T_good, disk.center.x.residue(W)
            r = ser_inverse_root(taylor_shift(f, x0, mod), 3,
                                 pow(disk.center.y.residue(W), -1, mod), mod, T)
            xg = {}
            for b, g in ((1, ser_mul(r, r, mod, T)), (2, r)):
                for a in range(3):
                    xg[a, b] = g
                    g = [(x0 * c + d) % mod for c, d in zip(g, [0] + g)]  # times x0 + t
            dd = {"forms": [(0, xg[ab]) for ab in BASIS]}
        elif disk.kind == BAD_FINITE:
            # x = sum(xs[k] s^k), s = t^3, solves f(x) = s: Newton in Z_p[[s]]
            T, Ts, df = self.T_bad, self.T_bad // 3, poly_deriv(f)
            xs, prec = [disk.center.x.residue(W)], 1
            while prec <= Ts:
                prec = min(2 * prec, Ts + 1)
                num = [-c % mod for c in _poly_of_series(f, xs, mod, prec - 1)]
                num[1] = (num[1] + 1) % mod  # s - f(x)
                dfx = _poly_of_series(df, xs, mod, prec - 1)
                dfinv = ser_inverse_root(dfx, 1, pow(dfx[0], -1, mod), mod, prec - 1)
                xs = ser_add(xs, ser_mul(num, dfinv, mod, prec - 1), mod)
            # x^a x' = 3 t^2 X^a dX/ds: cut at t^(T-1) for a = 0, else t^T
            xdx = [poly_deriv(xs)]
            xdx.append(ser_mul(xs, xdx[0], mod, Ts))
            xdx.append(ser_mul(xs, xdx[1], mod, Ts))
            xdx = [ser_spread([3 * c % mod for c in xa], 3, n, 2)
                   for xa, n in zip(xdx, (T, T + 1, T + 1))]
            dd = {"xt": ser_spread(xs, 3, T + 1),
                  "forms": [(b - 3, xdx[a][:T + 2 - b]) for a, b in BASIS]}
        else:
            # Ft, r and u = Ft r^2 are series in s = t^3
            T, Ts = self.T_bad, self.T_bad // 3
            Fs = [c % mod for c in reversed(f)]
            r = ser_inverse_root(Fs, 3, 1, mod, Ts)
            g = {1: ser_mul(r, r, mod, Ts), 2: r}
            forms = []
            for a, b in BASIS:
                k0 = 8 - 3 * a - 4 * b
                forms.append((k0, [-3 * c % mod for c in ser_spread(g[b], 3, T - 5 - k0)]))
            dd = {"u": ser_spread(ser_mul(Fs, g[1], mod, Ts), 3, T + 1), "forms": forms}
        self._disk_data_cache[disk.reduction] = dd
        return dd

    # -- differentials as Laurent series in the uniformizer ---------------

    def _lift_omega(self, omega):
        """Coefficients of omega on BASIS as integers mod p^W + precision floor."""
        omega = list(omega)
        if len(omega) == 3:
            omega = omega + [0, 0, 0]
        if len(omega) != 6:
            raise ValueError("a differential is 3 or 6 basis coefficients")
        out, floor = [], self.W
        for c in omega:
            el = self.ctx.element(c)
            if el.is_zero:
                out.append(0)
                if el.abs_prec < self.W:
                    floor = min(floor, int(el.abs_prec))
                continue
            if el.valuation() < 0:
                raise ValueError("differential coefficients must be p-integral")
            k = min(self.W, int(el.abs_prec))
            floor = min(floor, k)
            out.append(el.residue(k))
        return tuple(out), floor

    def antiderivative_rows(self, disk, omegas):
        """(terms, prec) for each omega: its termwise antiderivative in the
        disk, fixed at 0 at the disk's center, as [(power, coeff, divisor)]
        by increasing power, each coeff an integer known modulo p^prec.  The
        pullback of omega is the combination of the disk's six basis
        pullbacks (`_disk_data`) with the integers of `_lift_omega`, reduced
        mod p^W once.  Tiny integrals evaluate these rows and the Chabauty
        solver finds their zeros."""
        forms = self._disk_data(disk)["forms"]
        mod = self.ctx.pk(self.W)
        lo = min(k0 for k0, _ in forms)
        width = max(k0 + len(cf) for k0, cf in forms) - lo
        rows = []
        for omega in omegas:
            ints, floor = self._lift_omega(omega)
            acc = [0] * width
            for ci, (k0, cf) in zip(ints, forms):
                if ci:
                    s = k0 - lo
                    acc[s:s + len(cf)] = [x + ci * c for x, c in zip(acc[s:], cf)]
            terms = []
            for k, c in enumerate(acc, lo):
                c %= mod
                if not c:
                    continue
                if k == -1:
                    raise PoleInDisk("nonzero residue: logarithmic term")
                terms.append((k + 1, c, k + 1))
            rows.append((terms, floor))
        return rows

    # -- termwise evaluation ----------------------------------------------

    def _eval_terms(self, rows, t):
        """[sum(c/d * t^j for (j, c, d) in terms) for (terms, prec) in rows]
        at the uniformizer value t.  A monomial t (every t in Q_p) is read
        termwise.  Any other t goes by rectangular splitting: the powers
        t^0..t^(k-1), k ~ sqrt(6J) for J the top exponent, serve every row, and
        a row is a Horner in t^k over its blocks of k terms, each block one
        `RamifiedElement.combine`.  For t known to its full relative precision
        e N, as phi(S) is, the sums are stated to the termwise precision."""
        ctx, p = self.ctx, self.p
        if t is None or t.is_zero:
            if any(j < 0 for terms, _ in rows for j, _, _ in terms):
                raise PoleInDisk("pole at the disk center")
            return [ctx.zero(prec) for _, prec in rows]  # antiderivatives have no t^0 term
        e, v = t.e, t.pi_valuation()
        if v < 1:
            raise WrongDisk("evaluation point lies outside the open disk")
        # terms past the precision are dropped
        rows = [([tm for tm in terms if tm[0] <= (e * prec) // v + 4], prec)
                for terms, prec in rows]
        mono = t.monomial()
        if mono is not None:
            # (c/d) t^j = p^(mu j - v_p(d)) (c/d') U^j pi^(rj), d = p^v_p(d) d',
            # known to the relative precision of c or of U^j
            r, mu, U, known = mono
            out, inv = [], {}
            for terms, prec in rows:
                # U^j and 1/d' are kept mod p^prec, and each product is cut to
                # the p^k its term is known to, k <= prec
                P, Uj, i, vals = ctx.pk(prec), 1, 0, []
                for j, c, d in terms:
                    if (d, prec) not in inv:
                        vd = _pval(d, p)
                        inv[d, prec] = vd, pow(d // ctx.pk(vd), -1, P)
                    vd, dinv = inv[d, prec]
                    Uj, i = Uj * pow(U, j - i, P) % P, j
                    k = prec if known >= prec else min(prec, _pval(c, p) + known)
                    vals.append((r * j + e * (mu * j - vd), c * dinv * Uj % ctx.pk(k), k))
                out.append(RamifiedElement.from_terms(ctx, e, vals))
            return out
        exps = {j for terms, _ in rows for j, _, _ in terms}
        k = max(2, math.isqrt(6 * max(exps | {0})))
        baby = [RamifiedElement.pi(ctx, e, 0), t]
        while len(baby) <= k:
            baby.append(baby[-1] * t)
        tk = baby.pop()
        tinv = t.inverse() if min(exps, default=0) < 0 else None
        baby += [tinv ** n for n in range(-min(exps | {0}), 0, -1)]  # baby[j] = t^j, j < 0
        out = []
        for terms, prec in rows:
            blocks = {}
            for j, c, d in terms:
                vd = _pval(d, p)  # c/d is known modulo p^(prec - vd)
                s = RamifiedElement(ctx, 1, -vd, [c * pow(d // p ** vd, -1, p ** prec)], prec - vd)
                blocks.setdefault(max(j, 0) // k, []).append((s, baby[j % k if j >= 0 else j]))
            acc = ctx.zero()
            for b in range(max(blocks, default=-1), -1, -1):
                acc = RamifiedElement.combine(blocks.get(b, []) + [(ctx.one(), acc * tk)])
            out.append(acc)
        return out

    def _eval_series(self, coeffs, t):
        """sum(coeffs[k] t^k) at t, each coefficient known modulo p^W."""
        return self._eval_terms([([(k, c, 1) for k, c in enumerate(coeffs) if c], self.W)], t)[0]

    # -- uniformizer values of points -------------------------------------

    def _param(self, disk, P):
        """The uniformizer value of P in its disk: x - x(center) on a good
        disk, y on a finite bad disk and the cube root of 1/x on the branch
        of y at infinity (None for the center of a bad disk)."""
        if disk.kind == GOOD:
            return P.x - disk.center.x
        if disk.kind == BAD_FINITE:
            if P.inf:
                raise WrongDisk(f"{P!r} is not in {disk!r}")
            return None if P.y.is_zero else P.y
        # infinite disk: t^-3 = x, branch fixed by y = t^-4 u(t)
        if P.inf:
            return None
        u = self._disk_data(disk)["u"]
        gaps = [((P.y * tc ** 4 - self._eval_series(u, tc)).valuation(), tc)
                for tc in cube_roots(P.x.inverse())]
        best_val, best = max(gaps, key=lambda g: g[0], default=(-INF, None))
        if best_val < 1:
            raise WrongDisk(f"{P!r} has no branch in the infinite disk")
        return best

    # -- points of a disk ----------------------------------------------------

    def point_at(self, disk, t) -> CurvePoint:
        """The point with uniformizer value t != 0 in `disk`.  A bad disk
        reads it off its expansion cut at t^T_bad: (x(t), t) on a finite
        disk, (t^-3, u(t) t^-4) at infinity.  The point is stated to W digits
        but exact only to about v_pi(t) T_bad / e, fewer than W at t = pi
        when W > N + 10 (a finite bad disk).  On a good disk, whose cut
        T_good can fall below W - 1, x(center) + t is lifted to the disk's
        cube-root branch."""
        if disk.kind == GOOD:
            return branch_point(self.curve, disk.center.x + t, disk.reduction[1])
        dd = self._disk_data(disk)
        if disk.kind == BAD_FINITE:
            return CurvePoint(self._eval_series(dd["xt"], t), t)
        return CurvePoint(t ** -3, self._eval_series(dd["u"], t) * t ** -4)

    # -- boundary points ---------------------------------------------------

    def boundary_point(self, disk) -> CurvePoint:
        """The point at |t| = p^(-1/e) with t = pi on a bad disk."""
        if disk.kind == GOOD:
            raise WrongDisk("boundary points are defined for bad disks")
        S = self._boundary_cache.get(disk.reduction)
        if S is None:
            S = self.point_at(disk, RamifiedElement.pi(self.ctx, self.e, 1))
            self._boundary_cache[disk.reduction] = S
        return S

    # -- exact parts f_i ----------------------------------------------------

    def _exact_at_unramified(self, x, y):
        """All six exact-part values at a good-disk Q_p point."""
        ctx = self.ctx
        kprec = self.W
        for el in (x, y):
            if el.abs_prec != INF:
                kprec = min(kprec, int(el.abs_prec))
        mod = ctx.pk(kprec)
        xr, yr = x.residue(kprec), y.residue(kprec)
        z = pow(yr, -3, mod)
        out = []
        for smax, top, rows in self.fd.level_rows:
            # a Horner in z = y^-3 from the lowest level up, each level a
            # Horner in x, then one power of y
            acc = 0
            for row in rows:
                v = 0
                for c in reversed(row):
                    v = v * xr + c
                acc = (acc * z + v) % mod
            acc = acc * pow(yr, top, mod) % mod
            out.append(RamifiedElement(ctx, 1, -smax, [acc], kprec - smax))
        return out

    def _x_offset(self, disk, S):
        """x(S) - x0, known to pi^(e W), for S in the finite disk of center x0."""
        mod, x0 = self.ctx.pk(self.W), disk.center.x.residue(self.W)
        X = [(c - x0 * (i == 0)) % mod for i, c in enumerate(S.x.integers())]
        return RamifiedElement(self.ctx, self.e, 0, X, self.e * self.W)

    def _exact_at_boundary(self, disk, S):
        """The six exact parts f_i(S) at the boundary point S of a bad disk,
        evaluated from the disk's plan (`plan_disk`).

        Level m of a form is p^-sigma poly(x) y^m.  A form is known to the
        least precision of its levels; the levels at or past it add nothing,
        and the rest are added into e integer buckets at one base exponent.
        On a finite disk y = pi and x(pi) = x0 + X, v(X) = 3: level m is
        pi^(m - e sigma) sum(b_i X^i) for b_i the Taylor coefficients of poly
        at x0, and a form is a Horner in X over its integer columns.  At
        infinity x = pi^-3 and y = pi^-4 u with u a unit; u^m is made for the
        kept levels only, chained by u^(+-3) per class mod 3.
        """
        ctx, p, e = self.ctx, self.p, self.e
        forms = self._plan_cache.get(disk.reduction) or self._plan_cache.setdefault(
            disk.reduction, plan_disk(self.fd, disk, e, self.N))
        finite = disk.kind == BAD_FINITE
        if finite:
            X = self._x_offset(disk, S).integers()
        else:
            uval = S.y.shift_pi(4)
            u = (uval, uval.inverse())
            if any(b.abs_prec != self.W for b in u):
                raise PrecisionExhausted(
                    f"boundary point at infinity: u(pi) and 1/u(pi) are known to "
                    f"O(p^{u[0].abs_prec}) and O(p^{u[1].abs_prec}), the plan took O(p^{self.W})")
            need, upow = {m for _, _, kept in forms for m, _, _ in kept}, {}
            for s, b in zip((1, -1), u):
                deep = [max((m * s for m in need if m % 3 == r), default=0) for r in range(3)]
                for k in range(1, max(deep) + 1):
                    if k <= 3:
                        upow[s * k] = b if k == 1 else upow[s * (k - 1)] * b
                    elif k <= deep[s * k % 3]:
                        upow[s * k] = upow[s * (k - 3)] * upow[3 * s]
        out = []
        for base, prec, terms in forms:
            if finite:  # a Horner in X over the columns
                mod_k = ctx.pk(-(-prec // e) - base) if prec != INF else 1
                acc = terms[-1]
                for col in reversed(terms[:-1]):
                    acc = [a + c for a, c in zip(_fold_mul(acc, X, e, p, mod_k), col)]
            else:
                acc = [0] * e
                for m, tm, shift in terms:
                    vec = upow[m].integers()
                    for j, c, _ in tm:
                        _add_shifted(ctx, acc, base, c, shift - 3 * j, vec)
            out.append(RamifiedElement(ctx, e, base, acc, prec))
        return out

    # -- Frobenius images of endpoints -------------------------------------

    def _phi_param(self, disk, S):
        """Uniformizer value of phi(S) for a boundary point S.  On a finite
        disk (t = y) it is pi^p (1 + u_el)^(1/3), u_el = p A(x) / f(x)^p and
        f(x) = pi^3.  At infinity it is pi^p: x = t^-3 and y = t^-4 u(t) with
        u(0) = 1, so x(phi S) = x(S)^p = pi^-3p gives t(phi S) = c pi^p with
        c^3 = 1.  Mod pi, y(phi S) pi^4p = u(pi)^p (1 + u_el)^(1/3) = 1 while
        u(c pi^p) c^-4 = c^-1, and the cube roots of unity differ mod p, so
        c = 1.  There 1 + u_el = g(z^p) / g(z)^p at z = pi^3 for g(z) =
        z^4 f(1/z), and g(z^p) - g(z)^p = p z h(z) with h in Z[z], so
        v_pi(u_el) >= e + 3 at every e."""
        ctx, p, e = self.ctx, self.p, self.e
        if disk.kind != BAD_FINITE:
            return RamifiedElement.pi(ctx, e, p)
        u_el = poly_at(self.fd.A_poly, S.x).shift_pi(e - 3 * p)
        if u_el.pi_valuation() < 1:
            raise IncreaseE(f"Frobenius image of the boundary point of {disk!r}: "
                            f"the correction diverges at radius 1/{e}")
        return cube_root_ramified(u_el + 1).shift_pi(p)

    # -- endpoints of the linear system ------------------------------------

    def _system_endpoint(self, disk):
        """(E, t(E)) for the disk's endpoint E of the linear system: the
        center of a good disk, at t = 0, and the boundary point of a bad
        disk, at t = pi."""
        if disk.kind == GOOD:
            return disk.center, None
        return self.boundary_point(disk), RamifiedElement.pi(self.ctx, self.e, 1)

    def _endpoint(self, disk):
        """h with h[i] = f_i(E) - int_E^phi(E) omega_i at the disk's endpoint
        E of the linear system, made once per disk.  The tiny integral runs
        from t(E) to t(phi(E)): from 0 to x0^p - x0 on a good disk with
        center (x0, y0), from pi to t(phi(S)) at a boundary point S."""
        h = self._endpoint_cache.get(disk.reduction)
        if h is None:
            E, tE = self._system_endpoint(disk)
            if disk.kind == GOOD:
                fvals, tphi = self._exact_at_unramified(E.x, E.y), E.x ** self.p - E.x
            else:
                fvals, tphi = self._exact_at_boundary(disk, E), self._phi_param(disk, E)
            tiny = self._tiny(disk, tE, tphi, _BASIS_UNITS)
            h = self._endpoint_cache[disk.reduction] = [f - v for f, v in zip(fvals, tiny)]
        return h

    # -- public integrals ---------------------------------------------------

    def _tiny(self, disk, tP, tQ, omegas):
        """[int_P^Q omega for omega in omegas] for the points P and Q of
        `disk` at the uniformizer values tP and tQ (None at the center)."""
        rows = self.antiderivative_rows(disk, omegas)
        vQ = self._eval_terms(rows, tQ)
        vP = self._eval_terms(rows, tP)
        return [q - r for q, r in zip(vQ, vP)]

    def basis_integrals(self, disk):
        """The vector (int_S^E omega_i) for the regular omega_1, omega_2,
        omega_3, from the boundary point S of the infinite disk to the
        endpoint E of `disk`: the regular rows of (I - M)^-1 applied to
        h(E) - h(S).  `integral` calls it once per disk.
        """
        hS, hE = self._endpoint(self.infinite_disk), self._endpoint(disk)
        c = [q - r for q, r in zip(hE, hS)]
        return [sum((x * y for x, y in zip(c[1:], row[1:])), c[0] * row[0])
                for row in (self.system_inverse[i] for i in REGULAR)]

    @cached_property
    def _to_boundary(self):
        """int_inf^S omega_i for the regular forms, S the boundary point of
        the infinite disk."""
        inf = self.infinite_disk
        return self._tiny(inf, None, self._system_endpoint(inf)[1], _REGULAR_UNITS)

    def integral(self, Q):
        """[int_inf^Q omega_i for the regular omega_1, omega_2, omega_3]: the
        Abel--Jacobi map with base point infinity.

        Exact zeros at infinity, and a tiny integral from the center on the
        infinite disk.  Elsewhere int_inf^E to the disk's endpoint E,
        basis_integrals(disk) plus int_inf^S, is made once per disk, and a
        tiny integral joins E to Q.  The values are projected to Q_p when Q
        is a Q_p point.
        """
        if Q.inf:
            return [self.ctx.zero() for _ in REGULAR]
        disk = self.disk_of(Q)
        if disk is self.infinite_disk:
            vals = self._tiny(disk, None, self._param(disk, Q), _REGULAR_UNITS)
        else:
            vals = self._to_endpoint_cache.get(disk.reduction)
            if vals is None:
                vals = [v + s for v, s in zip(self.basis_integrals(disk), self._to_boundary)]
                self._to_endpoint_cache[disk.reduction] = vals
            E, tE = self._system_endpoint(disk)
            if Q is E:
                vals = list(vals)
            else:
                tiny = self._tiny(disk, tE, self._param(disk, Q), _REGULAR_UNITS)
                vals = [a + b for a, b in zip(vals, tiny)]
        if Q.x.e == 1:
            vals = [self._project(v) for v in vals]
        return vals

    def _project(self, value):
        """Project a Q_p-rational answer computed through Q_p(pi) back to Q_p."""
        try:
            return value.to_padic(noise_floor=max(1, self.N + 2))
        except ValueError as exc:
            raise IncreaseE(f"projection to Q_p: ramified noise exceeds tolerance: {exc}")

    def divisor_integral(self, points):
        """integral(P) summed over the points: the Abel--Jacobi image of the
        divisor sum(points) - len(points) * infinity."""
        rows = [self.integral(P) for P in points]
        return [sum(col[1:], col[0]) for col in zip(*rows)]


# --- plans of the bad disks and the choice of e ----------------------------


def plan_disk(fd: FrobeniusData, disk, e: int, N: int):
    """The checked plan of `_exact_at_boundary` on a bad disk at e, from
    valuations alone (`FrobeniusData.levels`); IncreaseE when e is too small.
    forms[i] is (base, prec, terms) per exact part.  On a finite disk terms
    are the X^i columns, level m of valuation e k + 3 i0, which is exact
    when e > 3 i0; at e <= 3 i0 two terms may tie, and the plan refuses e.
    At infinity terms are the kept levels, valuations from poly(pi^-3)
    alone, ties folded, and u(pi), 1/u(pi) units known to O(p^W), which
    `_exact_at_boundary` checks."""
    ctx, p, W = fd.ctx, fd.p, fd.N_work
    finite, forms, diags = disk.kind == BAD_FINITE, [], []
    for levels in fd.levels(disk.center.x.residue(W) if finite else None):
        if finite:
            prec = min((e * (W - lv[1]) + lv[0] for lv in levels), default=INF)
            base = min(((lv[0] - e * lv[1]) // e for lv in levels), default=0)
            terms = [[0] * e for _ in range(max((len(lv[2]) for lv in levels), default=1))]
            for m, sig, b, k, i0 in levels:
                if 3 * i0 >= e:
                    raise IncreaseE(f"terms of a level may tie at radius 1/{e}")
                v, shift = e * k + 3 * i0, m - e * sig
                if v < e * W:
                    diags.append((m, v + shift))
                q, r = divmod(shift, e)  # b_i pi^shift joins the column of X^i
                scale = ctx.pk(q - base)
                for col, c in zip(terms, b):
                    col[r] += c * scale
        else:
            kept, prec = [], INF
            for m, sig, b, top in levels:
                # w(poly(pi^-3)) is the least e v_p(c_j) - 3j unless terms tie
                # there: they share a pi-residue and may cancel, so they are
                # folded, pi^-top sum c_j pi^(top - 3j) with pi^e = p
                vals = [e * vj - 3 * j for j, _, vj in b]
                v = min(vals)
                if vals.count(v) > 1:
                    fold = {}
                    for j, c, _ in b:
                        q, r = divmod(top - 3 * j, e)
                        fold[r] = fold.get(r, 0) + c * ctx.pk(q)
                    v = min((e * _pval(n, p) + r - top for r, n in fold.items() if n), default=INF)
                # times the unit u^m known to pi^(e W), then times pi^shift:
                # by the product rule the level is known to pi^(e W - top + shift)
                shift = -4 * m - e * sig
                if v < e * W - top:
                    diags.append((m, v + shift))
                    kept.append((m, b, shift, v + shift))
                prec = min(prec, e * W - top + shift)
            terms = [(m, t, s) for m, t, s, v in kept if v < prec]
            base = min(((s - 3 * t[-1][0]) // e for _, t, s in terms), default=0)
        forms.append((base, prec, terms))
    _check_convergence(diags, [prec for _, prec, _ in forms], e, N)
    return forms


def plan_bad_disks(fd: FrobeniusData, N: int, e: int):
    """{disk reduction: plan} at e for every bad disk, the finite ones in disk
    order and then infinity (`plan_disk`); IncreaseE at the first refusal."""
    bad = sorted((d for d in fd.disks if d.kind != GOOD), key=lambda d: d.kind != BAD_FINITE)
    return {d.reduction: plan_disk(fd, d, e, N) for d in bad}


def _check_convergence(diags, precs, e, N):
    """Flag evaluations whose deep pole terms dominate (the boundary is
    too close to the disk's center) or whose values, known modulo
    pi^prec for prec in precs, fall short of the target: e must grow."""
    vmin = min((v for _, v in diags), default=INF)
    if vmin < -DECAY * e:
        raise IncreaseE(f"exact part blows up at radius 1/{e} "
                        f"(term of size p^{-vmin / e:.1f})")
    ms = sorted({m for m, _ in diags})
    if len(ms) >= 8:
        deep_cut = ms[len(ms) // 4 - 1]
        vdeep = min(v for m, v in diags if m <= deep_cut)
        vrest = min(v for m, v in diags if m > deep_cut)
        if vdeep < min(vrest, 0):
            raise IncreaseE("exact-part terms are not decaying at radius "
                            f"1/{e}; increase e")
    # each wrap of pi^e = p in a deep y^m shift divides by p, so the
    # values are only known modulo p^(W - depth/e); if that eats into the
    # target digits, a larger e is required
    need = N + NEED_MARGIN
    lowest = min((prec // e for prec in precs if prec != INF), default=None)
    if lowest is not None and lowest < need:
        raise IncreaseE(
            f"boundary values precise only to O(p^{lowest}) at radius "
            f"1/{e} (need {need} digits); increase e")


def choose_e(fd: FrobeniusData, N: int, e_cap: int):
    """(e, plans): the least e <= e_cap that every bad disk's plan accepts,
    and those plans (`plan_bad_disks`), chosen before any integrator is
    built.  Every check of `_check_convergence` but the decay of deep terms
    is a bound e a >= b linear in e, from `FrobeniusData.levels`: a level
    p^-sigma poly(x) y^m is known to pi^(e(W - sigma) + c), c = -3 deg(poly)
    - 4m at infinity and m on a finite disk, and needs N + NEED_MARGIN
    digits; none of its terms, of pi-valuation e(v_p(c_j) - sigma) - 3j - 4m
    at infinity and e(k - sigma) + 3 i0 + m on a finite disk, may fall below
    pi^(-DECAY e); and a finite level needs e > 3 i0.  The bounds are the
    plans' own checks, exact but where terms at infinity tie, which the
    plans fold.  The plans confirm e from the least e the bounds allow, one
    step up at a time.  IncreaseE when the least e is above e_cap,
    PrecisionExhausted when the bounds allow none."""
    W, need = fd.N_work, N + NEED_MARGIN
    finite = [d for d in fd.disks if d.kind == BAD_FINITE]
    bounds = []  # (a, b) for e a >= b
    for levels in fd.levels():
        for m, sig, terms, top in levels:
            bounds.append((W - sig - need, top + 4 * m))
            if finite:  # the precision of a finite disk's level does not depend on x0
                bounds.append((W - sig - need, -m))
            if top + 4 * m > 0 or sig >= DECAY:  # else every term has a >= 1 and b <= 0
                bounds += [(v - sig + DECAY, 3 * j + 4 * m) for j, _, v in terms]
    for disk in finite:
        for levels in fd.levels(disk.center.x.residue(W)):
            for m, sig, _, k, i0 in levels:
                bounds.append((1, 3 * i0 + 1))  # no two terms tie
                if k < W:
                    bounds.append((k - sig + DECAY, -3 * i0 - m))
    lo = max([1] + [-(-b // a) for a, b in bounds if a > 0])
    hi = min([e_cap] + [b // a if a else 0 for a, b in bounds if a < 0 or a == 0 < b])
    if lo > hi:
        raise (IncreaseE(f"the plans need e >= {lo}, above e_cap {e_cap}") if lo > e_cap else
               PrecisionExhausted(f"no e passes the bounds of the plans (W = {W}, N = {N})"))
    for e in range(lo, hi + 1):
        try:
            return e, plan_bad_disks(fd, N, e)
        except IncreaseE:
            pass
    raise IncreaseE(f"no e from {lo} to {hi} passes the plans")
