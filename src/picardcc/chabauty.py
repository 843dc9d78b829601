"""Effective Chabauty--Coleman on Picard curves.

Vanishing differentials with precision accounting, per-disk zero solving,
assembly of X(Q_p)_1, classification of its members, and the end-to-end
pipeline with prime selection and the choice of e from the plans.
"""

import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .algdep import algdep
from .coleman import (
    ColemanIntegrator,
    NumberFieldPointSpec,
    _integerize,
    choose_e,
    realize_nf_points,
)
from .curve import (
    CurvePoint,
    PicardCurve,
    good_prime,
    prime_rejection,
    rational_point_search,
)
from .errors import (
    BadDivisor,
    BadParameter,
    BadPrime,
    ComputationFailure,
    DegenerateDivisor,
    DoubleRoot,
    FrobeniusUncertified,
    PicardCCError,
    PrecisionExhausted,
)
from .frobenius import frobenius_matrix, zeta_consistency_check
from .padic import INF, _pval, disc_adj, poly_eval_mod
from .series import ser_trim, solve_zeros_in_disk

__all__ = [
    "VanishingBasis",
    "PointClassification",
    "ChabautyReport",
    "vanishing_differentials",
    "chabauty_set",
    "classify_point",
    "run_pipeline",
]


# --- vanishing differentials ---------------------------------------------


@dataclass
class VanishingBasis:
    """Kernel of the divisor-integral matrix over the regular differentials."""

    vectors: list            # each [v1, v2, v3], echelonized with unit pivots
    precision: int           # N - ord_p(det(M - I)) - delta
    base_precision: int      # N - ord_p(det(M - I)); the solver charges delta
    divisor_integrals: list  # the k x 3 evidence rows
    det_ord: int


def _delta_bound(p, T):
    """Worst antiderivative loss max v_p(i+1) over the first T+1 terms."""
    d, q = 0, p
    while q <= T + 1:
        d += 1
        q *= p
    return d


def _kernel_basis(rows, ctx):
    """Kernel of a k x 3 matrix over Q_p, echelonized with unit pivots."""
    pivots = {}  # column -> normalized reduced row
    for row in rows:
        row = list(row)
        for col, prow in pivots.items():
            c = row[col]
            if not c.is_zero:
                row = [a - c * b for a, b in zip(row, prow)]
        best = None
        for j in range(3):
            if j in pivots or row[j].is_zero:
                continue
            if best is None or row[j].valuation() < row[best].valuation():
                best = j
        if best is None:
            continue  # dependent divisor
        inv = ctx.from_int(1) / row[best]
        prow = [a * inv for a in row]
        for col, q in list(pivots.items()):
            c = q[best]
            if not c.is_zero:
                pivots[col] = [a - c * b for a, b in zip(q, prow)]
        pivots[best] = prow
    basis = []
    for j in range(3):
        if j in pivots:
            continue
        v = [ctx.zero(INF) for _ in range(3)]
        v[j] = ctx.from_int(1)
        for col, prow in pivots.items():
            v[col] = prow[j] * (-1)
        basis.append(v)
    return basis


def vanishing_differentials(engine, divisors):
    """Basis of regular differentials whose integrals kill every divisor.

    divisors: lists of realized points P, each standing for the divisor
    sum(P) - len(P) * infinity.  Raises DegenerateDivisor on a zero integral
    vector and PrecisionExhausted when N - ord_p(det(M-I)) - delta <= 0.
    """
    rows = []
    for D in divisors:
        row = engine.divisor_integral(D)
        if all(c.is_zero or c.valuation() >= engine.N for c in row):
            raise DegenerateDivisor("divisor integral vector is zero to precision")
        rows.append(row)
    det_ord = engine.det_ord
    prec = engine.N - det_ord - _delta_bound(engine.p, engine.T_good)
    if prec <= 0:
        raise PrecisionExhausted(
            f"N - ord_p(det(M-I)) - delta = {prec} <= 0")
    vectors = _kernel_basis(rows, engine.ctx)
    return VanishingBasis(vectors, prec, engine.N - det_ord, rows, det_ord)


# --- solving for X(Q_p)_1 -------------------------------------------------


def _agree_res(r1, k1, r2, k2, p):
    k = min(k1, k2)
    return (r1 - r2) % p ** k == 0


def _annihilates(r, solved_entry, p):
    recs, Np, lam, F = solved_entry
    if F is None:
        return False
    val = poly_eval_mod(F, r % p ** Np, p ** Np)
    if val == 0:
        return True
    return _pval(val, p) >= Np - 4


def _dot(vec, integrals):
    """sum(c * I) over the nonzero coefficients c of vec."""
    terms = [I * c for c, I in zip(vec, integrals) if not c.is_zero]
    return sum(terms[1:], terms[0])


def _disk_points(engine, disk, vanishing):
    p = engine.p
    integrals = engine.integral(disk.center)
    rows = engine.antiderivative_rows(disk, vanishing.vectors)
    solved = []
    for vec, (terms, prec) in zip(vanishing.vectors, rows):
        const = _dot(vec, integrals)
        try:
            solved.append(solve_zeros_in_disk(terms, prec, const,
                                              vanishing.base_precision))
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"disk solver on disk {disk.reduction}: {exc}")
    if any(F is None for (_, _, _, F) in solved):
        # some basis series has no zeros on the disk at all
        return []

    accepted = []  # (r, Np, record)
    for i, (recs, Np, lam, F) in enumerate(solved):
        for rec in recs:
            if not rec.certified_simple:
                continue
            # F(r) = 0 mod p^Np already holds for every record
            r = rec.residue
            if any(_agree_res(r, Np, r2, Np2, p) for (r2, Np2, _) in accepted):
                continue
            if all(_annihilates(r, solved[j], p)
                   for j in range(len(solved)) if j != i):
                accepted.append((r, Np, rec))

    # common double root of every basis series -> provably stuck
    for rec in solved[0][0]:
        if rec.certified_simple:
            continue
        if any(_agree_res(rec.residue, rec.known_digits, r2, Np2, p)
               for (r2, Np2, _) in accepted):
            continue
        matches_all = all(
            any(not rec2.certified_simple and
                _agree_res(rec.residue, rec.known_digits,
                           rec2.residue, rec2.known_digits, p)
                for rec2 in recs2)
            for (recs2, _, _, _) in solved)
        if matches_all:
            raise DoubleRoot(
                f"uncertified common root near t = p*{rec.residue} "
                f"in disk {disk.reduction}")

    out = []
    for (r, Np, rec) in accepted:
        Q = _point_from_root(engine, disk, r, Np)
        Q.certificate = {
            "disk": list(disk.reduction) if disk.reduction != "inf" else "inf",
            "root_residue": int(r),
            "digits": int(rec.known_digits),
            "precision": int(Np),
        }
        out.append(Q)
    return out


def _point_from_root(engine, disk, r, Np):
    """Rebuild the curve point with uniformizer value t = p*r in its disk."""
    t_int = (engine.p * r) % engine.p ** (Np + 1)
    if t_int == 0:
        center = disk.center
        return CurvePoint(center.x, center.y, inf=center.inf,
                          exact_x=center.exact_x, exact_y=center.exact_y)
    # full-precision representative of the certified class t = p*r mod p^(Np+1);
    # the certificate records how many digits are actually determined
    return engine.point_at(disk, engine.ctx.from_int(t_int))


def chabauty_set(engine, vanishing):
    """All points of X(Q_p) killing every vanishing differential.

    Scans every residue disk; a root is accepted when it is a certified
    simple root of at least one basis series and annihilates all of them.
    """
    found = []
    for disk in engine.disks:  # one per point of X(F_p): see classify_disks
        found.extend(_disk_points(engine, disk, vanishing))
    return found


# --- classification -------------------------------------------------------


@dataclass
class PointClassification:
    tag: str  # Rational | Ramification | TorsionCandidate | LinearRelation
    #          | RecognizedAlgebraic | Unrecognized
    minpoly_x: list = None
    minpoly_y: list = None
    relation: tuple = None  # (n, m, divisor_index): n*I(Q) = m*I(D)
    evidence: dict = field(default_factory=dict)


def _find_relation(I, J, bound, tol):
    """Least (n, m), n in 1..bound, then m in -bound..bound, m != 0, with
    n I = m J to valuation tol in every component, or None.  With b = J_j of
    least valuation and a = n I_j, every such m has m b = a mod p^k for
    k = min(tol, prec(a), prec(b)), fixing m = a/b mod p^(k - v(b)) if
    v(b) < k.
    """
    j = min(range(len(J)), key=lambda i: J[i].valuation())
    b, p = J[j], J[j].ctx.p
    for n in range(1, bound + 1):
        nI = [v * n for v in I]
        a = nI[j]
        k = min(tol, a.abs_prec, b.abs_prec)
        ms = range(-bound, bound + 1)
        if b.valuation() < k:
            if a.valuation() < b.valuation():
                continue
            digits = int(k - b.valuation())
            mod = p ** digits
            r = (a / b).residue(digits)
            ms = range(-bound + (r + bound) % mod, bound + 1, mod)
        for m in ms:
            if m and all(d.is_zero or d.valuation() >= tol
                         for d in (x - y * m for x, y in zip(nI, J))):
                return (n, m)
    return None


def _recognize(alpha, prec):
    """Least-degree minimal polynomial of alpha of degree <= 4, or None."""
    for d in range(1, 5):
        poly = algdep(alpha, d, prec=prec)
        if poly:
            return poly
    return None


def classify_point(Q, engine, vanishing, relation_bound=50):
    """Trichotomy tag for a member of X(Q_p)_1, with integral evidence.

    Ramification points (including rational ones) are tagged Ramification:
    their classes are 3-torsion, so they are never counted as the found
    rational points S of the algorithm.
    """
    tol = max(5, min(8, vanishing.precision))
    # coordinates are full-precision representatives; only the certified
    # digits of the underlying residue class are trusted for recognition
    kp = None if Q.certificate is None else int(Q.certificate["precision"]) + 1
    if Q.inf:
        return PointClassification("Rational", evidence={"point": "inf"})

    mx = _recognize(Q.x, kp)
    fx = engine.curve.f_eval(Q.x)
    if Q.y.is_zero or fx.is_zero or fx.valuation() >= tol:
        return PointClassification("Ramification", mx,
                                   evidence={"f_of_x": str(fx)})

    Ivec = engine.integral(Q)
    ev = {"integrals": [str(v) for v in Ivec]}

    # y is recognized once: here when x is rational, else where it is reported
    x_rational = mx is not None and len(mx) == 2
    my = _recognize(Q.y, kp) if x_rational else None
    if x_rational and my is not None and len(my) == 2:
        xq, yq = Fraction(-mx[0], mx[1]), Fraction(-my[0], my[1])
        if yq ** 3 == engine.curve.f_eval(xq):
            Q.exact_x, Q.exact_y = xq, yq
            return PointClassification("Rational", mx, my, evidence=ev)

    if all(v.is_zero or v.valuation() >= tol for v in Ivec):
        tag = "TorsionCandidate"
    else:
        for di, row in enumerate(vanishing.divisor_integrals):
            rel = _find_relation(Ivec, row, relation_bound, tol)
            if rel:
                return PointClassification("LinearRelation", mx,
                                           relation=(*rel, di), evidence=ev)
        if not mx:
            return PointClassification("Unrecognized", evidence=ev)
        tag = "RecognizedAlgebraic"
    return PointClassification(
        tag, mx, my if x_rational else _recognize(Q.y, kp), evidence=ev)


# --- pipeline -------------------------------------------------------------


@dataclass
class ChabautyReport:
    label: str
    p: int = None
    N: int = None
    e: int = None
    status: str = "Failure"
    failure_reason: str = None
    S: list = field(default_factory=list)
    T: list = field(default_factory=list)
    precision: int = None
    det_ord: int = None
    kernel_dim: int = None
    soundness_ok: bool = None
    frobenius_certified: bool = None
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _point_record(Q, cls):
    rec = {"tag": cls.tag}
    if Q.inf:
        rec["x"] = "inf"
    elif Q.exact_x is not None:
        rec["x"], rec["y"] = str(Q.exact_x), str(Q.exact_y)
    else:
        rec["x"], rec["y"] = str(Q.x), str(Q.y)
    if cls.minpoly_x:
        rec["minpoly_x"] = list(cls.minpoly_x)
    if cls.minpoly_y:
        rec["minpoly_y"] = list(cls.minpoly_y)
    if cls.relation:
        rec["relation"] = list(cls.relation)
    rec["evidence"] = cls.evidence
    if Q.certificate is not None:
        rec["certificate"] = Q.certificate
    return rec


def _coefficients(values, name):
    try:
        if isinstance(values, list):
            return [Fraction(str(c)) for c in values]
    except (ValueError, ZeroDivisionError):
        pass
    raise BadDivisor(f"divisor {name} must be a list of numbers, got {values!r}")


def _divisor_specs(record):
    """The record's divisors as NumberFieldPointSpecs (BadDivisor if one
    is malformed).  g must have distinct roots, or no prime splits it."""
    divisors = record.get("divisors")
    if not isinstance(divisors, (list, type(None))):
        raise BadDivisor("'divisors' must be a list")
    specs = []
    for d in divisors or []:
        if not isinstance(d, dict):
            raise BadDivisor(f"divisor {d!r} is not a JSON object")
        g = _coefficients(d.get("g"), "g")
        y_rule = d.get("y_rule")
        if y_rule is not None:
            y_rule = _coefficients(y_rule, "y_rule")
        monic = ser_trim(g)
        monic = [c / monic[-1] for c in monic] if monic else []
        if len(monic) < 2 or not disc_adj(monic)[0]:  # Res(g, g') = 0: not squarefree
            raise BadDivisor(f"g = {d['g']} is constant or has a repeated root")
        specs.append(NumberFieldPointSpec(g, y_rule))
    return specs


def _point_spec(record):
    """The record's "point" as two Fractions, or None when it has none.
    A point is a degree-one divisor, so a malformed one is BadDivisor."""
    point = record.get("point")
    xy = _coefficients(point, "point") if point is not None else None
    if xy is not None and len(xy) != 2:
        raise BadDivisor(f"divisor point must be two numbers, got {point!r}")
    return xy


def _prime_spec(source):
    """The "p" of a record or of the parameters: None (the run chooses p)
    when absent or null, else an int that is not a bool (BadPrime)."""
    p = source.get("p")
    if p is not None and type(p) is not int:
        raise BadPrime(f"'p' must be an integer, got {p!r}")
    return p


def _split_product(specs):
    """The product of the divisors' x-polynomials; 1 when there are none."""
    prod = [1]
    for s in specs:
        g = _integerize(s.x_minpoly)
        prod = [sum(a * g[i - j] for j, a in enumerate(prod) if 0 <= i - j < len(g))
                for i in range(len(prod) + len(g) - 1)]
    return ser_trim(prod)


def _realize_divisors(curve, ctx, specs, point, search):
    """The divisors as lists of points over ctx: those of the specs, else
    [[the given point]] or [[the first search point with y != 0]]."""
    if specs:
        return [realize_nf_points(curve, spec, ctx) for spec in specs]
    if point:
        xq, yq = point
    else:
        cand = [P for P in search if not P.inf and P.exact_y != 0]
        if not cand:
            raise ComputationFailure(
                "no non-torsion input point or divisor supplied")
        xq, yq = cand[0].exact_x, cand[0].exact_y
    if yq ** 3 != curve.f_eval(xq):
        raise ComputationFailure(f"input point ({xq}, {yq}) is not on the curve")
    P = CurvePoint(ctx.from_rational(xq), ctx.from_rational(yq),
                   exact_x=xq, exact_y=yq)
    return [[P]]


def _attempt(report, curve, p, N, e_cap, specs, point, search):
    fd = frobenius_matrix(curve, p, N)
    zeta = zeta_consistency_check(fd)
    report.frobenius_certified = zeta.all_ok
    if not zeta.all_ok:
        raise FrobeniusUncertified(f"zeta certificate fails at p = {p}: "
                                   f"char poly {zeta.char_poly}")
    divisors = _realize_divisors(curve, fd.ctx, specs, point, search)
    report.e, plans = choose_e(fd, N, e_cap)
    engine = ColemanIntegrator(fd, N=N, e=report.e, plans=plans)
    van = vanishing_differentials(engine, divisors)
    return engine, van, chabauty_set(engine, van)


def _contains_point(pts, sp, ctx, tol):
    if sp.inf:
        return any(Q.inf for Q in pts)
    x = ctx.from_rational(sp.exact_x)
    y = ctx.from_rational(sp.exact_y)
    for Q in pts:
        if Q.inf:
            continue
        dx, dy = Q.x - x, Q.y - y
        if ((dx.is_zero or dx.valuation() >= tol) and
                (dy.is_zero or dy.valuation() >= tol)):
            return True
    return False


def run_pipeline(record, params=None):
    """Steps 1-7 on one curve record; all failures land in the report."""
    t0 = time.perf_counter()
    params = dict(params or {})
    N = int(params.get("N", 15))
    e_cap = int(params.get("e_cap", 200))
    bound = int(params.get("relation_bound", 50))

    report = ChabautyReport(label=record.get("label") or "", N=N)
    try:
        report.p = p_override = _prime_spec(params if params.get("p") is not None else record)
        # e0 and e_increment no longer steer the choice of e, but a value
        # below 1 is still a malformed parameter
        unused = [(name, int(params[name])) for name in ("e0", "e_increment")
                  if params.get(name) is not None]
        for name, value in [("N", N)] + unused + [("e_cap", e_cap)]:
            if value < 1:
                raise BadParameter(f"{name} must be at least 1, got {value}")
        curve = PicardCurve(record["f"], discriminant=record.get("discriminant"),
                            label=record.get("label"))
        specs = _divisor_specs(record)
        point = _point_spec(record)
        split = _split_product(specs)
        if p_override is None:
            report.p = good_prime(curve, 5, split_poly=split)
        p = report.p
        rejection = prime_rejection(curve, p, split)
        if rejection:
            raise BadPrime(rejection)

        t1 = time.perf_counter()
        search = rational_point_search(curve)
        report.timings["search_s"] = round(time.perf_counter() - t1, 2)

        retried = False
        while True:
            try:
                t1 = time.perf_counter()
                engine, van, pts = _attempt(
                    report, curve, p, N, e_cap, specs, point, search)
                report.timings["solve_s"] = round(time.perf_counter() - t1, 2)
                break
            except DoubleRoot:
                # one retry at the next admissible prime
                if retried or p_override is not None:
                    raise
                retried = True
                report.p = p = good_prime(curve, p + 1, split_poly=split)
                report.e = None

        report.precision = van.precision
        report.det_ord = van.det_ord
        report.kernel_dim = len(van.vectors)

        t1 = time.perf_counter()
        for Q in pts:
            cls = classify_point(Q, engine, van, relation_bound=bound)
            rec = _point_record(Q, cls)
            (report.S if cls.tag == "Rational" else report.T).append(rec)
        report.timings["classify_s"] = round(time.perf_counter() - t1, 2)

        tol = max(4, min(8, van.precision))
        report.soundness_ok = all(
            _contains_point(pts, sp, engine.ctx, tol) for sp in search)
        report.status = "Success"
    except PicardCCError as exc:
        reason = getattr(exc, "reason", exc.__class__.__name__)
        report.failure_reason = f"{reason}: {exc}"
    report.timings["total_s"] = round(time.perf_counter() - t0, 2)
    return report
