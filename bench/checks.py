"""Checks of picardcc reports against computations made apart from it.

Every record of every pass goes through Checker.check_pass:

  * each S point satisfies y^3 = f(x) over Q, in Fractions;
  * every affine rational point of height <= SEARCH_HEIGHT found by
    exact.rational_points is in S when y != 0, and is a Ramification member
    of T with an x-representative congruent to it when y = 0 (rational
    ramification points are 3-torsion and never counted in S), and infinity
    is in S: X(Q) lies in X(Q_p)_1 when the divisors span J(Q) (x) Q;
  * for p > 2g = 6, #S + #T <= #X(F_p) + 2g - 2 (Coleman's bound), with
    #X(F_p) counted by brute force;
  * a member reporting minpoly_x and minpoly_y passes the resultant test:
    minpoly_y divides Res_x(minpoly_x, y^3 - f(x));
  * a member's minpoly_x vanishes at its x-representative modulo p^digits,
    digits being the certified digits of the member's residue class;
  * the fixed workloads also give the answers the paper states;
  * passes of one run give identical reports outside their timings.

check_frobenius, used by the traced run, checks that p + 1 - tr(M) equals
the brute-force #X(F_p) modulo p^N.
"""

import re
from fractions import Fraction

import sympy

from exact import count_points_Fp, on_curve, poly_at, rational_points

SEARCH_HEIGHT = 50
GENUS = 3

_PADIC = re.compile(r"^(?:(\d+)\*(\d+)\^(-?\d+) \+ )?O\((\d+)\^(-?\d+|inf)\)$")


def parse_padic(text):
    """'u*p^v + O(p^w)' -> (value as Fraction, w); None if not p-adic."""
    m = _PADIC.match(text or "")
    if not m:
        return None
    u, p, v, p2, w = m.groups()
    if w == "inf":
        return Fraction(0), None
    value = Fraction(int(u)) * Fraction(int(p)) ** int(v) if u else Fraction(0)
    return value, int(w)


def valuation(q, p):
    """p-adic valuation of a nonzero Fraction."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def resultant_ok(f, mx, my):
    """minpoly_y divides Res_x(minpoly_x, y^3 - f(x)) over Q."""
    x, y = sympy.symbols("x y")
    px = sum(int(c) * x ** i for i, c in enumerate(mx))
    py = sympy.Poly(sum(int(c) * y ** i for i, c in enumerate(my)), y)
    curve = y ** 3 - sum(int(c) * x ** i for i, c in enumerate(f))
    res = sympy.Poly(sympy.resultant(px, curve, x), y)
    return res.rem(py).is_zero


def _paper_large_prime(rep):
    """ex4 at p = 11: X(Q_11)_1 = {inf, (-1/2, (13/16)^(1/3))}."""
    problems = []
    if [(r.get("x"), r.get("y")) for r in rep["S"]] != [("inf", None)]:
        problems.append(f"S is {rep['S']}, not [inf]")
    if len(rep["T"]) != 1:
        problems.append(f"{len(rep['T'])} members in T, not 1")
    elif (rep["T"][0].get("minpoly_x") != [1, 2]
          or rep["T"][0].get("minpoly_y") != [-13, 0, 0, 16]):
        problems.append("T member is not 2x + 1, 16y^3 - 13")
    return problems


def _paper_escalation(rep):
    """ex1 at p = 5: S = {inf, (-3, -1), (0, -4)}, the extra points have
    x-minpoly t^3 - 24t - 48, and e had to grow from its start."""
    problems = []
    xs = {(r.get("x"), r.get("y")) for r in rep["S"]}
    if xs != {("inf", None), ("-3", "-1"), ("0", "-4")} or len(rep["S"]) != 3:
        problems.append(f"S is {sorted(map(str, xs))}")
    extras = [r for r in rep["T"] if r["tag"] != "Ramification"]
    if not extras:
        problems.append("no extra point in T")
    for r in extras:
        if r.get("minpoly_x") != [-48, -24, 0, 1]:
            problems.append(f"extra point minpoly_x {r.get('minpoly_x')}")
        elif r["certificate"]["digits"] < 10:
            problems.append("extra point certified to fewer than 10 digits")
    if rep["e"] <= 10:
        problems.append(f"e = {rep['e']}: the run did not escalate")
    return problems


PAPER = {"large-prime": _paper_large_prime, "escalation": _paper_escalation}


class Checker:
    def __init__(self, workload, records):
        self.workload = workload
        self.records = records
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = None
        self._points = {}
        self._counts = {}
        self._resultants = {}

    def _rational_points(self, f):
        key = tuple(f)
        if key not in self._points:
            self._points[key] = rational_points(f, SEARCH_HEIGHT)
        return self._points[key]

    def _count(self, f, p):
        if (tuple(f), p) not in self._counts:
            self._counts[(tuple(f), p)] = count_points_Fp(f, p)
        return self._counts[(tuple(f), p)]

    def _resultant(self, f, mx, my):
        key = (tuple(f), tuple(mx), tuple(my))
        if key not in self._resultants:
            self._resultants[key] = resultant_ok(f, mx, my)
        return self._resultants[key]

    def check_pass(self, outs):
        if len(outs) != len(self.records):
            self.problems.append(
                f"{len(outs)} reports for {len(self.records)} records")
        plain = [{k: v for k, v in o.items() if k != "timings"} for o in outs]
        for o in plain:
            o["report"] = {k: v for k, v in o["report"].items()
                           if k != "timings"}
        if self._first is None:
            self._first = plain
        elif plain != self._first:
            self.problems.append("reports differ between passes")
        for rec, out in zip(self.records, outs):
            self.attempted += 1
            rep = out["report"]
            if rep["status"] != "Success":
                self.failed += 1
                continue
            label = rec.get("label") or rec["f"]
            self.problems.extend(f"{label}: {msg}"
                                 for msg in self.check_report(rec, rep))

    def check_report(self, rec, rep):
        f, p = [int(c) for c in rec["f"]], rep["p"]
        problems = []
        s_points = set()
        for r in rep["S"]:
            if r.get("x") == "inf":
                s_points.add("inf")
                continue
            x, y = Fraction(r["x"]), Fraction(r["y"])
            if not on_curve(f, x, y):
                problems.append(f"S point ({x}, {y}) is not on the curve")
            s_points.add((x, y))
        if "inf" not in s_points:
            problems.append("infinity is not in S")
        for x, y in self._rational_points(f):
            if y != 0:
                if (x, y) not in s_points:
                    problems.append(f"rational point ({x}, {y}) is not in S")
            elif not any(self._agrees(r, x, p) for r in rep["T"]
                         if r["tag"] == "Ramification"):
                problems.append(f"ramification point ({x}, 0) is not in T")

        members = rep["S"] + rep["T"]
        if p > 2 * GENUS:
            bound = self._count(f, p) + 2 * GENUS - 2
            if len(members) > bound:
                problems.append(f"#S + #T = {len(members)} exceeds Coleman's "
                                f"bound {bound}")
        for r in members:
            mx, my = r.get("minpoly_x"), r.get("minpoly_y")
            if mx and my and not self._resultant(f, mx, my):
                problems.append(f"minpoly_y {my} does not divide "
                                f"Res_x({mx}, y^3 - f)")
            if mx and not self._vanishes(r, mx, p):
                problems.append(f"minpoly_x {mx} does not vanish at x = "
                                f"{r['x']}")
        if self.workload in PAPER:
            problems.extend(PAPER[self.workload](rep))
        return problems

    @staticmethod
    def _agrees(r, x, p):
        """The member's x is the rational x, exactly or to its digits."""
        if r.get("x") in (None, "inf"):
            return False
        got = parse_padic(r["x"])
        if got is None:
            return Fraction(r["x"]) == x
        value, known = got
        k = r["certificate"]["digits"]
        if known is not None:
            k = min(k, known)
        d = value - x
        return d == 0 or valuation(d, p) >= k

    @staticmethod
    def _vanishes(r, mx, p):
        """mx(x) = 0 exactly for a rational x, and modulo p^digits for a
        p-adic one; for x of valuation v < 0 the bound is relative, i.e.
        the reversed minpoly vanishes at 1/x modulo p^digits."""
        if r.get("x") == "inf":
            return True
        got = parse_padic(r["x"])
        if got is None:
            return poly_at(mx, Fraction(r["x"])) == 0
        x, _ = got
        value = poly_at(mx, x)
        if value == 0:
            return True
        v = min(valuation(x, p), 0) if x else 0
        return (valuation(value, p)
                >= r["certificate"]["digits"] + (len(mx) - 1) * v)

    def check_frobenius(self, fds, N):
        """p + 1 - tr(M) = #X(F_p) modulo p^N, N being the digits asked of M.

        The entries of M carry the working precision W > N, whose guard
        digits need not all be right, so the check stops at N.
        """
        if not fds:
            self.problems.append("the traced pass computed no Frobenius matrix")
        for fd in fds:
            p, trace, known = fd.p, Fraction(0), N
            for i in range(6):
                el = fd.M[i][i]
                known = min(known, el.abs_prec)
                if not el.is_zero:
                    trace += Fraction(el.unit) * Fraction(p) ** el.v
            f = list(fd.curve.f)
            d = Fraction(p + 1 - self._count(f, p)) - trace
            if d != 0 and valuation(d, p) < known:
                self.problems.append(
                    f"p + 1 - tr(M) differs from #X(F_{p}) = "
                    f"{self._count(f, p)} within {known} digits")
