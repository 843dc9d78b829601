"""Show that the benchmark's checks reject known-bad reports.

    python3 bench/selftest.py

The fixture fixtures/spurious_pair.json is the report of
`picardcc analyze --precision 8` on y^3 = x^4 - 6x^3 - 6x^2 - 6x - 1 with the
point (0, -1) (p = 5).  Its T holds a RecognizedAlgebraic member with
minpoly_x x^3 + 3x^2 + 5x - 2 and minpoly_y 2y^3 + y^2 + y + 1, a pair that
lies on no point of the curve: Res_x(minpoly_x, y^3 - f) is irreducible of
degree 9.  The checks must reject it, and must also reject hand-made damage
to the rest of the report while accepting the report without that member.
The Frobenius check must accept a matrix whose trace is p + 1 - #X(F_p) and
reject one whose trace is off by one.  Exits 0 when every expectation holds.
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from exact import count_points_Fp  # noqa: E402


def problems(record, report):
    return Checker("survey", [record]).check_report(record, report)


def frobenius_problems(f, p, trace):
    """Problems found in a stand-in Frobenius matrix with the given trace."""
    from picardcc.padic import PadicContext

    ctx = PadicContext(p, 6)
    M = [[ctx.from_int(trace if i == j == 0 else 0) for j in range(6)]
         for i in range(6)]
    fd = SimpleNamespace(p=p, M=M, curve=SimpleNamespace(f=f))
    checker = Checker("survey", [])
    checker.check_frobenius([fd], 6)
    return checker.problems


def main():
    doc = json.loads((HERE / "fixtures" / "spurious_pair.json").read_text())
    record, report = doc["record"], doc["report"]
    spurious = [r for r in report["T"] if r["tag"] == "RecognizedAlgebraic"]

    clean = copy.deepcopy(report)
    clean["T"] = [r for r in clean["T"] if r not in spurious]

    off_curve = copy.deepcopy(clean)
    off_curve["S"][0]["y"] = "1"

    missing = copy.deepcopy(clean)
    missing["S"] = [r for r in missing["S"] if r.get("x") != "0"]

    no_inf = copy.deepcopy(clean)
    no_inf["S"] = [r for r in no_inf["S"] if r.get("x") != "inf"]

    bad_minpoly = copy.deepcopy(clean)
    bad_minpoly["T"][0]["minpoly_x"] = [1, 1]

    cases = [
        ("the fixture with its spurious pair", report, "does not divide"),
        ("an S point moved off the curve", off_curve, "not on the curve"),
        ("a rational point dropped from S", missing, "is not in S"),
        ("infinity dropped from S", no_inf, "infinity is not in S"),
        ("a minpoly_x that misses its x", bad_minpoly, "does not vanish"),
    ]
    ok = len(spurious) == 1
    if not ok:
        print("FAIL fixture: expected one RecognizedAlgebraic member")
    got = problems(record, clean)
    print(("ok  " if not got else "FAIL") + " the fixture without the pair "
          f"is accepted {got or ''}")
    ok &= not got
    for what, rep, expect in cases:
        got = problems(record, rep)
        hit = any(expect in msg for msg in got)
        print(("ok  " if hit else "FAIL") + f" {what} is rejected: {got}")
        ok &= hit
    f, p = record["f"], 7
    true_trace = p + 1 - count_points_Fp(f, p)
    got = frobenius_problems(f, p, true_trace)
    print(("ok  " if not got else "FAIL") + " a Frobenius matrix with the "
          f"right trace {true_trace} is accepted {got or ''}")
    ok &= not got
    got = frobenius_problems(f, p, true_trace + 1)
    print(("ok  " if got else "FAIL") + " a trace off by one is rejected: "
          f"{got}")
    ok &= bool(got)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
