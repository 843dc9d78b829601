"""Regenerate the survey pool: small rank-1 Picard curves drawn from a seed.

    python3 bench/make_pool.py --seed 1 --per-prime 3 --out bench/survey_pool.jsonl

Draws squarefree monic quartics y^3 = x^4 + c3 x^3 + c2 x^2 + c1 x + c0
with |c_i| <= 6.  A draw is skipped before any pipeline run unless its
automatic prime p is 5 or 7 (the survey's two strata) and that stratum
still has room, f has no root mod p (so the disk at infinity is the only
bad disk and curves of one stratum do the same kinds of work), and it has a
rational point with y != 0 of height <= 20.  The rest run through the
pipeline with their smallest such point at the survey's N (run.py), and a
curve is kept only if

  * the report is a Success at the same prime,
  * ord_p det(I - M) = 0, that is p does not divide #J(F_p), so every
    survey curve certifies the same N - delta digits,
  * e stays at its first value (no escalation), and
  * every rational point of height <= 20 with y != 0 is in S.

Points with y = 0 are ramification points, whose classes are 3-torsion, so
they say nothing about the rank.  A point with y != 0 outside X(Q_p)_1,
when only the first point's differentials are killed, has an integral
vector independent of the first point's: the rank is shown to be >= 2.
Every draw and its fate (with the seconds its run took) is printed as a
JSON line to stderr; kept curves go to --out with their prime, by which
run.py draws them.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from exact import rational_points  # noqa: E402
from run import WORKLOADS  # noqa: E402

PRIMES = (5, 7)
MAX_DRAWS = 200


def _frac(s):
    return Fraction(s) if s not in (None, "inf") else None


def judge(f, point, N):
    """(kept, reason, info) for one drawn curve."""
    from picardcc.chabauty import run_pipeline

    record = {"label": "pool", "f": f, "point": [str(point[0]), str(point[1])]}
    t0 = time.perf_counter()
    rep = run_pipeline(record, {"N": N}).to_dict()
    secs = time.perf_counter() - t0
    info = {"p": rep["p"], "e": rep["e"], "precision": rep["precision"],
            "det_ord": rep["det_ord"],
            "seconds": round(secs, 1)}
    if rep["status"] != "Success":
        return False, f"failure: {rep['failure_reason']}", info
    if rep["det_ord"]:
        return False, f"ord_p det(I - M) = {rep['det_ord']}", info
    if rep["e"] != 40:
        return False, f"escalates to e={rep['e']}", info
    found = {(_frac(r["x"]), _frac(r.get("y"))) for r in rep["S"]}
    missing = [P for P in rational_points(f, 20)
               if P[1] != 0 and P not in found]
    if missing:
        x, y = missing[0]
        return False, (f"rank >= 2: ({x}, {y}) is not in X(Q_p)_1 built "
                       f"from ({point[0]}, {point[1]})"), info
    return True, "kept", info


def prefilter(f, kept, per_prime):
    """(reason to skip f or None, its automatic prime, its input point),
    decided without running the pipeline."""
    from picardcc.cli import RecordInvalid, validate_record
    from picardcc.curve import good_prime

    try:
        curve = validate_record({"f": f})
    except RecordInvalid as exc:
        return f"invalid: {exc}", None, None
    p = good_prime(curve, 5)
    if p not in PRIMES:
        return f"automatic prime {p} is outside the strata", p, None
    if sum(c["p"] == p for c in kept) >= per_prime:
        return f"stratum p={p} is full", p, None
    roots = [x for x in range(p)
             if sum(c * x ** i for i, c in enumerate(f)) % p == 0]
    if roots:
        return f"f has roots {roots} mod {p}", p, None
    pts = [P for P in rational_points(f, 20) if P[1] != 0]
    if not pts:
        return "no rational point with y != 0 of height <= 20", p, None
    point = min(pts, key=lambda P: (max(abs(P[0].numerator),
                                        P[0].denominator), P))
    return None, p, point


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--per-prime", type=int, default=3,
                    help="curves to keep at each prime")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    kept, seen = [], set()
    for _ in range(MAX_DRAWS):
        if all(sum(c["p"] == p for c in kept) >= args.per_prime
               for p in PRIMES):
            break
        f = [rng.randint(-6, 6) for _ in range(4)] + [1]
        if tuple(f) in seen:
            continue
        seen.add(tuple(f))
        skip, p, point = prefilter(f, kept, args.per_prime)
        if skip:
            print(json.dumps({"f": f, "kept": False, "reason": skip}),
                  file=sys.stderr, flush=True)
            continue
        ok, reason, info = judge(f, point, WORKLOADS["survey"]["N"])
        if ok and info["p"] != p:
            ok, reason = False, f"the pipeline moved to p={info['p']}"
        print(json.dumps({"f": f, "point": [str(v) for v in point],
                          "kept": ok, "reason": reason, **info}),
              file=sys.stderr, flush=True)
        if ok:
            kept.append({"label": f"pool{args.seed}-{len(kept)}", "f": f,
                         "point": [str(v) for v in point],
                         "p": info["p"], "precision": info["precision"]})
    with open(args.out, "w") as fh:
        for rec in kept:
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(kept)} curves -> {args.out}")
    return 0 if len(kept) == args.per_prime * len(PRIMES) else 1


if __name__ == "__main__":
    sys.exit(main())
