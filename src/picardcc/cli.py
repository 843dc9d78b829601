"""Command-line surface: analyze / batch / roots / zeta.

Input records are JSON objects (inline or in files; batch uses JSONL).
Reports are serialized with a schema version and segregated timing fields so
that reruns of the same input are byte-identical modulo timings.
"""

import argparse
import collections
import json
import os
import sys
import time
import traceback

from .chabauty import (ChabautyReport, _divisor_specs, _point_spec, _split_product,
                       run_pipeline)
from .curve import PicardCurve, good_prime, prime_rejection
from .errors import BadDivisor, CurveValidationError, PicardCCError
from .frobenius import frobenius_matrix, zeta_consistency_check
from .padic import is_prime
from .series import hensel_system_of_roots

SCHEMA_VERSION = 1


class RecordInvalid(ValueError):
    """A curve record that fails validation (bad shape, non-monic f, ...)."""


def load_record(source, line_no=None):
    """Parse a record from an inline JSON string or a file path."""
    text = source
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    return parse_record(text, line_no=line_no)


def parse_record(text, line_no=None):
    where = f" (line {line_no})" if line_no is not None else ""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordInvalid(f"malformed JSON{where}: {exc}")
    if not isinstance(record, dict):
        raise RecordInvalid(f"record{where} is not a JSON object")
    validate_record(record, where)
    return record


def validate_record(record, where=""):
    """Structural checks that make a record runnable; raises RecordInvalid."""
    f = record.get("f")
    if not isinstance(f, list) or len(f) != 5:
        raise RecordInvalid(
            f"record{where}: 'f' must be the 5 coefficients c0..c4 of a "
            "monic quartic")
    try:
        curve = PicardCurve(f, discriminant=record.get("discriminant"),
                            label=record.get("label"))
    except (CurveValidationError, TypeError, ValueError) as exc:
        raise RecordInvalid(f"record{where}: {exc}")
    try:
        _divisor_specs(record)
        _point_spec(record)
    except BadDivisor as exc:
        raise RecordInvalid(f"record{where}: {exc}")
    return curve


def check_prime_override(record, p):
    """Reason string when prime p cannot be used for this record, else None."""
    return prime_rejection(validate_record(record), p,
                           _split_product(_divisor_specs(record)))


def report_record(report, duration_s):
    """ChabautyReport -> versioned JSON-native record, timings segregated."""
    body = report.to_dict()
    timings = body.pop("timings", {})
    return {
        "schema_version": SCHEMA_VERSION,
        "p": body["p"], "N": body["N"], "e": body["e"],
        "report": body,
        "timings": dict(timings, duration_s=round(duration_s, 2)),
    }


def _params_from_args(args):
    params = {
        "N": args.precision,
        "e0": args.e,
        "e_increment": args.e_increment,
        "e_cap": args.e_cap,
        "relation_bound": args.relation_bound,
    }
    if getattr(args, "prime", None):
        params["p"] = args.prime
    return params


def _summarize(report, out=sys.stdout):
    print(f"{report.label or '(unlabeled)'}: {report.status}"
          + (f" ({report.failure_reason})" if report.failure_reason else ""),
          file=out)
    print(f"  p={report.p} N={report.N} e={report.e} "
          f"precision={report.precision} kernel_dim={report.kernel_dim}",
          file=out)
    for rec in report.S:
        print(f"  S: ({rec.get('x')}, {rec.get('y')})", file=out)
    for rec in report.T:
        extra = ""
        if rec.get("minpoly_x"):
            extra += f" minpoly_x={rec['minpoly_x']}"
        if rec.get("relation"):
            extra += f" relation={rec['relation']}"
        print(f"  T[{rec['tag']}]: x={rec.get('x')}{extra}", file=out)


def cmd_analyze(args):
    try:
        record = load_record(args.curve)
        if args.prime:
            reason = check_prime_override(record, args.prime)
            if reason:
                print(f"refused: {reason}", file=sys.stderr)
                return 2
    except RecordInvalid as exc:
        print(f"invalid record: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    report = run_pipeline(record, _params_from_args(args))
    rec = report_record(report, time.perf_counter() - t0)
    _summarize(report)
    payload = json.dumps(rec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _run_one(task):
    """One batch record's report; any exception is a Failure, not a lost batch."""
    record, params = task
    t0 = time.perf_counter()
    try:
        report = run_pipeline(record, params)
    except Exception as exc:
        traceback.print_exc()
        report = ChabautyReport(label=record.get("label") or "", N=params["N"],
                                failure_reason=f"internal: {type(exc).__name__}: {exc}")
    return report_record(report, time.perf_counter() - t0)


def cmd_batch(args):
    params = _params_from_args(args)
    with open(args.infile) as fh:
        lines = [(i + 1, line) for i, line in enumerate(fh)
                 if line.strip()]
    tasks, results, invalid = [], {}, 0
    for idx, (line_no, line) in enumerate(lines):
        try:
            record = parse_record(line, line_no=line_no)
            if args.prime:
                reason = check_prime_override(record, args.prime)
                if reason:
                    raise RecordInvalid(f"line {line_no}: {reason}")
            tasks.append((idx, record))
        except RecordInvalid as exc:
            invalid += 1
            results[idx] = {
                "schema_version": SCHEMA_VERSION, "p": None,
                "N": params["N"], "e": None,
                "report": {"label": None, "status": "Failure",
                           "failure_reason": f"validation: {exc}",
                           "S": [], "T": []},
                "timings": {},
            }
    if args.jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # 25 ms to import
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            done = pool.map(_run_one, [(r, params) for _, r in tasks])
            for (idx, _), rec in zip(tasks, done):
                results[idx] = rec
    else:
        for idx, record in tasks:
            results[idx] = _run_one((record, params))

    statuses = collections.Counter()
    s_sizes = collections.Counter()
    labels = collections.Counter()
    with open(args.outfile, "w") as fh:
        for idx in range(len(lines)):
            rec = results[idx]
            fh.write(json.dumps(rec) + "\n")
            rep = rec["report"]
            statuses[rep["status"]] += 1
            if rep["status"] == "Success":
                s_sizes[len(rep["S"])] += 1
            if rep.get("label"):
                labels[rep["label"]] += 1

    print(f"{len(lines)} records -> {args.outfile}")
    for status, n in sorted(statuses.items()):
        print(f"  {status}: {n}")
    if s_sizes:
        hist = " ".join(f"|S|={k}:{v}" for k, v in sorted(s_sizes.items()))
        print(f"  {hist}")
    dupes = sorted(lbl for lbl, n in labels.items() if n > 1)
    if dupes:
        print(f"  duplicate labels: {', '.join(dupes)}")
    return 1 if invalid else 0


def cmd_roots(args):
    try:
        poly = [int(c) for c in args.poly.split(",")]
        if not is_prime(args.p):
            raise ValueError(f"p = {args.p} is not a prime")
        if args.n < 1:
            raise ValueError(f"n must be at least 1, got {args.n}")
        records = hensel_system_of_roots(poly, args.p, args.n)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        mark = "" if rec.certified_simple else "  [not certified simple]"
        print(f"({rec.residue},{rec.known_digits}){mark}")
    return 0


def cmd_zeta(args):
    if args.precision < 1:
        print(f"invalid input: N must be at least 1, got {args.precision}", file=sys.stderr)
        return 2
    try:
        record = load_record(args.curve)
        curve = validate_record(record)
    except RecordInvalid as exc:
        print(f"invalid record: {exc}", file=sys.stderr)
        return 2
    p = args.prime or good_prime(curve, 5)
    reason = prime_rejection(curve, p)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    fd = frobenius_matrix(curve, p, args.precision)
    z = zeta_consistency_check(fd)
    print(f"{curve.label or 'curve'}: p={p} N={args.precision}")
    print(f"  char poly (leading first): {z.char_poly}")
    print(f"  trace = {z.trace}  (p + 1 - #X(F_p) = {p + 1 - z.point_count})")
    print(f"  det = p^3: {'ok' if z.det_ok else 'FAILED'}")
    print(f"  functional equation: {'ok' if z.functional_eq_ok else 'FAILED'}")
    print(f"  all checks: {'ok' if z.all_ok else 'FAILED'}")
    return 0 if z.all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="picardcc",
        description="Chabauty-Coleman computations on Picard curves "
                    "y^3 = f(x) (monic quartic f)")
    sub = parser.add_subparsers(dest="command", required=True)

    def pipeline_flags(sp):
        sp.add_argument("--prime", type=int,
                        help="prime override (must be good and split)")
        sp.add_argument("--precision", type=int, default=15,
                        help="p-adic working digits N (default 15)")
        # e is the least one the plans of the bad disks accept; --e and
        # --e-increment are accepted for older command lines and unused
        sp.add_argument("--e", type=int, help=argparse.SUPPRESS)
        sp.add_argument("--e-increment", type=int, help=argparse.SUPPRESS)
        sp.add_argument("--e-cap", type=int, default=200,
                        help="largest ramification index e to accept (default 200)")
        sp.add_argument("--relation-bound", type=int, default=50)

    sp = sub.add_parser("analyze", help="run the pipeline on one curve")
    sp.add_argument("--curve", required=True,
                    help="curve record: inline JSON or a file path")
    sp.add_argument("--out", help="write the JSON report here")
    pipeline_flags(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("batch", help="run the pipeline over a JSONL file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    pipeline_flags(sp)
    sp.set_defaults(func=cmd_batch)

    sp = sub.add_parser("roots", help="approximate roots modulo p^N")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--poly", required=True,
                    help="comma-separated coefficients c0,c1,...")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("zeta", help="Frobenius / zeta consistency report")
    sp.add_argument("--curve", required=True,
                    help="curve record: inline JSON or a file path")
    sp.add_argument("--prime", type=int)
    sp.add_argument("--precision", type=int, default=10)
    sp.set_defaults(func=cmd_zeta)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PicardCCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
