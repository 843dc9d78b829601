"""The picardcc benchmark: one workload, run through `picardcc batch --jobs 1`.

    python3 bench/run.py --workload survey --seed 3 --seconds 15 --trace 0

Writes the workload's records as JSONL, runs whole passes of the batch
command in this process until --seconds have gone by, checks every report
against computations made apart from picardcc (checks.py), and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes one untraced and
one traced pass and reports the per-layer metrics, writing every span to
bench/out/<workload>-seed<n>/trace.json.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EX1 = [-64, -48, 0, 6, 1]   # y^3 = x^4 + 6x^3 - 48x - 64
EX4 = [2, 5, 6, 2, 1]       # y^3 = x^4 + 2x^3 + 6x^2 + 5x + 2

# N, the starting e and the records of each workload.  Survey records are
# drawn from the pool by the seed, one curve per prime, so that every draw
# does the same kinds of work; the other workloads ignore the seed.
WORKLOADS = {
    "survey": {"N": 10, "e": 40},
    "large-prime": {"N": 8, "e": 40, "records": [
        {"label": "ex4", "f": EX4, "divisors": [{"g": [-1, 1, 1]}], "p": 11}]},
    "escalation": {"N": 15, "e": 10, "records": [
        {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}]},
}

SETUP_SAMPLES = 5

# Time to import picardcc and validate the records the way `batch` does,
# in a fresh interpreter; interpreter start-up itself is not counted.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from picardcc import cli
with open(sys.argv[2]) as fh:
    for i, line in enumerate(fh):
        if line.strip():
            cli.parse_record(line, line_no=i + 1)
print(time.perf_counter() - t0)
"""

def survey_records(seed):
    pool = [json.loads(line)
            for line in (HERE / "survey_pool.jsonl").read_text().splitlines()
            if line.strip()]
    rng = random.Random(seed)
    out = []
    for p in sorted({c["p"] for c in pool}):
        c = rng.choice([c for c in pool if c["p"] == p])
        out.append({"label": c["label"], "f": c["f"], "point": c["point"]})
    return out


def workload_records(name, seed):
    if name == "survey":
        return survey_records(seed)
    return WORKLOADS[name]["records"]


def batch_argv(name, inp, outp):
    w = WORKLOADS[name]
    return ["batch", "--in", str(inp), "--out", str(outp), "--jobs", "1",
            "--precision", str(w["N"]), "--e", str(w["e"]),
            "--e-increment", "20", "--e-cap", "200",
            "--relation-bound", "50"]


def run_pass(cli, name, inp, outp):
    """One pass of `picardcc batch` in this process;
    (wall seconds, CPU seconds, reports)."""
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(buf):
        code = cli.main(batch_argv(name, inp, outp))
    secs, cpu = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        raise RuntimeError(f"batch exited with {code}: {buf.getvalue()}")
    with open(outp) as fh:
        reports = [json.loads(line) for line in fh if line.strip()]
    return secs, cpu, reports


def setup_seconds(inp):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                              str(inp)], capture_output=True, text=True,
                             check=True, cwd=ROOT, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def install_tracer(tracer):
    from picardcc import chabauty, cli, coleman, padic
    import picardcc.algdep as algdep_mod

    tracer.span(cli, "run_pipeline", "cli.run_pipeline")
    tracer.span(chabauty, "rational_point_search", "curve.point_search")
    tracer.span(chabauty, "frobenius_matrix", "frobenius.matrix",
                keep_result=True)
    tracer.span(chabauty, "vanishing_differentials", "chabauty.vanishing")
    tracer.span(chabauty, "chabauty_set", "chabauty.chabauty_set")
    tracer.span(chabauty, "classify_point", "chabauty.classify")
    tracer.span(chabauty, "solve_zeros_in_disk", "series.solve_zeros")
    tracer.span(chabauty, "algdep", "algdep.algdep")
    tracer.span(algdep_mod, "lll_reduce", "algdep.lll")
    ci = coleman.ColemanIntegrator
    tracer.span(ci, "__init__", "coleman.integrator_build")
    tracer.span(ci, "divisor_integral", "coleman.divisor_integral")
    tracer.span(ci, "integral", "coleman.integral")
    tracer.span(ci, "basis_integrals", "coleman.basis_integrals")
    tracer.span(ci, "boundary_point", "coleman.boundary_point")
    tracer.count(padic.RamifiedElement, "__mul__", "padic.ramified_mul")
    tracer.count(padic.RamifiedElement, "inverse", "padic.ramified_inverse")


def layer_metrics(tracer, reports, wall_traced, wall_plain):
    st = tracer.self_times()

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    builds = calls("coleman.integrator_build")
    m = {
        "curve.point_search_s": self_s("curve.point_search"),
        "frobenius.matrix_s": self_s("frobenius.matrix"),
        "frobenius.matrix_calls": calls("frobenius.matrix"),
        "coleman.integrator_builds": builds,
        "coleman.divisor_integral_s": self_s("coleman.divisor_integral"),
        "coleman.integral_s": self_s("coleman.integral"),
        "coleman.integral_calls": calls("coleman.integral"),
        "coleman.basis_integrals_s": self_s("coleman.basis_integrals"),
        "coleman.basis_integrals_calls": calls("coleman.basis_integrals"),
        "coleman.boundary_point_s": self_s("coleman.boundary_point"),
        "chabauty.vanishing_s": self_s("chabauty.vanishing"),
        "chabauty.chabauty_set_s": self_s("chabauty.chabauty_set"),
        "chabauty.classify_s": self_s("chabauty.classify"),
        "chabauty.classify_calls": calls("chabauty.classify"),
        "chabauty.e_final_max": max(r["e"] for r in reports),
        "chabauty.e_attempt_yield": len(reports) / builds if builds else 0.0,
        "series.solve_zeros_s": self_s("series.solve_zeros"),
        "series.solve_zeros_calls": calls("series.solve_zeros"),
        "algdep.algdep_s": self_s("algdep.algdep"),
        "algdep.algdep_calls": calls("algdep.algdep"),
        "algdep.lll_s": self_s("algdep.lll"),
        "algdep.lll_calls": calls("algdep.lll"),
        "padic.ramified_mul_calls": tracer.counts["padic.ramified_mul"],
        "padic.ramified_inverse_calls":
            tracer.counts["padic.ramified_inverse"],
        "cli.overhead_s": self_s("cli.batch"),
        "trace.overhead_s": wall_traced - wall_plain,
    }
    units = {"chabauty.e_final_max": "e", "chabauty.e_attempt_yield": "ratio"}
    return {name: {"value": value, "unit": units.get(
                name, "s" if name.endswith("_s") else "count")}
            for name, value in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "picardcc" / "cli.py").is_file():
        print(f"no picardcc sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("PICARDCC_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from checks import Checker
    from picardcc import cli
    from spans import Tracer

    name = args.workload
    outdir = HERE / "out" / f"{name}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    records = workload_records(name, args.seed)
    inp = outdir / "records.jsonl"
    inp.write_text("".join(json.dumps(r) + "\n" for r in records))
    outp = outdir / f"reports-trace{args.trace}.jsonl"
    checker = Checker(name, records)

    if args.trace:
        wall_plain, _, reports = run_pass(cli, name, inp, outp)
        checker.check_pass(reports)
        tracer = Tracer()
        install_tracer(tracer)
        try:
            root = tracer.open("cli.batch")
            try:
                wall_traced, _, reports = run_pass(cli, name, inp, outp)
            finally:
                tracer.close(root)
        finally:
            tracer.restore()
        checker.check_pass(reports)
        checker.check_frobenius(tracer.results.get("frobenius.matrix", []),
                                WORKLOADS[name]["N"])
        metrics = layer_metrics(tracer, reports, wall_traced, wall_plain)
        tracer.write(outdir / "trace.json",
                     {"workload": name, "seed": args.seed,
                      "wall_untraced_s": wall_plain,
                      "wall_traced_s": wall_traced})
    else:
        setup = setup_seconds(inp)
        walls, cpus, digits = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            secs, cpu, reports = run_pass(cli, name, inp, outp)
            walls.append(secs)
            cpus.append(cpu)
            checker.check_pass(reports)
            digits.extend(r["report"]["precision"] for r in reports
                          if r["report"]["status"] == "Success")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "certified_digits_min": {"value": min(digits, default=0),
                                     "unit": "digits"},
        }

    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name} seed={args.seed}: {checker.attempted} records attempted, "
          f"{checker.failed} failed", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not checker.problems,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
