"""The benchmark's reports, pinned.

Runs `picardcc batch` on the records of the survey (seeds 1, 2, 5 and 7,
which between them draw all six pool curves), large-prime and escalation
workloads with the benchmark's flags, both read from bench/run.py, and
compares every report outside its timings with
tests/fixtures/bench_reports.json.  A change meant to alter the reports
regenerates the fixture with

    PYTHONPATH=src python tests/test_bench_reports.py

which prints, per workload and seed, the report fields that changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from picardcc import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "bench_reports.json"
CASES = [("survey", 1), ("survey", 2), ("survey", 5), ("survey", 7),
         ("large-prime", 1), ("escalation", 1)]


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(name, seed, tmp):
    """The workload's batch reports with their timings removed."""
    run = _bench_run()
    inp, outp = tmp / f"{name}.jsonl", tmp / f"{name}-reports.jsonl"
    inp.write_text("".join(json.dumps(r) + "\n" for r in run.workload_records(name, seed)))
    if cli.main(run.batch_argv(name, inp, outp)) != 0:
        raise RuntimeError(f"batch on {name} failed")
    out = []
    for line in outp.read_text().splitlines():
        rec = json.loads(line)
        del rec["timings"]
        out.append(rec)
    return out


@pytest.mark.parametrize("name, seed", CASES)
def test_bench_reports_match_fixture(name, seed, tmp_path, capsys):
    expected = json.loads(FIXTURE.read_text())[f"{name}-seed{seed}"]
    assert _reports(name, seed, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    from report_diff import print_changes

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {f"{name}-seed{seed}": _reports(name, seed, Path(tmp))
                  for name, seed in CASES}
    print_changes(json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}, pinned)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(pinned, indent=1) + "\n")
