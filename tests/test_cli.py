"""Tests for the command-line surface: roots, zeta, analyze, batch."""

import contextlib
import json
import multiprocessing
import signal

import pytest

import picardcc.cli as cli_mod
from picardcc.chabauty import ChabautyReport, run_pipeline
from picardcc.cli import main, parse_record, report_record, RecordInvalid

EX1 = [-64, -48, 0, 6, 1]
EX3 = [-2, 0, 0, 0, 1]
EX4 = [2, 5, 6, 2, 1]


# --- roots ----------------------------------------------------------------


def test_roots_x2_minus_1(capsys):
    assert main(["roots", "--p", "5", "--n", "3", "--poly=-1,0,1"]) == 0
    out = capsys.readouterr().out
    assert "(1,3)" in out and "(124,3)" in out


def test_roots_x2_minus_5(capsys):
    assert main(["roots", "--p", "5", "--n", "3", "--poly=-5,0,1"]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_roots_x2(capsys):
    assert main(["roots", "--p", "5", "--n", "3", "--poly", "0,0,1"]) == 0
    out = capsys.readouterr().out
    assert "(0,2)" in out and "not certified simple" in out


@pytest.mark.parametrize("argv,why", [
    (["--p", "5", "--n", "3", "--poly", "1,x"], "invalid literal for int()"),
    (["--p", "0", "--n", "3", "--poly=-1,0,1"], "p = 0 is not a prime"),
    (["--p", "4", "--n", "3", "--poly=-1,0,1"], "p = 4 is not a prime"),
    (["--p", "5", "--n", "-3", "--poly=-1,0,1"], "n must be at least 1, got -3"),
], ids=["poly", "p0", "p4", "n"])
def test_roots_invalid_input_refused(capsys, argv, why):
    assert main(["roots", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: ") and why in captured.err
    assert captured.out == ""


# --- zeta -----------------------------------------------------------------


def test_zeta_ex3_p13(capsys):
    rec = json.dumps({"label": "x4-2", "f": EX3})
    assert main(["zeta", "--curve", rec, "--prime", "13",
                 "--precision", "8"]) == 0
    out = capsys.readouterr().out
    assert "all checks: ok" in out
    assert "det = p^3: ok" in out


def test_zeta_bad_prime_refused(capsys):
    rec = json.dumps({"f": EX3})
    # 2 is always bad (p must exceed 3); disc check catches others
    assert main(["zeta", "--curve", rec, "--prime", "2"]) == 2
    assert "refused" in capsys.readouterr().err
    # a composite is refused, not passed on to PadicContext
    rec = json.dumps({"f": [-48, -24, 0, 0, 1]})
    assert main(["zeta", "--curve", rec, "--prime", "25"]) == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_zeta_precision_below_one_refused(capsys, precision):
    rec = json.dumps({"f": EX3})
    assert main(["zeta", "--curve", rec, "--prime", "13", "--precision", precision]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"invalid input: N must be at least 1, got {precision}")
    assert "all checks" not in captured.out


# --- record validation ----------------------------------------------------


def test_non_monic_rejected(capsys):
    rec = json.dumps({"f": [1, 0, 0, 0, 2]})
    assert main(["analyze", "--curve", rec]) == 2
    assert "invalid" in capsys.readouterr().err


def test_short_f_rejected():
    with pytest.raises(RecordInvalid):
        parse_record(json.dumps({"f": [1, 0, 1]}))


def test_not_squarefree_rejected():
    # f = (x^2)(x+1)^2 = x^4 + 2x^3 + x^2
    with pytest.raises(RecordInvalid):
        parse_record(json.dumps({"f": [0, 0, 1, 2, 1]}))


def test_analyze_bad_prime_override(capsys):
    rec = json.dumps({"f": EX1, "point": [-3, -1]})
    # 31492800 = disc factor of this f is divisible by 2,3,5 -> 5 is bad?
    # p=3 is categorically refused
    assert main(["analyze", "--curve", rec, "--prime", "3"]) == 2
    assert "refused" in capsys.readouterr().err
    rec = json.dumps({"f": [-48, -24, 0, 0, 1]})
    assert main(["analyze", "--curve", rec, "--prime", "25"]) == 2
    assert "refused" in capsys.readouterr().err
    # 0 is a prime override too, not "choose p"
    rec = json.dumps({"f": EX4})
    assert main(["analyze", "--curve", rec, "--prime", "0"]) == 2
    assert "refused: p = 0 is not a prime > 3" in capsys.readouterr().err


# --- report records -------------------------------------------------------


def test_report_record_roundtrip():
    rep = ChabautyReport(label="t", p=11, N=12, e=40, status="Success",
                         S=[{"tag": "Rational", "x": "inf"}], T=[],
                         precision=10, det_ord=0, kernel_dim=2,
                         soundness_ok=True, timings={"total_s": 1.0})
    rec = report_record(rep, 1.5)
    assert rec["schema_version"] == 1
    assert json.loads(json.dumps(rec)) == rec
    assert "timings" not in rec["report"]
    assert rec["timings"]["duration_s"] == 1.5


# --- batch ----------------------------------------------------------------


def test_batch_empty(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    src.write_text("")
    assert main(["batch", "--in", str(src), "--out", str(dst)]) == 0
    assert dst.read_text() == ""


def test_batch_malformed_line(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    src.write_text("{not json\n")
    assert main(["batch", "--in", str(src), "--out", str(dst)]) == 1
    recs = [json.loads(l) for l in dst.read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["report"]["status"] == "Failure"
    assert "line 1" in recs[0]["report"]["failure_reason"]


def _strip_timings(path):
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        rec.pop("timings", None)
        out.append(rec)
    return out


def test_batch_composite_prime_line_is_failure(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    lines = [{"label": "c25", "f": [-48, -24, 0, 0, 1], "p": 25},
             {"label": "c49", "f": EX4, "p": 49},
             {"label": "c0", "f": EX4, "p": 0}]  # 0 is not "choose p"
    src.write_text("".join(json.dumps(r) + "\n" for r in lines))
    with _deadline(20):
        assert main(["batch", "--in", str(src), "--out", str(dst)]) == 0
    recs = [json.loads(l) for l in dst.read_text().splitlines()]
    assert [r["report"]["label"] for r in recs] == ["c25", "c49", "c0"]
    for r, p in zip(recs, (25, 49, 0)):
        assert r["report"]["status"] == "Failure"
        assert r["report"]["failure_reason"] == f"bad-prime: p = {p} is not a prime > 3"
        assert r["p"] == p


BAD_DIVISORS = pytest.mark.parametrize(
    "bad,why", [({"divisors": [{"g": ["a", 1]}]}, "list of numbers"),
                ({"divisors": [{"g": [1, -2, 1]}]}, "repeated root"),
                ({"point": ["a", 1]}, "list of numbers"),
                ({"point": [1]}, "two numbers"),
                ({"point": []}, "two numbers"),
                ({"point": 0}, "list of numbers"),
                ({"divisors": {}}, "'divisors' must be a list"),
                ({"divisors": 0}, "'divisors' must be a list"),
                ({"divisors": ""}, "'divisors' must be a list")],
    ids=["non-numeric", "repeated-root", "point-non-numeric",
         "point-one-number", "point-empty", "point-zero", "divisors-object",
         "divisors-zero", "divisors-empty-string"])


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hanging, when the body runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@BAD_DIVISORS
def test_pipeline_bad_divisor_is_failure(bad, why):
    with _deadline(20):
        rep = run_pipeline(dict(bad, f=EX4), {"N": 8})
    assert rep.status == "Failure"
    assert rep.failure_reason.startswith("bad-divisor: ")
    assert why in rep.failure_reason


@BAD_DIVISORS
def test_batch_bad_divisor_line_is_failure(tmp_path, capsys, bad, why):
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    lines = [dict(bad, label="bad", f=EX4),
             {"label": "next", "f": EX4, "p": 2}]
    src.write_text("".join(json.dumps(r) + "\n" for r in lines))
    with _deadline(20):
        assert main(["batch", "--in", str(src), "--out", str(dst)]) == 1
    recs = [json.loads(l)["report"] for l in dst.read_text().splitlines()]
    assert recs[0]["status"] == "Failure"
    assert recs[0]["failure_reason"].startswith("validation: ")
    assert why in recs[0]["failure_reason"]
    assert recs[1]["label"] == "next"
    assert recs[1]["failure_reason"].startswith("bad-prime: ")


BAD_PARAMETERS = pytest.mark.parametrize(
    "name,flag,value,why",
    [("N", "--precision", 0, "N must be at least 1, got 0"),
     ("e0", "--e", 0, "e0 must be at least 1, got 0"),
     ("e_increment", "--e-increment", 0, "e_increment must be at least 1, got 0"),
     ("e_cap", "--e-cap", 0, "e_cap must be at least 1, got 0")],
    ids=["N", "e0", "e-increment", "e-cap"])


@BAD_PARAMETERS
def test_pipeline_bad_parameter_is_failure(name, flag, value, why):
    record = {"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5}
    with _deadline(20):
        rep = run_pipeline(record, {"N": 15, name: value})
    assert rep.status == "Failure"
    assert rep.failure_reason == f"bad-parameter: {why}"


@BAD_PARAMETERS
def test_analyze_bad_parameter_is_failure(capsys, name, flag, value, why):
    rec = json.dumps({"label": "ex1", "f": EX1, "point": [-3, -1], "p": 5})
    with _deadline(20):
        assert main(["analyze", "--curve", rec, flag, str(value)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]
    assert report["failure_reason"] == f"bad-parameter: {why}"


@pytest.mark.parametrize("name,flag,value", [("e0", "--e", 100), ("e_increment", "--e-increment", 1)],
                         ids=["e0", "e-increment"])
def test_unused_e_parameters_are_accepted(capsys, name, flag, value):
    # e is the least one the plans accept: --e and --e-increment still
    # parse, and no valid value of theirs changes the run
    record = {"label": "ex4", "f": EX4, "divisors": [{"g": [-1, 1, 1]}], "p": 11}
    with _deadline(20):
        rep = run_pipeline(record, {"N": 8, name: value})
        assert main(["analyze", "--curve", json.dumps(record), "--precision", "8",
                     flag, str(value)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]
    assert rep.status == report["status"] == "Success"
    assert rep.e == report["e"] == 14


NON_INTEGRAL = pytest.mark.parametrize(
    "bad,why", [({"f": [2.5, 5, 6, 2, 1]}, "integer coefficients"),
                ({"f": EX4, "discriminant": 2.5}, "not an integer"),
                ({"f": EX4, "p": 7.5}, "'p' must be an integer, got 7.5"),
                ({"f": EX4, "p": "11"}, "'p' must be an integer, got '11'"),
                ({"f": EX4, "p": False}, "'p' must be an integer, got False")],
    ids=["f", "discriminant", "p-float", "p-string", "p-bool"])


def test_integral_strings_accepted():
    # coefficients are read as numbers, not truncated, and "5" is 5
    rec = {"f": ["2", "5", "6", "2", "1"], "discriminant": "12"}
    assert parse_record(json.dumps(rec)) is not None


@NON_INTEGRAL
def test_pipeline_non_integral_is_failure(bad, why):
    with _deadline(20):
        rep = run_pipeline(dict({"divisors": [{"g": [-1, 1, 1]}], "p": 11}, **bad), {"N": 8})
    assert rep.status == "Failure"
    assert why in rep.failure_reason


@NON_INTEGRAL
def test_batch_non_integral_line_is_failure(tmp_path, capsys, bad, why):
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text(json.dumps(dict({"divisors": [{"g": [-1, 1, 1]}], "p": 11}, **bad)) + "\n")
    with _deadline(20):
        assert main(["batch", "--in", str(src), "--out", str(dst), "--precision", "8"]) == 1
    report = json.loads(dst.read_text())["report"]
    assert report["failure_reason"].startswith("validation: ")
    assert why in report["failure_reason"]


def test_batch_deterministic_modulo_timings(tmp_path, capsys):
    # records that fail fast in the pipeline (bad prime for the curve),
    # so two runs are cheap and must agree byte-for-byte modulo timings
    rec = {"label": "dup", "f": EX4, "p": 2}
    src = tmp_path / "in.jsonl"
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    src.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    assert main(["batch", "--in", str(src), "--out", str(a)]) == 0
    out1 = capsys.readouterr().out
    assert main(["batch", "--in", str(src), "--out", str(b)]) == 0
    assert _strip_timings(a) == _strip_timings(b)
    assert "duplicate labels: dup" in out1


def test_analyze_survives_stray_exception(tmp_path, capsys, monkeypatch):
    # as in batch, an exception that is not a typed failure becomes the
    # record's Failure report instead of escaping main
    def broken(record, params):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli_mod, "run_pipeline", broken)
    out = tmp_path / "out.json"
    rec = json.dumps({"label": "boom", "f": EX4})
    assert main(["analyze", "--curve", rec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["status"] == "Failure"
    assert report["failure_reason"] == "internal: RuntimeError: kaput"
    assert capsys.readouterr().out.startswith("boom: Failure (internal: RuntimeError: kaput)\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_survives_stray_exception(tmp_path, capsys, monkeypatch, jobs):
    # an exception that is not a typed failure becomes that record's
    # Failure line; the pool path must not lose the rest of the batch
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patched run_pipeline only by fork")

    def flaky(record, params):
        if record["label"] == "boom":
            raise RuntimeError("kaput")
        return run_pipeline(record, params)

    monkeypatch.setattr(cli_mod, "run_pipeline", flaky)
    labels = ["before", "boom", "after"]
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(json.dumps({"label": lbl, "f": EX4, "p": 2}) + "\n"
                           for lbl in labels))
    assert main(["batch", "--in", str(src), "--out", str(dst), "--jobs", jobs]) == 0
    recs = [json.loads(l)["report"] for l in dst.read_text().splitlines()]
    assert [r["label"] for r in recs] == labels
    assert [r["status"] for r in recs] == ["Failure"] * 3
    assert recs[1]["failure_reason"] == "internal: RuntimeError: kaput"
    assert recs[0]["failure_reason"].startswith("bad-prime: ")
    assert recs[2]["failure_reason"].startswith("bad-prime: ")
