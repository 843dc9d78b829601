"""Checks on the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "picardcc"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_assert_statements():
    # `python -O` strips assert statements; a check that must hold raises
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_src_imports_only_stdlib_and_sympy():
    # the package imports only the standard library, except for sympy's
    # factorization, imported inside algdep's _irreducible_part for a
    # candidate of degree 2 or more
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 if path.name == "algdep.py" and fn.name == "_irreducible_part"
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and not (name == "sympy" and id(node) in local)]
    assert not found, found


def test_padic_defines_one_element_class():
    # Q_p is Q_p(pi) at e = 1: beside the context, one class of elements
    tree = ast.parse((SRC / "padic.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["PadicContext", "RamifiedElement"]


def test_only_padic_reads_stored_element_fields():
    # the data layout of an element stays behind picardcc.padic; the other
    # modules go through valuation(), abs_prec, residue(k) and the like
    fields = {"m", "a", "A", "w", "unit", "rel"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "padic.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in fields]
    assert not found, found


def test_no_private_attributes_set_from_outside():
    # a point or other object carries only its declared fields: no module
    # sets an attribute whose name begins with "_" on anything but self
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: .{t.attr}"
                      for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Attribute) and t.attr.startswith("_")
                      and not (isinstance(t.value, ast.Name) and t.value.id == "self")]
    assert not found, found


# Validate every record the benchmark workloads can draw and run the
# pipeline on one survey record, in a fresh interpreter
_NO_SYMPY_SNIPPET = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
from picardcc import cli
from picardcc.chabauty import run_pipeline
records = [json.loads(line) for line in run.HERE.joinpath("survey_pool.jsonl").open()
           if line.strip()]
records += run.WORKLOADS["large-prime"]["records"] + run.WORKLOADS["escalation"]["records"]
for i, record in enumerate(records):
    cli.parse_record(json.dumps(record), line_no=i + 1)
pool1_1 = next(r for r in records if r.get("label") == "pool1-1")
report = run_pipeline(pool1_1, {"N": 10, "p": 5})
print(len(records), report.status, "sympy" in sys.modules)
"""


def test_validation_and_a_survey_run_do_not_import_sympy():
    # sympy's import was most of the start-up time of every picardcc process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_SNIPPET,
                          str(ROOT / "bench" / "run.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    n, status, loaded = out.stdout.split()
    assert int(n) > 3 and status == "Success"
    assert loaded == "False"


def test_bench_tracer_targets_exist():
    # the traced benchmark wraps picardcc callables by name; a rename
    # would break it only when the benchmark runs
    run = _load(ROOT / "bench" / "run.py", "bench_run")
    spans = _load(ROOT / "bench" / "spans.py", "bench_spans")
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer)
    finally:
        tracer.restore()
