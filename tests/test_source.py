"""Checks on the package source itself."""

import ast
import importlib.util
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
    # the package's one third-party dependency is sympy
    allowed = set(sys.stdlib_module_names) | {"sympy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, found


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
