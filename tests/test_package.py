"""The top-level package: the README's Library example, the names it exports,
and the names the benchmark's workloads call and its tracer rebinds."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gamelab

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    source = _library_example()
    namespace: dict = {}
    exec(source, namespace)
    # Unindented lines ending in a comment state their own value:
    # `expression   # expected`.
    claims = re.findall(r"^(\S.*?)\s+#\s+(.+)$", source, re.M)
    assert [expr for expr, _ in claims] == [
        "solver.outcome(PushPosition(Phase.BEFORE, (7, 12)))",
        "is_nim_euclid_p(7, 12)",
        "(cert.preperiod, cert.period)",
    ]
    for expr, want in claims:
        assert eval(expr, namespace) == eval(want, namespace), expr

    imported = [
        alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module == "gamelab"
        for alias in node.names
    ]
    assert sorted(gamelab.__all__) == sorted(imported)


def test_import_loads_no_submodule():
    """`import gamelab` is cheap: the exported names load on first use."""
    script = "import sys, gamelab; print(sorted(m for m in sys.modules if m.startswith('gamelab.')))"
    env = dict(os.environ)
    src = str(Path(gamelab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exported_names_are_the_submodules_own():
    listed = dir(gamelab)
    star: dict = {}
    exec("from gamelab import *", star)
    for name in gamelab.__all__:
        module = importlib.import_module(f"gamelab.{gamelab._SOURCES[name]}")
        assert getattr(gamelab, name) is getattr(module, name), name
        assert star[name] is getattr(module, name), name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gamelab.no_such_name
    assert not hasattr(gamelab, "Ruleset")  # exported by `core`, not by the package


def test_no_assert_statements_in_src():
    """`python -O` strips asserts, so invariants under src/ must be real checks."""
    src = Path(gamelab.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_workloads_run_one_op_of_every_kind(monkeypatch, tmp_path):
    """Each workload's ops call the package by name; once a name one of them
    uses is gone, its op fails.  Runs the first op of every kind in round 0 of
    seed 1 of each workload, through the benchmark's own op runner."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, tmp_path)
        wl.setup()
        first = {}
        for op in wl.inputs(1, 0):
            first.setdefault(op.kind, op)
        errors: list = []
        wl.start_round()
        failed, _ = worker.run_ops(wl, list(first.values()), [], errors)
        wl.finish_round()
        assert (failed, errors) == (0, []), name


def test_benchmark_tracer_finds_every_name_it_patches():
    """The benchmark's `--trace` mode rebinds names in the package's modules;
    installing it fails with AttributeError once one of them is gone."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install_cli(tracer)
    finally:
        tracer.restore()
