"""The top-level package: the README's Library example, the names it exports,
and the names the benchmark's tracer rebinds."""

import ast
import importlib.util
import re
from pathlib import Path

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
