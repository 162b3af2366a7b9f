"""The dependencies declared in pyproject.toml are exactly the third-party
modules the package imports: none missing, none declared that never runs.
The benchmark's span tracer finds every library name it wraps.  Every
top-level function is called from the package itself, or is a named oracle,
and every top-level constant is read in the package."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

# run in a fresh interpreter, so only the package's own imports are counted
_PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import x16class
for info in pkgutil.iter_modules(x16class.__path__):
    __import__("x16class." + info.name)
top = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"x16class"})))
"""


def test_declared_dependencies_are_the_imported_ones():
    declared = {re.match(r"[\w.-]+", req).group().lower() for req in PROJECT["dependencies"]}
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert set(json.loads(probe.stdout)) == declared


def test_version_matches_pyproject():
    import x16class

    assert x16class.__version__ == PROJECT["version"]


def test_benchmark_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _ in spans.WRAPPED:
        module = importlib.import_module(f"x16class.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


# top-level functions that only tests and the benchmark call, each on purpose
TEST_ONLY_FUNCTIONS = {
    # oracles of tests/test_acceptance.py
    "ec_mul", "factor_principal", "g_eval", "two_rank_genus", "two_rank_of_group",
    # wrapped by perfbench/spans.py: the pullback's ideal-factorisation oracle
    "nth_root_ideal",
    # the brute-force count behind pi2_count's tests
    "_pi2_brute",
    # the pinned quartic-to-Weierstrass transport, kept for the Mordell-Weil checks
    "quartic_to_weierstrass",
}


def _names_read(node: ast.AST) -> set[str]:
    """Names and attributes read under node; an import alone (a re-export)
    or an assignment to a name is not a read."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)) or isinstance(sub, ast.Attribute)
    }


def _package_statements() -> list[ast.stmt]:
    return [
        stmt
        for path in sorted((ROOT / "src" / "x16class").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]


def test_every_function_is_called_from_the_package():
    """A name read inside a function's own body (recursion) does not count."""
    statements = _package_statements()
    reads = [_names_read(stmt) for stmt in statements]
    unused = {
        fn.name
        for fn in statements
        if isinstance(fn, ast.FunctionDef)
        and not any(fn.name in names for stmt, names in zip(statements, reads) if stmt is not fn)
    }
    # an allowed name that the package starts to call must leave the list
    assert unused == TEST_ONLY_FUNCTIONS


def test_every_constant_is_read_in_the_package():
    """Each name a module assigns at top level (dunders aside) is read by
    another top-level statement of the package: a constant that nothing
    reads any more, such as a tuning knob whose loop is gone, fails here."""
    statements = _package_statements()
    reads = [_names_read(stmt) for stmt in statements]
    unread = {
        target.id
        for stmt in statements
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and not target.id.startswith("__")
        and not any(target.id in names for other, names in zip(statements, reads) if other is not stmt)
    }
    # the torsion point of E4 is read by the acceptance tests alone
    assert unread == {"E4_TORSION"}


def test_package_parses_as_the_oldest_declared_python():
    """Every module of the package parses under the grammar of the oldest
    Python that requires-python admits (3.10), whatever runs the tests."""
    oldest = tuple(map(int, PROJECT["requires-python"].removeprefix(">=").split(".")))
    assert oldest == (3, 10)
    for path in sorted((ROOT / "src" / "x16class").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)
