"""The dependencies declared in pyproject.toml are exactly the third-party
modules the package imports: none missing, none declared that never runs.
The benchmark's span tracer finds every library name it wraps."""

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
