"""The names the benchmark harness under `perfbench/` takes from `stablespan`.

The harness wraps library functions by name (`tracing.TARGETS`) and imports
readers and verifiers for its correctness gate.  A refactor that renames or
deletes one of them breaks the benchmark; these checks catch it in tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def stablespan_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every `stablespan` import in a file, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stablespan":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "stablespan")
    return found


def test_tracer_installs_and_uninstalls(tracing):
    from stablespan import cli

    original = cli.build_parser
    tracer = tracing.Tracer()
    try:
        tracer.install()  # resolves every name in TARGETS and YIELD_COUNTS
        assert cli.build_parser is not original
    finally:
        tracer.uninstall()
    assert cli.build_parser is original


@pytest.mark.parametrize("name", ["gate.py", "tracing.py", "run.py"])
def test_harness_imports_resolve(name):
    imports = stablespan_imports(PERFBENCH / name)
    assert imports
    for module_name, attr in imports:
        exec(f"import {module_name}" if attr is None else f"from {module_name} import {attr}", {})
