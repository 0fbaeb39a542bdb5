"""The traced benchmark wraps mtlg names by (module, attribute); each must
still exist, or a deletion in src/ breaks the traced run only when it starts.
One traced round of every workload must also run and check out correct."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("entry", _wrapped(), ids=lambda e: f"{e[0].__name__}.{e[1]}")
def test_wrapped_name_exists(entry):
    module, attr = entry[:2]
    assert callable(getattr(module, attr, None)), f"{module.__name__} has no {attr}"


SRC = ROOT / "src" / "mtlg"


def _unused_sibling_imports(path: Path) -> set[str]:
    """Names a module imports from a sibling module (`from .x import y`,
    `from . import x`) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.stem)
def test_unused_sibling_imports_are_wrapped(path):
    # an import no code reads is dead, unless the tracer wraps that name on
    # this module and so needs it to stay there
    wrapped = {attr for module, attr, *_ in _wrapped()
               if module.__name__ == f"mtlg.{path.stem}"}
    assert _unused_sibling_imports(path) <= wrapped


def test_package_is_its_docstring_only():
    # each name is read from the module that defines it: the package
    # re-exports nothing, so no name has a second spelling to keep alive
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_one_traced_round_of_every_workload_is_correct():
    # a traced run reports every workload's layers, so one round of it runs all
    # four under the wrappers; a crash there once showed only in the benchmark
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_tables", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, run.stderr
