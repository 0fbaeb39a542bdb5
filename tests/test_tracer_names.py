"""The traced benchmark wraps mtlg names by (module, attribute); each must
still exist, or a deletion in src/ breaks the traced run only when it starts."""

import ast
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("entry", _wrapped(), ids=lambda e: f"{e[0].__name__}.{e[1]}")
def test_wrapped_name_exists(entry):
    module, attr = entry[:2]
    assert callable(getattr(module, attr, None)), f"{module.__name__} has no {attr}"


SRC = Path(__file__).resolve().parents[1] / "src" / "mtlg"


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
