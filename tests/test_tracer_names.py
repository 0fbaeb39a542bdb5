"""The traced benchmark wraps mtlg names by (module, attribute); each must
still exist, or a deletion in src/ breaks the traced run only when it starts."""

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
