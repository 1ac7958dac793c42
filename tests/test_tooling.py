"""The benchmark's tracer wraps names inside fockforge from outside.

A wrapped name that disappears is skipped at run time, so renaming or
deleting one silently drops the metrics it feeds.  Resolving every name
here catches that without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.WRAPPED])
def test_traced_name_resolves(module, attr):
    owner, _, fn = tracing._resolve(module, attr)
    assert owner is not None and callable(fn), f"{module}.{attr} is gone"
