"""The benchmark traces the package's layers by name (perfbench/tracing.py).
A folded or renamed function would only show up as failed traced runs, so
every traced name must resolve to a function of the package."""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted({
    *tracing.TRACED, *tracing.ALLOC_TRACED, *tracing.COUNTS, tracing.ROOT}))
def test_traced_name_is_a_package_function(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"scoresync.{module}"),
                            func, None))
