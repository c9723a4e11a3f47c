"""Every function the benchmark's tracer measures by name still exists where
the tracer looks for it, so that no deletion or move silently reads a
per-layer metric as zero."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="no bench/ in this checkout")
def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {pair for pair in tracer.SELF_METRICS.values() if pair[1] is not None}
    names.add(("concurrence", "_wedge_sum_and_max"))
    missing = []
    for layer, name in sorted(names):
        module = importlib.import_module(f"cvconc.{layer}")
        func = getattr(module, name, None)
        # The tracer wraps only functions defined in the layer's own module.
        if not (inspect.isfunction(func) and func.__module__ == module.__name__):
            missing.append(f"cvconc.{layer}.{name}")
    assert missing == []
