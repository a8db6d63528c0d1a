"""Every span the benchmark's tracer wraps names a function or method that
exists, so renaming or deleting one fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_spans_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for name, where in tracing.SPANS.items():
        module = importlib.import_module("ybx." + where[0])
        if len(where) == 3:
            assert where[2] in vars(getattr(module, where[1])), name
        else:
            assert callable(getattr(module, where[1], None)), name
