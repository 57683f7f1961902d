"""The names the benchmark tracer binds still exist in the package.

``bench/tracer.py`` rebinds package functions by module and name.  A
refactor that renames or removes one of them would make ``--trace 1``
fail or silently drop a layer, so this reads the tracer's tables as they
stand and resolves every name.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for module, name in tracer.TIMED + tracer.COUNTED + tracer.CACHED:
        fn = getattr(importlib.import_module(f"horseshoe.{module}"), name, None)
        assert callable(fn), f"horseshoe.{module}.{name}"
    for module, name in tracer.CACHED:
        fn = getattr(importlib.import_module(f"horseshoe.{module}"), name)
        assert hasattr(fn, "cache_info"), f"horseshoe.{module}.{name}"
    assert hasattr(importlib.import_module("horseshoe.height").height, "cache_info")
    # the tracer counts Seq constructions through __post_init__
    assert callable(importlib.import_module("horseshoe.words").Seq.__post_init__)
