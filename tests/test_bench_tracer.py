"""The names the benchmark tracer binds still exist in the package.

``bench/tracer.py`` rebinds package functions by module and name.  A
refactor that renames or removes one of them would make ``--trace 1``
fail or silently drop a layer, so this reads the tracer's tables as they
stand and resolves every name, then runs the tracer once on the disk oracle.
"""
import importlib
import importlib.util
from fractions import Fraction
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


def test_tracer_counts_disk_calls():
    """One oracle verdict is one intersection_counts call on integer keys.

    It goes through neither the per-point in_disk nor unimodal_cmp; a
    direct in_disk call is still traced once.
    """
    importlib.import_module("horseshoe.cli")  # install looks up cli.main too
    disks = importlib.import_module("horseshoe.disks")
    tracer = _tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert disks.forcing_oracle("10010110", "11", Fraction(9, 25))
    finally:
        trace.uninstall()
    assert trace.stats["disks.intersection_counts"][0] == 1
    assert trace.stats["disks.in_disk"][0] == 0
    assert trace.stats["words.unimodal_cmp"][0] == 0
    assert tracer.count_wrappers() == 0
    spec = disks.disk_specs("11", Fraction(9, 25))[0]
    trace = tracer.Tracer()
    trace.install()
    try:
        disks.in_disk("10010110", 0, spec)
    finally:
        trace.uninstall()
    assert trace.stats["disks.in_disk"][0] == 1
    assert tracer.count_wrappers() == 0


def test_tracer_counts_root_isolations():
    """Certificates that share (i, r) pairs isolate each pair's root once."""
    importlib.import_module("horseshoe.cli")
    entropy = importlib.import_module("horseshoe.entropy")
    r_sequence = importlib.import_module("horseshoe.families").r_sequence
    codes = ["10011010", "10011010", "100111111", "10000111001110", "10010101101110"]
    pairs = {
        (i, r)
        for code in codes
        for i, r in enumerate(r_sequence(code, 3))
        if r < Fraction(1, 2)
    }
    entropy._certificate.cache_clear()
    tracer = _tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        for code in codes:
            assert entropy.entropy_certificate(code, 3) is not None
    finally:
        trace.uninstall()
    # 19 invariants below 1/2 across the codes, 8 distinct (i, r) pairs
    assert trace.stats["entropy.largest_root"][0] == len(pairs) == 8
    assert trace.stats["entropy.eval_poly"][0] == 0
    assert tracer.count_wrappers() == 0


def test_tracer_counts_heights_per_orbit():
    """A cold period-10 table asks each orbit's ray heights at most once each."""
    importlib.import_module("horseshoe.cli")
    survey = importlib.import_module("horseshoe.survey")
    height = importlib.import_module("horseshoe.height")
    n = 10
    codes = survey.necklaces(n)
    decorations = [w for w in survey._DEFAULT_DECORATIONS if w != survey.STAR]
    height.height.cache_clear()
    height.scope.cache_clear()
    tracer = _tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        table = survey.decinv_table(n)
    finally:
        trace.uninstall()
    assert sum(len(row.members) for row in table.rows) == len(codes) == 99
    # 2N ray heights per orbit, one orbit height per classify, and one ray
    # per decoration's scope, the greatest rotation of its cycle 10w0
    misses = trace.report()["height.height"]["misses"]
    assert misses <= len(codes) * (2 * n + 1) + len(decorations)
    assert tracer.count_wrappers() == 0
