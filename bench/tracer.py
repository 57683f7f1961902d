"""Per-layer tracing of the horseshoe package from outside it.

Each traced public function is replaced by a wrapper in every
``horseshoe.*`` module that holds a binding to it: ``from .words import
unimodal_cmp`` copies the binding, so patching only the defining module
would miss its callers.  Modules are looked up in ``sys.modules`` because
the package attribute ``horseshoe.height`` is the function, not the module.

Calls are aggregated by name (calls, inclusive time, self time), so memory
stays bounded however many calls a workload makes.  Self time comes from a
per-call stack: a call's self time is its duration minus the time spent in
traced calls it made.
"""
from __future__ import annotations

import sys
import time

# (module, function) pairs timed by a wrapper: calls, total_s and self_s.
TIMED = (
    ("words", "unimodal_cmp"),
    ("words", "canonical_code"),
    ("height", "height"),
    ("height", "scope"),
    ("invariants", "r_dir"),
    ("invariants", "r_w"),
    ("orbits", "classify"),
    ("disks", "intersection_counts"),
    ("disks", "in_disk"),
    ("entropy", "largest_root"),
    ("families", "r_sequence"),
    ("survey", "necklaces"),
    ("survey", "decinv_table"),
    ("survey", "universality_sample"),
    ("cli", "main"),
)
# Functions only counted: they are called so often that timing each call
# would dominate the traced run.
COUNTED = (("entropy", "eval_poly"),)
# lru_cache objects whose cache_info() is reported.
CACHED = (("height", "height"),)

MARK = "_bench_trace_wrapper"


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "horseshoe" or name.startswith("horseshoe."))
    ]


def count_wrappers() -> int:
    """How many tracer wrappers are bound anywhere in the package."""
    n = sum(
        1
        for mod in _package_modules()
        for value in vars(mod).values()
        if getattr(value, MARK, False)
    )
    seq = sys.modules["horseshoe.words"].Seq
    return n + bool(getattr(seq.__post_init__, MARK, False))


class Tracer:
    """Installs wrappers, aggregates per-name statistics, removes wrappers."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self._stack = [0.0]  # traced time spent in callees, per open call
        self._undo: list[tuple] = []
        self._caches = {}

    def _timed(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _rebind(self, orig, wrapper) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        for module, fn in CACHED:
            self._caches[f"{module}.{fn}"] = getattr(
                sys.modules[f"horseshoe.{module}"], fn
            )
        for make, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for module, fn in table:
                orig = getattr(sys.modules[f"horseshoe.{module}"], fn)
                self._rebind(orig, make(f"{module}.{fn}", orig))
        seq = sys.modules["horseshoe.words"].Seq
        post_init = seq.__post_init__
        rec = self.stats.setdefault("words.Seq", [0, 0.0, 0.0])

        def counted_post_init(obj):
            rec[0] += 1
            post_init(obj)

        setattr(counted_post_init, MARK, True)
        seq.__post_init__ = counted_post_init
        self._undo.append((seq, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def span(self, item_id, name, start, end) -> None:
        """Record one item's span; inner calls are aggregated, not spanned."""
        self.spans.append({"id": item_id, "name": name, "start": start, "end": end})

    def report(self) -> dict:
        """Aggregated statistics and cache counters, keyed by layer name."""
        out = {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in self.stats.items()
        }
        for name, cached in self._caches.items():
            info = cached.cache_info()
            out[name].update(
                hits=info.hits, misses=info.misses, cache_size=info.currsize
            )
        return out
