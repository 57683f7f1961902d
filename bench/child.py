"""Run one pass of one workload in this fresh interpreter.

Reads a JSON job ``{"workload", "inputs", "trace"}`` on stdin and writes
one JSON result on stdout.  The package is imported before the clock
starts; its caches are cold because the interpreter is new.
"""
from __future__ import annotations

import json
import resource
import sys

import horseshoe  # noqa: F401  (imports every module but the CLI)
import horseshoe.cli  # noqa: F401

import tracer as tracing
import workloads


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ru_maxrss keeps the high-water mark of the harness process this one was
    spawned from, across exec, so the kernel's per-image VmHWM is read first.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    result = workloads.run_pass(job["workload"], job["inputs"], tracer)
    result["wrappers"] = tracing.count_wrappers()
    if tracer is not None:
        result["layers"] = tracer.report()
        result["spans"] = tracer.spans
        tracer.uninstall()
    result["peak_rss_mb"] = peak_rss_mb()
    result["package"] = horseshoe.__file__
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
