"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts over minutes: in busy spells every pass of a workload
runs 20-40% slower than in quiet ones, so the median pass of two runs of the
same code can differ by more than any useful bound.  Before and after every
pass the harness runs this file in a fresh interpreter, as it runs every
pass, and scales the pass by the kernel's times around it (``wall_norm_s``),
which cancels most of that drift.

Run as a script it times one run of the kernel and prints the seconds.

The kernel never touches the package, so a change to the package moves a
pass's time and not the kernel's.  It does what the package does most --
building and slicing binary strings, dict updates, ``Fraction`` comparisons
and a sort over many small tuples -- so a busy host slows it about as much.
"""
from __future__ import annotations

import sys
import time
from fractions import Fraction

KERNEL_N = 24000
EXPECTED = (23999, 10, "1100010011110010110", 5477)


def kernel(n: int = KERNEL_N) -> tuple:
    """Fixed work; returns a digest of its result so none of it is skipped."""
    table = {}
    words = []
    below = 0
    half = Fraction(1, 2)
    for i in range(1, n):
        w = format(i * 2654435761 % 1048573, "b")
        key = w[::-1] + w[:3]
        table[key] = table.get(key, 0) + len(w)
        words.append((w.count("1"), w))
        below += Fraction(i % 97 + 1, i % 89 + 2) < half
    words.sort()
    mid = words[len(words) // 2]
    return len(table), mid[0], mid[1], below


def main() -> int:
    t0 = time.perf_counter()
    out = kernel()
    elapsed = time.perf_counter() - t0
    if out != EXPECTED:
        print(f"calibration kernel returned {out}, expected {EXPECTED}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
