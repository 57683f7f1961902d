"""Compare two results files written by ``run.py --out``.

Each file holds one JSON record per run.  For every workload and every
end-to-end metric this prints each side's median and quartiles over its
runs and a verdict, following the rules in the choosing-metrics guide:

- better: over at least ten run pairs, the change wins at least nine tenths
  of them (ties count for neither) and the medians differ by more than the
  base's quartile spread;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every run of the change reads
  better than every run of the base;
- worse: the change's median is worse than the base's by more than the bound;
- no worse: within the bound.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10


def load(path: Path) -> dict:
    """Runs grouped by workload, in file order."""
    runs: dict[str, list] = {}
    with path.open() as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _rel(spread: float, median: float) -> float:
    if median == 0:
        return 0.0 if spread == 0 else float("inf")
    return spread / abs(median)


def verdict(base: list, change: list, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = summary(base)
    cq1, cmed, cq3 = summary(change)
    gain = sign * (bmed - cmed)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        return "better"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    spread = max(_rel(bq3 - bq1, bmed), _rel(cq3 - cq1, cmed))
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(bmed):
        return "worse"
    return "no worse (within bound)"


def main(base_path: Path, change_path: Path, benchmark: dict, extra: dict) -> None:
    base, change = load(base_path), load(change_path)
    specs = [(m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
    specs += [(name, unit, better, bound) for name, (unit, better, bound) in extra.items()]
    print(f"{'workload':<14} {'metric':<12} {'unit':<6} {'runs':>9}"
          f" {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}  verdict")
    for workload in [w for w in base if w in change]:
        for name, unit, better, bound in specs:
            b = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            c = [r["metrics"][name] for r in change[workload] if name in r["metrics"]]
            if not b or not c:
                continue
            bq1, bmed, bq3 = summary(b)
            cq1, cmed, cq3 = summary(c)
            print(
                f"{workload:<14} {name:<12} {unit:<6} {len(b):>4}/{len(c):<4}"
                f" {bmed:>12.6g} [{bq1:.6g}, {bq3:.6g}]".ljust(66)
                + f" {cmed:>12.6g} [{cq1:.6g}, {cq3:.6g}]".ljust(33)
                + f"  {verdict(b, c, better, bound)}"
            )
