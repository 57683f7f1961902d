"""Benchmark harness for the horseshoe package (standard library only).

Run from the repository root:

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload all --seed 1 --out bench/results/base.jsonl
    python3 bench/run.py --compare base.jsonl change.jsonl
    python3 bench/run.py --record-references 0-20

Each pass runs in a fresh single-threaded child interpreter, one child at a
time, so every pass starts with cold caches as a command-line user does.
Passes repeat until ``--seconds`` is used up; a run reports medians over its
passes.  A fixed calibration kernel (``calibrate.py``) is timed in fresh
interpreters around every pass; ``wall_norm_s`` and ``setup_s`` are the
pass and set-up times scaled by the kernel's times, which cancels most of
the shared host's speed changes (see ``bench/README.md``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Set-up is timed a few times after every pass, so its samples spread over
# the whole run, and topped up to at least SETUP_REPEATS.  The calibration
# kernel is timed CAL_PER_PASS times before the first pass and after every
# pass, so each pass lies between two groups of kernel samples.
SETUP_PER_PASS = 3
SETUP_REPEATS = 15
CAL_PER_PASS = 2
# About the calibration kernel's time on a 2-vCPU x86-64 host with CPython
# 3.11.7 when other tenants' load does not slow it: wall_norm_s and setup_s
# read in seconds at that host speed.
REFERENCE_CAL_S = 0.075
CHILD_TIMEOUT_S = 170
SETUP_CODE = "import horseshoe, horseshoe.cli"

# End-to-end metrics reported beside BENCHMARK.json's: failed_frac is 0 on
# most workloads and item latencies exist only on item workloads, while
# BENCHMARK.json lists metrics that every workload reports and never reads 0.
# The raw wall_s and setup_raw_s follow the shared host's speed, which
# drifts between runs by more than their bound, so BENCHMARK.json bounds
# the calibrated wall_norm_s and setup_s instead.
EXTRA_END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_raw_s": ("s", "lower", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
    "item_p50_ms": ("ms", "lower", 0.25),
    "item_p99_ms": ("ms", "lower", 0.25),
}

# Per-layer statistics printed by a traced run, as (layer, stat, unit).
LAYER_STATS = (
    ("words.unimodal_cmp", "calls", "count"),
    ("words.unimodal_cmp", "self_s", "s"),
    ("words.canonical_code", "calls", "count"),
    ("words.canonical_code", "total_s", "s"),
    ("words.Seq", "calls", "count"),
    ("height.height", "calls", "count"),
    ("height.height", "self_s", "s"),
    ("height.height", "hit_ratio", "ratio"),
    ("height.height", "cache_size", "count"),
    ("height.height", "hits", "count"),
    ("height.height", "misses", "count"),
    ("height.scope", "calls", "count"),
    ("invariants.r_dir", "calls", "count"),
    ("invariants.r_dir", "self_s", "s"),
    ("invariants.r_w", "calls", "count"),
    ("invariants.r_w", "total_s", "s"),
    ("orbits.classify", "calls", "count"),
    ("orbits.classify", "total_s", "s"),
    ("survey.necklaces", "calls", "count"),
    ("survey.necklaces", "total_s", "s"),
    ("survey.decinv_table", "total_s", "s"),
    ("survey.universality_sample", "total_s", "s"),
    ("disks.intersection_counts", "calls", "count"),
    ("disks.intersection_counts", "total_s", "s"),
    ("disks.in_disk", "calls", "count"),
    ("disks.in_disk", "self_s", "s"),
    ("entropy.largest_root", "calls", "count"),
    ("entropy.largest_root", "total_s", "s"),
    ("entropy.eval_poly", "calls", "count"),
    ("families.r_sequence", "calls", "count"),
    ("families.r_sequence", "total_s", "s"),
    ("cli.main", "calls", "count"),
    ("cli.main", "self_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run or measure; no result is printed."""


def load_benchmark() -> dict:
    with BENCHMARK_JSON.open() as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def compile_bytecode() -> None:
    """Compile the package and the harness to bytecode once, before any child.

    Children then import cached bytecode, as an installed package does,
    whether or not the environment lets Python write bytecode itself.
    """
    import compileall

    ok = compileall.compile_dir(SRC / "horseshoe", quiet=1)
    for path in sorted(BENCH.glob("*.py")):
        ok = compileall.compile_file(path, quiet=1) and ok
    if not ok:
        raise BenchError("bytecode compilation failed")


def import_package():
    """Import the package from this checkout's src/, or fail."""
    if not (SRC / "horseshoe" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import horseshoe
    import horseshoe.cli  # noqa: F401

    if Path(horseshoe.__file__).resolve().parent != SRC / "horseshoe":
        raise BenchError(f"imported horseshoe from {horseshoe.__file__}, not {SRC}")
    compile_bytecode()
    return horseshoe


def measure_setup(repeats: int) -> list[float]:
    """Seconds from interpreter start until the package and CLI are imported."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-2000:]}")
    return times


def measure_cal(repeats: int) -> list[float]:
    """Seconds for the calibration kernel, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "calibrate.py")],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"calibration failed: {proc.stderr.strip()[-2000:]}")
        times.append(float(proc.stdout))
    return times


def run_child(name: str, inputs: dict, trace: bool) -> dict:
    job = json.dumps({"workload": name, "inputs": inputs, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=job,
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{name} pass failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    if Path(result["package"]).resolve().parent != SRC / "horseshoe":
        raise BenchError(f"child imported horseshoe from {result['package']}")
    if not trace and result["wrappers"]:
        raise BenchError(f"untraced {name} pass had {result['wrappers']} wrappers bound")
    return result


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _layer_value(layers: dict, layer: str, stat: str):
    rec = layers.get(layer, {})
    if stat == "hit_ratio":
        lookups = rec.get("hits", 0) + rec.get("misses", 0)
        return rec.get("hits", 0) / lookups if lookups else 0.0
    return rec.get(stat, 0)


def run_workload(name, seed, seconds, trace, sizes, refs) -> dict:
    """One run: inputs, set-up timing, timed passes, checks and metrics."""
    meta = machine()
    t_gen = time.perf_counter()
    inputs = workloads.generate(name, seed, sizes)
    generate_s = time.perf_counter() - t_gen

    plain, traced, setup = [], [], []
    cal = measure_cal(CAL_PER_PASS)
    start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(plain)
        result = run_child(name, inputs, want_trace)
        cal += measure_cal(CAL_PER_PASS)
        # the pass's time at reference speed, from the kernel samples around it
        around = cal[-2 * CAL_PER_PASS:]
        result["norm_s"] = result["wall_s"] * REFERENCE_CAL_S / statistics.median(around)
        (traced if want_trace else plain).append(result)
        setup += measure_setup(SETUP_PER_PASS)
        elapsed = time.perf_counter() - start
        passes = len(plain) + len(traced)
        if plain and (traced or not trace) and elapsed * (passes + 1) / passes > seconds:
            break
    setup += measure_setup(SETUP_REPEATS - len(setup))

    ref = workloads.references_for(refs, name, seed, sizes)
    verdict = workloads.check(name, inputs, plain[0]["outputs"], ref, seed, sizes)
    first = workloads.digest(plain[0]["outputs"])
    if any(workloads.digest(p["outputs"]) != first for p in plain + traced):
        verdict["correct"] = False
        verdict["note"] = "passes disagree"

    walls = [p["wall_s"] for p in plain]
    norms = [p["norm_s"] for p in plain]
    metrics = {
        "wall_norm_s": statistics.median(norms),
        # set-up and kernel samples are equally short, so their fastest
        # samples see the same host state
        "setup_s": min(setup) * REFERENCE_CAL_S / min(cal),
        "wall_s": statistics.median(walls),
        "setup_raw_s": statistics.median(setup),
        "cal_s": statistics.median(cal),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
        "failed_frac": verdict["failed"] / verdict["attempted"],
    }
    if name in workloads.ITEM_WORKLOADS:
        samples = [ms for p in plain for ms in p["item_ms"]]
        metrics["item_p50_ms"] = statistics.median(samples)
        metrics["item_p99_ms"] = statistics.quantiles(samples, n=100)[98]
        metrics["item_samples"] = len(samples)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "sizes": sizes,
        "machine": meta,
        "generate_s": generate_s,
        "passes": len(plain),
        "check": verdict,
        "metrics": metrics,
        "samples": {"wall_s": walls, "wall_norm_s": norms, "cal_s": cal, "setup_s": setup,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in plain]},
    }
    if trace:
        layers = {}
        for layer, stat, unit in LAYER_STATS:
            values = [_layer_value(p["layers"], layer, stat) for p in traced]
            layers[f"{layer}.{stat}"] = statistics.median(values) if unit == "s" else values[0]
            if unit != "s" and any(v != values[0] for v in values):
                verdict["correct"] = False
                verdict["note"] = f"{layer}.{stat} differs between traced passes"
        traced_walls = [p["wall_s"] for p in traced]
        traced_norms = [p["norm_s"] for p in traced]
        layers["trace.overhead_frac"] = statistics.median(traced_norms) / statistics.median(norms) - 1
        record["layers"] = layers
        record["traced_passes"] = len(traced)
        record["samples"]["traced_wall_s"] = traced_walls
        record["spans"] = traced[0]["spans"]
    return record


def metric_units(benchmark: dict) -> dict:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    units.update({name: spec[0] for name, spec in EXTRA_END_TO_END.items()})
    units.update({f"{layer}.{stat}": unit for layer, stat, unit in LAYER_STATS})
    units["trace.overhead_frac"] = "ratio"
    units["item_samples"] = "count"
    units["cal_s"] = "s"
    return units


def result_line(records: list, benchmark: dict) -> dict:
    """The final JSON object: the BENCHMARK.json metrics of the run."""
    key = "per_layer" if records[0]["trace"] else "end_to_end"
    source = "layers" if records[0]["trace"] else "metrics"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for m in benchmark[key]:
            metrics[prefix + m["name"]] = {"value": rec[source][m["name"]], "unit": m["unit"]}
    return {
        "correct": all(r["check"]["correct"] for r in records),
        "attempted": sum(r["check"]["attempted"] for r in records),
        "failed": sum(r["check"]["failed"] for r in records),
        "metrics": metrics,
    }


def print_report(rec: dict, units: dict) -> None:
    check = rec["check"]
    m = rec["machine"]
    print(f"== {rec['workload']} seed={rec['seed']} passes={rec['passes']}"
          f" sizes={json.dumps(rec['sizes'])}")
    print(f"   python={m['python'].split()[0]} cpus={m['cpu_count']} affinity={m['affinity']}"
          f" load1={m['loadavg_1m']:.2f} commit={m['commit']}")
    print(f"   check: {json.dumps(check)}")
    for section in ("metrics", "layers"):
        for name, value in rec.get(section, {}).items():
            print(f"   {name:<40} {value:>14.6g} {units.get(name, '')}")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_references(seeds: list[int]) -> None:
    """Record each workload's outputs, checked by the independent routes only."""
    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    for name in workloads.NAMES:
        table = refs.setdefault(name, {})
        for seed in seeds if name != "survey_table" else [0]:
            sizes = workloads.SIZES[name]
            inputs = workloads.generate(name, seed, sizes)
            outputs = run_child(name, inputs, False)["outputs"]
            verdict = workloads.check(name, inputs, outputs, None, seed, sizes)
            if not verdict["correct"]:
                raise BenchError(f"{name} seed {seed} fails its checks: {verdict}")
            key = "any" if name == "survey_table" else str(seed)
            table[key] = workloads.make_reference(name, inputs, outputs, verdict.get("unsound", 0))
            print(f"recorded {name} {key}: {json.dumps(verdict)}", flush=True)
    tmp = workloads.REFERENCES.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    tmp.replace(workloads.REFERENCES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"))
    parser.add_argument("--record-references", metavar="SEEDS")
    args = parser.parse_args(argv)

    try:
        benchmark = load_benchmark()
        if args.compare:
            compare.main(args.compare[0], args.compare[1], benchmark, EXTRA_END_TO_END)
            return 0
        import_package()
        if args.record_references:
            record_references(parse_seeds(args.record_references))
            return 0
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
        refs = workloads.load_references()
        units = metric_units(benchmark)
        records = []
        for name in names:
            rec = run_workload(name, args.seed, seconds, args.trace, workloads.SIZES[name], refs)
            records.append(rec)
            print_report(rec, units)
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(records, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
