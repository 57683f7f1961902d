"""The four benchmark workloads: inputs, one timed pass, and output checks.

Inputs are generated from the workload seed in the harness process and
handed to a fresh child interpreter, which times one pass over them with
cold caches (``run_pass``).  Outputs are checked back in the harness,
outside the timed region (``check``), against the references recorded
for the benchmark's seeds and against the package's independent routes.

Why these four: they are the four kinds of job the package's users run,
and each stresses different layers (see ``bench/README.md``).
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import time
import zlib
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import roots

NAMES = ("survey_table", "scan_sampled", "oracle_sweep", "entropy_certs")
# Workloads whose items are independent public calls, timed one by one.
ITEM_WORKLOADS = ("oracle_sweep", "entropy_certs")

SIZES = {
    "survey_table": {"period": 14},
    "scan_sampled": {"w": "1", "q": "2/5", "n": 64, "k": 1000, "oracle_codes": 16, "oracle_rays": 4},
    "oracle_sweep": {"items": 1500, "min_period": 6, "max_period": 12, "max_len": 5},
    "entropy_certs": {"items": 1000, "length": 32, "i_max": 3},
}

REFERENCES = Path(__file__).with_name("references.json")
ROOT_TOLERANCE = Fraction(1, 10**6)
HEIGHT_ORACLE_MAX_DEN = 400


def _mod(name: str):
    return sys.modules[f"horseshoe.{name}"]


def _is_primitive(word: str) -> bool:
    return (word + word).find(word, 1) == len(word)


def _random_primitive(rng: random.Random, n: int) -> str:
    while True:
        word = "".join(rng.choice("01") for _ in range(n))
        if _is_primitive(word):
            return word


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------- inputs


def generate(name: str, seed: int, sizes: dict) -> dict:
    """The workload's inputs for this seed; needs the package imported."""
    rng = random.Random(f"{name}/{seed}")
    if name == "survey_table":
        return {"period": sizes["period"]}
    if name == "scan_sampled":
        return {k: sizes[k] for k in ("w", "q", "n", "k")} | {"seed": seed}
    if name == "oracle_sweep":
        return {"items": _oracle_triples(rng, sizes)}
    if name == "entropy_certs":
        codes = [_random_primitive(rng, sizes["length"]) for _ in range(sizes["items"])]
        return {"codes": codes, "i_max": sizes["i_max"]}
    raise KeyError(name)


def _oracle_triples(rng: random.Random, sizes: dict) -> list:
    """Triples (code, w, q) that pass the filters of the ac07 acceptance test.

    Codes and decorations are sorted before drawing, so the inputs depend on
    the seed and not on the order in which the package enumerates them.
    """
    survey, families, height = _mod("survey"), _mod("families"), _mod("height")
    orbits, invariants = _mod("orbits"), _mod("invariants")
    codes = sorted(
        code
        for n in range(sizes["min_period"], sizes["max_period"] + 1)
        for code in survey.necklaces(n)
    )
    decorations = sorted(families.lone_catalog(sizes["max_len"]))
    scopes = {w: height.scope(w) for w in decorations}
    out = []
    while len(out) < sizes["items"]:
        code = rng.choice(codes)
        w = rng.choice(decorations)
        N = len(code)
        den = rng.randint(2 * N + 1, 4 * N + 8)
        cap = scopes[w]
        m_max = -(-cap.numerator * den // cap.denominator) - 1  # m/den < scope
        if m_max < 1:
            continue
        m = rng.randint(1, m_max)
        if math.gcd(m, den) != 1:
            continue
        q = Fraction(m, den)
        if not orbits.q_in_Qw_sufficient(q, w) or q == invariants.r_w(w, code):
            continue
        out.append([code, w, str(q)])
    return out


# ---------------------------------------------------------------- one pass


def run_pass(name: str, inputs: dict, tracer) -> dict:
    """Time one pass over the inputs; runs in a fresh child interpreter.

    Returns the pass's wall time, its outputs and, for item workloads, each
    item's latency in milliseconds.
    """
    clock = time.perf_counter
    item_ms = None
    if name == "survey_table":
        argv = ["table", "--period", str(inputs["period"])]
        buf = io.StringIO()
        t0 = clock()
        with redirect_stdout(buf):
            rc = _mod("cli").main(argv)
        t1 = clock()
        outputs = {"rc": rc, "lines": buf.getvalue().splitlines()}
    elif name == "scan_sampled":
        args = (inputs["w"], Fraction(inputs["q"]), inputs["n"], inputs["k"], inputs["seed"])
        t0 = clock()
        p = _mod("survey").universality_sample(*args)
        t1 = clock()
        outputs = {"p": str(p)}
    elif name == "oracle_sweep":
        items = [(c, w, Fraction(q)) for c, w, q in inputs["items"]]
        forces, oracle = _mod("invariants").forces, _mod("disks").forcing_oracle
        results, item_ms = [], []
        t0 = clock()
        for i, (code, w, q) in enumerate(items):
            s = clock()
            try:
                results.append([forces(code, w, q), oracle(code, w, q)])
            except Exception as exc:  # an item that raises is counted as failed
                results.append(["error", type(exc).__name__])
            e = clock()
            item_ms.append((e - s) * 1e3)
            if tracer is not None:
                tracer.span(i, "oracle_sweep.item", s, e)
        t1 = clock()
        outputs = {"results": results}
    elif name == "entropy_certs":
        certificate = _mod("entropy").entropy_certificate
        canonical = _mod("words").canonical_code
        i_max = inputs["i_max"]
        results, item_ms = [], []
        t0 = clock()
        for i, code in enumerate(inputs["codes"]):
            s = clock()
            try:
                cert = certificate(canonical(code), i_max)
                results.append(None if cert is None else [cert[0], cert[1]])
            except Exception as exc:  # an item that raises is counted as failed
                results.append(["error", type(exc).__name__])
            e = clock()
            item_ms.append((e - s) * 1e3)
            if tracer is not None:
                tracer.span(i, "entropy_certs.item", s, e)
        t1 = clock()
        outputs = {"results": results}
    else:
        raise KeyError(name)
    if tracer is not None and item_ms is None:
        tracer.span(0, f"{name}.pass", t0, t1)
    return {"wall_s": t1 - t0, "outputs": outputs, "item_ms": item_ms}


# ---------------------------------------------------------------- checks


def load_references() -> dict:
    with REFERENCES.open() as fh:
        return json.load(fh)


def references_for(refs: dict, name: str, seed: int, sizes: dict):
    """The recorded references for this workload and seed, if any."""
    if sizes != SIZES[name]:
        return None
    table = refs.get(name, {})
    return table.get("any") if name == "survey_table" else table.get(str(seed))


def check(name: str, inputs: dict, outputs: dict, ref, seed: int, sizes: dict) -> dict:
    """Check one pass's outputs; returns item counts and the verdict.

    ``failed`` counts items that raised or failed a check.  ``correct`` is
    false when any check fails, except that on entropy_certs a certificate
    whose root lies above the exact largest root (a known defect of the
    float root search) is counted in ``failed`` and ``unsound`` and makes
    ``correct`` false only when there are more of them than the recorded
    reference for the seed holds.
    """
    return _CHECKS[name](inputs, outputs, ref, seed, sizes)


def _necklace_count(n: int) -> int:
    """Primitive binary necklaces of length n, by Moebius inversion."""

    def mobius(d: int) -> int:
        out, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if d > 1 else out

    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _check_survey(inputs, outputs, ref, seed, sizes):
    lines = outputs["lines"]
    period = inputs["period"]
    bad = int(outputs["rc"] != 0)
    if ref is not None:
        bad += sum(
            1 for i in range(max(len(ref), len(lines)))
            if i >= len(ref) or i >= len(lines) or ref[i] != lines[i]
        )
    # independent route: enumeration against the necklace-count formula
    codes = _mod("survey").necklaces(period)
    formula_ok = len(set(codes)) == len(codes) == _necklace_count(period)
    bad += not formula_ok
    attempted = max(len(lines), len(ref or ())) + 1
    return {"attempted": attempted, "failed": bad, "correct": bad == 0}


def _check_scan(inputs, outputs, ref, seed, sizes):
    bad = 0
    p = Fraction(outputs["p"])
    if not 0 <= p <= 1 or (p * inputs["k"]).denominator != 1:
        bad += 1
    elif ref is not None and ref != outputs["p"]:
        bad += 1
    # independent route: height against the Stern-Brocot oracle on rays of
    # sampled codes of the workload's length
    height = _mod("height")
    Seq = _mod("words").Seq
    rng = random.Random(f"scan_sampled/rays/{seed}")
    rays = 0
    for _ in range(sizes["oracle_codes"]):
        word = _random_primitive(rng, inputs["n"])
        starts = [i for i in range(len(word)) if (word + word)[i : i + 2] == "10"]
        for i in rng.sample(starts, min(sizes["oracle_rays"], len(starts))):
            ray = Seq("", word[i:] + word[:i])
            rays += 1
            try:
                agree = height.height(ray) == height.height_oracle(ray, HEIGHT_ORACLE_MAX_DEN)
            except ArithmeticError:
                agree = False
            bad += not agree
    return {"attempted": 1 + rays, "failed": bad, "correct": bad == 0}


def _check_oracle(inputs, outputs, ref, seed, sizes):
    results = outputs["results"]
    verdicts = ref["verdicts"] if ref is not None and ref["inputs"] == digest(inputs) else None
    forced = _mod("invariants").FORCED
    bad = 0
    for i, (verdict, oracle) in enumerate(results):
        ok = verdict != "error" and (verdict == forced) == oracle
        if verdicts is not None:
            ok = ok and ("F" if oracle else "N") == verdicts[i]
        bad += not ok
    if ref is not None and verdicts is None:
        bad = len(results)  # the inputs differ from those the reference was made for
    return {"attempted": len(results), "failed": bad, "correct": bad == 0}


def entropy_reference_item(result) -> str:
    """The compact reference of one entropy_certs output: root and polynomial crc."""
    if result is None:
        return "-"
    poly, root = result
    return f"{root:.6f}:{zlib.crc32(json.dumps(poly).encode()):08x}"


def _check_entropy(inputs, outputs, ref, seed, sizes):
    results = outputs["results"]
    items = ref["items"] if ref is not None and ref["inputs"] == digest(inputs) else None
    bad = unsound = 0
    other = ref is not None and items is None
    for i, result in enumerate(results):
        if result is not None and result[0] == "error":
            bad += 1
            other = True
            continue
        ok = True
        if items is not None:
            want = items[i]
            if want == "-" or result is None:
                ok = want == entropy_reference_item(result)
            else:
                root, crc = want.split(":")
                have_root, have_crc = entropy_reference_item(result).split(":")
                ok = crc == have_crc and abs(float(have_root) - float(root)) <= 2e-6
        if result is not None and ok:
            poly, root = result
            x = Fraction(root)
            try:
                # independent route: the root approximates an exact root ...
                ok = 1 < x <= 2 and roots.has_root_in(
                    poly, x - ROOT_TOLERANCE, x + ROOT_TOLERANCE
                )
                # ... and, for the bound to be certified, lies at or below
                # the largest one in (1, 2]
                sound = not ok or roots.has_root_in(poly, x, Fraction(2))
            except ArithmeticError:
                ok, sound = False, True
            if not sound:
                unsound += 1
                bad += 1
                continue
        if not ok:
            other = True
            bad += 1
    if ref is not None and unsound > ref["unsound"]:
        other = True
    return {
        "attempted": len(results),
        "failed": bad,
        "unsound": unsound,
        "certificates": sum(1 for r in results if r is not None and r[0] != "error"),
        "correct": not other,
    }


_CHECKS = {
    "survey_table": _check_survey,
    "scan_sampled": _check_scan,
    "oracle_sweep": _check_oracle,
    "entropy_certs": _check_entropy,
}


def make_reference(name: str, inputs: dict, outputs: dict, unsound: int = 0):
    """The reference entry recorded for one workload and seed."""
    if name == "survey_table":
        return outputs["lines"]
    if name == "scan_sampled":
        return outputs["p"]
    if name == "oracle_sweep":
        return {
            "inputs": digest(inputs),
            "verdicts": "".join("F" if o else "N" for _, o in outputs["results"]),
        }
    return {
        "inputs": digest(inputs),
        "unsound": unsound,
        "items": [entropy_reference_item(r) for r in outputs["results"]],
    }
