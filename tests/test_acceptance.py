"""End-to-end acceptance checks.

Each test covers one headline capability at its stated tolerance and time
budget, so a bare ``pytest -v tests/test_acceptance.py`` reads as a ten-line
scorecard.
"""

import random
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest

from horseshoe import (
    DECORATED,
    EQ,
    FINITE_ORDER,
    GT,
    LT,
    NBT,
    DomainError,
    Hbar_poly,
    H_poly,
    OrbitPoint,
    Seq,
    canonical_code,
    classify,
    cq_word,
    disk_specs,
    finite_order_word,
    forcing_oracle,
    height,
    height_oracle,
    in_disk,
    intersection_counts,
    interwi_expected,
    is_primitive,
    lam,
    largest_root,
    lone_catalog,
    mu,
    necklaces,
    nu,
    ones_decoration,
    orbit_height,
    q_in_Qw_sufficient,
    r_sequence,
    r_star,
    r_w,
    scope,
    star_decoration,
    starforce_expected,
    starlem_check,
    unimodal_cmp,
    universality_sample,
    universality_scan,
)
from horseshoe.cli import main
from horseshoe.height import _cq
from horseshoe.survey import wilson_interval
from test_entropy import sturm_count

F = Fraction


def _fractions_below(limit, max_den):
    out = set()
    for n in range(2, max_den + 1):
        for m in range(1, n):
            q = F(m, n)
            if 0 < q < limit:
                out.add(q)
    return sorted(out)


CQ_TABLE = {
    F(1, 3): "1001",
    F(1, 4): "10001",
    F(1, 5): "100001",
    F(2, 5): "101101",
    F(1, 6): "1000001",
    F(1, 7): "10000001",
    F(2, 7): "10011001",
    F(3, 7): "10111101",
    F(1, 8): "100000001",
    F(3, 8): "101101101",
    F(1, 9): "1000000001",
    F(2, 9): "1000110001",
    F(4, 9): "1011111101",
    F(1, 10): "10000000001",
    F(3, 10): "10011011001",
    F(1, 11): "100000000001",
    F(2, 11): "100001100001",
    F(3, 11): "100110011001",
    F(4, 11): "101101101101",
}


def test_ac01_itinerary_words():
    """Every tabulated c_q word is reproduced exactly, within 1 ms."""
    _cq.cache_clear()
    start = time.perf_counter()
    got = {q: cq_word(q) for q in CQ_TABLE}
    elapsed = time.perf_counter() - start
    assert got == CQ_TABLE
    assert elapsed < 1e-3


def test_ac02_worked_invariants():
    """mu, nu, lambda, r of the running 15-symbol example, within 1 ms warm."""
    code = "100010111001010"
    values = (mu("1", code), nu("1", code), lam("1", code), r_w("1", code))
    assert values == (F(1, 4), F(1, 3), F(1, 3), F(1, 3))
    best = min(
        _timed(lambda: (mu("1", code), nu("1", code), lam("1", code), r_w("1", code)))
        for _ in range(3)
    )
    assert best < 1e-3


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


EXPECTED_TABLE8 = """orbit\t*\t.\t0\t1\t00\t11\t000\t101\t111
scope\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
10111010\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
1011111.\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
1011011.\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
1001.11.\t1/2\t1/3\t1/4\t1/2\t1/5\t1/3\t1/6\t1/2\t1/2
1001.10.\t1/3\t1/3\t1/4\t1/3\t1/5\t1/3\t1/6\t1/3\t1/3
1001101.\t1/3\t1/3\t1/4\t1/3\t1/5\t1/3\t1/6\t1/3\t1/3
10001.0(.)\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
10001.1.\t1/2\t1/4\t1/4\t1/4\t1/5\t1/4\t1/6\t1/2\t1/4
100001..\t1/2\t1/5\t1/5\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
1000001.\t1/6\t1/6\t1/6\t1/6\t1/6\t1/6\t1/6\t1/6\t1/6
1000000.\t1/2\t1/3\t1/4\t1/2\t1/5\t2/5\t1/6\t1/2\t1/2
"""


def test_ac03_period8_table(capsys):
    """The period-8 survey table is reproduced verbatim, within 1 s."""
    start = time.perf_counter()
    code = main(["table", "--period", "8"])
    elapsed = time.perf_counter() - start
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == EXPECTED_TABLE8
    assert elapsed < 1.0


def test_ac04_long_example_row():
    """All nine invariant columns of the period-11 example orbit."""
    code = "10000011100"
    assert r_star(code) == F(1, 3)
    want = {
        "": F(1, 3),
        "0": F(1, 6),
        "1": F(1, 3),
        "00": F(1, 6),
        "11": F(1, 3),
        "000": F(1, 6),
        "101": F(1, 3),
        "111": F(1, 3),
    }
    for w, value in want.items():
        assert r_w(w, code) == value, (w, r_w(w, code), value)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_ac05_entropy_polynomials():
    """Both certified polynomials factor as stated; roots within 5e-5, 10 ms."""
    hbar = Hbar_poly(1, F(1, 3))
    assert hbar == _pmul([0, 0, 1], _pmul([-1, 0, 0, 0, 1], [-2, 2, 0, -1, -1, 1]))
    h = H_poly(1, F(1, 3))
    assert h == _pmul([-1, 0, 0, 0, 1], [1, -1, -1, -1, 3, -1, -1, -1, 1])
    start = time.perf_counter()
    root_bar = largest_root(hbar)
    root_h = largest_root(h)
    elapsed = time.perf_counter() - start
    assert abs(root_bar - 1.47669) < 5e-5
    assert abs(root_h - 1.56294) < 5e-5
    assert elapsed < 1e-2


def test_ac06_family_closed_forms():
    """Invariants across the star and odd-ones families match closed forms."""
    start = time.perf_counter()
    heights = _fractions_below(F(1, 2), 8)
    params = _fractions_below(F(1, 2), 9)
    for mn in heights:
        w = star_decoration(mn)
        for mpnp in heights:
            wp = star_decoration(mpnp)
            for qp in params:
                if not qp < mpnp:
                    continue
                code = canonical_code(cq_word(qp) + "0" + wp + "0")
                assert r_w(w, code) == starforce_expected(mn, mpnp, qp)
    qs = _fractions_below(F(1, 2), 8)
    for i in range(4):
        for j in range(4):
            for q in qs:
                code = canonical_code(cq_word(q) + "0" + ones_decoration(i) + "0")
                assert r_w(ones_decoration(j), code) == interwi_expected(i, j, q)
    assert time.perf_counter() - start < 30.0


def test_ac07_oracle_agreement():
    """The disk-intersection oracle agrees with the invariant verdict."""
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for code in necklaces(n):
            for w in lone_catalog(5):
                cap = scope(w)
                r = r_w(w, code)
                for den in range(2 * n + 1, 41):
                    for m in range(1, den):
                        q = F(m, den)
                        if q.denominator != den:
                            continue
                        if not q < cap:
                            break
                        if not q_in_Qw_sufficient(q, w):
                            continue
                        if q == r:
                            continue
                        assert forcing_oracle(code, w, q) == (q > r), (code, w, q, r)
                        checked += 1
    assert checked > 60000
    assert time.perf_counter() - start < 300.0


def test_ac08_height_vs_oracle():
    """The fast height agrees with the Stern-Brocot oracle on 1064 sequences."""
    rng = random.Random(20260819)
    cases = []
    while len(cases) < 1000:
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        cases.append(Seq(pre, per))
    for _ in range(64):  # long windows: rays of random period-64 codes
        code = "".join(rng.choice("01") for _ in range(64))
        i = rng.choice([i for i in range(64) if (code + code)[i : i + 2] == "10"])
        cases.append(Seq.periodic(code[i:] + code[:i]))
    start = time.perf_counter()
    for c in cases:
        assert height(c) == height_oracle(c, max_den=204), str(c)
    assert time.perf_counter() - start < 10.0


def test_ac09_structural_properties():
    """The battery of order, family, disk, and classification properties."""
    _ac9_palindromes()
    _ac9_monotone()
    _ac9_order_reversing()
    _ac9_total_order()
    _ac9_window()
    _ac9_ht12()
    _ac9_heightchar()
    _ac9_starlem()
    _ac9_scope_ones()
    _ac9_reversal()
    _ac9_containments_and_counts()
    _ac9_boundary_counts()
    _ac9_r_sequence()
    _ac9_ri12()
    _ac9_lone_bounds()
    _ac9_self_value()
    _ac9_hbar_unique_root()
    _ac9_convergence()
    _ac9_roundtrip()
    _ac9_necklace_counts()


def _ac9_palindromes():
    for n in range(2, 41):
        for m in range(1, n // 2 + 1):
            q = F(m, n)
            if q.denominator != n:
                continue
            w = cq_word(q)
            assert w == w[::-1]


def _ac9_monotone():
    qs = _fractions_below(F(1, 2), 20) + [F(1, 2)]
    seqs = [Seq.periodic(cq_word(q) + "0") for q in sorted(qs)]
    for a, b in zip(seqs, seqs[1:]):
        assert unimodal_cmp(b, a) == LT


def _all_rotation_seqs(max_period):
    out = []
    for n in range(1, max_period + 1):
        for code in necklaces(n):
            for k in range(n):
                out.append(Seq.periodic(code[k:] + code[:k]))
    return out


def _ac9_order_reversing():
    seqs = _all_rotation_seqs(8)
    seqs.sort(key=cmp_to_key(unimodal_cmp))
    hs = [height(s) for s in seqs]
    for a, b in zip(hs, hs[1:]):
        assert a >= b


def _ac9_total_order():
    seqs = _all_rotation_seqs(6)
    rng = random.Random(5)
    for _ in range(3000):
        s, t, u = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
        ab, bc, ac = unimodal_cmp(s, t), unimodal_cmp(t, u), unimodal_cmp(s, u)
        assert ab == -unimodal_cmp(t, s)
        if ab == EQ:
            assert s == t
        if ab <= 0 and bc <= 0:
            assert ac <= 0
        if ab >= 0 and bc >= 0:
            assert ac >= 0


def _ac9_window():
    seqs = _all_rotation_seqs(6)
    rng = random.Random(11)
    for _ in range(2000):
        s, t = rng.choice(seqs), rng.choice(seqs)
        window = max(len(s.pre), len(t.pre)) + len(s.per) + len(t.per)
        if s.prefix(window) == t.prefix(window):
            assert s == t


def _matches_half_pattern(c):
    if c == Seq("10", "1"):
        return True
    head = c.prefix(len(c.pre) + 2 * len(c.per) + 6)
    if head.startswith("0") or head.startswith("11"):
        return True
    if not head.startswith("10"):
        return False
    run = 0
    for ch in head[2:]:
        if ch == "1":
            run += 1
        else:
            return run % 2 == 1
    return False


def _ac9_ht12():
    for s in _all_rotation_seqs(10):
        assert (height(s) == F(1, 2)) == _matches_half_pattern(s), str(s)
    extras = [Seq("10", "1"), Seq("1011", "1"), Seq("10111", "1"), Seq("0", "10")]
    for s in extras:
        assert (height(s) == F(1, 2)) == _matches_half_pattern(s), str(s)


def _ac9_heightchar():
    for q in _fractions_below(F(1, 2), 8):
        w = star_decoration(q)
        lo = Seq.periodic("10" + w + "1")
        hi = Seq("10" + w + "0", "11" + w + "0")
        for s in _all_rotation_seqs(q.denominator + 3):
            inside = unimodal_cmp(lo, s) != GT and unimodal_cmp(s, hi) != GT
            assert (height(s) == q) == inside, (str(s), q)


def _ac9_starlem():
    fs = [Seq.periodic(format(k, f"0{n}b")) for n in range(1, 5) for k in range(2**n)]
    fs += [Seq("1", "10"), Seq("0", "01"), Seq("10", "1")]
    for q in _fractions_below(F(1, 2), 15):
        runs = [b for b in cq_word(q).split("1") if b]
        for r in range(1, len(runs) + 1):
            for f in fs:
                assert starlem_check(q, r, f)


def _ac9_scope_ones():
    for i in range(6):
        assert scope(ones_decoration(i)) == F(1, 2)


def _ac9_reversal():
    words = [""] + [
        format(k, f"0{n}b") for n in range(1, 5) for k in range(2**n)
    ]
    for n in range(1, 13):
        for code in necklaces(n):
            rev = canonical_code(code[::-1])
            for w in words:
                assert r_w(w[::-1], rev) == r_w(w, code)


def _ac9_containments_and_counts():
    # "even" means an even number of ones, as everywhere in the word order
    even_words = ["", "0", "00", "11", "101"]
    odd_words = ["1", "10", "01", "010", "111"]
    codes = [c for n in range(2, 10) for c in necklaces(n)]
    for w in even_words + odd_words:
        cap = scope(w)
        even = w.count("1") % 2 == 0
        for q in _fractions_below(cap, 9):
            specs = disk_specs(w, q)
            a, b, c, d = specs
            for code in codes:
                try:
                    counts = intersection_counts(code, w, q)
                except DomainError:
                    continue
                na, nb, nc, nd = counts
                assert nc + nb == nd + na, (code, w, q, counts)
                for k in range(len(code)):
                    pt = OrbitPoint(code, k)
                    if even:
                        if in_disk(pt, d):
                            assert in_disk(pt, c)
                        if in_disk(pt, b):
                            assert in_disk(pt, a)
                    elif 2 * len(code) < q.denominator:
                        if in_disk(pt, c):
                            assert in_disk(pt, d)
                        if in_disk(pt, a):
                            assert in_disk(pt, b)


def _ac9_boundary_counts():
    for w in ["", "1", "11", "10", "010"]:
        cap = scope(w)
        for q in _fractions_below(cap, 9):
            for qp in _fractions_below(q, 7):
                code = cq_word(qp) + "0" + w + "0"
                if not is_primitive(code):
                    continue
                code = canonical_code(code)
                try:
                    counts = intersection_counts(code, w, q)
                except DomainError:
                    continue
                want = (1, 0, 1, 0) if w.count("1") % 2 == 0 else (0, 1, 0, 1)
                assert counts == want, (code, w, q, counts)


def _ac9_r_sequence():
    for n in range(1, 11):
        for code in necklaces(n):
            imax = max(1, (n - 7) // 2) + 2
            rs = r_sequence(code, imax)
            for a, b in zip(rs, rs[1:]):
                assert a >= b
            floor = max(0, (n - 7) // 2)
            tail = rs[floor:]
            assert all(v == tail[0] for v in tail), (code, rs)


def _ac9_ri12():
    for n in range(1, 11):
        for code in necklaces(n):
            for i in range(3):
                if r_w(ones_decoration(i), code) < F(1, 2):
                    rot = code
                    if "0" in code:
                        k = code.index("0")
                        rot = code[k + 1 :] + code[: k + 1]
                    runs = [len(r) for r in rot.split("0") if r]
                    assert any(
                        length % 2 == 1 and length <= 2 * (i + 2) + 1
                        for length in runs
                    ), (code, i)


def _ac9_lone_bounds():
    for n in range(1, 13):
        for code in necklaces(n):
            q_orbit = orbit_height(code)
            for w in lone_catalog(5):
                r = r_w(w, code)
                assert r == scope(w) or r >= q_orbit, (code, w, r, q_orbit)


def _ac9_self_value():
    for w in lone_catalog(5):
        cap = scope(w)
        for q in _fractions_below(cap, 9):
            for x in "01":
                for y in "01":
                    code = cq_word(q) + x + w + y
                    if not is_primitive(code) or orbit_height(code) != q:
                        continue
                    assert r_w(w, canonical_code(code)) == q, (w, q, x, y)


def _ac9_hbar_unique_root():
    for i in range(4):
        for q in _fractions_below(F(1, 2), 8):
            assert sturm_count(Hbar_poly(i, q), 1, 2) == 1, (i, q)


def _ac9_convergence():
    limit = largest_root(Hbar_poly(1, F(1, 3)))
    prev = 1.0
    for k in range(2, 7):
        root = largest_root(H_poly(1, F(k, 3 * k - 1)))
        assert root > prev
        prev = root
    assert abs(prev - limit) < 1e-2


def _ac9_roundtrip():
    for n in range(1, 11):
        for code in necklaces(n):
            cls = classify(code)
            assert cls.height == orbit_height(code)
            if cls.kind == FINITE_ORDER:
                assert code.startswith(finite_order_word(cls.height))
            elif cls.kind == NBT:
                assert code.startswith(cq_word(cls.height))
            elif cls.kind == DECORATED:
                spelled = cq_word(cls.height) + cls.x + cls.decoration + cls.y
                assert canonical_code(spelled) == code


def _ac9_necklace_counts():
    want = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56, 10: 99, 11: 186, 12: 335}
    for n, count in want.items():
        assert len(necklaces(n)) == count


def test_ac10_universality_fraction():
    """The share p_n of period-n orbits with r^1 < 1/3 grows past 0.9.

    The exact shares at n = 10, 12, 14, 16 are 16/99, 47/335, 175/1161 and
    671/4080 (about 0.16, 0.14, 0.15, 0.16): not monotone, and far below
    0.9.  The trend toward 1 is asymptotic, so it is tested on sampled codes
    at periods where it shows.  Asserted, within a 120 s budget:

    - the exact scans give those four values;
    - 671/4080 lies in the z = 3 Wilson interval of a 2000-code sample at
      n = 16, which ties the sampler to the exact scan;
    - with 300 codes sampled at n = 32, 64, 128, 256 from one fixed seed,
      the estimates strictly increase and the z = 3 Wilson lower bound at
      n = 256 exceeds 9/10.

    The failure message carries every measured value.
    """
    q, seed = F(1, 3), 0
    start = time.perf_counter()
    exact = {n: universality_scan("1", q, n) for n in (10, 12, 14, 16)}
    p16 = universality_sample("1", q, 16, 2000, seed)
    sampled = {n: universality_sample("1", q, n, 300, seed) for n in (32, 64, 128, 256)}
    elapsed = time.perf_counter() - start
    lo16, hi16 = wilson_interval(p16, 2000)
    lo256, hi256 = wilson_interval(sampled[256], 300)
    report = (
        f"exact p_n for n=10,12,14,16: {', '.join(str(p) for p in exact.values())}; "
        f"sampled p_16 = {float(p16):.4f}, interval [{lo16:.4f}, {hi16:.4f}]; "
        "sampled p_n for n=32,64,128,256: "
        f"{', '.join(f'{float(p):.3f}' for p in sampled.values())}, "
        f"p_256 interval [{lo256:.3f}, {hi256:.3f}]; {elapsed:.1f} s"
    )
    assert elapsed < 120.0, report
    assert exact == {
        10: F(16, 99),
        12: F(47, 335),
        14: F(175, 1161),
        16: F(671, 4080),
    }, report
    assert lo16 <= exact[16] <= hi16, report
    trend = list(sampled.values())
    assert all(b > a for a, b in zip(trend, trend[1:])), report
    assert lo256 > 0.9, report
