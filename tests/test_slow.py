"""Cross-checks at scale, left out of the default run.

Run with ``python3 -m pytest -m slow -s``; each test prints its counts.
"""
import hashlib
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from horseshoe.disks import forcing_oracle, intersection_counts
from horseshoe.families import lone_catalog
from horseshoe.height import height, height_oracle, scope
from horseshoe.invariants import _below, _values, r_w
from horseshoe.orbits import is_paired, q_in_Qw_sufficient
from horseshoe.survey import necklaces
from horseshoe.words import GT, DomainError, Seq, canonical_code, flip_last, unimodal_cmp
from test_disks import _outcome, assert_reversal_swaps_disks
from test_height import _rationals, _reference_scope, _threshold
from test_invariants import (
    _codes_with_long_runs,
    assert_below_matches_r_w,
    assert_matches_reference,
    check_capped_by_key,
)
from test_survey import assert_labels_match_reference
from test_words import _reference_cmp

pytestmark = pytest.mark.slow

F = Fraction


def test_formula_matches_disk_oracle_periods_9_12():
    """ac07's agreement check at periods 9 to 12, all 21 lone decorations.

    Inputs on which the oracle raises DomainError (a point on the boundary
    orbit of the family) are counted apart, not compared.
    """
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    for n in (9, 10, 11, 12):
        start = time.perf_counter()
        checked = refused = 0
        for code in necklaces(n):
            for w in decorations:
                cap = scope(w)
                r = r_w(w, code)
                for den in range(2 * n + 1, 41):
                    for m in range(1, den):
                        q = F(m, den)
                        if q.denominator != den:
                            continue
                        if not q < cap:
                            break
                        if q == r or not q_in_Qw_sufficient(q, w):
                            continue
                        try:
                            verdict = forcing_oracle(code, w, q)
                        except DomainError:
                            refused += 1
                            continue
                        assert verdict == (q > r), (code, w, q, r)
                        checked += 1
        elapsed = time.perf_counter() - start
        print(f"\nformula vs disk oracle, period {n}: {checked} agree, "
              f"{refused} refused by the oracle, {elapsed:.1f} s")
        assert checked > 0


def test_disk_counts_reverse_to_n_10():
    """Time reversal swaps the disk counts past tier-1's sweep: every
    necklace with n <= 10, every |w| <= 3, every q < scope(w) with den <= 16."""
    qs = {F(m, n) for n in range(2, 17) for m in range(1, n // 2 + 1)}
    words = ["".join(t) for k in range(4) for t in product("01", repeat=k)]
    cases = refused = 0
    for n in range(1, 11):
        for code in necklaces(n):
            for w in words:
                for q in (q for q in qs if q < scope(w)):
                    got = _outcome(intersection_counts, code, w, q)
                    assert_reversal_swaps_disks(got, code, w, q)
                    cases += 1
                    refused += isinstance(got, str)
    assert (cases, refused) == (87688, 104)


def test_height_matches_oracle_periods_13_40():
    """height against the Stern-Brocot oracle on 3,000 rays of long codes."""
    rng = random.Random(20261018)
    start = time.perf_counter()
    cases = trivial = 0
    while cases < 3000:
        n = rng.randint(13, 40)
        code = "".join(rng.choice("01") for _ in range(n))
        starts = [i for i in range(n) if (code + code)[i : i + 2] == "10"]
        if not starts:
            continue
        i = rng.choice(starts)  # rays not beginning 10 have height 1/2
        code = code[i:] + code[:i]
        ray = Seq.periodic(code)
        h = height(ray)
        assert h == height_oracle(ray, max_den=4 * n), str(ray)
        assert height(code) == h
        trivial += h == F(1, 2)
        cases += 1
    elapsed = time.perf_counter() - start
    print(f"\nheight vs height_oracle, periods 13-40: {cases} agree "
          f"({trivial} of height 1/2), {elapsed:.1f} s")


def test_height_matches_oracle_on_short_sequences():
    """height against the Stern-Brocot oracle on every pre(per) with
    |pre| <= 8, |per| <= 8 and |pre| + |per| <= 12, constant tails included."""
    start = time.perf_counter()
    seqs = _short_sequences()
    for s in seqs:
        assert height(s) == height_oracle(s, max_den=64), str(s)
    elapsed = time.perf_counter() - start
    print(f"\nheight vs height_oracle, short pre(per): {len(seqs)} sequences "
          f"agree, {elapsed:.1f} s")
    assert len(seqs) == 20800


def _short_sequences():
    """Every pre(per) with |pre| <= 8, |per| <= 8 and |pre| + |per| <= 12."""
    return {
        Seq("".join(pre), "".join(per))
        for n in range(1, 9)
        for per in product("01", repeat=n)
        for k in range(min(8, 12 - n) + 1)
        for pre in product("01", repeat=k)
    }


def test_height_below_q_iff_above_threshold_on_short_sequences():
    """h(s) < q exactly when s >_U T_q, on the 20,800 short pre(per), for
    every q <= 1/2 up to denominator 20."""
    start = time.perf_counter()
    seqs = _short_sequences()
    qs = _rationals(20)
    for q in qs:
        T = _threshold(q)
        for s in seqs:
            assert (height(s) < q) == (unimodal_cmp(s, T) == GT), (q, str(s))
    elapsed = time.perf_counter() - start
    print(f"\nh(s) < q iff s >_U T_q: {len(seqs)} sequences x {len(qs)} q agree, "
          f"{elapsed:.1f} s")
    assert len(seqs) == 20800


def test_below_matches_r_w_periods_to_14():
    """The threshold read against r^w < q on every necklace of period <= 14,
    for the 21 lone decorations and every q in scope up to denominator 10,
    and 1/20, 1/40 and 1/10000, whose forced prefixes are long."""
    start = time.perf_counter()
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    checks = assert_below_matches_r_w(
        decorations, range(1, 15), 10, extra=(F(1, 20), F(1, 40), F(1, 10000))
    )
    elapsed = time.perf_counter() - start
    print(f"\nthreshold read vs r_w, periods <= 14: {checks} agree, {elapsed:.1f} s")


def below_digest() -> tuple[int, str]:
    """(codes below, SHA-256 of every flag) of _below over the 21 lone
    decorations, 11 q down to 1/10000 and periods 16-256, on 60 seeded
    codes per period whose long 0-runs hold small-q prefixes."""
    rng = random.Random(20261020)
    qs = (F(2, 5), F(1, 3), F(1, 4), F(1, 6), F(3, 10), F(2, 9), F(5, 17),
          F(1, 20), F(1, 40), F(3, 50), F(1, 10000))
    flags = bytearray()
    for n in (16, 21, 32, 41, 64, 100, 128, 256):
        codes = _codes_with_long_runs(rng, n, 60)
        for w in lone_catalog(5):
            for q in qs:
                if q < scope(w):
                    flags += bytes(map(_below(w, q, n), codes))
    return sum(flags), hashlib.sha256(flags).hexdigest()


# below_digest() of the read that sliced a ray key for every window
# occurrence, before windows carried T_q's forced prefix
BELOW_DIGEST = (20629, "ef4863b30053b98ee75a222dd5e995ebffffb505cbd3651cb379a1cbba5a61c6")


def test_below_digest():
    """_below's flags on 84,480 (w, q, code) at periods 16-256 and q down to
    1/10000 equal BELOW_DIGEST."""
    start = time.perf_counter()
    count, digest = below_digest()
    elapsed = time.perf_counter() - start
    print(f"\n_below digest: {count} below, {digest[:16]}, {elapsed:.1f} s")
    assert (count, digest) == BELOW_DIGEST


def test_columns_capped_by_key_periods_to_16():
    """test_invariants.test_columns_capped_by_key on every necklace of
    period <= 16."""
    start = time.perf_counter()
    checked, capped = check_capped_by_key(range(1, 17))
    elapsed = time.perf_counter() - start
    print(f"\ncapped read vs min(cap, height), periods <= 16: {checked} columns"
          f" agree, {capped} capped, {elapsed:.1f} s")
    assert (checked, capped) == (193_600, 127_178)


def test_invariants_match_reference_on_long_codes():
    """r* and the 21 lone r^w against one height per occurrence, n = 32-256.

    The invariants order rays by N-bit keys sliced from one inverse Gray
    code of the doubled code; the reference reads every ray's height.  The
    21 r^w read from one plan also equal 21 one-decoration calls.
    """
    rng = random.Random(20261019)
    start = time.perf_counter()
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    counts = []
    for n, k in ((32, 60), (64, 40), (256, 15)):
        for _ in range(k):
            code = "".join(rng.choice("01") for _ in range(n))
            assert_matches_reference(code, decorations)
            together = _values(code, tuple(decorations))
            assert together == [r_w(w, code) for w in decorations], code
        counts.append(f"{k * (1 + len(decorations))} at n = {n}")
    elapsed = time.perf_counter() - start
    print(f"\ninvariants vs reference r_dir: {', '.join(counts)} agree, {elapsed:.1f} s")


def test_scope_matches_least_rotation_height_to_12():
    """scope against the least height over every rotation of 10w0, |w| <= 12."""
    start = time.perf_counter()
    checked = 0
    for n in range(13):
        for bits in product("01", repeat=n):
            w = "".join(bits)
            assert scope(w) == _reference_scope(w), w
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"\nscope vs least rotation height, |w| <= 12: {checked} agree, "
          f"{elapsed:.1f} s")
    assert checked == 2**13 - 1


def test_canonical_code_matches_reference_lengths_13_15():
    """canonical_code is a rotation no rotation exceeds in the reference order."""
    start = time.perf_counter()
    checked = 0
    for n in (13, 14, 15):
        for bits in product("01", repeat=n):
            word = "".join(bits)
            canon = canonical_code(word)
            assert canon in word + word, word
            best = Seq.periodic(canon)
            for k in range(n):
                rot = Seq.periodic(word[k:] + word[:k])
                assert _reference_cmp(rot, best) != GT, word
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"\ncanonical_code vs reference order, lengths 13-15: {checked} words "
          f"agree, {elapsed:.1f} s")
    assert checked == 2**13 + 2**14 + 2**15


def test_row_labels_match_reference_periods_15_18():
    """test_survey.test_row_labels_match_reference at periods 15 to 18."""
    start = time.perf_counter()
    checked = assert_labels_match_reference(range(15, 19))
    elapsed = time.perf_counter() - start
    print(f"\nrow labels vs reference, periods 15-18: {checked} rows agree, "
          f"{elapsed:.1f} s")


def test_paired_codes_ending_in_1_have_their_partners_height_to_20():
    """orbit_height's partner detour changes no height: every paired
    canonical code ending in 1 with n <= 20 has the height of its partner,
    the code with its last symbol changed."""
    start = time.perf_counter()
    checked = 0
    for n in range(1, 21):
        for code in necklaces(n):
            if code.endswith("1") and is_paired(code):
                assert height(code) == height(flip_last(code)), code
                checked += 1
    elapsed = time.perf_counter() - start
    print(f"\npaired codes ending in 1 vs their partners, n <= 20: {checked} "
          f"heights agree, {elapsed:.1f} s")
    assert checked == 55_448
