"""Cross-checks at scale, left out of the default run.

Run with ``python3 -m pytest -m slow -s``; each test prints its counts.
"""
import random
import time
from fractions import Fraction

import pytest

from horseshoe.disks import forcing_oracle
from horseshoe.families import lone_catalog
from horseshoe.height import height, height_oracle, scope
from horseshoe.invariants import r_w
from horseshoe.orbits import q_in_Qw_sufficient
from horseshoe.survey import necklaces
from horseshoe.words import DomainError, Seq

pytestmark = pytest.mark.slow

F = Fraction


def test_formula_matches_disk_oracle_periods_9_10():
    """ac07's agreement check at periods 9 and 10, all 21 lone decorations.

    Inputs on which the oracle raises DomainError (a point on the boundary
    orbit of the family) are counted apart, not compared.
    """
    start = time.perf_counter()
    checked = refused = 0
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    for n in (9, 10):
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
    print(f"\nformula vs disk oracle, periods 9-10: {checked} agree, "
          f"{refused} refused by the oracle, {elapsed:.1f} s")
    assert checked > 0


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
