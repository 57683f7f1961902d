from fractions import Fraction

import pytest

from horseshoe.invariants import (
    AT_THRESHOLD,
    FORCED,
    NOT_FORCED,
    DomainError,
    forces,
    lam,
    mu,
    nu,
    r_dir,
    r_star,
    r_w,
    rhe_is_half,
)
from horseshoe.height import scope
from horseshoe.survey import _DEFAULT_DECORATIONS, STAR, necklaces
from horseshoe.words import Seq, backward_ray, canonical_code, forward_ray

F = Fraction

EXAMPLE = "100010111001010"


def test_worked_example():
    assert mu("1", EXAMPLE) == F(1, 4)
    assert nu("1", EXAMPLE) == F(1, 3)
    assert lam("1", EXAMPLE) == F(1, 3)
    assert r_w("1", EXAMPLE) == F(1, 3)


def test_r_w_combination_rule():
    for code in necklaces(8):
        for w in ["", "0", "1", "11"]:
            assert r_w(w, code) == min(lam(w, code), max(mu(w, code), nu(w, code)))


def test_invariant_capped_by_scope():
    for code in necklaces(7):
        for w in ["", "0", "1", "00", "11"]:
            assert r_w(w, code) <= scope(w)


def test_r_star_values():
    assert r_star("1000001") == F(1, 2)
    assert r_star("10000010") == F(1, 6)
    assert r_star("10000011") == F(1, 6)
    assert r_star("10010110") == F(1, 2)
    assert r_star("10011010") == F(1, 3)


def test_r_star_bounds_r_w():
    # the star invariant is the decoration-free cap
    for code in necklaces(8):
        assert r_star(code) <= F(1, 2)


def test_period8_spot_values():
    # scattered entries of the period-8 table
    assert r_w("", "10111010") == F(1, 3)
    assert r_w("0", "10111010") == F(1, 4)
    assert r_w("11", "10111010") == F(2, 5)
    assert r_w("11", "10010110") == F(1, 3)
    assert r_w("", "10010100") == F(1, 3)
    assert r_star("10010100") == F(1, 3)
    assert r_w("", "10001010") == F(1, 4)
    assert r_w("1", "10001010") == F(1, 4)
    assert r_w("111", "10001010") == F(1, 4)
    assert r_w("", "10000100") == F(1, 5)
    assert r_w("0", "10000100") == F(1, 5)
    assert r_w("101", "10000100") == F(1, 2)
    assert r_w("000", "10000100") == F(1, 6)
    assert r_w("11", "10000011") == F(1, 6)
    assert r_star("10000000") == F(1, 2)


def test_reversal_exchanges_mu_and_nu():
    for code in necklaces(8):
        rev = canonical_code(code[::-1])
        for w in ["", "0", "1", "01", "11", "100"]:
            wrev = w[::-1]
            assert lam(wrev, rev) == lam(w, code)
            assert mu(wrev, rev) == nu(w, code)
            assert nu(wrev, rev) == mu(w, code)
            assert r_w(wrev, rev) == r_w(w, code)


def test_forces_verdicts():
    assert forces(EXAMPLE, "1", F(2, 5)) == FORCED
    assert forces(EXAMPLE, "1", F(1, 4)) == NOT_FORCED
    assert forces(EXAMPLE, "1", F(1, 3)) == AT_THRESHOLD
    assert forces("10010110", "11", F(9, 25)) == FORCED
    assert forces("10010110", "11", F(8, 25)) == NOT_FORCED


def test_forces_domain():
    with pytest.raises(DomainError):
        forces(EXAMPLE, "1", F(1, 2))  # at the scope of "1"
    with pytest.raises(DomainError):
        forces(EXAMPLE, "", F(1, 3))  # at the scope of the empty word
    with pytest.raises(DomainError):
        forces(EXAMPLE, "1", F(0, 1))


def test_rhe_is_half():
    assert rhe_is_half("10")
    assert not rhe_is_half("101")
    assert rhe_is_half("1001010")
    assert not rhe_is_half("1")
    assert rhe_is_half("10111010")  # contains an odd run of ones >= 3
    assert rhe_is_half("1011")
    assert not rhe_is_half("10110110")
    assert rhe_is_half("01010")  # cyclic occurrence across the seam


def test_dilution_shrinks_invariant():
    # Padding the block 10101 with k zeros on each side yields an orbit
    # whose invariant for w = "1" drops below 1/k, so arbitrarily small
    # thresholds are reached by explicit codes.
    for k in range(3, 7):
        code = canonical_code("10101" + "0" * (2 * k))
        assert r_w("1", code) < F(1, k)


def test_r_dir_rejects_unknown_direction():
    # "1" does not occur in 000, so the loop body never runs there
    for code in ("000", "0100"):
        with pytest.raises(DomainError):
            r_dir(code, ("1",), "sideways")


def test_rays_built_once_per_position(monkeypatch):
    code = "10001001001001"
    decorations = [d for d in _DEFAULT_DECORATIONS if d != STAR]
    for w in decorations:
        scope(w)
    forward_ray.cache_clear()
    backward_ray.cache_clear()
    built = []
    post_init = Seq.__post_init__

    def counted(seq):
        built.append(1)
        post_init(seq)

    monkeypatch.setattr(Seq, "__post_init__", counted)
    r_star(code)
    for w in decorations:
        r_w(w, code)
    # one forward and one backward ray per position, however many windows
    assert len(built) <= 2 * len(code)
    monkeypatch.undo()
    for build in (forward_ray, backward_ray):
        for bad in ("", "102"):
            for _ in range(2):
                with pytest.raises(DomainError):
                    build(bad, 0)
