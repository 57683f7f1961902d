from fractions import Fraction

import pytest

from horseshoe import orbits
from horseshoe.height import cq_word, finite_order_word
from horseshoe.orbits import (
    DECORATED,
    FINITE_ORDER,
    FIXED_POINT,
    NBT,
    PERIOD_TWO,
    REDUCIBLE,
    DomainError,
    classify,
    is_paired,
    orbit_exists,
    orbit_height,
    q_in_Qw_sufficient,
    reverse_orbit,
)
from horseshoe.survey import necklaces
from horseshoe.words import canonical_code, is_primitive

F = Fraction


def test_is_paired():
    assert not is_paired("10")
    assert not is_paired("1011")  # flipping the last symbol collapses it
    assert is_paired("10010")
    assert is_paired("1")
    assert is_paired("10110110")


def test_orbit_height_values():
    assert orbit_height("10010") == F(1, 3)
    assert orbit_height("1000001") == F(1, 7)
    assert orbit_height("10000010") == F(1, 6)
    assert orbit_height("10000011") == F(1, 6)
    assert orbit_height("1") == F(1, 2)
    assert orbit_height("0") == F(1, 2)
    assert orbit_height("10") == F(1, 2)
    assert orbit_height("10110110") == F(3, 8)
    assert orbit_height("10110111") == F(3, 8)


def test_orbit_height_is_rotation_invariant():
    assert orbit_height("10101") == F(2, 5)
    assert orbit_height("01011") == F(2, 5)
    assert orbit_height("11010") == F(2, 5)
    assert orbit_height("00101") == F(1, 3)


def test_orbit_height_of_nbt_spellings():
    for n in range(3, 12):
        for m in range(1, (n - 1) // 2 + 1):
            q = F(m, n)
            if q.denominator != n:
                continue
            c = cq_word(q)
            assert orbit_height(c + "0") == q
            assert orbit_height(c + "1") == q
            assert orbit_height(finite_order_word(q) + "0") == q
            assert orbit_height(finite_order_word(q) + "1") == q


def test_classify_small_orbits():
    assert classify("1").kind == FIXED_POINT
    assert classify("0").kind == FIXED_POINT
    assert classify("1").height == F(1, 2)
    assert classify("10").kind == PERIOD_TWO
    assert classify("1011").kind == REDUCIBLE
    assert classify("1101").kind == REDUCIBLE


def test_classify_finite_order():
    c = classify("10110110")
    assert c.kind == FINITE_ORDER
    assert c.height == F(3, 8)
    assert c.decoration is None
    assert classify("1001100").kind == FINITE_ORDER
    assert classify("1001100").height == F(2, 7)
    assert classify("10000000").kind == FINITE_ORDER
    assert classify("10000000").height == F(1, 8)


def test_classify_nbt():
    c = classify("10000011")
    assert c.kind == NBT
    assert c.height == F(1, 6)
    assert classify("10000010").kind == NBT
    assert classify("100011").kind == NBT
    assert classify("100011").height == F(1, 4)


def test_classify_decorated():
    c = classify("10010110")
    assert c.kind == DECORATED
    assert c.height == F(1, 3)
    assert c.decoration == "11"
    c = classify("10000011100")
    assert c.kind == DECORATED
    assert c.height == F(1, 6)
    assert c.decoration == "10"
    c = classify("10111010")
    assert c.kind == DECORATED
    assert c.height == F(1, 2)
    assert c.decoration == "101"
    c = classify("1001011")
    assert c.kind == DECORATED
    assert c.height == F(1, 3)
    assert c.decoration == "1"


def test_classify_rejects_imprimitive():
    with pytest.raises(DomainError):
        classify("1010")
    with pytest.raises(DomainError):
        classify("11")


@pytest.mark.parametrize("q", [F(1, 8), F(1, 7), F(1, 6), F(1, 5)])
def test_classify_refuses_codes_that_do_not_fit_their_height(monkeypatch, q):
    # with every height forced to q, a period-8 code classifies only if it
    # begins with d_q (finite order, n = 8) or c_q (NBT, n = 6; decorated,
    # n = 5); no kind has period n + 1
    monkeypatch.setattr(orbits, "_canonical_height", lambda code: q)
    prefix = {8: finite_order_word(q), 6: cq_word(q), 5: cq_word(q)}.get(q.denominator)
    fits = [code for code in necklaces(8) if prefix and code.startswith(prefix)]
    assert len(fits) == {8: 2, 7: 0, 6: 2, 5: 4}[q.denominator]
    for code in necklaces(8):
        if code in fits:
            assert classify(code).height == q
        else:
            with pytest.raises(DomainError, match="cannot classify"):
                classify(code)


def test_classify_roundtrip_on_necklaces():
    for n in range(1, 15):
        for code in necklaces(n):
            cls = classify(code)
            assert cls.period == n
            assert cls.height == orbit_height(code)
            if cls.kind == FINITE_ORDER:
                assert n == cls.height.denominator
                assert code.startswith(finite_order_word(cls.height))
            elif cls.kind == NBT:
                assert n == cls.height.denominator + 2
                assert code.startswith(cq_word(cls.height))
            elif cls.kind == DECORATED:
                q = cls.height
                w = cls.decoration
                assert n >= q.denominator + 3
                assert len(w) == n - q.denominator - 3
                spelled = cq_word(q) + cls.x + w + cls.y
                assert spelled == code
            else:
                assert n <= 2 or cls.kind == REDUCIBLE


def test_orbit_exists():
    assert orbit_exists(F(1, 3), "11") == 4
    assert orbit_exists(F(2, 5), "00") == 0
    assert orbit_exists(F(1, 4), "0") == 3


def test_orbit_exists_counts_primitive_spellings():
    q, w = F(1, 3), "11"
    hits = 0
    for x in "01":
        for y in "01":
            code = cq_word(q) + x + w + y
            if is_primitive(code) and orbit_height(code) == q:
                hits += 1
    assert hits == orbit_exists(q, w)


def test_q_in_qw_sufficient():
    assert not q_in_Qw_sufficient(F(1, 3), "11")
    assert not q_in_Qw_sufficient(F(1, 5), "11")
    assert q_in_Qw_sufficient(F(1, 6), "11")
    assert q_in_Qw_sufficient(F(1, 4), "")
    assert not q_in_Qw_sufficient(F(1, 5), "")
    with pytest.raises(DomainError):
        q_in_Qw_sufficient(F(1, 3), "")  # the scope of the empty word
    with pytest.raises(DomainError):
        q_in_Qw_sufficient(F(2, 5), "0")  # above the scope of "0"


def test_reverse_orbit():
    assert reverse_orbit("10010") == "10010"
    assert reverse_orbit("10010110") == canonical_code("01101001")
    for n in range(1, 9):
        for code in necklaces(n):
            assert reverse_orbit(reverse_orbit(code)) == code
