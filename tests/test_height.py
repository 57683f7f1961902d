import importlib
from fractions import Fraction
from itertools import product

import pytest

from horseshoe.families import lone_catalog
from horseshoe.height import (
    MAX_CQ_DENOMINATOR,
    MAX_ORACLE_LENGTH,
    DomainError,
    cq_word,
    finite_order_word,
    height,
    height_oracle,
    scope,
    starlem_check,
)
from horseshoe.words import GT, LT, Seq, unimodal_cmp

F = Fraction


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


def test_cq_table():
    for q, word in CQ_TABLE.items():
        assert cq_word(q) == word


def test_cq_basics():
    assert cq_word(F(1, 2)) == "101"
    for q in CQ_TABLE:
        w = cq_word(q)
        assert len(w) == q.denominator + 1
        assert w == w[::-1]  # palindrome
        assert w.count("1") == 2 * q.numerator


def test_cq_palindromes_larger():
    for n in range(2, 41):
        for m in range(1, n // 2 + 1):
            if F(m, n).denominator != n:
                continue
            w = cq_word(F(m, n))
            assert w == w[::-1]
            assert w[:2] == "10" or w == "101"


def test_cq_domain():
    with pytest.raises(DomainError):
        cq_word(F(2, 3))
    with pytest.raises(DomainError):
        cq_word(F(0, 1))
    with pytest.raises(DomainError):
        cq_word(F(-1, 4))
    assert len(cq_word(F(1, MAX_CQ_DENOMINATOR))) == MAX_CQ_DENOMINATOR + 1
    with pytest.raises(DomainError, match="denominators up to"):
        cq_word(F(1, MAX_CQ_DENOMINATOR + 1))
    with pytest.raises(DomainError, match="denominators up to"):
        finite_order_word(F(3, 10**7))


def test_cq_monotone():
    # lower height, higher sequence: q < q' makes (c_q 0)^inf the larger ray
    qs = sorted(
        {F(m, n) for n in range(2, 21) for m in range(1, n // 2 + 1)}
    )
    seqs = [Seq.periodic(cq_word(q) + "0") for q in qs]
    for a, b in zip(seqs, seqs[1:]):
        assert unimodal_cmp(b, a) == LT


def test_finite_order_word():
    assert finite_order_word(F(1, 3)) == "10"
    assert finite_order_word(F(2, 5)) == "1011"
    assert finite_order_word(F(3, 8)) == "1011011"
    for q in CQ_TABLE:
        assert finite_order_word(q) == cq_word(q)[: q.denominator - 1]
    with pytest.raises(DomainError):
        finite_order_word(F(0))


HEIGHTS = [
    ("10111100(11)", F(2, 5)),
    ("(10010)", F(1, 3)),
    ("1(0)", F(0, 1)),
    ("(10)", F(1, 2)),
    ("(0)", F(1, 2)),
    ("10(1)", F(1, 2)),
    ("100(1)", F(1, 3)),
    ("(1001)", F(1, 4)),
    ("(1000001)", F(1, 7)),
    ("(10000011)", F(1, 6)),
    ("(10110110)", F(3, 8)),
    ("(10110111)", F(3, 8)),
    ("(10011100)", F(1, 3)),
    ("(10001100)", F(1, 4)),
    ("(10111010)", F(1, 2)),
    ("(1011)", F(1, 2)),
    ("(10110)", F(2, 5)),
    ("(101)", F(1, 3)),
    ("(100)", F(1, 3)),
    ("(1000)", F(1, 4)),
    ("(10000)", F(1, 5)),
    ("(10001001)", F(1, 4)),
    ("(1000000)", F(1, 7)),
    ("(1000010110)", F(1, 5)),
    ("(10101)", F(1, 2)),
]


@pytest.mark.parametrize("text,want", HEIGHTS)
def test_height_values(text, want):
    assert height(Seq.parse(text)) == want


def test_height_of_zero_start():
    # anything at or below (10)^inf sits at height one half
    assert height(Seq("01", "10")) == F(1, 2)
    assert height(Seq.periodic("0011")) == F(1, 2)
    assert height(Seq("110", "10")) == F(1, 2)


def test_height_of_cq_sequences():
    for q, word in CQ_TABLE.items():
        assert height(Seq.periodic(word + "0")) == q
        assert height(Seq.periodic(finite_order_word(q) + "0")) == q


def test_height_of_plain_word():
    # a word w means w^inf, imprimitive and constant words included
    for n in range(1, 13):
        for k in range(1 << n):
            w = format(k, f"0{n}b")
            assert height(w) == height(Seq.periodic(w)), w
    for bad in ("", "102"):
        for _ in range(2):
            with pytest.raises(DomainError):
                height(bad)


def test_height_oracle_matches_on_goldens():
    for text, want in HEIGHTS:
        c = Seq.parse(text)
        assert height_oracle(c, max_den=64) == want


def test_height_oracle_probes_past_cq_limit(monkeypatch):
    # the oracle's probe denominators follow the sequence's length, so the
    # limit on c_q typed by a user does not refuse a long sequence
    # (the package's name height is the function, so the module is imported)
    monkeypatch.setattr(importlib.import_module("horseshoe.height"), "MAX_CQ_DENOMINATOR", 8)
    with pytest.raises(DomainError):
        cq_word(F(1, 9))
    c = Seq.periodic("1001011")
    assert height_oracle(c, max_den=64) == height(c) == F(1, 3)


def test_height_oracle_domain():
    # max_den = 4 * MAX_ORACLE_LENGTH runs in the test below; above it the
    # descent's cost, quadratic in max_den, is refused
    for max_den in (1, 4 * MAX_ORACLE_LENGTH + 1):
        with pytest.raises(DomainError, match="max_den must lie between"):
            height_oracle(Seq.periodic("10010"), max_den=max_den)
    # 1/7 is not representable with denominators up to 5
    with pytest.raises(DomainError):
        height_oracle(Seq.periodic("1000001"), max_den=5)


def test_height_oracle_refuses_long_sequences():
    # the limit counts preperiod and period after normalization
    c = Seq.periodic("1" + "0" * (MAX_ORACLE_LENGTH - 1))
    assert height_oracle(c, max_den=4 * MAX_ORACLE_LENGTH) == height(c)
    for c in (
        Seq.periodic("1" + "0" * MAX_ORACLE_LENGTH),
        Seq("1" + "0" * MAX_ORACLE_LENGTH, "1"),
    ):
        with pytest.raises(DomainError, match="limited to"):
            height_oracle(c, max_den=4 * MAX_ORACLE_LENGTH)


def test_height_order_reversing_small():
    seqs = [Seq.parse(t) for t, _ in HEIGHTS]
    for s in seqs:
        for t in seqs:
            if unimodal_cmp(s, t) == GT:
                assert height(s) <= height(t)


def _rationals(max_den):
    """Every q in (0, 1/2] with denominator at most max_den, in lowest terms."""
    return sorted({F(m, d) for d in range(2, max_den + 1) for m in range(1, d // 2 + 1)})


def _threshold(q):
    """T_q = 10 (c_q[2:] 1)^inf, the unimodal-greatest sequence of height q."""
    return Seq("10", cq_word(q)[2:] + "1")


def test_threshold_has_height_q():
    qs = _rationals(30)
    assert len(qs) == 139
    for q in qs:
        T = _threshold(q)
        assert T.pre == "10", q  # T_q is never purely periodic
        assert height(T) == q, q


def test_height_below_q_iff_above_threshold():
    """h(s) < q exactly when s >_U T_q, on every pre(per) with |pre| <= 5,
    |per| <= 6 and |pre| + |per| <= 8, for every q <= 1/2 up to denominator 14."""
    seqs = {
        Seq("".join(pre), "".join(per))
        for n in range(1, 7)
        for per in product("01", repeat=n)
        for k in range(min(5, 8 - n) + 1)
        for pre in product("01", repeat=k)
    }
    below = 0
    for q in _rationals(14):
        T = _threshold(q)
        for s in seqs:
            assert (height(s) < q) == (unimodal_cmp(s, T) == GT), (q, str(s))
            below += height(s) < q
    assert below > 0


SCOPES = {
    "": F(1, 3),
    "0": F(1, 4),
    "1": F(1, 2),
    "00": F(1, 5),
    "11": F(2, 5),
    "000": F(1, 6),
    "101": F(1, 2),
    "111": F(1, 2),
}


def test_scope_values():
    for w, want in SCOPES.items():
        assert scope(w) == want


def _reference_scope(w):
    """The scope by its definition: the least height of every rotation of 10w0."""
    code = "10" + w + "0"
    return min(height(code[i:] + code[:i]) for i in range(len(code)))


def test_scope_matches_least_rotation_height():
    words = ["".join(bits) for n in range(11) for bits in product("01", repeat=n)]
    assert len(words) == 2047
    for w in words:
        assert scope(w) == _reference_scope(w), w


def test_scope_reads_one_height():
    """A cold scope(w) asks height for one ray, the cycle's greatest rotation."""
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    for w in decorations:
        height.cache_clear()
        scope.cache_clear()
        scope(w)
        assert height.cache_info().misses == 1, w


def test_scope_of_star_words():
    from horseshoe.families import star_decoration

    for n in range(3, 16):
        for m in range(1, (n - 1) // 2 + 1):
            q = F(m, n)
            if q.denominator != n:
                continue
            assert scope(star_decoration(q)) == q


def test_starlem_domain():
    with pytest.raises(DomainError):
        starlem_check(F(1, 3), 0, Seq.periodic("10"))
    with pytest.raises(DomainError):
        starlem_check(F(1, 3), 3, Seq.periodic("10"))


def test_starlem_small():
    f = Seq.periodic("10")
    for q in [F(1, 3), F(2, 5), F(1, 4), F(3, 7)]:
        runs = [b for b in cq_word(q).split("1") if b]
        for r in range(1, len(runs) + 1):
            assert starlem_check(q, r, f)
