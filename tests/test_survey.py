from fractions import Fraction

import pytest

from horseshoe import survey
from horseshoe.cli import main
from horseshoe.height import height, scope
from horseshoe.invariants import r_star, r_w
from horseshoe.survey import (
    _DEFAULT_DECORATIONS,
    MAX_EXACT_PERIOD,
    STAR,
    DomainError,
    decinv_table,
    necklaces,
    universality_sample,
    universality_scan,
)
from horseshoe.words import canonical_code, is_primitive

F = Fraction


def _moreau(n):
    # number of binary necklaces of exact period n
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(n // d) * 2**d
    return total // n


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def test_necklace_counts():
    for n in range(1, 13):
        assert len(necklaces(n)) == _moreau(n)


def test_necklaces_are_canonical_and_complete():
    for n in range(1, 9):
        got = set(necklaces(n))
        brute = {
            canonical_code(format(k, f"0{n}b"))
            for k in range(2**n)
            if is_primitive(format(k, f"0{n}b"))
        }
        assert got == brute


def test_necklaces_domain():
    with pytest.raises(DomainError):
        necklaces(0)


EXPECTED_PERIOD8 = [
    ("10111010", ["1/2", "1/3", "1/4", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
    ("1011111.", ["1/2", "1/3", "1/4", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
    ("1011011.", ["1/2", "1/3", "1/4", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
    ("1001.11.", ["1/2", "1/3", "1/4", "1/2", "1/5", "1/3", "1/6", "1/2", "1/2"]),
    ("1001.10.", ["1/3", "1/3", "1/4", "1/3", "1/5", "1/3", "1/6", "1/3", "1/3"]),
    ("1001101.", ["1/3", "1/3", "1/4", "1/3", "1/5", "1/3", "1/6", "1/3", "1/3"]),
    ("10001.0(.)", ["1/2", "1/3", "1/4", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
    ("10001.1.", ["1/2", "1/4", "1/4", "1/4", "1/5", "1/4", "1/6", "1/2", "1/4"]),
    ("100001..", ["1/2", "1/5", "1/5", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
    ("1000001.", ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6", "1/6", "1/6", "1/6"]),
    ("1000000.", ["1/2", "1/3", "1/4", "1/2", "1/5", "2/5", "1/6", "1/2", "1/2"]),
]


def test_period8_table():
    table = decinv_table(8)
    assert table.period == 8
    assert table.decorations == (STAR, "", "0", "1", "00", "11", "000", "101", "111")
    assert [str(v) for v in table.scope_row] == [
        "1/2",
        "1/3",
        "1/4",
        "1/2",
        "1/5",
        "2/5",
        "1/6",
        "1/2",
        "1/2",
    ]
    assert len(table.rows) == len(EXPECTED_PERIOD8)
    assert sum(len(r.members) for r in table.rows) == 30
    for row, (label, values) in zip(table.rows, EXPECTED_PERIOD8):
        assert row.label == label
        assert [str(v) for v in row.values] == values


def test_table_group_sizes():
    table = decinv_table(8)
    sizes = [len(r.members) for r in table.rows]
    assert sizes == [1, 2, 2, 4, 4, 2, 3, 4, 4, 2, 2]
    for row in table.rows:
        for member in row.members:
            assert canonical_code(member) == member
            assert len(member) == 8


def test_table_custom_decorations():
    table = decinv_table(5, decorations=(STAR, "", "1"))
    assert table.decorations == (STAR, "", "1")
    assert all(len(r.values) == 3 for r in table.rows)
    with pytest.raises(DomainError):
        decinv_table(2)


def test_universality_scan():
    frac = universality_scan("1", F(1, 3), 10)
    assert 0 < frac <= 1
    assert frac.denominator <= len(necklaces(10))
    with pytest.raises(DomainError):
        universality_scan("1", F(1, 2), 8)


def test_universality_sample_deterministic():
    a = universality_sample("1", F(1, 3), 30, 200, seed=7)
    b = universality_sample("1", F(1, 3), 30, 200, seed=7)
    assert a == b
    assert 0 <= a <= 1
    assert a.denominator <= 200


def test_table_values_match_one_invariant_per_call():
    """The table's shared evaluator per member agrees with r_star and r_w."""
    for n in range(3, 13):
        table = decinv_table(n)
        assert table.decorations == _DEFAULT_DECORATIONS
        for row in table.rows:
            for member in row.members:
                want = [
                    r_star(member) if d == STAR else r_w(d, member)
                    for d in table.decorations
                ]
                assert list(row.values) == want, (n, member)


def test_exact_enumeration_refused_above_limit(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"necklaces({n}) was called")

    monkeypatch.setattr(survey, "necklaces", refuse)
    n = MAX_EXACT_PERIOD + 1
    with pytest.raises(DomainError, match="--sample"):
        decinv_table(n)
    with pytest.raises(DomainError, match="--sample"):
        universality_scan("1", F(1, 3), n)
    for argv in (["table", "--period", str(n)], ["scan", "1", "1/3", str(n)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "scan --sample" in err
    with pytest.raises(AssertionError, match="was called"):
        universality_scan("1", F(1, 3), MAX_EXACT_PERIOD)


def test_sample_reads_rays_lazily():
    """The sampled scan reads no more rays than one lazy pass per code.

    Under "both" a backward ray is read only when its forward ray would
    beat the running minimum of the whole r_dir call.  With that minimum
    this call makes 9,923 cold height misses; a minimum kept per window
    instead makes 10,005.
    """
    height.cache_clear()
    scope.cache_clear()
    universality_sample("1", F(2, 5), 64, 200, 1)
    assert height.cache_info().misses <= 9923
