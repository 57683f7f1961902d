from fractions import Fraction

import pytest

from horseshoe.cli import main
from horseshoe.entropy import entropy_certificate, entropy_lower_bound
from horseshoe.families import (
    MAX_ONES_INDEX,
    DomainError,
    interwi_expected,
    lone_catalog,
    ones_decoration,
    pa_test,
    r_sequence,
    star_decoration,
    starforce_expected,
)
from horseshoe.height import cq_word, scope
from horseshoe.invariants import _plan, r_w
from horseshoe.survey import necklaces
from horseshoe.words import canonical_code

F = Fraction


def test_star_decoration_values():
    assert star_decoration(F(1, 3)) == ""
    assert star_decoration(F(1, 4)) == "0"
    assert star_decoration(F(3, 10)) == "0110110"
    assert star_decoration(F(2, 5)) == "11"
    assert star_decoration(F(1, 6)) == "000"


def test_star_decoration_strips_cq():
    for n in range(3, 18):
        for m in range(1, (n - 1) // 2 + 1):
            q = F(m, n)
            if q.denominator != n:
                continue
            c = cq_word(q)
            w = star_decoration(q)
            assert c == "10" + w + "01"
            assert scope(w) == q


def test_star_decoration_domain():
    with pytest.raises(DomainError):
        star_decoration(F(1, 2))
    with pytest.raises(DomainError):
        star_decoration(F(0, 1))


def test_starforce_expected():
    assert starforce_expected(F(1, 3), F(2, 5), F(1, 4)) == F(1, 4)
    assert starforce_expected(F(2, 5), F(1, 3), F(1, 4)) == F(2, 5)
    assert starforce_expected(F(1, 3), F(2, 5), F(1, 3)) == F(1, 3)
    with pytest.raises(DomainError):
        starforce_expected(F(1, 2), F(1, 3), F(1, 4))
    with pytest.raises(DomainError):
        starforce_expected(F(1, 3), F(2, 5), F(2, 5))  # q' must stay below m'/n'


def test_starforce_matches_invariant_spot():
    # r of the star word of m/n, measured on the family of m'/n' at q'
    for mn, mpnp, qp in [
        (F(1, 3), F(2, 5), F(1, 4)),
        (F(2, 5), F(1, 3), F(1, 4)),
        (F(1, 4), F(1, 3), F(1, 5)),
        (F(1, 3), F(1, 3), F(1, 4)),
        (F(2, 5), F(2, 5), F(1, 3)),
        (F(2, 7), F(1, 4), F(1, 5)),
    ]:
        code = canonical_code(cq_word(qp) + "0" + star_decoration(mpnp) + "0")
        assert r_w(star_decoration(mn), code) == starforce_expected(mn, mpnp, qp)


def test_ones_decoration():
    assert ones_decoration(0) == "1"
    assert ones_decoration(2) == "11111"
    with pytest.raises(DomainError):
        ones_decoration(-1)


def test_interwi_expected():
    assert interwi_expected(1, 2, F(1, 4)) == F(1, 4)
    assert interwi_expected(2, 2, F(1, 4)) == F(1, 4)
    assert interwi_expected(2, 1, F(1, 4)) == F(1, 2)
    with pytest.raises(DomainError):
        interwi_expected(-1, 0, F(1, 4))
    with pytest.raises(DomainError):
        interwi_expected(0, 0, F(1, 2))


def test_interwi_matches_invariant_spot():
    for i, j, q in [(0, 0, F(1, 3)), (0, 1, F(1, 3)), (1, 0, F(1, 4)), (1, 2, F(2, 5))]:
        code = canonical_code(cq_word(q) + "0" + ones_decoration(i) + "0")
        assert r_w(ones_decoration(j), code) == interwi_expected(i, j, q)


def test_r_sequence():
    rs = r_sequence("100111111", 4)
    assert rs == sorted(rs, reverse=True)
    assert rs[0] == r_w("1", "100111111")
    for code in necklaces(9):
        rs = r_sequence(code, 4)
        assert all(a >= b for a, b in zip(rs, rs[1:]))
        # stabilizes once the decoration outgrows the code
        assert rs[1] == rs[2] == rs[3] == rs[4]
    with pytest.raises(DomainError):
        r_sequence("100111111", -1)


def test_r_sequence_matches_one_invariant_per_call():
    """One scan per code gives what one r_w call per decoration gives."""
    for n in range(1, 13):
        for code in necklaces(n):
            want = [r_w(ones_decoration(i), code) for i in range(5)]
            assert r_sequence(code, 4) == want, code


def test_pa_test():
    assert pa_test("100111111") == "Certified"
    assert pa_test("10") == "Unknown"
    assert pa_test("1000001") == "Unknown"
    assert pa_test("1") == "Unknown"


def test_ones_index_refused_above_limit(monkeypatch, capsys):
    """r_sequence, and pa_test and the entropy certificates through it, refuse
    odd-ones indices above MAX_ONES_INDEX before compiling a plan; the limit
    itself runs."""
    code = "10011010"
    longest = "1" + "0" * (2 * MAX_ONES_INDEX + 7)
    _plan.cache_clear()
    for refused in (
        lambda: r_sequence(code, MAX_ONES_INDEX + 1),
        lambda: pa_test(longest + "0"),
        lambda: entropy_certificate(code, MAX_ONES_INDEX + 1),
        lambda: entropy_lower_bound(code, MAX_ONES_INDEX + 1),
    ):
        with pytest.raises(DomainError, match=f"limited to {MAX_ONES_INDEX}"):
            refused()
    for argv in (
        ["family", "r-seq", code, "--imax", str(MAX_ONES_INDEX + 1)],
        ["family", "pa", longest + "0"],
        ["entropy", code, "--imax", str(MAX_ONES_INDEX + 1)],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"limited to {MAX_ONES_INDEX}" in err
    assert _plan.cache_info().misses == 0

    seen = []

    def values(code, decorations):
        seen.append(len(decorations))
        return [F(1, 2)] * len(decorations)

    monkeypatch.setattr("horseshoe.families._values", values)
    assert len(r_sequence(code, MAX_ONES_INDEX)) == MAX_ONES_INDEX + 1
    assert pa_test(longest) == "Unknown"
    assert entropy_certificate(code, MAX_ONES_INDEX) is None
    assert seen == [MAX_ONES_INDEX + 1] * 3


def test_lone_catalog():
    assert lone_catalog(0) == [""]
    assert lone_catalog(1) == ["", "0", "1"]
    assert lone_catalog(2) == ["", "0", "1", "00", "11"]
    assert len(lone_catalog(5)) == 21
    assert "10101" in lone_catalog(5)
    assert "01001" in lone_catalog(5)
    with pytest.raises(DomainError):
        lone_catalog(6)


def test_lone_self_value():
    # on its own family codes a lone word recovers the height exactly
    for w in lone_catalog(3):
        for den in range(3, 10):
            for num in range(1, (den - 1) // 2 + 1):
                q = F(num, den)
                if q.denominator != den or q >= scope(w):
                    continue
                for x in "01":
                    for y in "01":
                        code = cq_word(q) + x + w + y
                        from horseshoe.orbits import orbit_height
                        from horseshoe.words import is_primitive

                        if not is_primitive(code) or orbit_height(code) != q:
                            continue
                        assert r_w(w, canonical_code(code)) == q
