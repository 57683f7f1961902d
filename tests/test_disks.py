from fractions import Fraction
from itertools import product

import pytest

from horseshoe.disks import (
    DomainError,
    disk_specs,
    forcing_oracle,
    in_disk,
    intersection_counts,
)
from horseshoe.height import cq_word, scope
from horseshoe.survey import necklaces
from horseshoe.words import (
    EQ,
    GT,
    OrbitPoint,
    Seq,
    canonical_code,
    is_primitive,
    unimodal_cmp,
)

F = Fraction


def test_disk_specs_shape():
    specs = disk_specs("10", F(1, 4))
    assert [s.name for s in specs] == ["A", "B", "C", "D"]
    a, b, c, d = specs
    # A and B thresholds carry the reversed word, C and D the word itself
    assert str(a.principal) == "(100010010)"
    assert str(a.shifted) == "(100100011)"
    assert str(b.principal) == "(100011011)"
    assert str(b.shifted) == "(101100010)"
    assert str(c.principal) == "(100010100)"
    assert str(c.shifted) == "(010100011)"
    assert str(d.principal) == "(100011101)"
    assert str(d.shifted) == "(011100010)"


def test_disk_specs_domain():
    with pytest.raises(DomainError):
        disk_specs("11", F(2, 5))  # at the scope
    with pytest.raises(DomainError):
        disk_specs("11", F(0, 1))


def test_counts_on_boundary_families():
    # orbits of the form c_q' 0 w 0 meet exactly the principal disks
    code = canonical_code(cq_word(F(1, 4)) + "0" + "11" + "0")
    assert intersection_counts(code, "11", F(1, 3)) == (1, 0, 1, 0)
    code = canonical_code(cq_word(F(1, 4)) + "0" + "1" + "0")
    assert intersection_counts(code, "1", F(1, 3)) == (0, 1, 0, 1)


def test_counts_reject_bad_input():
    with pytest.raises(DomainError):
        intersection_counts("1010", "1", F(1, 3))
    # the boundary family itself is excluded
    with pytest.raises(DomainError):
        intersection_counts(canonical_code(cq_word(F(1, 4)) + "0110"), "11", F(1, 4))
    # every spelling of every boundary orbit c_q x w y, |w| <= 3, den(q) <= 12
    qs = {F(m, n) for n in range(2, 13) for m in range(1, n // 2 + 1)}
    cases = 0
    for w in ("".join(t) for k in range(4) for t in product("01", repeat=k)):
        for q in (q for q in qs if q < scope(w)):
            for x, y in product("01", repeat=2):
                word = cq_word(q) + x + w + y
                if not is_primitive(word):
                    continue
                for k in range(len(word)):
                    with pytest.raises(DomainError, match="boundary orbit"):
                        intersection_counts(word[k:] + word[:k], w, q)
                    cases += 1
    assert cases == 11688


def test_forcing_oracle_values():
    assert forcing_oracle("10010110", "11", F(9, 25))
    assert not forcing_oracle("10010110", "11", F(8, 25))


def test_forcing_oracle_needs_fine_denominator():
    with pytest.raises(DomainError):
        forcing_oracle("10010110", "11", F(1, 3))


def test_in_disk_is_strict():
    # the orbit of c_q 0 w 0 itself lies on the boundary of disk A
    specs = disk_specs("11", F(1, 3))
    code = "10010110"
    with pytest.raises(DomainError):
        for k in range(len(code)):
            in_disk(OrbitPoint(code, k), specs[0])


def test_even_containments_spot():
    # D inside C and B inside A, pointwise
    for code in ["10010110", "100101100", "1001011010"]:
        for q in [F(1, 3), F(2, 7), F(3, 10)]:
            specs = disk_specs("11", q)
            a, b, c, d = specs
            for k in range(len(code)):
                pt = OrbitPoint(code, k)
                try:
                    if in_disk(pt, d):
                        assert in_disk(pt, c)
                    if in_disk(pt, b):
                        assert in_disk(pt, a)
                except DomainError:
                    continue


def _reference_counts(code, w, q):
    """intersection_counts point by point: fresh Seq rays, one unimodal_cmp each."""
    specs = disk_specs(w, q)
    if not is_primitive(code):
        raise DomainError(f"imprimitive code: {code}")
    n = len(code)

    def forward(i):
        i %= n
        return Seq.periodic(code[i:] + code[:i])

    def backward(i):
        i %= n
        return Seq.periodic((code[i:] + code[:i])[::-1])

    counts = [0, 0, 0, 0]
    for p in range(n):
        for k, spec in enumerate(specs):
            if spec.name in ("A", "B"):
                first, second = backward(p), forward(p + 1)
            else:
                first, second = forward(p), backward(p - 1)
            side1 = unimodal_cmp(first, spec.principal)
            side2 = unimodal_cmp(second, spec.shifted)
            if side1 == EQ or side2 == EQ:
                raise DomainError("point lies on the boundary orbit of the family")
            counts[k] += side1 == GT and side2 == GT
    return tuple(counts)


def _outcome(counts, code, w, q):
    try:
        return counts(code, w, q)
    except DomainError as exc:
        return str(exc)


def test_counts_match_per_point_reference():
    # every necklace with n <= 8, every |w| <= 2, every q < scope(w) with den <= 10
    qs = {F(m, n) for n in range(2, 11) for m in range(1, n // 2 + 1)}
    words = ["".join(t) for k in range(3) for t in product("01", repeat=k)]
    cases = boundary = 0
    for n in range(1, 9):
        for code in necklaces(n):
            for w in words:
                for q in (q for q in qs if q < scope(w)):
                    got = _outcome(intersection_counts, code, w, q)
                    assert got == _outcome(_reference_counts, code, w, q), (code, w, q)
                    cases += 1
                    boundary += isinstance(got, str)
    assert (cases, boundary) == (4899, 20)
