import random
import types
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from horseshoe import disks
from horseshoe.disks import (
    DomainError,
    _members,
    disk_specs,
    forcing_oracle,
    in_disk,
    intersection_counts,
)
from horseshoe.families import lone_catalog
from horseshoe.height import cq_word, scope
from horseshoe.survey import necklaces
from horseshoe.words import (
    EQ,
    GT,
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
    assert (a.principal, a.shifted) == ("100010010", "100100011")
    assert (b.principal, b.shifted) == ("100011011", "101100010")
    assert (c.principal, c.shifted) == ("100010100", "010100011")
    assert (d.principal, d.shifted) == ("100011101", "011100010")


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
            in_disk(code, k, specs[0])


def test_even_containments_spot():
    # D inside C and B inside A, pointwise
    for code in ["10010110", "100101100", "1001011010"]:
        for q in [F(1, 3), F(2, 7), F(3, 10)]:
            specs = disk_specs("11", q)
            a, b, c, d = specs
            for k in range(len(code)):
                try:
                    if in_disk(code, k, d):
                        assert in_disk(code, k, c)
                    if in_disk(code, k, b):
                        assert in_disk(code, k, a)
                except DomainError:
                    continue


# One Seq per threshold word, however many orbits are compared against it.
_threshold = lru_cache(maxsize=None)(Seq.periodic)


def _reference_rows(code, specs):
    """Per-point membership by fresh Seq rays, one unimodal_cmp each; None on a tie."""
    n = len(code)

    def forward(i):
        i %= n
        return Seq.periodic(code[i:] + code[:i])

    def backward(i):
        i %= n
        return Seq.periodic((code[i:] + code[:i])[::-1])

    rows = []
    for spec in specs:
        principal, shifted = _threshold(spec.principal), _threshold(spec.shifted)
        row = []
        for p in range(n):
            if spec.name in ("A", "B"):
                first, second = backward(p), forward(p + 1)
            else:
                first, second = forward(p), backward(p - 1)
            side1 = unimodal_cmp(first, principal)
            side2 = unimodal_cmp(second, shifted)
            if side1 == EQ or side2 == EQ:
                row.append(None)
            else:
                row.append(side1 == GT and side2 == GT)
        rows.append(tuple(row))
    return rows


def _reference_counts(code, w, q):
    """intersection_counts point by point from the reference rows."""
    specs = disk_specs(w, q)
    if not is_primitive(code):
        raise DomainError(f"imprimitive code: {code}")
    rows = _reference_rows(code, specs)
    if any(None in row for row in rows):
        raise DomainError("point lies on the boundary orbit of the family")
    return tuple(sum(row) for row in rows)


def _outcome(counts, code, w, q):
    try:
        return counts(code, w, q)
    except DomainError as exc:
        return str(exc)


def test_counts_match_per_point_reference():
    # every necklace with n <= 8, every |w| <= 2, every q < scope(w) with den <= 10
    qs = {F(m, n) for n in range(2, 11) for m in range(1, n // 2 + 1)}
    words = ["".join(t) for k in range(3) for t in product("01", repeat=k)]
    cases = boundary = ties = 0
    for n in range(1, 9):
        for code in necklaces(n):
            for w in words:
                for q in (q for q in qs if q < scope(w)):
                    got = _outcome(intersection_counts, code, w, q)
                    assert got == _outcome(_reference_counts, code, w, q), (code, w, q)
                    cases += 1
                    boundary += isinstance(got, str)
                    if isinstance(got, str):
                        # a refused orbit: its ties are marked per point
                        specs = disk_specs(w, q)
                        rows = _members(code, specs)
                        assert rows == _reference_rows(code, specs), (code, w, q)
                        ties += sum(row.count(None) for row in rows)
    assert (cases, boundary, ties) == (4899, 20, 40)


def test_members_match_reference_on_long_codes():
    """Sliced ray keys against per-point Seq rays past the exhaustive sweep.

    Codes of length 9-80, each of the 21 lone w three times, and q with
    denominators up to 200: windows wider than twice the period, keys wider
    than 64 bits, and prefixes of both parities before a slice.
    """
    rng = random.Random(20261019)
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    wide = long_keys = odd = even = 0
    for i in range(63):
        w = decorations[i % 21]
        n = rng.randint(9, 80)
        code = "".join(rng.choice("01") for _ in range(n))
        while True:
            den = rng.randint(2, 200)
            q = F(rng.randint(1, den // 2), den)
            if q < scope(w):
                break
        specs = disk_specs(w, q)
        assert _members(code, specs) == _reference_rows(code, specs), (code, w, q)
        window = n + max(len(t) for spec in specs for t in (spec.principal, spec.shifted))
        wide += window > 2 * n
        long_keys += window > 64
        parities = [code[:p].count("1") % 2 for p in range(n)]
        odd += sum(parities)
        even += n - sum(parities)
    assert (wide, long_keys) == (42, 57)
    assert odd > 0 and even > 0


def test_members_make_two_ray_keys(monkeypatch):
    """One key per direction and one per threshold, whatever the period."""
    calls = []
    key = disks._unimodal_key

    def counted(word):
        calls.append(word)
        return key(word)

    monkeypatch.setattr(disks, "_unimodal_key", counted)
    specs = disk_specs("11", F(9, 25))
    for n in (1, 2, 8, 33, 100):
        calls.clear()
        _members(("10010110" * 13)[:n], specs)
        assert len(calls) == 2 + 8, n


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_oracle_shares_no_formula_code():
    """The disk oracle neither binds nor calls the formula's key and scan helpers."""
    formula = {
        "_rotation_keys",
        "_rotation_key",
        "_keys",
        "_plan",
        "_compile",
        "_below",
        "_threshold",
        "_cap_keys",
    }
    assert not formula & set(vars(disks))
    functions = [
        getattr(f, "__wrapped__", f)
        for f in vars(disks).values()
        if callable(f) and getattr(f, "__module__", None) == disks.__name__
    ]
    names = {
        name
        for f in functions if hasattr(f, "__code__")
        for code in _code_objects(f.__code__)
        for name in code.co_names
    }
    assert {"_members", "_ray_keys", "_unimodal_key"} <= names
    assert not formula & names


def test_in_disk_reads_one_row_entry():
    # every offset, negative or past the period, is read mod the period
    code, w, q = "10010110", "11", F(1, 3)
    specs = disk_specs(w, q)
    rows = _members(code, specs)
    assert rows == _reference_rows(code, specs)
    for spec, row in zip(specs, rows):
        for k in range(-len(code), 2 * len(code)):
            inside = row[k % len(code)]
            if inside is None:
                with pytest.raises(DomainError, match="boundary orbit"):
                    in_disk(code, k, spec)
            else:
                assert in_disk(code, k, spec) == inside
    with pytest.raises(DomainError):
        in_disk("", 0, specs[0])
    with pytest.raises(DomainError):
        in_disk("102", 0, specs[0])


def test_disk_oracle_builds_no_seq(monkeypatch):
    """Cold disk_specs, intersection_counts and forcing_oracle build no Seq."""
    built = []
    post_init = Seq.__post_init__

    def counted(seq):
        built.append(1)
        post_init(seq)

    disks._specs.cache_clear()
    monkeypatch.setattr(Seq, "__post_init__", counted)
    for w, q in (("1", F(2, 7)), ("", F(3, 10))):
        disk_specs(w, q)
    assert intersection_counts("10010110", "11", F(9, 25)) == (1, 0, 1, 0)
    assert not forcing_oracle("10010110", "11", F(8, 25))
    assert disks._specs.cache_info().misses == 4
    assert built == []
