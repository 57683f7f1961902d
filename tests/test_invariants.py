import random
from fractions import Fraction
from itertools import product

import pytest

from horseshoe import invariants
from horseshoe.families import MAX_ONES_INDEX, lone_catalog, ones_decoration
from horseshoe.invariants import (
    AT_THRESHOLD,
    BACKWARD,
    BOTH,
    FORCED,
    FORWARD,
    NOT_FORCED,
    DomainError,
    _STAR_READS,
    _below,
    _compile,
    _height,
    _keys,
    _lam_windows,
    _mu_windows,
    _nu_windows,
    _parts,
    _plan,
    _reads,
    _threshold,
    _values,
    forces,
    lam,
    mu,
    nu,
    r_dir,
    r_star,
    r_w,
)
from horseshoe.height import cq_word, height, scope
from horseshoe.survey import _DEFAULT_DECORATIONS, STAR, necklaces
from horseshoe.words import (
    GT,
    Seq,
    _rotation_key,
    _unimodal_key,
    canonical_code,
    flip_last,
    is_primitive,
    unimodal_cmp,
)

from _word_reference import (
    append_even,
    even_final_subwords,
    even_initial_subwords,
    flip_first,
    prepend_even,
)

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
    # the star token asks tables for r*, never the one-decoration functions
    with pytest.raises(DomainError):
        forces(EXAMPLE, STAR, F(1, 4))
    for call in (r_w, mu):
        with pytest.raises(DomainError):
            call(STAR, EXAMPLE)
    with pytest.raises(DomainError):
        r_w(None, EXAMPLE)


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


def test_r_dir_refuses_non_binary_windows():
    """A window is a binary word and the windows are a collection of them:
    a bare string would be read as its symbols, so it is refused too."""
    with pytest.raises(DomainError, match="binary"):
        r_dir("1001", ("2",), FORWARD)
    with pytest.raises(DomainError, match="binary"):
        r_dir("1001", ("1", 1), BOTH)
    with pytest.raises(DomainError, match="collection"):
        r_dir("1001", "01", FORWARD)
    assert r_dir("1001", ["0", "1"], FORWARD) == r_dir("1001", ("0", "1"), FORWARD)


def _capped_reference(code, decorations):
    """The caps, and min(cap, height of the greatest key) of each column."""
    caps, scan = _plan(decorations)
    keys = iter(_keys(code, scan))
    return caps, [
        min(cap, _height(max(lam_, min(mu_, nu_)), len(code)))
        for cap, lam_, mu_, nu_ in zip(caps, keys, keys, keys)
    ]


def test_one_height_per_invariant_read(monkeypatch):
    """r* and each r^w read the height of at most one ray, and none when the
    column is capped: 9 reads, one height call per uncapped column.

    Rays reach height as plain words and no Seq is built on the way; a bad
    code raises each time and leaves nothing in the height cache.
    """
    decorations = [d for d in _DEFAULT_DECORATIONS if d != STAR]
    for w in decorations:
        scope(w)
    built = []
    post_init = Seq.__post_init__

    def counted(seq):
        built.append(1)
        post_init(seq)

    # every column of the first code is capped; the second has 8 uncapped
    for code, want in (("10001001001001", 0), ("10000010", 8)):
        caps, values = _capped_reference(code, _DEFAULT_DECORATIONS)
        assert sum(v != cap for v, cap in zip(values, caps)) == want
        height.cache_clear()
        monkeypatch.setattr(Seq, "__post_init__", counted)
        r_star(code)
        for w in decorations:
            r_w(w, code)
        monkeypatch.undo()
        assert built == []
        info = height.cache_info()
        assert info.hits + info.misses == want, code
    # the height cache stores no exception either
    for bad in ("", "102"):
        for _ in range(2):
            with pytest.raises(DomainError):
                r_dir(bad, ("0", "1"), BOTH)


def test_columns_capped_by_key():
    """_values, which compares each column's greatest key with its cap's key,
    is min(cap, height of that key) for r*, the table's columns and the lone
    decorations, on every necklace of period <= 12."""
    assert check_capped_by_key(range(1, 13)) == (16_434, 11_883)


def check_capped_by_key(periods):
    """Compare _values with min(cap, _height(key)) over _keys; returns the
    number of columns checked and how many of them read the cap."""
    decorations = tuple(dict.fromkeys((*_DEFAULT_DECORATIONS, *lone_catalog(5))))
    assert len(decorations) == 22
    checked = capped = 0
    for n in periods:
        for code in necklaces(n):
            caps, want = _capped_reference(code, decorations)
            assert _values(code, decorations) == want, code
            checked += len(want)
            capped += sum(v == cap for v, cap in zip(want, caps))
    return checked, capped


def test_invariants_are_rotation_invariant():
    decorations = lone_catalog(5)
    for n in range(1, 10):
        for code in necklaces(n):
            want = (r_star(code), [r_w(w, code) for w in decorations])
            for k in range(1, n):
                rot = code[k:] + code[:k]
                assert (r_star(rot), [r_w(w, rot) for w in decorations]) == want, rot


def _reference_r_dir(code, windows, direction):
    """r_dir as one fresh ray and one height per occurrence, min over Fractions."""
    N = len(code)
    best = F(1, 2)
    for v in windows:
        doubled = code * (len(v) // N + 2)
        for p in range(N):
            if not doubled.startswith(v, p):
                continue
            i = (p + len(v)) % N
            forward = height(Seq.periodic(code[i:] + code[:i]))
            backward = height(Seq.periodic((code[p:] + code[:p])[::-1]))
            q = {"forward": forward, "backward": backward, "both": max(forward, backward)}
            best = min(best, q[direction])
    return best


def assert_matches_reference(code, decorations):
    """r* and each r^w of the code agree with the reference r_dir."""
    assert r_star(code) == min(F(1, 2), _reference_r_dir(code, ("0", "1"), "both")), code
    for w in decorations:
        s = scope(w)
        m = min(s, _reference_r_dir(code, _mu_windows(w), "forward"))
        u = min(s, _reference_r_dir(code, _nu_windows(w), "backward"))
        b = min(s, _reference_r_dir(code, _lam_windows(w), "both"))
        assert r_w(w, code) == min(b, max(m, u)), (w, code)


def test_r_dir_matches_reference_on_small_periods():
    decorations = lone_catalog(5)
    assert len(decorations) == 21
    for n in range(1, 13):
        for code in necklaces(n):
            assert_matches_reference(code, decorations)


def test_scan_edge_cases_match_reference():
    """One plan on every code of length 1 to 4 against the reference r_dir.

    Windows run up to length 7, so most are longer than the code and wrap
    around it; reads mix lengths and include the empty window and an empty
    window set, all in one plan with a one-window read of every window that
    occurs, in every direction.
    """
    directions = (FORWARD, BACKWARD, BOTH)
    for N in range(1, 5):
        for code in map("".join, product("01", repeat=N)):
            cyclic = code * 8
            occurring = [cyclic[p : p + L] for L in range(8) for p in range(N)]
            window_sets = [(v,) for v in dict.fromkeys(occurring)] + [
                ("1", "010", "0000000"),
                ("", "11"),
                ("0110110", "1001", "0"),
                ("1111111", "00000", "101"),
                tuple(dict.fromkeys(occurring)),
                (),
            ]
            reads = tuple(product(window_sets, directions))
            got = [_height(k, N) for k in _keys(code, _compile(reads))]
            want = [_reference_r_dir(code, ws, d) for ws, d in reads]
            assert got == want, code
            for ws, d in reads[-18:]:
                assert r_dir(code, ws, d) == _reference_r_dir(code, ws, d), (code, ws, d)
            assert_matches_reference(code, [""])
            assert [mu("", code), nu("", code), lam("", code), r_w("", code)] == list(
                _parts("", code)
            )
            with pytest.raises(DomainError, match="sideways"):
                _compile(((("1",), FORWARD), (("1", "0000000"), "sideways")))


def test_windows_match_word_helpers():
    """The mu and nu windows, spelled with slices and a running parity, are
    the windows that the checked helpers of _word_reference build, in the
    same order, for every word of length at most 10 and every odd-ones
    decoration."""
    words = ["".join(p) for n in range(11) for p in product("01", repeat=n)]
    words += [ones_decoration(i) for i in range(MAX_ONES_INDEX + 1)]
    for w in words:
        assert _mu_windows(w) == tuple(
            flip_first(v) + x for v in even_final_subwords(prepend_even(w)) for x in "01"
        ), w
        assert _nu_windows(w) == tuple(
            x + flip_last(v) for v in even_initial_subwords(append_even(w)) for x in "01"
        ), w


def test_automaton_matches_reference():
    """One automaton per read set on every code of length 1 to 6 against the
    reference r_dir.

    The reads hold windows that are suffixes of one another, in all three
    directions, so one state ends several windows; windows up to four times
    the code's length, which wrap around it; the empty window alone, where
    L_max is 0; and the odd-ones plan at index 20, whose windows run to
    length 43.
    """
    directions = (FORWARD, BACKWARD, BOTH)
    odd_ones = tuple("1" * (2 * i + 1) for i in range(21))
    odd_reads = tuple(
        (windows(w), d)
        for w in odd_ones
        for windows, d in ((_lam_windows, BOTH), (_mu_windows, FORWARD), (_nu_windows, BACKWARD))
    )
    odd_plan = invariants._plan(odd_ones)[1]
    assert odd_plan[1] == 43
    for N in range(1, 7):
        for code in map("".join, product("01", repeat=N)):
            cyclic = code * 5
            long = (cyclic[: 4 * N], cyclic[1 : 4 * N], cyclic[3 : 4 * N], "1" + cyclic[1 : 4 * N])
            window_sets = [("1", "01", "101", "0101"), ("0", "10", "110", "0110", "11"), long]
            reads = tuple(product(window_sets, directions))
            got = [_height(k, N) for k in _keys(code, _compile(reads))]
            assert got == [_reference_r_dir(code, ws, d) for ws, d in reads], code
            for d in directions:
                (k,) = _keys(code, _compile(((("",), d),)))
                assert _height(k, N) == _reference_r_dir(code, ("",), d), (code, d)
            got = [_height(k, N) for k in _keys(code, odd_plan)]
            assert got == [_reference_r_dir(code, ws, d) for ws, d in odd_reads], code


def _reference_keys(code, decorations):
    """The greatest ray key of each read of the decorations' plan, from the
    key of each rotation of the code and of its reverse; 0 for a read whose
    windows do not occur."""
    N, rev = len(code), code[::-1]
    forward = [_unimodal_key(code[i:] + code[:i]) for i in range(N)]
    backward = [_unimodal_key(rev[i:] + rev[:i]) for i in range(N)]
    reads = [
        r for w in decorations for r in (_STAR_READS if w == STAR else _reads(w))
    ]
    out = []
    for windows, d in reads:
        best = 0
        for v in windows:
            cyclic = code * (len(v) // N + 2)
            for p in range(N):
                if cyclic.startswith(v, p):
                    # the forward ray leaves the window's right end, and the
                    # backward ray at p reads the reverse from N - p
                    kf, kb = forward[(p + len(v)) % N], backward[(N - p) % N]
                    best = max(best, {FORWARD: kf, BACKWARD: kb, BOTH: min(kf, kb)}[d])
        out.append(best)
    return out


def test_keys_on_long_codes():
    """_keys slices each ray key where a window ends, from one key of the
    code doubled or of its reverse doubled; it equals the greatest key of
    each read's rays, read from every rotation, on seeded codes of length
    33-200, whose keys pass 64 bits, under the r*, table and lone-catalog
    plans."""
    rng = random.Random(29)
    plans = ((STAR,), _DEFAULT_DECORATIONS, tuple(lone_catalog(5)))
    for _ in range(30):
        code = "".join(rng.choice("01") for _ in range(rng.randint(33, 200)))
        for decorations in plans:
            got = _keys(code, _plan(decorations)[1])
            assert got == _reference_keys(code, decorations), (code, decorations)


BELOW_DECORATIONS = ("", "0", "1", "00", "11", "000", "111", "101")


def assert_below_matches_r_w(decorations, periods, max_den, extra=()) -> int:
    """The threshold read against r^w < q on every necklace of the periods,
    for every q in scope up to max_den and every extra q in scope; returns
    how many checks ran."""
    checks = 0
    for w in decorations:
        cap = scope(w)
        qs = {F(m, d) for d in range(2, max_den + 1) for m in range(1, d)} | set(extra)
        qs = sorted(q for q in qs if q < cap)
        for n in periods:
            codes = necklaces(n)
            rs = [r_w(w, c) for c in codes]
            for q in qs:
                below = _below(w, q, n)
                for code, r in zip(codes, rs):
                    assert below(code) == (r < q), (w, q, code, r)
                checks += len(codes)
    return checks


def test_below_matches_r_w_on_small_periods():
    """r^w < q decided against T_q equals r^w < q read from heights.

    Periods 9 and 10 hold the first orbits with one of mu and nu below q and
    lam not, which tell "mu and nu" from "mu or nu".
    """
    assert assert_below_matches_r_w(BELOW_DECORATIONS, range(1, 11), 8) == 11978


def test_threshold_decides_ties():
    """The one ray whose first N symbols are T_q's is still ordered against T_q.

    Its N-symbol key ties T_q's, and at q = 1/3 the ray of 1001101 lies above
    T_q = 10(011)^inf; _threshold orders every such ray as the unimodal
    order does, so a threshold read from N symbols alone fails here.
    """
    above = 0
    for d in range(3, 16):
        for m in range(1, d // 2 + 1):
            q = F(m, d)
            T = Seq("10", cq_word(q)[2:] + "1")
            for N in range(1, 25):
                s = T.prefix(N)
                k = _rotation_key(s)(0)
                want = unimodal_cmp(Seq.periodic(s), T) == GT
                assert (k > _threshold(q, N)) == want, (q, s)
                above += want
    assert above > 0
    k = _rotation_key("1001101")(0)
    assert k > _threshold(F(1, 3), 7)


def test_below_slices_keys_only_where_needed(monkeypatch):
    """The read slices a ray key only for an occurrence that feeds an unsettled
    read, and stops at the occurrence that settles the test.

    The code 0 is decided with no key sliced: it holds no window of r^1,
    and at N = 1 no ray lies above T_q.  At q = 2/5 and N = 7 the forced
    prefix is 10, and the cyclic code 1111001 holds 01 111 10, where lam's
    window 111 has both rays above T_q, so two slices settle the test; its
    windows 110 and 011 feed nu and mu, which a walk that went on would
    slice for.
    """
    slices = []
    slicer = invariants._rotation_key

    def counted(word):
        key = slicer(word)

        def sliced(i):
            slices.append((word, i))
            return key(i)

        return sliced

    monkeypatch.setattr(invariants, "_rotation_key", counted)
    assert not _below("1", F(2, 5), 1)("0")
    assert slices == []
    assert _below("1", F(2, 5), 7)("1111001")
    assert len(slices) <= 2, slices


def test_below_builds_no_seq(monkeypatch):
    """The threshold and the read work on plain strings: no Seq is built."""
    built = []
    post_init = Seq.__post_init__

    def counted(seq):
        built.append(seq)
        post_init(seq)

    scope("1")
    monkeypatch.setattr(Seq, "__post_init__", counted)
    assert _below("1", F(2, 5), 7)("0101001")
    assert not _below("1", F(1, 20), 64)("1" + "0" * 63)
    assert built == []


# q of large denominator, whose forced prefix 1 0^(j-1) few codes hold
SMALL_QS = (F(1, 20), F(1, 40), F(3, 50), F(1, 10000))


def _forced_prefix(q, N) -> str:
    """1 0^(j-1), for j the leading 1 bits among the N of t + 1, the least
    key above t = _threshold(q, N) < 2^N - 1."""
    j = N - (~(_threshold(q, N) + 1) & (1 << N) - 1).bit_length()
    return "1" + "0" * (j - 1)


def _codes_with_long_runs(rng, n, count):
    """Primitive codes of length n spelled from random bits and blocks
    1 0^k with 12 <= k <= 45, so that small-q prefixes occur in them."""
    codes = []
    while len(codes) < count:
        code = ""
        while len(code) < n:
            if rng.random() < 0.3:
                code += "1" + "0" * rng.randint(12, 45)
            else:
                code += "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        if is_primitive(code := code[:n]):
            codes.append(code)
    return codes


def _near(r):
    """The fractions just below and just above r with denominators up to
    10,000."""
    m = 10_000 // r.denominator
    return F(r.numerator * m - 1, r.denominator * m), F(r.numerator * m + 1, r.denominator * m)


def test_below_matches_r_w_at_small_q_on_long_codes():
    """The prefix-extended read against r^w < q at periods 16-256, for q of
    large denominator and for q at and next to each code's r^w."""
    rng = random.Random(27)
    counts = [0, 0]
    for n in (16, 17, 21, 40, 64, 100, 128, 256):
        for code in _codes_with_long_runs(rng, n, 6):
            for w in ("1", "0", "101", "0110"):
                cap, r = scope(w), r_w(w, code)
                qs = set(SMALL_QS) | {r, *_near(r)}
                for q in sorted(q for q in qs if 0 < q < cap):
                    got = _below(w, q, n)(code)
                    assert got == (r < q), (w, q, code, r)
                    counts[got] += 1
    assert min(counts) > 200, counts


def test_below_forced_prefix_edges():
    """The read at the edges of its forced prefix P = 1 0^(j-1)."""
    # j = N, at N = 1 and 2 for every q and at N = 8 and 64 for small q:
    # no period-N ray lies above T_q, so the test is constantly False
    rng = random.Random(5)
    qs = (F(2, 5), F(1, 3), F(1, 6)) + SMALL_QS
    for q, N in [(q, N) for q in qs for N in (1, 2)] + [(F(1, 20), 8), (F(1, 10000), 64)]:
        assert _threshold(q, N) == (1 << N) - 1, (q, N)
        codes = necklaces(N) if N <= 8 else _codes_with_long_runs(rng, N, 20)
        for w in ("1", "0", "101"):
            if q < scope(w):
                below = _below(w, q, N)
                for code in codes:
                    assert not below(code) and r_w(w, code) >= q, (w, q, code)
    # the tie adjustment fires at q = 1/20 and N = 21, where T_q's first
    # 21 symbols 1 0^19 1 spell a ray above T_q, and at q = 2/5 and N = 3;
    # t + 1 has one more leading 1 bit than t there, so P is one longer
    assert _forced_prefix(F(1, 20), 21) == "1" + "0" * 19
    assert _forced_prefix(F(2, 5), 3) == "10"
    for q, N, k in ((F(1, 20), 21, 15), (F(2, 5), 3, 0)):
        codes = [
            code
            for z in range(k, N)
            for tail in product("01", repeat=N - 1 - z)
            if is_primitive(code := "1" + "0" * z + "".join(tail))
        ]
        for w in ("1", "0", "101"):
            below = _below(w, q, N)
            for code in codes:
                assert below(code) == (r_w(w, code) < q), (w, q, code)
    assert _rotation_key("1" + "0" * 19 + "1")(0) > _threshold(F(1, 20), 21)
    # the only P of this code, and the lam occurrence that settles it,
    # wrap around its end
    code = "0" * 40 + "10101"
    assert _forced_prefix(F(1, 20), 45) not in code
    assert r_w("1", code) == F(1, 41)
    assert _below("1", F(1, 20), 45)(code)


def test_below_at_fixed_thresholds(monkeypatch):
    """With _threshold fixed at t, _below decides lam > t or (mu > t and
    nu > t) on the greatest ray key of each read, on every necklace of
    period 3 to 10.

    No real threshold reaches t = 2^N - 2, whose forced prefix 1 0^(N-1)
    is a whole code (j = N); t = 2^N - 1 is the constant-False case, and
    seeded t give shorter prefixes.  Every t has t + 1 >= 2^(N-1), as a real
    threshold has (see _below), so that j >= 1."""
    rng = random.Random(71)
    outcomes = dict.fromkeys(product((False, True), repeat=2), 0)
    for N in range(3, 11):
        codes = necklaces(N)
        top = (1 << N) - 1
        # the mu and nu windows 1 0^(N-1) and 0^(N-1) 1 of w = 0^(N-2) read
        # the one ray above t = 2^N - 2 from both sides
        decorations = ("", "1", "0110", "0" * (N - 2))
        keys = {w: [_reference_keys(code, (w,)) for code in codes] for w in decorations}
        seeded = (rng.randrange(top >> 1, top - 1) for _ in range(3))
        for t in (top - 1, top, *seeded):
            monkeypatch.setattr(invariants, "_threshold", lambda q, N, t=t: t)
            for w, rows in keys.items():
                below = _below(w, F(1, 4), N)
                for code, (lam_, mu_, nu_) in zip(codes, rows):
                    expected = lam_ > t or mu_ > t and nu_ > t
                    assert below(code) == expected, (w, t, code)
                    outcomes[t == top - 1, expected] += 1
    assert outcomes[True, True] >= 8 and min(outcomes.values()) > 0, outcomes


def test_below_slices_no_key_without_the_forced_prefix(monkeypatch):
    """At q = 1/20 and n = 64 a ray above T_q begins with P = 1 0^19.  A
    code whose cyclic spelling holds no P, and so no 1 0^20, is decided with
    no key sliced, though every window of r^1 occurs in it.  The second
    code's one P, at position 0, follows only the mu window 011, so the
    one key sliced is the forward ray at 0, which lies below T_q.

    At n = 21, t = 1^19 0 1 has 19 leading 1 bits, but P is read from the
    least key above it, t + 1 = 1^20 0, so P = 1 0^19 there too, and a code
    holding 1 0^18 but no 1 0^19 slices no key."""
    assert _forced_prefix(F(1, 20), 64) == "1" + "0" * 19
    slices = []
    slicer = invariants._rotation_key

    def counted(word):
        key = slicer(word)

        def sliced(i):
            slices.append((word, i))
            return key(i)

        return sliced

    monkeypatch.setattr(invariants, "_rotation_key", counted)
    assert _threshold(F(1, 20), 21) == int("1" * 19 + "01", 2)
    assert not _below("1", F(1, 20), 21)("1" + "0" * 18 + "11")
    below = _below("1", F(1, 20), 64)
    code = (("1110101" + "0" * 10) * 4)[:64]
    assert all(v in code for v in _lam_windows("1") + _mu_windows("1") + _nu_windows("1"))
    assert "1" + "0" * 19 not in code + code
    assert not below(code)
    assert slices == []
    code = "1" + "0" * 19 + "110101" * 6 + "11010" + "011"
    assert len(code) == 64 and not below(code)
    assert slices == [(code, 0)]

