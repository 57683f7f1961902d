import random
from fractions import Fraction
from itertools import islice

import pytest

from horseshoe import survey
from horseshoe.cli import main
from horseshoe.height import HALF, cq_word, finite_order_word, height, scope
from horseshoe.invariants import _cap_keys, _plan, r_star, r_w
from horseshoe.orbits import FINITE_ORDER, NBT, classify
from horseshoe.survey import (
    _DEFAULT_DECORATIONS,
    _SAMPLE_OVERHEAD,
    MAX_EXACT_PERIOD,
    MAX_SAMPLE_PERIOD,
    MAX_SAMPLE_SYMBOLS,
    STAR,
    DomainError,
    _BLOCK,
    _random_words,
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
    for n in range(1, 13):
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


def _reference_label(members):
    """A row's label spelled from classify's kind, height, decoration and
    framing symbols x and y, one branch per shape of row."""
    infos = [classify(m) for m in members]
    kind, q, w = infos[0].kind, infos[0].height, infos[0].decoration
    if len(members) == 1:
        return members[0]
    if kind == FINITE_ORDER:
        return finite_order_word(q) + "."
    if kind == NBT:
        return cq_word(q) + "."
    if len(members) == 3:
        return cq_word(q) + "." + w + "(.)"
    xs = {info.x for info in infos}
    ys = {info.y for info in infos}
    x = xs.pop() if len(xs) == 1 else "."
    y = ys.pop() if len(ys) == 1 else "."
    return cq_word(q) + x + w + y


def assert_labels_match_reference(periods) -> int:
    """Checks every row of the periods' tables; returns how many there were."""
    checked = 0
    for n in periods:
        for row in decinv_table(n, ()).rows:
            assert row.label == _reference_label(row.members), (n, row.members)
            checked += 1
    return checked


def test_row_labels_match_reference():
    """The shared-symbols rule labels every row as the per-kind branches do."""
    assert_labels_match_reference(range(3, 15))


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


def test_table_refuses_a_group_whose_members_disagree(monkeypatch):
    row = next(row for row in decinv_table(8).rows if len(row.members) > 1)
    odd = row.members[-1]
    values = survey._values

    def skewed(code, decorations):
        out = values(code, decorations)
        return out[:-1] + [out[-1] / 2] if code == odd else out

    monkeypatch.setattr(survey, "_values", skewed)
    with pytest.raises(RuntimeError, match=f"disagree: .*'{odd}'"):
        decinv_table(8)


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
    for n, k in ((0, 10), (10, 0)):
        with pytest.raises(DomainError):
            universality_sample("1", F(1, 3), n, k)


def test_table_values_match_one_invariant_per_call():
    """One scan per table member agrees with r_star and r_w."""
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
        raise AssertionError(f"words of length {n} were enumerated")

    monkeypatch.setattr(survey, "_lyndon_stream", refuse)
    n = MAX_EXACT_PERIOD + 1
    with pytest.raises(DomainError, match="--sample"):
        necklaces(n)
    with pytest.raises(DomainError, match="--sample"):
        decinv_table(n)
    with pytest.raises(DomainError, match="--sample"):
        universality_scan("1", F(1, 3), n)
    for argv in (["table", "--period", str(n)], ["scan", "1", "1/3", str(n)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "scan --sample" in err
    with pytest.raises(AssertionError, match="were enumerated"):
        universality_scan("1", F(1, 3), MAX_EXACT_PERIOD)
    with pytest.raises(DomainError, match="positive"):
        universality_scan("1", F(1, 3), 0)


def test_sample_reads_no_height_per_code():
    """The sampled scan decides r^w < q by key comparisons against T_q.

    Its only height is the one ray of the cycle 1010 that scope("1") reads
    when q is checked, so k cold codes make no height miss.
    """
    k = 200
    height.cache_clear()
    scope.cache_clear()
    universality_sample("1", F(2, 5), 64, k, 1)
    assert height.cache_info().misses == 1


def test_random_words_follow_choice_loop():
    """The sampler's words are the words that successive runs of n
    rng.choice("01") calls spell, also where a word straddles two blocks
    of draws and where n does not divide a block's symbols.

    Successive runs of the loop spell consecutive n-symbol pieces of one
    stream of rng.choice calls, which is drawn once per seed.  A block of
    _BLOCK outputs spells about _BLOCK / 2 symbols, so the 2 * _BLOCK
    symbols or more compared for each n run past the first block.  The
    generator's state after a word is not compared, since the sampler draws
    whole blocks.
    """
    sizes = (1, 2, 3, 7, 32, 64, 65, 256, 1000, 4096)
    words = {n: -(-2 * _BLOCK // n) for n in sizes}
    symbols = max(k * n for n, k in words.items())
    straddled = dict.fromkeys(sizes, 0)
    for seed in range(300):
        choice = random.Random(seed).choice
        stream = "".join([choice("01") for _ in range(symbols)])
        high = random.Random(seed).getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK, "little")
        first = sum(b < 128 for b in high[3::4])  # symbols in the first block
        for n, k in words.items():
            got = list(islice(_random_words(random.Random(seed), n), k))
            assert got == [stream[i * n : (i + 1) * n] for i in range(k)], (seed, n)
            straddled[n] += first % n != 0 and first < k * n
    assert straddled[1] == 0
    # n = 2 divides the first block's symbols for about half the seeds
    assert min(straddled[n] for n in sizes[1:]) >= 100, straddled


def test_table_compiles_one_plan():
    """Every member of a table is read through the same compiled plan and
    capped by the same cap keys, which read the plan's caps once."""
    _plan.cache_clear()
    _cap_keys.cache_clear()
    table = decinv_table(10)
    members = len(necklaces(10))
    assert sum(len(row.members) for row in table.rows) == members
    info = _plan.cache_info()
    # a read per member, one for the cap keys and one for the scope row
    assert (info.misses, info.hits) == (1, members + 1)
    info = _cap_keys.cache_info()
    assert (info.misses, info.hits) == (1, members - 1)


def test_scope_row_follows_the_decorations():
    """Each column keeps its own cap when r* is not first: the scope row
    reads 1/2 for r* and scope(w) for r^w, and so do the values."""
    table = decinv_table(5, ("1", STAR, ""))
    assert table.scope_row == (scope("1"), HALF, scope(""))
    for row in table.rows:
        for m in row.members:
            assert row.values == (r_w("1", m), r_star(m), r_w("", m)), m


def test_sample_refused_above_limits(monkeypatch, capsys):
    """Sampled scans refuse periods above MAX_SAMPLE_PERIOD and
    k * (n + _SAMPLE_OVERHEAD) above MAX_SAMPLE_SYMBOLS before drawing a word;
    both limits themselves run."""
    q = F(1, 3)
    assert 0 <= universality_sample("1", q, MAX_SAMPLE_PERIOD, 1) <= 1
    k = MAX_SAMPLE_SYMBOLS // (MAX_SAMPLE_PERIOD + _SAMPLE_OVERHEAD)
    monkeypatch.setattr(survey, "_below", lambda w, q, n: lambda code: True)
    assert universality_sample("1", q, MAX_SAMPLE_PERIOD, k) == 1

    def refuse(rng, n):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(survey, "_random_words", refuse)
    for n, size in (
        (MAX_SAMPLE_PERIOD + 1, 1),
        (MAX_SAMPLE_PERIOD, k + 1),
        (1, MAX_SAMPLE_SYMBOLS + 1),
    ):
        with pytest.raises(DomainError, match="sampling is limited to"):
            universality_sample("1", q, n, size)
    for n, size in ((10**6, 1), (64, MAX_SAMPLE_SYMBOLS)):
        assert main(["scan", "1", "1/3", str(n), "--sample", str(size)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "sampling is limited to" in err
