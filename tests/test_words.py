import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from os.path import commonprefix

import pytest
from hypothesis import given, strategies as st

from horseshoe import words
from horseshoe.words import (
    EQ,
    GT,
    LT,
    DomainError,
    Seq,
    canonical_code,
    flip_last,
    is_even,
    is_primitive,
    unimodal_cmp,
)

# the checked helpers that spell the mu and nu windows one step at a time
from _word_reference import (
    append_even,
    even_final_subwords,
    even_initial_subwords,
    flip_first,
    prepend_even,
)


def test_parity_accents():
    assert is_even("")
    assert is_even("0")
    assert not is_even("1")
    assert is_even("1001")
    assert append_even("") == "0"
    assert append_even("1") == "11"
    assert append_even("11") == "110"
    assert prepend_even("") == "0"
    assert prepend_even("1") == "11"
    assert prepend_even("10") == "110"
    assert flip_first("011") == "111"
    assert flip_last("011") == "010"


def test_even_subwords_increasing_length():
    # nonempty even-parity prefixes and suffixes, shortest first
    assert even_initial_subwords("11") == ["11"]
    assert even_final_subwords("11") == ["11"]
    assert even_initial_subwords("110") == ["11", "110"]
    assert even_final_subwords("110") == ["0", "110"]
    assert even_initial_subwords("0") == ["0"]
    assert even_initial_subwords("10010") == ["1001", "10010"]
    assert even_final_subwords("10010") == ["0", "10010"]


def test_accents_reject_bad_words():
    with pytest.raises(DomainError):
        flip_first("")
    with pytest.raises(DomainError):
        flip_last("")
    with pytest.raises(DomainError):
        append_even("102")
    with pytest.raises(DomainError):
        even_initial_subwords("abc")


def test_seq_normalization():
    assert Seq("", "11") == Seq("", "1")
    assert Seq("10", "0") == Seq("1", "0")
    assert Seq("100", "1") == Seq("100", "1")
    assert Seq("1001", "1") == Seq("100", "1")  # tail rolls into the cycle
    assert Seq("", "1010") == Seq("", "10")
    s = Seq("10110", "110110")
    assert len(s.per) == 3


def test_seq_parse_and_str():
    assert Seq.parse("10111100(11)") == Seq("10111100", "11")
    assert Seq.parse("(10)") == Seq.periodic("10")
    assert Seq.parse("1001") == Seq.periodic("1001")
    assert str(Seq("100", "1")) == "100(1)"
    with pytest.raises(DomainError):
        Seq.parse("10(1")
    with pytest.raises(DomainError):
        Seq.parse("10()")
    with pytest.raises(DomainError):
        Seq.parse("")
    with pytest.raises(DomainError):
        Seq.parse("12")


def test_seq_indexing_prefix_shift():
    s = Seq("10", "011")
    assert s.prefix(8) == "10011011"
    assert s.prefix(2) == "10"
    assert s.prefix(0) == ""


def test_seq_value_semantics(monkeypatch):
    """Seq is a value: equal sequences are equal and hash alike, only another
    Seq equals one, it cannot be changed, and it keeps its construction hook."""
    a, b = Seq("1001", "11"), Seq("100", "1")
    assert (a.pre, a.per) == ("100", "1")
    assert a == b and hash(a) == hash(b) == hash(("100", "1"))
    assert len({a, b, Seq("", "1")}) == 2
    assert a != Seq("10", "1")
    assert Seq("", "1") != ("", "1") and ("", "1") != Seq("", "1")
    assert str(Seq("", "1010")) == "(10)"
    assert repr(a) == "Seq(pre='100', per='1')"
    assert repr(Seq("", "1010")) == "Seq(pre='', per='10')"
    for name in ("pre", "per", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, "1")
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b  # the refused assignments changed nothing
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    built = []
    post_init = Seq.__post_init__

    def counted(seq):
        built.append(seq)
        post_init(seq)

    monkeypatch.setattr(Seq, "__post_init__", counted)
    s = Seq("10", "011")
    Seq.parse("1(10)")
    assert len(built) == 2 and built[0] is s


def test_seq_is_not_iterable():
    # an infinite sequence has no end, so iteration and `in` must refuse
    # rather than run forever
    with pytest.raises(TypeError):
        iter(Seq("", "1"))
    with pytest.raises(TypeError):
        "0" in Seq("", "1")


@given(
    pre=st.text(alphabet="01", max_size=5),
    per=st.text(alphabet="01", min_size=1, max_size=5),
    n=st.integers(min_value=0, max_value=40),
)
def test_seq_normalization_preserves_symbols(pre, per, n):
    raw = pre + per * 50
    s = Seq(pre, per)
    assert s.prefix(n) == raw[:n]


def _reference_cmp(s, t):
    """The unimodal order by its definition: the parity of the common prefix."""
    n = max(len(s.pre), len(t.pre)) + len(s.per) + len(t.per)
    a, b = s.prefix(n), t.prefix(n)
    if a == b:
        return EQ
    i = len(commonprefix((a, b)))
    if a[:i].count("1") % 2 == 0:
        return LT if a[i] < b[i] else GT
    return GT if a[i] < b[i] else LT


def test_unimodal_order_basics():
    top = Seq("1", "0")
    bottom = Seq.periodic("0")
    mid = Seq.periodic("10")
    assert unimodal_cmp(top, mid) == GT
    assert unimodal_cmp(bottom, mid) == LT
    assert unimodal_cmp(mid, mid) == EQ
    # reversal after an odd number of ones
    assert unimodal_cmp(Seq.periodic("10110"), Seq.periodic("10100")) == GT
    assert unimodal_cmp(Seq.periodic("1011"), Seq.periodic("1010")) == GT
    assert unimodal_cmp(Seq.periodic("10010110"), Seq.periodic("10010111")) == LT


def test_unimodal_equality_only_for_equal_sequences():
    # distinct spellings of one sequence compare equal
    assert unimodal_cmp(Seq("10", "1101"), Seq("101", "1011")) == EQ
    assert unimodal_cmp(Seq("", "10"), Seq("10", "10")) == EQ


@given(
    a=st.text(alphabet="01", min_size=1, max_size=6),
    b=st.text(alphabet="01", min_size=1, max_size=6),
)
def test_unimodal_antisymmetry(a, b):
    s, t = Seq.periodic(a), Seq.periodic(b)
    assert unimodal_cmp(s, t) == -unimodal_cmp(t, s)
    assert (unimodal_cmp(s, t) == EQ) == (s == t)


_seqs = st.builds(
    Seq,
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=6),
)


@given(s=_seqs, t=_seqs, shared=st.text(alphabet="01", max_size=8))
def test_unimodal_cmp_matches_reference(s, t, shared):
    # a shared prefix pushes the first disagreement past the preperiods
    s, t = Seq(shared + s.pre, s.per), Seq(shared + t.pre, t.per)
    assert unimodal_cmp(s, t) == _reference_cmp(s, t)


def test_is_primitive():
    assert is_primitive("1")
    assert is_primitive("10")
    assert not is_primitive("1010")
    assert not is_primitive("11")
    assert is_primitive("110100")


def test_canonical_code():
    assert canonical_code("00101") == "10010"
    assert canonical_code("0111011") == "1011011"
    assert canonical_code("1100") == "1001"
    assert canonical_code("10101010") == "10"  # reduced to the primitive root
    assert canonical_code("1") == "1"
    assert canonical_code("0") == "0"


def test_canonical_code_keys_once(monkeypatch):
    """canonical_code reads every rotation's key from one key of the word doubled."""
    calls = []
    key = words._unimodal_key

    def counted(word):
        calls.append(word)
        return key(word)

    monkeypatch.setattr(words, "_unimodal_key", counted)
    assert canonical_code("0111011") == "1011011"
    assert calls == ["01110110111011"]


def test_rotation_key_is_key_of_each_rotation():
    """The slicer gives the key of word[i:] + word[:i] at every i: all words of
    length <= 10, and seeded words of length 33-200, whose keys pass 64 bits."""
    rng = random.Random(0)
    ws = ["".join(bits) for n in range(1, 11) for bits in product("01", repeat=n)]
    ws += [
        "".join(rng.choice("01") for _ in range(rng.randint(33, 200)))
        for _ in range(60)
    ]
    for word in ws:
        key = words._rotation_key(word)
        want = [words._unimodal_key(word[i:] + word[:i]) for i in range(len(word))]
        assert [key(i) for i in range(len(word))] == want, word


@given(w=st.text(alphabet="01", min_size=1, max_size=8), k=st.integers(0, 7))
def test_canonical_code_rotation_invariant(w, k):
    k %= len(w)
    assert canonical_code(w[k:] + w[:k]) == canonical_code(w)


def _reference_canonical(word):
    """The greatest rotation, by unimodal key, of the word's primitive root,
    found by trying every period and every rotation."""
    n = len(word)
    d = next(d for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word)
    root = word[:d]
    return max((root[i:] + root[:i] for i in range(d)), key=words._unimodal_key)


def test_canonical_code_reads_starts_of_10():
    """canonical_code, which reads only the rotations starting with 10,
    equals the greatest of all rotations: every word of length <= 14 and
    seeded words of length up to 300, primitive or not."""
    assert [canonical_code(w) for w in ("0", "1", "11", "0101")] == ["0", "1", "1", "10"]
    ws = ["".join(bits) for n in range(1, 15) for bits in product("01", repeat=n)]
    rng = random.Random(29)
    for n in range(15, 301, 3):
        word = "".join(rng.choice("01") for _ in range(n))
        ws += [word, word[: n // 3] * 3]
    for word in ws:
        assert canonical_code(word) == _reference_canonical(word), word


def test_canonical_code_is_unimodal_max_rotation():
    words = ["100010111001010", "10010110", "1000001"]
    words += ["".join(bits) for n in range(1, 13) for bits in product("01", repeat=n)]
    for word in words:
        canon = canonical_code(word)
        assert canon in word + word
        best = Seq.periodic(canon)
        for k in range(len(word)):
            rot = Seq.periodic(word[k:] + word[:k])
            assert _reference_cmp(rot, best) != GT, word
