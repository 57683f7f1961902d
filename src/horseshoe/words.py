"""Binary words, eventually periodic sequences, and the unimodal order.

Finite words are plain strings over the alphabet {0, 1}.  A periodic
one-sided sequence is passed as its repeating word, as the rays of a
periodic orbit and the disk thresholds are; :class:`Seq` is for sequences
given with a preperiod: a small immutable value of a preperiodic part and a
repeating part.  The unimodal order is the total order on one-sided sequences
in which the lexicographic comparison at the first disagreement is reversed
whenever the common prefix contains an odd number of 1s.  Replacing each
symbol by the parity of the 1s up to and including it (the kneading
coordinates of Milnor and Thurston) turns that order into plain
lexicographic order, so words of one length compare by an integer key, and
all rotations of a word read their keys from one key of the word doubled.
A key's first two bits are the parities of its word's first one and two
symbols, so of the rotations of a primitive word of length at least 2, which
holds 10 cyclically, the unimodal-greatest begins with 10 (key bits 11):
:func:`canonical_code` reads only the rotations that start there.
"""
from __future__ import annotations

LT, EQ, GT = -1, 0, 1


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


def _check_word(w: str, *, allow_empty: bool = True) -> str:
    if not isinstance(w, str) or w.strip("01") != "":
        raise DomainError(f"not a binary word: {w!r}")
    if not allow_empty and not w:
        raise DomainError("word must be nonempty")
    return w


def is_even(w: str) -> bool:
    """True iff w contains an even number of 1s (the empty word is even)."""
    return w.count("1") % 2 == 0


def _flip(symbol: str) -> str:
    return "1" if symbol == "0" else "0"


def flip_first(w: str) -> str:
    """The word with its first symbol changed."""
    _check_word(w, allow_empty=False)
    return _flip(w[0]) + w[1:]


def flip_last(w: str) -> str:
    """The word with its last symbol changed."""
    _check_word(w, allow_empty=False)
    return w[:-1] + _flip(w[-1])


def append_even(w: str) -> str:
    """w extended on the right by the symbol that makes the result even."""
    _check_word(w)
    return w + ("0" if is_even(w) else "1")


def prepend_even(w: str) -> str:
    """w extended on the left by the symbol that makes the result even."""
    _check_word(w)
    return ("0" if is_even(w) else "1") + w


def even_initial_subwords(w: str) -> list[str]:
    """Nonempty even prefixes of w, in increasing length order."""
    _check_word(w)
    return [w[:k] for k in range(1, len(w) + 1) if is_even(w[:k])]


def even_final_subwords(w: str) -> list[str]:
    """Nonempty even suffixes of w, in increasing length order."""
    _check_word(w)
    return [w[k:] for k in range(len(w) - 1, -1, -1) if is_even(w[k:])]


class Seq:
    """An eventually periodic one-sided sequence pre · per · per · per …

    A small immutable value: instances are normalized on construction, the
    repeating part reduced to its primitive root and the preperiod shortened
    as far as possible, so equal sequences compare equal and hash alike.  A
    Seq equals only another Seq, and is not iterable, since it has no end.
    """

    __slots__ = ("pre", "per")

    def __init__(self, pre: str, per: str) -> None:
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the two parts; every construction runs it."""
        _check_word(self.pre)
        _check_word(self.per, allow_empty=False)
        per = self.per
        # reduce the repeating part to its primitive root
        d = (per + per).find(per, 1)
        per = per[:d]
        # absorb any matching tail of the preperiod into the cycle
        pre = self.pre
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1] + per[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Seq, (self.pre, self.per)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.pre, self.per) == (other.pre, other.per)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pre, self.per))

    def __repr__(self) -> str:
        return f"Seq(pre={self.pre!r}, per={self.per!r})"

    @staticmethod
    def periodic(word: str) -> "Seq":
        return Seq("", word)

    @staticmethod
    def parse(text: str) -> "Seq":
        """Parse "PRE(PER)", "(PER)", or a bare word meaning (word)^infinity."""
        if "(" in text or ")" in text:
            if text.count("(") != 1 or not text.endswith(")"):
                raise DomainError(f"malformed sequence: {text!r}")
            pre, per = text[:-1].split("(")
            return Seq(pre, per)
        return Seq("", text)

    def __str__(self) -> str:
        return f"{self.pre}({self.per})"

    def prefix(self, n: int) -> str:
        """The first n symbols as a string."""
        if n <= len(self.pre):
            return self.pre[:n]
        k = -(-(n - len(self.pre)) // len(self.per))
        return (self.pre + self.per * k)[:n]


def _unimodal_key(word: str) -> int:
    """An integer key for the unimodal order on nonempty words of one length.

    Bit i of the key, counted from the top, is the parity of the 1s in
    word[:i+1]: the inverse Gray code of the word read as a binary number.
    For distinct words u, v of one length the key also orders the periodic
    sequences u^inf and v^inf, which first differ within that length.
    """
    x = int(word, 2)
    k = 1
    while x >> k:
        x ^= x >> k
        k <<= 1
    return x


def _rotation_key(word: str):
    """The function i -> unimodal key of word[i:] + word[:i], 0 <= i < |word|,
    which slices each key from one key of the word doubled when it is asked.

    Bit j of the key of the word doubled is the parity of its first j + 1
    symbols, so a slice needs complementing when word[:i] holds an odd
    number of 1s.
    """
    N = len(word)
    K, mask = _unimodal_key(word * 2), (1 << N) - 1
    flip = (0, mask)
    return lambda i: K >> (N - i) & mask ^ flip[K >> (2 * N - i) & 1]


def unimodal_cmp(s: Seq, t: Seq) -> int:
    """Compare two sequences in the unimodal order; returns LT, EQ or GT.

    If the sequences agree on max(preperiods) + |per_s| + |per_t| symbols
    they agree everywhere, so the comparison is decided within that window.
    """
    n = max(len(s.pre), len(t.pre)) + len(s.per) + len(t.per)
    a, b = _unimodal_key(s.prefix(n)), _unimodal_key(t.prefix(n))
    return (a > b) - (a < b)


def is_primitive(word: str) -> bool:
    """True iff the word's least period equals its length."""
    _check_word(word, allow_empty=False)
    return _is_primitive(word)


def _is_primitive(word: str) -> bool:
    """is_primitive on a word already known to be binary and nonempty."""
    return (word + word).find(word, 1) == len(word)


def canonical_code(word: str) -> str:
    """The unimodal-maximal rotation of the primitive root of a cyclic word.

    This is the code read from the rightmost point of the corresponding
    periodic orbit, and is the canonical spelling used throughout.

    Only the rotations that begin with 10 are read.  A primitive root of
    length N >= 2 holds both symbols, so it holds 10 cyclically.  A key's
    first two bits are the parities of its rotation's first one and two
    symbols, so a rotation beginning with 10 has a key beginning with 11,
    above every key of a rotation beginning with 0 (first bit 0) or with
    11 (first bits 10); the greatest rotation therefore begins with 10.
    """
    _check_word(word, allow_empty=False)
    word = word[: (word + word).find(word, 1)]
    if len(word) == 1:
        return word
    ring, starts = word + word[0], []  # each cyclic 10 starts below |word|
    i = ring.find("10")
    while i >= 0:
        starts.append(i)
        i = ring.find("10", i + 1)
    k = max(starts, key=_rotation_key(word))
    return word[k:] + word[:k]
