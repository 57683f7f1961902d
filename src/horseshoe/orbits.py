"""Classification of periodic orbit codes by height and decoration.

Every primitive cyclic code falls into one of a handful of families: the
two fixed points, the period-two orbit, one reducible period-four orbit,
finite-order orbits (period equal to the height denominator), NBT orbits
(period two more than the denominator), and decorated orbits, whose
canonical codes factor as c_q x w y for a decoration word w.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .height import HALF, _check_in_scope, cq_word, height
from .words import (
    DomainError,
    _check_word,
    canonical_code,
    flip_last,
    is_primitive,
)

FIXED_POINT = "fixed-point"
PERIOD_TWO = "period-two"
REDUCIBLE = "reducible"
FINITE_ORDER = "finite-order"
NBT = "NBT"
DECORATED = "decorated"


def is_paired(code: str) -> bool:
    """True iff flipping the last symbol of the code leaves a primitive word.

    Paired codes come in partner pairs ending 0 and 1 that carry the same
    orbit data; unpaired codes (like 10 and 1011) stand alone.
    """
    return is_primitive(flip_last(code))


def orbit_height(code: str) -> Fraction:
    """The height of the periodic orbit with the given code.

    The code is brought to canonical form first.  A paired code ending in
    1 takes its height from its partner ending in 0.
    """
    return _canonical_height(canonical_code(code))


def _canonical_height(code: str) -> Fraction:
    """orbit_height of a code already in canonical form."""
    if is_paired(code) and code.endswith("1"):
        code = flip_last(code)
    return height(code)


Classification = namedtuple(
    "Classification",
    "code period height kind decoration x y",
    defaults=(None, None, None),
)
Classification.__doc__ = """What classify reports of an orbit.

The canonical code (str), its period (int), its height (Fraction) and its
kind (str); for a decorated orbit, whose code factors as c_q x w y, also
the decoration w and the framing symbols x and y (str), otherwise None.
"""


def classify(code: str) -> Classification:
    """Classify a primitive cyclic code.

    The returned code is the canonical spelling.  For decorated orbits the
    canonical code begins with c_q and factors as c_q x w y; the decoration
    w and the framing symbols x, y are reported.
    """
    word = canonical_code(code)
    N = len(word)
    if N != len(code):
        raise DomainError(f"imprimitive code: {code}")
    if N == 1:
        return Classification(word, 1, HALF, FIXED_POINT)
    if N == 2:
        return Classification(word, 2, HALF, PERIOD_TWO)
    if word == "1011":
        return Classification(word, 4, HALF, REDUCIBLE)
    q = _canonical_height(word)
    n = q.denominator
    if N == n:
        kind = FINITE_ORDER
    elif N == n + 2 and q < HALF:
        kind = NBT
    elif N >= n + 3:
        kind = DECORATED
    else:
        kind = None
    # each kind begins with c_q, or with d_q, its first n - 1 symbols, if N = n
    if kind is None or not word.startswith(cq_word(q)[: min(N - 1, n + 1)]):
        raise DomainError(f"cannot classify code: {word}")
    if kind != DECORATED:
        return Classification(word, N, q, kind)
    return Classification(
        word, N, q, kind, decoration=word[n + 2 : N - 1], x=word[n + 1], y=word[N - 1]
    )


def orbit_exists(q: Fraction, w: str) -> int:
    """How many of the four words c_q x w y are codes of orbits of height q.

    Counts spellings: imprimitive words and words whose orbit has some
    other height are not counted.
    """
    _check_word(w)
    q = Fraction(q)
    c = cq_word(q)
    count = 0
    for x in "01":
        for y in "01":
            word = c + x + w + y
            if is_primitive(word) and orbit_height(word) == q:
                count += 1
    return count


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def q_in_Qw_sufficient(q: Fraction, w: str) -> bool:
    """A primality condition sufficient for q to be a parameter of the w family."""
    q = _check_in_scope(w, q)
    return _is_prime(q.denominator + len(w) + 3)


def reverse_orbit(code: str) -> str:
    """The canonical code of the time-reversed orbit."""
    _check_word(code, allow_empty=False)
    return canonical_code(code[::-1])
