"""Named decoration families and catalogs.

The star decoration w_q is the interior of the word c_q; its family
interpolates between the finite-order and NBT orbits of height q.  The
odd-ones decorations 1, 111, 11111, ... give a nested chain of families
whose invariants stabilize and certify pseudo-Anosov behaviour.
"""
from __future__ import annotations

from fractions import Fraction

from .height import HALF, cq_word
from .invariants import _values
from .words import DomainError, canonical_code

# r_sequence compiles one plan over the decorations 1, 111, ..., 1^(2 i_max + 1),
# whose windows total O(i_max^3) symbols, and _plan's cache keeps it.  At this
# limit r_sequence("10011010", i_max) took 0.03 s and 20 MB peak RSS, pa_test
# on a random code of length 264 0.03 s, and entropy_certificate("100111111",
# i_max) 0.32 s; at i_max = 256 they took 0.16 s and 48 MB, 0.12 s and 2.8 s
# (cold processes, best of 5, Python 3.11.7, 2 shared vCPUs); larger indices
# are refused.
MAX_ONES_INDEX = 128

def star_decoration(q: Fraction) -> str:
    """The decoration w_q: c_q with its first and last two symbols removed."""
    q = Fraction(q)
    if not 0 < q < HALF:
        raise DomainError(f"star decoration requires 0 < q < 1/2, got {q}")
    return cq_word(q)[2:-2]


def starforce_expected(mn: Fraction, mpnp: Fraction, qp: Fraction) -> Fraction:
    """Closed form for r^{w_{m/n}} on the star family of m'/n' at parameter q'."""
    mn, mpnp, qp = Fraction(mn), Fraction(mpnp), Fraction(qp)
    if not (0 < mn < HALF and 0 < mpnp < HALF):
        raise DomainError("star decorations require heights in (0, 1/2)")
    if not 0 < qp < mpnp:
        raise DomainError(f"parameter must satisfy 0 < q' < {mpnp}, got {qp}")
    return qp if qp < mn <= mpnp else mn


def ones_decoration(i: int) -> str:
    """The i-th odd-ones decoration 1^(2i+1)."""
    if i < 0:
        raise DomainError(f"index must be nonnegative, got {i}")
    return "1" * (2 * i + 1)


def interwi_expected(i: int, j: int, q: Fraction) -> Fraction:
    """Closed form for r^{1^(2j+1)} on the odd-ones family of index i at q."""
    if i < 0 or j < 0:
        raise DomainError("indices must be nonnegative")
    q = Fraction(q)
    if not 0 < q < HALF:
        raise DomainError(f"parameter must satisfy 0 < q < 1/2, got {q}")
    return q if j >= i else HALF


def r_sequence(code: str, i_max: int) -> list[Fraction]:
    """The invariants of the odd-ones decorations 1, 111, ... on one code.

    Indices above MAX_ONES_INDEX raise DomainError before any plan is compiled.
    """
    if i_max < 0:
        raise DomainError(f"i_max must be nonnegative, got {i_max}")
    if i_max > MAX_ONES_INDEX:
        raise DomainError(
            f"odd-ones indices are limited to {MAX_ONES_INDEX}, got i_max = {i_max}"
        )
    return _values(code, tuple(ones_decoration(i) for i in range(i_max + 1)))


def pa_test(code: str) -> str:
    """A sufficient test for pseudo-Anosov forcing behaviour of the orbit.

    Returns "Certified" when some strict drop r^i < r^(i-1) occurs with
    i at most max(1, (N-7)//2) and the largest proper divisor of the
    period N is less than denominator(r^i) + 2i + 4; otherwise "Unknown".
    Codes longer than 2 * MAX_ONES_INDEX + 8 raise DomainError.
    """
    code = canonical_code(code)
    N = len(code)
    if N == 1:
        return "Unknown"
    i_max = max(1, (N - 7) // 2)
    rs = r_sequence(code, i_max)
    divisor = next(N // p for p in range(2, N + 1) if N % p == 0)
    for i in range(1, i_max + 1):
        if rs[i] < rs[i - 1] and divisor < rs[i].denominator + 2 * i + 4:
            return "Certified"
    return "Unknown"


# Decorations whose invariant alone decides forcing, through length five.
_LONE = (
    "",
    "0",
    "1",
    "00",
    "11",
    "000",
    "111",
    "101",
    "0000",
    "0110",
    "1111",
    "1001",
    "00000",
    "01001",
    "11001",
    "10010",
    "10011",
    "11011",
    "11111",
    "10101",
    "10001",
)


def lone_catalog(max_len: int) -> list[str]:
    """The catalog of lone decorations of length at most max_len (max 5)."""
    if not 0 <= max_len <= 5:
        raise DomainError("the catalog covers lengths 0 through 5 only")
    return [w for w in _LONE if len(w) <= max_len]
