"""Heights of sequences and the rational words c_q and d_q.

The height of a one-sided sequence is a rational in [0, 1/2] that is
non-increasing with respect to the unimodal order: the maximal sequence
10^inf has height 0 and every sequence that does not begin 10 has height
1/2.  The decoration invariants rely on this order, reading each least
height as the height of a unimodal-greatest ray, and so does the scope: the
height of the unimodal-greatest rotation of the cycle 10w0.  For each
rational q = m/n in (0, 1/2] there is a palindromic word c_q of length n+1
such that (c_q 0)^inf has height exactly q.

Two independent routes to the height are provided: :func:`height` scans a
finite window of the sequence in chunks 0^kappa 1 1 and settles what the
window leaves open, constant tails included, at its lower bound X if half
the 1-density of the repeating part is at most X and at its upper bound Y
otherwise; :func:`height_oracle` binary-searches the Stern-Brocot tree
using only unimodal comparisons against the words c_q.  They are checked
against each other in the test suite.  Besides a Seq, :func:`height` takes
a bare word w meaning w^inf, checked only when the cache misses, so the
rays of a periodic orbit are passed as plain rotations of its code.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .words import (
    EQ,
    LT,
    DomainError,
    Seq,
    _check_word,
    canonical_code,
    unimodal_cmp,
)

HALF = Fraction(1, 2)
_CHUNK = re.compile("(0*)1(1?)")
# c_q is built symbol by symbol, in time linear in q's denominator: 2.4-2.6 ms
# at this limit, 16-23 ms at 10^5 (Python 3.11.7); larger denominators are refused.
MAX_CQ_DENOMINATOR = 10_000
# height_oracle's cost grows with the square of the sequence's length: at most
# 1.1 s at this limit, and up to 4.3 s at twice it (seeded random sequences with
# max_den four times the length, Python 3.11.7); longer sequences are refused.
# Its cost also grows with the square of max_den, which is limited to four times
# this length: at 1,024, Seq.periodic("1001011") took 0.89 s, against 3.77 s at
# 2,000.
MAX_ORACLE_LENGTH = 256


# One entry per q in lowest terms: an oracle_sweep benchmark pass asks about 350.
@lru_cache(maxsize=4096)
def _cq(m: int, n: int) -> str:
    # i-th symbol is 1 exactly when some multiple of n lies strictly
    # between (i-1)m and (i+1)m
    bits = []
    for i in range(n + 1):
        j0 = (i - 1) * m // n + 1
        bits.append("1" if j0 * n < (i + 1) * m else "0")
    return "".join(bits)


def cq_word(q: Fraction) -> str:
    """The word c_q, defined for rational q with 0 < q <= 1/2.

    c_q is a palindrome of length denominator(q) + 1 beginning and ending
    with 1, e.g. c_{1/3} = 1001 and c_{2/5} = 101101.  Denominators above
    MAX_CQ_DENOMINATOR raise DomainError.
    """
    q = Fraction(q)
    if not 0 < q <= HALF:
        raise DomainError(f"c_q requires 0 < q <= 1/2, got {q}")
    if q.denominator > MAX_CQ_DENOMINATOR:
        raise DomainError(
            f"c_q is limited to denominators up to {MAX_CQ_DENOMINATOR}, got {q}"
        )
    return _cq(q.numerator, q.denominator)


def finite_order_word(q: Fraction) -> str:
    """The word d_q: the first denominator(q) - 1 symbols of c_q."""
    return cq_word(q)[: Fraction(q).denominator - 1]


@lru_cache(maxsize=1 << 17)
def height(c: Seq | str) -> Fraction:
    """The height of the sequence c, given as a Seq or as a word w read as w^inf.

    A word must be a nonempty binary string; it is checked on a cache miss
    only, so the rays of periodic orbits can be passed as plain rotations.

    Reads c after its leading 1 as chunks 0^kappa 1 1, maintaining a
    shrinking rational interval [X, Y] of heights compatible with what has
    been read so far; a lone 0^kappa 1 (a 1-run of odd length) pins the
    height at Y.  A finite window of the sequence (preperiod plus four full
    periods) always suffices, and a chunk that reaches the window's end is
    not read.  If the scan is still alive there, the height is X when half
    the 1-density a of the repeating part satisfies a <= X, and Y otherwise;
    this also settles the constant tails, 0^inf at X and 1^inf at Y.
    """
    if isinstance(c, str):
        pre, per = "", _check_word(c, allow_empty=False)
    else:
        pre, per = c.pre, c.per
    n = len(pre) + 4 * len(per) + 8
    window = (pre + per * -(-(n - len(pre)) // len(per)))[:n]
    if window[0] == "0" or window[1] == "1":
        return HALF
    end = len(window)
    # X = xn/xd and Y = yn/yd bound the height from below and above; s counts
    # the chunks read and S sums their 0-run lengths kappa
    xn, xd = 0, 1
    yn, yd = 1, 2
    s = 0
    S = 0
    for chunk in _CHUNK.finditer(window, 1):  # window[0] is the leading 1
        if chunk.end() == end:
            break  # the window may have cut this chunk short
        s += 1
        S += chunk.end(1) - chunk.start(1)
        xd2 = 2 * s + S  # candidate x_s = s / (2s + S)
        yd2 = xd2 - 1  # candidate y_s = s / (2s - 1 + S)
        if s * xd <= xn * yd2:
            return Fraction(xn, xd)  # y_s <= X
        if s * yd >= yn * xd2:
            return Fraction(yn, yd)  # x_s >= Y
        if s * xd > xn * xd2:
            xn, xd = s, xd2
        if s * yd < yn * yd2:
            yn, yd = s, yd2
        if not chunk[2]:
            return Fraction(yn, yd)  # a lone 1 ends an odd 1-run

    # Window exhausted: a = an/ad, half per's 1-density, is never inside (X, Y).
    # Unless per is all 0s (a = 0 <= X) or all 1s (a = 1/2 >= Y), its 1-runs
    # are even (an odd one ends the scan at a lone 1), with p >= 1 pairs and P
    # 0s, so a = p/(2p + P); its four periods' 8p 1s, all but the leading one
    # read in pairs, make at least 4p chunks, and x_k < a < y_k needs
    # kP < p*S_k < kP + p, which no integer S_k meets at k = p.
    an = per.count("1")
    ad = 2 * len(per)
    return Fraction(xn, xd) if an * xd <= xn * ad else Fraction(yn, yd)


def height_oracle(c: Seq, max_den: int = 64) -> Fraction:
    """The height of c, found by descending the Stern-Brocot tree.

    Uses nothing but unimodal comparisons of c against the periodic
    sequences (c_q 0)^inf, whose heights are exactly q.  Valid whenever
    the true height has denominator at most max_den; raises DomainError
    if the answer cannot be certified within that bound, if max_den lies
    outside 2 .. 4 * MAX_ORACLE_LENGTH, or if the preperiod and period
    together are longer than MAX_ORACLE_LENGTH.
    """
    if not 2 <= max_den <= 4 * MAX_ORACLE_LENGTH:
        raise DomainError(
            f"max_den must lie between 2 and {4 * MAX_ORACLE_LENGTH}, got {max_den}"
        )
    if len(c.pre) + len(c.per) > MAX_ORACLE_LENGTH:
        raise DomainError(
            f"height_oracle is limited to {MAX_ORACLE_LENGTH} symbols of preperiod"
            f" and period, got {len(c.pre) + len(c.per)}"
        )

    def probe(q: Fraction) -> int:
        # 0 < q <= 1/2, and the bound below, not MAX_CQ_DENOMINATOR, limits q
        return unimodal_cmp(Seq.periodic(_cq(q.numerator, q.denominator) + "0"), c)

    if probe(HALF) != LT:
        return HALF
    lo = Fraction(0, 1)
    hi = HALF
    bound = max(4 * max_den, 3 * (len(c.pre) + 4 * len(c.per) + 8))
    while True:
        den = lo.denominator + hi.denominator
        mid = Fraction(lo.numerator + hi.numerator, den)
        side = probe(mid)
        if side == EQ or den > bound:
            # past the bound the height is lo or hi, and this probe separates them
            result = mid if side == EQ else (lo if side == LT else hi)
            break
        if side == LT:
            hi = mid  # height <= mid
        else:
            lo = mid  # height >= mid
    if result.denominator > max_den:
        raise DomainError(
            f"height {result} exceeds certified denominator bound {max_den}"
        )
    return result


# One entry per decoration: a benchmark pass asks at most the 21 lone ones of
# length <= 5.
@lru_cache(maxsize=1024)
def scope(w: str) -> Fraction:
    """The scope of a decoration w: the least height along the cycle 10w0,
    which is the height of the cycle's unimodal-greatest rotation."""
    _check_word(w)
    return height(canonical_code("10" + w + "0"))


def _check_in_scope(w: str, q: Fraction) -> Fraction:
    """q as a Fraction, after checking that 0 < q < scope(w)."""
    q = Fraction(q)
    if not 0 < q < scope(w):
        raise DomainError(
            f"q must lie strictly between 0 and the scope {scope(w)} of {w!r}"
        )
    return q


def starlem_check(q: Fraction, r: int, f: Seq) -> bool:
    """Test the height inequality behind star-decoration forcing.

    For q = m/n with 0-run lengths kappa_1 .. kappa_m in c_q and for
    1 <= r <= m, forms the word 1 0^(kappa_r + 1) (11 0^kappa_j for
    j > r) 1 and checks that appending any continuation f keeps the
    height at most q.
    """
    q = Fraction(q)
    kappas = [len(run) for run in cq_word(q).split("1") if run]
    if not 1 <= r <= len(kappas):
        raise DomainError(f"need 1 <= r <= {len(kappas)}, got {r}")
    word = (
        "1"
        + "0" * (kappas[r - 1] + 1)
        + "".join("11" + "0" * kappas[j] for j in range(r, len(kappas)))
        + "1"
    )
    return height(Seq(word + f.pre, f.per)) <= q
