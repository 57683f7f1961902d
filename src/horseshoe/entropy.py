"""Topological entropy bounds from decoration invariants.

Each index i and rational q = m/n give two integer polynomials whose
largest roots in (1, 2] bound the dilatation of orbits in the associated
family: H for the family members themselves and Hbar for the forcing
lower bound.  Polynomials are plain coefficient lists, constant term
first; their roots are isolated exactly, on the integer coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .families import r_sequence
from .height import HALF
from .words import DomainError

# Bisection depth past which root isolation gives up, and the bracket's
# width, 2^-_BRACKET_BITS.
_MAX_DEPTH = 200
_BRACKET_BITS = 30


def _padd(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for k, v in enumerate(a):
        out[k] += v
    for k, v in enumerate(b):
        out[k] += v
    return out


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _monomial(k: int) -> list[int]:
    return [0] * k + [1]


def eval_poly(coeffs: list[int], x: float) -> float:
    """Evaluate a coefficient list (constant term first) at x by Horner.

    No package code calls it; the bench tracer binds it."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def g_poly(i: int) -> list[int]:
    """x^(2i+6) - x^(2i+5) - x^(2i+4) - x^(2i+3) - 2."""
    if i < 0:
        raise DomainError(f"index must be nonnegative, got {i}")
    c = [0] * (2 * i + 7)
    c[0] = -2
    c[2 * i + 3] = c[2 * i + 4] = c[2 * i + 5] = -1
    c[2 * i + 6] = 1
    return c


def f_poly(q: Fraction) -> list[int]:
    """Sum of x^floor(jn/m) for j = 1 .. m-1; the zero polynomial for m = 1."""
    q = Fraction(q)
    if not 0 < q <= HALF:
        raise DomainError(f"need 0 < q <= 1/2, got {q}")
    m, n = q.numerator, q.denominator
    if m == 1:
        return [0]
    c = [0] * ((m - 1) * n // m + 1)
    for j in range(1, m):
        c[j * n // m] += 1
    return c


def H_poly(i: int, q: Fraction) -> list[int]:
    """The member polynomial of the (i, q) family."""
    q = Fraction(q)
    n = q.denominator
    g = g_poly(i)
    f = f_poly(q)
    t1 = _pmul(_monomial(n + 1), g)
    # 2x (x^2 - 1) (x^(2i+4) + 1) f
    t2 = _pmul(_pmul([0, -2, 0, 2], _padd(_monomial(2 * i + 4), [1])), f)
    t3 = [0] * (2 * i + 7)
    t3[0] = -1
    t3[1] = t3[2] = t3[3] = 1
    t3[2 * i + 6] = 2
    return _padd(_padd(t1, t2), t3)


def Hbar_poly(i: int, q: Fraction) -> list[int]:
    """The forcing lower-bound polynomial of the (i, q) family; Hbar(1) = 0."""
    q = Fraction(q)
    n = q.denominator
    g = g_poly(i)
    f = f_poly(q)
    t1 = _pmul(_padd(_monomial(n), [-1]), g)
    t2 = _pmul(
        _pmul([-2, 0, 2], _padd(_monomial(2 * i + 4), [1])), _padd([1], f)
    )
    return _padd(t1, t2)


def _sign_at(coeffs: list[int], num: int, k: int) -> int:
    """The sign of the polynomial at num / 2^k, by integer Horner."""
    acc, scale = 0, 1
    for c in reversed(coeffs):  # acc ends as 2^(k*d) p(num / 2^k)
        acc = acc * num + c * scale
        scale <<= k
    return (acc > 0) - (acc < 0)


def _taylor_shift(coeffs: list[int]) -> list[int]:
    """The coefficients of p(t + 1)."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _variations(coeffs: list[int]) -> int:
    """Sign variations of (1 + t)^d p(1 / (1 + t)).

    By Descartes' rule this bounds the roots of p in (0, 1) and has their
    parity, so 0 and 1 are exact counts.
    """
    signs = [c > 0 for c in _taylor_shift(coeffs[::-1]) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def root_bracket(coeffs: list[int]) -> tuple[Fraction, Fraction]:
    """A dyadic bracket [a, b] of the largest root in (1, 2], with b - a <= 2^-30.

    Vincent-Collins-Akritas bisection on exact integer coefficients visits
    the right half of (1, 2) first, so the first interval whose Descartes
    bound is one holds the largest root and every interval to its right has
    been shown root-free.  A float guess at the root then proposes the
    aligned interval of width 2^-30 that holds it; the guess is only a
    proposal, which exact signs at its ends accept or refuse, so it changes
    no bracket.  Bisection on exact signs at dyadic points narrows a refused
    one; p(a) and p(b) have opposite signs, or a == b is a root.
    Roots at 1 itself are out of range.  Raises DomainError when (1, 2] holds
    no root, and ArithmeticError when the largest root is a repeated one,
    which Descartes' bound never isolates.
    """
    # (P, c, k): P(t) is 2^(k*d) p(1 + (c + t) / 2^k), so (0, 1) maps onto
    # (1 + c / 2^k, 1 + (c + 1) / 2^k); P None marks the exact root 1 + c / 2^k.
    d = len(coeffs) - 1
    top = _taylor_shift(coeffs)
    stack = [(None, 1, 0)] if sum(top) == 0 else [(top, 0, 0)]
    while stack:
        P, c, k = stack.pop()
        if P is None:
            a = 1 + Fraction(c, 1 << k)
            return a, a
        v = _variations(P)
        if v == 0:
            continue
        if v == 1:
            return _refine(coeffs, (1 << k) + c, k)
        if k >= _MAX_DEPTH:
            raise ArithmeticError("root isolation did not converge")
        left = [x << (d - j) for j, x in enumerate(P)]  # 2^d P(t / 2)
        right = _taylor_shift(left)
        stack.append((left, 2 * c, k + 1))
        if right[0] == 0:
            stack.append((None, 2 * c + 1, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    raise DomainError("no root in (1, 2]")


def _float_root(coeffs: list[int], num: int, k: int) -> float | None:
    """A float guess at the root in (num / 2^k, (num + 1) / 2^k): Newton's
    method, kept inside a bracket that float signs shrink, or None when the
    coefficients or values leave the float range."""
    try:
        cs = [float(c) for c in reversed(coeffs)]
    except OverflowError:
        return None

    def at(x: float) -> tuple[float, float]:
        p = dp = 0.0
        for c in cs:
            dp = dp * x + p
            p = p * x + c
        return p, dp

    lo, hi = math.ldexp(num, -k), math.ldexp(num + 1, -k)
    x, step = hi, hi - lo
    p, dp = at(x)
    rising = p > 0  # p keeps its sign at hi down to the root
    for _ in range(100):
        if not (math.isfinite(p) and math.isfinite(dp)):
            return None
        if p == 0:
            return x
        if (p > 0) == rising:
            hi = x
        else:
            lo = x
        # a Newton step that leaves the bracket, or does not halve the step
        # before it, is replaced by bisection (rtsafe, Press et al.)
        last, step = step, p / dp if dp else math.inf
        y = x - step
        if not (lo < y < hi and abs(step) <= abs(last) / 2):
            y = (lo + hi) / 2
            step = x - y
        if abs(step) < 2.0**-32:  # within a level-30 interval of the root
            return y
        x = y
        p, dp = at(x)
    return x


def _refine(coeffs: list[int], num: int, k: int) -> tuple[Fraction, Fraction]:
    """Narrow (num / 2^k, (num + 1) / 2^k), which holds exactly one simple
    root, to a dyadic bracket of width at most 2^-_BRACKET_BITS.

    When k is below that level, a float guess x first proposes the aligned
    interval [m, m + 1] / 2^30 with m = floor(x 2^30), then m - 1 and m + 1.
    Exact signs accept one only when it lies in the isolating interval and
    p is nonzero with opposite signs at its ends; it then holds the one
    root, strictly inside, so it is the interval bisection ends in.  A root
    that is a dyadic of level <= 30 gives a zero sign and is refused.
    Otherwise, or when floats overflow, bisection on exact signs narrows the
    interval: p vanishes nowhere on it but perhaps at its left end, so the
    loop runs until that end has the sign opposite to the right one.
    """
    B = _BRACKET_BITS
    x = _float_root(coeffs, num, k) if k < B else None
    if x is not None:
        m = math.floor(math.ldexp(x, B))
        for a in (m, m - 1, m + 1):
            if a >> (B - k) != num:  # outside the isolating interval
                continue
            if _sign_at(coeffs, a, B) * _sign_at(coeffs, a + 1, B) < 0:
                return Fraction(a, 1 << B), Fraction(a + 1, 1 << B)
    sb = _sign_at(coeffs, num + 1, k)
    sa = _sign_at(coeffs, num, k)
    while k < B or sa != -sb:
        num, k = 2 * num, k + 1
        sm = _sign_at(coeffs, num + 1, k)
        if sm == 0:
            m = Fraction(num + 1, 1 << k)
            return m, m
        if sm != sb:
            num, sa = num + 1, sm
    return Fraction(num, 1 << k), Fraction(num + 1, 1 << k)


def largest_root(coeffs: list[int]) -> float:
    """A lower bound for the largest root in (1, 2]: the float nearest the
    lower end of ``root_bracket`` that does not exceed it."""
    a = root_bracket(coeffs)[0]
    x = float(a)
    return x if x <= a else math.nextafter(x, 0.0)


@lru_cache(maxsize=4096)
def _certificate(i: int, r: Fraction) -> tuple[tuple[int, ...], float, float]:
    """(Hbar(i, r), its root bound, the log of that bound rounded down)."""
    poly = Hbar_poly(i, r)
    root = largest_root(poly)
    return tuple(poly), root, math.nextafter(math.log(root), 0.0)


def entropy_certificate(
    code: str, i_max: int
) -> tuple[list[int], float, float] | None:
    """The best entropy certificate among the odd-ones invariants of the code.

    Returns (polynomial, root, log root) for the index whose Hbar root is
    largest, or None when no invariant drops below 1/2.  The root is a lower
    bound for the largest root of the polynomial and the log a lower bound
    for its logarithm.  Indices above families.MAX_ONES_INDEX raise
    DomainError.
    """
    best = None
    for i, r in enumerate(r_sequence(code, i_max)):
        if r < HALF:
            cert = _certificate(i, r)
            if best is None or cert[1] > best[1]:
                best = cert
    if best is None:
        return None
    poly, root, log = best
    return list(poly), root, log


def entropy_lower_bound(code: str, i_max: int) -> float:
    """A lower bound for the topological entropy forced by the orbit."""
    cert = entropy_certificate(code, i_max)
    return 0.0 if cert is None else cert[2]
