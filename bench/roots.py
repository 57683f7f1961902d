"""Exact real-root tests for integer polynomials, independent of the package.

Polynomials are coefficient lists, constant term first.  Points are
``Fraction`` values; a float converts to its exact dyadic ``Fraction``.
Roots in an open interval are counted with Descartes' rule of signs after
the Moebius map of the interval onto (0, inf), bisecting while the count is
inconclusive (Vincent-Collins-Akritas).
"""
from __future__ import annotations

from fractions import Fraction

_MAX_DEPTH = 200


def sign_at(coeffs: list[int], x: Fraction) -> int:
    """The sign of the polynomial at a rational point, exactly."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):  # acc / den^k tracks the Horner value
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations(coeffs: list[int], a: Fraction, b: Fraction) -> int:
    """Sign variations of (1+t)^d p(a + (b-a)/(1+t)), a bound on roots in (a, b)."""
    d = len(coeffs) - 1
    D = a.denominator * b.denominator
    A = a.numerator * b.denominator
    B = b.numerator * a.denominator - A
    # q(y) = D^d p((A + B y) / D), built by homogenized Horner
    q = [coeffs[d]]
    power = 1
    for c in reversed(coeffs[:d]):
        power *= D
        nxt = [0] * (len(q) + 1)
        for k, v in enumerate(q):
            nxt[k] += A * v
            nxt[k + 1] += B * v
        nxt[0] += c * power
        q = nxt
    # reverse (y -> 1/y) then shift (y -> 1 + t)
    r = q[::-1]
    n = len(r)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            r[j] += r[j + 1]
    signs = [v > 0 for v in r if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def has_root_in(coeffs: list[int], a: Fraction, b: Fraction, depth: int = 0) -> bool:
    """Whether the polynomial has a real root in the closed interval [a, b]."""
    if sign_at(coeffs, a) == 0 or sign_at(coeffs, b) == 0:
        return True
    if a >= b:
        return False
    v = _variations(coeffs, a, b)
    if v % 2 == 1:
        return True
    if v == 0:
        return False
    if depth >= _MAX_DEPTH:
        raise ArithmeticError("root isolation did not converge")
    m = (a + b) / 2
    return has_root_in(coeffs, a, m, depth + 1) or has_root_in(coeffs, m, b, depth + 1)
