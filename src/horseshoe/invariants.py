"""Decoration invariants of periodic orbits.

For a decoration word w and an orbit code R, the invariant r^w(R) is a
rational in (0, scope(w)] computed from heights of rays based at cyclic
occurrences of certain windows derived from w.  The orbit R forces the
w-decorated family member at parameter q exactly when q > r^w(R).

The rays of R are rotations of R and of its reverse, passed to
:func:`~horseshoe.height.height` as plain words, so its cache is the one
store of ray heights.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .height import HALF, _check_in_scope, height, scope
from .words import (
    DomainError,
    _check_word,
    append_even,
    even_final_subwords,
    even_initial_subwords,
    flip_first,
    flip_last,
    prepend_even,
)

FORWARD = "forward"
BACKWARD = "backward"
BOTH = "both"

FORCED = "FORCED"
NOT_FORCED = "NOT-FORCED"
AT_THRESHOLD = "THRESHOLD"


def r_dir(code: str, windows, direction: str) -> Fraction:
    """Least ray height over all cyclic occurrences of the given windows.

    A window occupying positions p .. p+|v|-1 of the cyclic code has a
    forward ray leaving its right end and a backward ray leaving its left
    end; "both" takes the larger of the two heights before minimizing.
    """
    _check_word(code, allow_empty=False)
    if direction not in (FORWARD, BACKWARD, BOTH):
        raise DomainError(f"unknown direction: {direction!r}")
    N = len(code)
    # the forward ray at i is ring[i : i + N]; the backward ray at p reads
    # leftward from p - 1, which is rev[N - p : 2N - p]
    ring = code * 2
    rev = ring[::-1]
    # best = bn/bd; heights are compared by cross-multiplying
    best, bn, bd = HALF, 1, 2
    for v in windows:
        L = len(v)
        doubled = code * (L // N + 2)
        end = N + L - 1  # an occurrence found before end starts below N
        p = doubled.find(v, 0, end)
        while p >= 0:
            if direction == BACKWARD:
                q = height(rev[N - p : 2 * N - p])
            else:
                i = (p + L) % N
                q = height(ring[i : i + N])
                # the backward ray can only raise q, so read it only when
                # q would beat the best so far
                if direction == BOTH and q.numerator * bd < bn * q.denominator:
                    b = height(rev[N - p : 2 * N - p])
                    if b.numerator * q.denominator > q.numerator * b.denominator:
                        q = b
            if q.numerator * bd < bn * q.denominator:
                best, bn, bd = q, q.numerator, q.denominator
            p = doubled.find(v, p + 1, end)
    return best


# The window builders keep one entry per decoration, as scope does.
@lru_cache(maxsize=1024)
def _mu_windows(w: str) -> tuple[str, ...]:
    return tuple(
        flip_first(v) + x
        for v in even_final_subwords(prepend_even(w))
        for x in "01"
    )


@lru_cache(maxsize=1024)
def _nu_windows(w: str) -> tuple[str, ...]:
    return tuple(
        x + flip_last(v)
        for v in even_initial_subwords(append_even(w))
        for x in "01"
    )


@lru_cache(maxsize=1024)
def _lam_windows(w: str) -> tuple[str, ...]:
    return tuple(x + w + y for x in "01" for y in "01")


def mu(w: str, code: str) -> Fraction:
    """Forward-ray invariant over windows built from even suffixes of w."""
    return min(scope(w), r_dir(code, _mu_windows(w), FORWARD))


def nu(w: str, code: str) -> Fraction:
    """Backward-ray invariant over windows built from even prefixes of w."""
    return min(scope(w), r_dir(code, _nu_windows(w), BACKWARD))


def lam(w: str, code: str) -> Fraction:
    """Two-sided invariant over the windows x w y."""
    return min(scope(w), r_dir(code, _lam_windows(w), BOTH))


def r_w(w: str, code: str) -> Fraction:
    """The decoration invariant r^w of an orbit code.

    r^w = min(scope(w), lam, max(mu, nu)), which equals min(lam, max(mu, nu))
    over the scope-capped mu, nu and lam.
    """
    return min(
        scope(w),
        r_dir(code, _lam_windows(w), BOTH),
        max(
            r_dir(code, _mu_windows(w), FORWARD),
            r_dir(code, _nu_windows(w), BACKWARD),
        ),
    )


def r_star(code: str) -> Fraction:
    """The star invariant: two-sided ray heights at every position."""
    return min(HALF, r_dir(code, ("0", "1"), BOTH))


def forces(code: str, w: str, q: Fraction) -> str:
    """Does the orbit force the w-decorated family member at parameter q?

    Returns FORCED, NOT-FORCED, or THRESHOLD (the boundary case q = r^w).
    The parameter must satisfy 0 < q < scope(w).
    """
    q = _check_in_scope(w, q)
    r = r_w(w, code)
    if q > r:
        return FORCED
    if q < r:
        return NOT_FORCED
    return AT_THRESHOLD


def rhe_is_half(code: str) -> bool:
    """True iff the right-hand end invariant of the orbit is 1/2.

    Holds exactly when the cyclic code contains 01010 or a 1-run of odd
    length at least 3.
    """
    _check_word(code, allow_empty=False)
    if "0" not in code:
        return False
    doubled = code * (5 // len(code) + 3)
    if "01010" in doubled:
        return True
    k = code.index("0")
    rot = code[k + 1 :] + code[: k + 1]  # rotate to end on that 0
    return any(len(run) % 2 == 1 and len(run) >= 3 for run in rot.split("0"))
