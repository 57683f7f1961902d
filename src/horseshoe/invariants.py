"""Decoration invariants of periodic orbits.

For a decoration word w and an orbit code R, the invariant r^w(R) is a
rational in (0, scope(w)] computed from heights of rays based at cyclic
occurrences of certain windows derived from w.  The orbit R forces the
w-decorated family member at parameter q exactly when q > r^w(R).

The rays of R are rotations of R and of its reverse, passed to
:func:`~horseshoe.height.height` as plain words.  All invariants of one
code are read from one private per-orbit evaluator, which checks the code
once, finds each window's occurrences once and reads each ray's height at
most once.  Tables and r-sequences share one evaluator per code; the public
functions build one per call.  Nothing outlives the evaluator, so
height's cache stays the one store of ray heights across calls.
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


class _Rays:
    """The rays of one orbit code, for evaluating its invariants together.

    The code is checked once and each window's occurrences are found once.
    Slot i of the forward (backward) list holds the height of the ray that
    leaves position i rightward (leftward from i - 1) as a triple
    (numerator, denominator, Fraction), read from height on first use.
    """

    __slots__ = ("code", "_ring", "_rev", "_fwd", "_bwd", "_occ")

    def __init__(self, code: str) -> None:
        _check_word(code, allow_empty=False)
        self.code = code
        # the forward ray at i is ring[i : i + N]; the backward ray at p
        # reads leftward from p - 1, which is rev[N - p : 2N - p]
        self._ring = code * 2
        self._rev = self._ring[::-1]
        self._fwd = [None] * len(code)
        self._bwd = [None] * len(code)
        self._occ = {}

    def _occurrences(self, v: str) -> list:
        """The start of every cyclic occurrence of v."""
        code, L = self.code, len(v)
        N = len(code)
        doubled = code * (L // N + 2)
        end = N + L - 1  # an occurrence found before end starts below N
        occ = self._occ[v] = []
        p = doubled.find(v, 0, end)
        while p >= 0:
            occ.append(p)
            p = doubled.find(v, p + 1, end)
        return occ

    def least(self, windows, direction: str) -> tuple:
        """r_dir as a (numerator, denominator, Fraction) triple."""
        fwd, bwd, occ = self._fwd, self._bwd, self._occ
        ring, rev, N = self._ring, self._rev, len(self.code)
        # best = bn/bd; heights are compared by cross-multiplying
        best, bn, bd = (1, 2, HALF), 1, 2
        for v in windows:
            L = len(v)
            for p in occ[v] if v in occ else self._occurrences(v):
                if direction == BACKWARD:
                    h = bwd[p]
                    if h is None:
                        q = height(rev[N - p : 2 * N - p])
                        h = bwd[p] = (q.numerator, q.denominator, q)
                else:
                    i = (p + L) % N
                    h = fwd[i]
                    if h is None:
                        q = height(ring[i : i + N])
                        h = fwd[i] = (q.numerator, q.denominator, q)
                    # the backward ray can only raise h, so read it only
                    # when h would beat the best so far
                    if direction == BOTH and h[0] * bd < bn * h[1]:
                        b = bwd[p]
                        if b is None:
                            q = height(rev[N - p : 2 * N - p])
                            b = bwd[p] = (q.numerator, q.denominator, q)
                        if b[0] * h[1] > h[0] * b[1]:
                            h = b
                if h[0] * bd < bn * h[1]:
                    best = h
                    bn, bd = h[0], h[1]
        return best

    def r_w(self, w: str) -> Fraction:
        s = scope(w)
        lam_ = self.least(_lam_windows(w), BOTH)
        mu_ = self.least(_mu_windows(w), FORWARD)
        nu_ = self.least(_nu_windows(w), BACKWARD)
        if mu_[0] * nu_[1] < nu_[0] * mu_[1]:
            mu_ = nu_  # now max(mu, nu)
        if mu_[0] * lam_[1] < lam_[0] * mu_[1]:
            lam_ = mu_  # now min(lam, max(mu, nu))
        return s if s.numerator * lam_[1] <= lam_[0] * s.denominator else lam_[2]

    def r_star(self) -> Fraction:
        return self.least(("0", "1"), BOTH)[2]


def r_dir(code: str, windows, direction: str) -> Fraction:
    """Least ray height over all cyclic occurrences of the given windows.

    A window occupying positions p .. p+|v|-1 of the cyclic code has a
    forward ray leaving its right end and a backward ray leaving its left
    end; "both" takes the larger of the two heights before minimizing.
    """
    rays = _Rays(code)
    if direction not in (FORWARD, BACKWARD, BOTH):
        raise DomainError(f"unknown direction: {direction!r}")
    return rays.least(windows, direction)[2]


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
    return min(scope(w), _Rays(code).least(_mu_windows(w), FORWARD)[2])


def nu(w: str, code: str) -> Fraction:
    """Backward-ray invariant over windows built from even prefixes of w."""
    return min(scope(w), _Rays(code).least(_nu_windows(w), BACKWARD)[2])


def lam(w: str, code: str) -> Fraction:
    """Two-sided invariant over the windows x w y."""
    return min(scope(w), _Rays(code).least(_lam_windows(w), BOTH)[2])


def r_w(w: str, code: str) -> Fraction:
    """The decoration invariant r^w of an orbit code.

    r^w = min(scope(w), lam, max(mu, nu)), which equals min(lam, max(mu, nu))
    over the scope-capped mu, nu and lam.
    """
    return _Rays(code).r_w(w)


def r_star(code: str) -> Fraction:
    """The star invariant: two-sided ray heights at every position."""
    return _Rays(code).r_star()


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
