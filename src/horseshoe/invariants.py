"""Decoration invariants of periodic orbits.

For a decoration word w and an orbit code R, the invariant r^w(R) is a
rational in (0, scope(w)] computed from heights of rays based at cyclic
occurrences of certain windows derived from w.  The orbit R forces the
w-decorated family member at parameter q exactly when q > r^w(R).

The rays of R are rotations of R and of its reverse.  Height is
non-increasing in the unimodal order, so the least height over a set of
rays is the height of its unimodal-greatest ray: each invariant compares
integer unimodal keys and then makes one :func:`~horseshoe.height.height`
call.  Tables, r-sequences and the CLI read all invariants of a code from
one private evaluator; the public functions build one per call.  Nothing
outlives it, so height's cache stays the one store of ray heights.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .height import _check_in_scope, height, scope
from .words import (
    DomainError,
    _check_word,
    _rotation_keys,
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

    Height is non-increasing in the unimodal order, so an invariant is the
    height of the unimodal-greatest ray it reads; under "both" each
    occurrence offers the lesser of its two rays.  Rays are kept as N-bit
    unimodal keys, which order distinct rays of period N exactly because
    they differ within N symbols, and a key spells its ray back as the Gray
    code key ^ key >> 1, so only the winning ray reaches height.
    """

    __slots__ = ("code", "_fwd", "_bwd", "_occ")

    def __init__(self, code: str) -> None:
        _check_word(code, allow_empty=False)
        self.code = code
        # the forward ray at i reads the code from i; the backward ray at p
        # reads leftward from p - 1, which is the reverse from N - p
        self._fwd = _rotation_keys(code)
        self._bwd = _rotation_keys(code[::-1])
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

    def greatest(self, windows, direction: str) -> int:
        """The key of the unimodal-greatest ray read, or 0 (0^N, height 1/2) if none."""
        fwd, bwd, occ, N = self._fwd, self._bwd, self._occ, len(self.code)
        best = 0
        for v in windows:
            L = len(v)
            for p in occ[v] if v in occ else self._occurrences(v):
                # the backward ray at p is rotation (N - p) mod N of the reverse
                if direction == BACKWARD:
                    k = bwd[-p]
                else:
                    k = fwd[(p + L) % N]
                    if direction == BOTH and bwd[-p] < k:
                        k = bwd[-p]
                if k > best:
                    best = k
        return best

    def height(self, key: int) -> Fraction:
        """The height of the ray with this key."""
        return height(format(key ^ key >> 1, f"0{len(self.code)}b"))

    def mu(self, w: str) -> Fraction:
        return min(scope(w), self.height(self.greatest(_mu_windows(w), FORWARD)))

    def nu(self, w: str) -> Fraction:
        return min(scope(w), self.height(self.greatest(_nu_windows(w), BACKWARD)))

    def lam(self, w: str) -> Fraction:
        return min(scope(w), self.height(self.greatest(_lam_windows(w), BOTH)))

    def r_w(self, w: str) -> Fraction:
        # min(lam, max(mu, nu)) over heights is max(lam, min(mu, nu)) over keys
        lam_ = self.greatest(_lam_windows(w), BOTH)
        mu_ = self.greatest(_mu_windows(w), FORWARD)
        nu_ = self.greatest(_nu_windows(w), BACKWARD)
        return min(scope(w), self.height(max(lam_, min(mu_, nu_))))

    def r_star(self) -> Fraction:
        return self.height(self.greatest(("0", "1"), BOTH))


def r_dir(code: str, windows, direction: str) -> Fraction:
    """Least ray height over all cyclic occurrences of the given windows.

    A window occupying positions p .. p+|v|-1 of the cyclic code has a
    forward ray leaving its right end and a backward ray leaving its left
    end; "both" takes the larger of the two heights before minimizing.
    """
    rays = _Rays(code)
    if direction not in (FORWARD, BACKWARD, BOTH):
        raise DomainError(f"unknown direction: {direction!r}")
    return rays.height(rays.greatest(windows, direction))


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
    return _Rays(code).mu(w)


def nu(w: str, code: str) -> Fraction:
    """Backward-ray invariant over windows built from even prefixes of w."""
    return _Rays(code).nu(w)


def lam(w: str, code: str) -> Fraction:
    """Two-sided invariant over the windows x w y."""
    return _Rays(code).lam(w)


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
    return _forces(code, w, q)[1]


def _forces(code: str, w: str, q: Fraction) -> tuple[Fraction, str]:
    """r^w of the orbit together with forces' verdict at q."""
    q = _check_in_scope(w, q)
    r = r_w(w, code)
    return r, FORCED if q > r else NOT_FORCED if q < r else AT_THRESHOLD


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
