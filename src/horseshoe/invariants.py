"""Decoration invariants of periodic orbits.

For a decoration word w and an orbit code R, the invariant r^w(R) is a
rational in (0, scope(w)] computed from heights of rays based at cyclic
occurrences of certain windows derived from w.  The orbit R forces the
w-decorated family member at parameter q exactly when q > r^w(R).

The rays of R are rotations of R and of its reverse.  Height is
non-increasing in the unimodal order, so the least height over a set of
rays is the height of its unimodal-greatest ray: each invariant compares
integer unimodal keys and then makes one :func:`~horseshoe.height.height`
call.  An invariant is a read, a set of windows with a direction; the reads
a caller asks for compile into one plan, and a private evaluator walks the
cyclic code once per window length in the plan, offering each occurrence's
ray keys to every read its window feeds.  Tables, r-sequences and the CLI
read all invariants of a code from one scan; the public functions make a
one-read or one-decoration plan per call.  Plans hold windows only and the
evaluator outlives no call, so height's cache stays the one store of ray
heights.
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
_DIRECTIONS = (FORWARD, BACKWARD, BOTH)

FORCED = "FORCED"
NOT_FORCED = "NOT-FORCED"
AT_THRESHOLD = "THRESHOLD"


# One entry per read tuple: a benchmark pass asks at most 21, the r^w of each
# lone decoration of length <= 5 on oracle_sweep, and a table pass asks one.
@lru_cache(maxsize=1024)
def _plan(reads: tuple) -> tuple:
    """Compile reads, a tuple of (windows, direction), into one scan.

    Returns (L, table) pairs, one per window length L, where table maps each
    window of length L to the reads it feeds as (forward, backward, both)
    tuples of read indices.
    """
    tables: dict = {}
    for i, (windows, direction) in enumerate(reads):
        if direction not in _DIRECTIONS:
            raise DomainError(f"unknown direction: {direction!r}")
        d = _DIRECTIONS.index(direction)
        for v in windows:
            feeds = tables.setdefault(len(v), {}).setdefault(v, ([], [], []))[d]
            if not feeds or feeds[-1] != i:  # a window repeated within one read
                feeds.append(i)
    return tuple(
        (L, {v: tuple(map(tuple, feeds)) for v, feeds in table.items()})
        for L, table in tables.items()
    )


class _Rays:
    """The rays of one orbit code, for evaluating its invariants together.

    Height is non-increasing in the unimodal order, so an invariant is the
    height of the unimodal-greatest ray it reads; under "both" each
    occurrence offers the lesser of its two rays.  Rays are kept as N-bit
    unimodal keys, which order distinct rays of period N exactly because
    they differ within N symbols, and a key spells its ray back as the Gray
    code key ^ key >> 1, so only the winning ray reaches height.

    All invariants a caller asks for are reads of one plan: :meth:`keys`
    walks the cyclic code once per window length in the plan, looks each
    start's window up once, and offers that occurrence's ray key to every
    read the window feeds.
    """

    __slots__ = ("code", "_fwd", "_bwd")

    def __init__(self, code: str) -> None:
        _check_word(code, allow_empty=False)
        self.code = code
        # the forward ray at i reads the code from i; the backward ray at p
        # reads leftward from p - 1, which is the reverse from N - p
        self._fwd = _rotation_keys(code)
        self._bwd = _rotation_keys(code[::-1])

    def keys(self, reads: tuple) -> list[int]:
        """The key of the unimodal-greatest ray of each read, or 0 (0^N,
        height 1/2) for a read whose windows do not occur."""
        code, fwd, bwd = self.code, self._fwd, self._bwd
        N = len(code)
        best = [0] * len(reads)
        for L, table in _plan(reads):
            doubled = code * (L // N + 2)
            get = table.get
            for p in range(N):
                feeds = get(doubled[p : p + L])
                if feeds is None:
                    continue
                # the backward ray at p is rotation (N - p) mod N of the reverse
                kf, kb = fwd[(p + L) % N], bwd[-p]
                forward, backward, both = feeds
                for i in forward:
                    if kf > best[i]:
                        best[i] = kf
                for i in backward:
                    if kb > best[i]:
                        best[i] = kb
                if both:
                    k = kb if kb < kf else kf
                    for i in both:
                        if k > best[i]:
                            best[i] = k
        return best

    def height(self, key: int) -> Fraction:
        """The height of the ray with this key."""
        return height(format(key ^ key >> 1, f"0{len(self.code)}b"))

    def read(self, windows, direction: str) -> Fraction:
        """The least ray height over the occurrences of the windows."""
        return self.height(self.keys(((tuple(windows), direction),))[0])

    def values(self, decorations: tuple) -> list[Fraction]:
        """r^w for each decoration w, and r* where w is _STAR_READ, from one scan."""
        keys = iter(self.keys(_reads(decorations)))
        out = []
        for w in decorations:
            if w is _STAR_READ:
                out.append(self.height(next(keys)))
            else:
                # min(lam, max(mu, nu)) over heights is max(lam, min(mu, nu)) over keys
                lam_, mu_, nu_ = next(keys), next(keys), next(keys)
                out.append(min(scope(w), self.height(max(lam_, min(mu_, nu_)))))
        return out

    def parts(self, w: str) -> tuple[Fraction, ...]:
        """(mu, nu, lam, r^w) of one decoration, from one scan."""
        lam_, mu_, nu_ = self.keys(_reads((w,)))
        s = scope(w)
        return tuple(
            min(s, self.height(k)) for k in (mu_, nu_, lam_, max(lam_, min(mu_, nu_)))
        )


def r_dir(code: str, windows, direction: str) -> Fraction:
    """Least ray height over all cyclic occurrences of the given windows.

    A window occupying positions p .. p+|v|-1 of the cyclic code has a
    forward ray leaving its right end and a backward ray leaving its left
    end; "both" takes the larger of the two heights before minimizing.
    """
    return _Rays(code).read(windows, direction)


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


# r* reads both rays at every position; callers pass this read itself in
# place of a decoration to ask for r*
_STAR_READ = (("0", "1"), BOTH)


# One entry per decoration tuple, so as many as _plan holds from r^w and r*.
@lru_cache(maxsize=1024)
def _reads(decorations: tuple) -> tuple:
    """The reads of r^w for each decoration w, as (lam, mu, nu), and of r*
    where w is _STAR_READ, in one tuple for :func:`_plan`."""
    reads = []
    for w in decorations:
        if w is _STAR_READ:
            reads.append(_STAR_READ)
        else:
            reads += [
                (_lam_windows(w), BOTH),
                (_mu_windows(w), FORWARD),
                (_nu_windows(w), BACKWARD),
            ]
    return tuple(reads)


def mu(w: str, code: str) -> Fraction:
    """Forward-ray invariant over windows built from even suffixes of w."""
    return min(scope(w), _Rays(code).read(_mu_windows(w), FORWARD))


def nu(w: str, code: str) -> Fraction:
    """Backward-ray invariant over windows built from even prefixes of w."""
    return min(scope(w), _Rays(code).read(_nu_windows(w), BACKWARD))


def lam(w: str, code: str) -> Fraction:
    """Two-sided invariant over the windows x w y."""
    return min(scope(w), _Rays(code).read(_lam_windows(w), BOTH))


def r_w(w: str, code: str) -> Fraction:
    """The decoration invariant r^w of an orbit code.

    r^w = min(scope(w), lam, max(mu, nu)), which equals min(lam, max(mu, nu))
    over the scope-capped mu, nu and lam.
    """
    return _Rays(code).values((w,))[0]


def r_star(code: str) -> Fraction:
    """The star invariant: two-sided ray heights at every position."""
    return _Rays(code).values((_STAR_READ,))[0]


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
