"""Forcing decided by intersections with four disks.

For a decoration w and parameter q, four disks A, B, C, D are cut out of
the plane by the stable and unstable boundary of the decorated family
member.  Whether a point of a periodic orbit lies in a disk is decided by
two strict unimodal comparisons of its rays against periodic thresholds,
each given as its repeating word.  Every sequence in such a comparison is
periodic, so one window of N plus the longest threshold period decides them
all: each threshold is read as one integer key (:func:`words._unimodal_key`)
at that window, the N forward ray keys are slices of one key of the code
repeated, the N backward ray keys slices of one key of its reverse, and
membership is an integer comparison.  Counting the orbit's points in each
disk gives a forcing test that is independent of the invariant formula.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .height import _check_in_scope, cq_word
from .words import DomainError, _check_word, _unimodal_key, is_even, is_primitive

_ON_BOUNDARY = "point lies on the boundary orbit of the family"


DiskSpec = namedtuple("DiskSpec", "name principal shifted")
DiskSpec.__doc__ = """One of the four disks, named A, B, C or D.

``principal`` and ``shifted`` are the repeating words of two periodic
thresholds.  ``principal`` bounds the ray leaving the disk on its own
side (the backward ray for A and B, the forward ray for C and D);
``shifted`` bounds the shift of the opposite ray.
"""


# One entry per (w, q): an oracle_sweep pass asks about 900 distinct pairs.
@lru_cache(maxsize=4096)
def _specs(w: str, q: Fraction) -> tuple[DiskSpec, ...]:
    c = cq_word(q)
    rw = w[::-1]
    return (
        DiskSpec("A", c + "0" + rw + "0", w + "0" + c + "1"),
        DiskSpec("B", c + "1" + rw + "1", w + "1" + c + "0"),
        DiskSpec("C", c + "0" + w + "0", rw + "0" + c + "1"),
        DiskSpec("D", c + "1" + w + "1", rw + "1" + c + "0"),
    )


def disk_specs(w: str, q: Fraction) -> tuple[DiskSpec, ...]:
    """The four disks of the w family at parameter q, in order A, B, C, D."""
    return _specs(w, _check_in_scope(w, q))


def _ray_keys(code: str, window: int) -> list[int]:
    """The keys of the first window symbols of code^inf read from each p < |code|.

    Each is a slice of one key of code repeated to |code| - 1 + window
    symbols: bit j of that key is the parity of its first j + 1 symbols, so
    the slice at p is complemented when the p symbols before it hold an odd
    number of 1s.
    """
    length = len(code) - 1 + window
    K = _unimodal_key((code * (length // len(code) + 1))[:length])
    mask = (1 << window) - 1
    flip = (0, mask)
    return [
        K >> (length - window - p) & mask ^ flip[K >> (length - p) & 1]
        for p in range(len(code))
    ]


def _members(code: str, specs) -> list[tuple[bool | None, ...]]:
    """For each disk, whether each point of the orbit lies inside it.

    A and B compare the point's backward ray with the principal threshold
    and the forward ray of the next point with the shifted one; C and D
    compare the forward ray and the backward ray of the previous point.
    Inside means both rays lie strictly above their thresholds.  A ray
    exactly on a threshold means the point lies on the family's boundary
    orbit itself, and its entry is None.  The 2N ray keys are sliced from
    two keys, one of the code and one of its reverse (:func:`_ray_keys`).
    """
    n = len(code)
    # Rays of a period-n code and a threshold t that agree on n + |t| symbols
    # are equal, so this many symbols decide every comparison.
    window = n + max(len(t) for spec in specs for t in (spec.principal, spec.shifted))

    def key(word: str) -> int:
        return _unimodal_key((word * (window // len(word) + 1))[:window])

    fwd = _ray_keys(code, window)
    rb = _ray_keys(code[::-1], window)
    bwd = [rb[-p] for p in range(n)]  # the ray at p reads the reverse from n - p
    rows = []
    for spec in specs:
        principal, shifted = key(spec.principal), key(spec.shifted)
        if spec.name in ("A", "B"):
            pairs = zip(bwd, fwd[1:] + fwd[:1])
        else:
            pairs = zip(fwd, bwd[-1:] + bwd[:-1])
        rows.append(tuple(
            None if a == principal or b == shifted else a > principal and b > shifted
            for a, b in pairs
        ))
    return rows


def in_disk(code: str, offset: int, spec: DiskSpec) -> bool:
    """Whether the point of the orbit at position offset of code lies in the disk.

    If one of the point's rays sits exactly on a threshold the point
    belongs to the family's boundary orbit itself and a DomainError is
    raised.
    """
    _check_word(code, allow_empty=False)
    inside = _members(code, (spec,))[0][offset % len(code)]
    if inside is None:
        raise DomainError(_ON_BOUNDARY)
    return inside


def intersection_counts(
    code: str, w: str, q: Fraction
) -> tuple[int, int, int, int]:
    """How many points of the orbit lie in each of the disks A, B, C, D.

    A boundary orbit of the family, a rotation of some c_q x w y, has a ray
    equal to a threshold, so it is refused with a DomainError.
    """
    specs = disk_specs(w, q)
    if not is_primitive(code):
        raise DomainError(f"imprimitive code: {code}")
    rows = _members(code, specs)
    if any(None in row for row in rows):
        raise DomainError(_ON_BOUNDARY)
    return tuple(sum(row) for row in rows)


def forcing_oracle(code: str, w: str, q: Fraction) -> bool:
    """Forcing decided purely by disk intersections.

    Requires the denominator of q to exceed twice the period, which keeps
    every comparison strict.  For even decorations (evenly many 1s) the test
    is nonempty intersection with both A and C; for odd decorations, with
    both B and D.
    """
    q = Fraction(q)
    if q.denominator <= 2 * len(code):
        raise DomainError(
            "the denominator of q must exceed twice the period of the code"
        )
    a, b, c, d = intersection_counts(code, w, q)
    if is_even(w):
        return a > 0 and c > 0
    return b > 0 and d > 0
