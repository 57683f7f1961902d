"""Forcing decided by intersections with four disks.

For a decoration w and parameter q, four disks A, B, C, D are cut out of
the plane by the stable and unstable boundary of the decorated family
member.  Whether a point of a periodic orbit lies in a disk is decided by
two strict unimodal comparisons of its rays against periodic thresholds.
Every sequence in such a comparison is periodic, so one window of N plus
the longest threshold period decides them all: each ray and threshold is
read as one integer key (:func:`words._unimodal_key`) at that window, and
membership is an integer comparison.  Counting the orbit's points in each
disk gives a forcing test that is completely independent of the invariant
formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .height import _check_in_scope, cq_word
from .words import (
    DomainError,
    OrbitPoint,
    Seq,
    _check_word,
    _unimodal_key,
    is_even,
    is_primitive,
)


@dataclass(frozen=True)
class DiskSpec:
    """One of the four disks, named A, B, C or D.

    ``principal`` bounds the ray leaving the disk on its own side (the
    backward ray for A and B, the forward ray for C and D); ``shifted``
    bounds the shift of the opposite ray.
    """

    name: str
    principal: Seq
    shifted: Seq


# One entry per (w, q): an oracle_sweep pass asks about 900 distinct pairs.
@lru_cache(maxsize=4096)
def _specs(w: str, q: Fraction) -> tuple[DiskSpec, ...]:
    c = cq_word(q)
    rw = w[::-1]
    return (
        DiskSpec("A", Seq.periodic(c + "0" + rw + "0"), Seq.periodic(w + "0" + c + "1")),
        DiskSpec("B", Seq.periodic(c + "1" + rw + "1"), Seq.periodic(w + "1" + c + "0")),
        DiskSpec("C", Seq.periodic(c + "0" + w + "0"), Seq.periodic(rw + "0" + c + "1")),
        DiskSpec("D", Seq.periodic(c + "1" + w + "1"), Seq.periodic(rw + "1" + c + "0")),
    )


def disk_specs(w: str, q: Fraction) -> tuple[DiskSpec, ...]:
    """The four disks of the w family at parameter q, in order A, B, C, D."""
    return _specs(w, _check_in_scope(w, q))


def _window(n: int, thresholds) -> int:
    # Rays of a period-n code and a threshold t that agree on n + |t| symbols
    # are equal, so this many symbols decide every comparison.
    return n + max(len(t.pre) + len(t.per) for t in thresholds)


def _ray_keys(code: str, p: int, window: int) -> tuple[int, int]:
    """Keys of the forward and backward rays at position p, cut to window."""
    rotation = code[p:] + code[:p]
    reps = rotation * (window // len(code) + 1)
    return _unimodal_key(reps[:window]), _unimodal_key(reps[::-1][:window])


def _inside(first: int, principal: int, second: int, shifted: int) -> bool:
    """Both ray keys strictly above their threshold keys.

    A tie means the point lies on the family's boundary orbit itself.
    """
    if first == principal or second == shifted:
        raise DomainError("point lies on the boundary orbit of the family")
    return first > principal and second > shifted


def in_disk(point: OrbitPoint, spec: DiskSpec) -> bool:
    """Whether an orbit point lies inside the disk.

    A and B compare the point's backward ray with the principal threshold
    and the forward ray of the next point with the shifted one; C and D
    compare the forward ray and the backward ray of the previous point.  If
    either ray sits exactly on a threshold the point belongs to the family
    boundary orbit itself and a DomainError is raised.
    """
    code = _check_word(point.code, allow_empty=False)
    n, p = len(code), point.offset
    window = _window(n, (spec.principal, spec.shifted))
    if spec.name in ("A", "B"):
        first = _ray_keys(code, p % n, window)[1]
        second = _ray_keys(code, (p + 1) % n, window)[0]
    else:
        first = _ray_keys(code, p % n, window)[0]
        second = _ray_keys(code, (p - 1) % n, window)[1]
    return _inside(
        first,
        _unimodal_key(spec.principal.prefix(window)),
        second,
        _unimodal_key(spec.shifted.prefix(window)),
    )


def intersection_counts(
    code: str, w: str, q: Fraction
) -> tuple[int, int, int, int]:
    """How many points of the orbit lie in each of the disks A, B, C, D.

    The 2N ray keys and the 8 threshold keys are computed once, at one
    window, and each point is tested against each disk by the rule of
    :func:`in_disk`.  A boundary orbit of the family, a rotation of some
    c_q x w y, has a ray equal to a threshold, so it is refused with a
    DomainError.
    """
    specs = disk_specs(w, q)
    if not is_primitive(code):
        raise DomainError(f"imprimitive code: {code}")
    n = len(code)
    thresholds = [t for spec in specs for t in (spec.principal, spec.shifted)]
    window = _window(n, thresholds)
    keys = [_unimodal_key(t.prefix(window)) for t in thresholds]
    fwd, bwd = zip(*(_ray_keys(code, p, window) for p in range(n)))
    fwd_next = fwd[1:] + fwd[:1]  # forward ray of the point to the right
    bwd_prev = bwd[-1:] + bwd[:-1]  # backward ray of the point to the left
    rays = ((bwd, fwd_next),) * 2 + ((fwd, bwd_prev),) * 2
    return tuple(
        sum(_inside(a, principal, b, shifted) for a, b in zip(first, second))
        for (first, second), principal, shifted in zip(rays, keys[::2], keys[1::2])
    )


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
