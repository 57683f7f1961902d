"""Forcing decided by intersections with four disks.

For a decoration w and parameter q, four disks A, B, C, D are cut out of
the plane by the stable and unstable boundary of the decorated family
member.  Whether a point of a periodic orbit lies in a disk is decided by
two strict unimodal comparisons of its rays against periodic thresholds.
Counting the orbit's points in each disk gives a forcing test that is
completely independent of the invariant formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .height import _check_in_scope, cq_word
from .words import (
    EQ,
    GT,
    DomainError,
    OrbitPoint,
    Seq,
    backward_ray,
    forward_ray,
    is_even,
    is_primitive,
    unimodal_cmp,
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


@lru_cache(maxsize=None)
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


def in_disk(point: OrbitPoint, spec: DiskSpec) -> bool:
    """Whether an orbit point lies inside the disk.

    Both comparisons are evaluated first; if either ray sits exactly on a
    threshold the point belongs to the family boundary orbit itself and a
    DomainError is raised.
    """
    code, offset = point.code, point.offset
    # the neighbour's index is reduced mod N so its ray hits the ray cache
    if spec.name in ("A", "B"):
        first = point.backward
        second = forward_ray(code, (offset + 1) % len(code))
    else:
        first = point.forward
        second = backward_ray(code, (offset - 1) % len(code))
    side1 = unimodal_cmp(first, spec.principal)
    side2 = unimodal_cmp(second, spec.shifted)
    if side1 == EQ or side2 == EQ:
        raise DomainError("point lies on the boundary orbit of the family")
    return side1 == GT and side2 == GT


def intersection_counts(
    code: str, w: str, q: Fraction
) -> tuple[int, int, int, int]:
    """How many points of the orbit lie in each of the disks A, B, C, D.

    A boundary orbit of the family, a rotation of some c_q x w y, has a
    ray equal to a threshold, so in_disk refuses it.
    """
    specs = disk_specs(w, q)
    if not is_primitive(code):
        raise DomainError(f"imprimitive code: {code}")
    counts = [0, 0, 0, 0]
    for p in range(len(code)):
        point = OrbitPoint(code, p)
        for k, spec in enumerate(specs):
            if in_disk(point, spec):
                counts[k] += 1
    return tuple(counts)


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
