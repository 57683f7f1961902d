"""Surveys over all orbits of a given period.

Enumerates primitive binary necklaces, tabulates decoration invariants
with orbits grouped by (kind, height, decoration), and measures how
universal a decoration's forcing is across all orbits of a period,
either exactly or by orbit-uniform sampling.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .height import HALF, _check_in_scope, cq_word, finite_order_word, scope
from .invariants import _Rays, r_w
from .orbits import DECORATED, FINITE_ORDER, NBT, classify
from .words import DomainError, _unimodal_key, canonical_code, is_primitive

STAR = "*"
# Exact tables and scans enumerate about 2^n / n necklaces (necklaces(20)
# takes seconds), so periods above this are refused; sample them instead.
MAX_EXACT_PERIOD = 24


def _check_exact_period(n: int) -> None:
    if n > MAX_EXACT_PERIOD:
        raise DomainError(
            f"exact enumeration is limited to period {MAX_EXACT_PERIOD}, got {n};"
            " estimate larger periods with scan --sample"
        )


def necklaces(n: int) -> list[str]:
    """Canonical codes of all primitive binary necklaces of length n."""
    if n < 1:
        raise DomainError(f"necklace length must be positive, got {n}")
    out = []
    w = [0]
    while w:
        if len(w) == n:
            out.append(canonical_code("".join("01"[b] for b in w)))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


@dataclass(frozen=True)
class TableRow:
    label: str
    members: tuple[str, ...]
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class DecInvTable:
    period: int
    decorations: tuple[str, ...]
    scope_row: tuple[Fraction, ...]
    rows: tuple[TableRow, ...]


def _row_label(kind, q, w, members, infos) -> str:
    if len(members) == 1:
        return members[0]
    if kind == FINITE_ORDER:
        return finite_order_word(q) + "."
    if kind == NBT:
        return cq_word(q) + "."
    if kind != DECORATED:
        return members[0]
    c = cq_word(q)
    if len(members) == 4:
        return c + "." + w + "."
    if len(members) == 3:
        return c + "." + w + "(.)"
    xs = {info.x for info in infos}
    ys = {info.y for info in infos}
    if len(xs) == 1:
        return c + next(iter(xs)) + w + "."
    if len(ys) == 1:
        return c + "." + w + next(iter(ys))
    return c + "." + w + "."


_DEFAULT_DECORATIONS = (STAR, "", "0", "1", "00", "11", "000", "101", "111")


def decinv_table(
    period: int, decorations: tuple[str, ...] = _DEFAULT_DECORATIONS
) -> DecInvTable:
    """Invariants of every orbit of one period, grouped into table rows.

    Orbits sharing kind, height, and decoration form one row; their
    invariants are required to agree.  Rows are ordered by the unimodal
    order of each row's least member, and the table carries a leading
    row of scopes ("*" marks the star invariant, whose scope is 1/2).
    Periods above MAX_EXACT_PERIOD raise DomainError.
    """
    if period < 3:
        raise DomainError(f"table requires period at least 3, got {period}")
    _check_exact_period(period)
    decorations = tuple(decorations)
    groups: dict[tuple, list] = {}
    for code in necklaces(period):
        info = classify(code)
        groups.setdefault((info.kind, info.height, info.decoration), []).append(
            info
        )
    rows = []
    for (kind, q, w), infos in groups.items():
        members = sorted((info.code for info in infos), key=_unimodal_key)
        evaluators = [_Rays(m) for m in members]
        values = []
        for d in decorations:
            vals = [e.r_star() if d == STAR else e.r_w(d) for e in evaluators]
            if any(v != vals[0] for v in vals):
                raise RuntimeError(
                    f"group members disagree on {d!r}: {members} -> {vals}"
                )
            values.append(vals[0])
        label = _row_label(kind, q, w, members, infos)
        rows.append(TableRow(label, tuple(members), tuple(values)))
    rows.sort(key=lambda row: _unimodal_key(row.members[0]))
    scope_row = tuple(HALF if d == STAR else scope(d) for d in decorations)
    return DecInvTable(period, decorations, scope_row, tuple(rows))


def universality_scan(w: str, q: Fraction, n: int) -> Fraction:
    """The exact fraction of period-n orbits whose invariant r^w is below q.

    Periods above MAX_EXACT_PERIOD raise DomainError.
    """
    q = _check_in_scope(w, q)
    _check_exact_period(n)
    codes = necklaces(n)
    hits = sum(1 for code in codes if r_w(w, code) < q)
    return Fraction(hits, len(codes))


def universality_sample(
    w: str, q: Fraction, n: int, k: int, seed: int = 0
) -> Fraction:
    """Like the scan, estimated from k orbits drawn uniformly at random."""
    q = _check_in_scope(w, q)
    if n < 1 or k < 1:
        raise DomainError("need a positive period and sample size")
    rng = random.Random(seed)
    hits = 0
    for _ in range(k):
        while True:
            word = "".join(rng.choice("01") for _ in range(n))
            if is_primitive(word):
                break
        if r_w(w, word) < q:
            hits += 1
    return Fraction(hits, k)


def wilson_interval(p, k: int, z: float = 3.0) -> tuple[float, float]:
    """The Wilson score interval (lo, hi) for a share p observed in k trials."""
    p = float(p)
    centre = p + z * z / (2 * k)
    half = z * math.sqrt(p * (1 - p) / k + z * z / (4 * k * k))
    scale = 1 + z * z / k
    return (centre - half) / scale, (centre + half) / scale
