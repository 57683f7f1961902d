"""Surveys over all orbits of a given period.

Enumerates primitive binary necklaces, tabulates decoration invariants
with orbits grouped by (kind, height, decoration), and measures how
universal a decoration's forcing is across all orbits of a period,
either exactly or by orbit-uniform sampling.
"""
from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .height import _check_in_scope
from .invariants import STAR, _below, _plan, _values
from .orbits import classify
from .words import DomainError, _is_primitive, _unimodal_key, canonical_code

# Exact tables and scans read about 2^n / n Lyndon words, one per necklace, so
# their cost about quadruples every two periods.  At this limit the exact scan
# of r^1 took 11-12 s (q = 1/3 and 1/20, 21 MB peak RSS), necklaces 8.5 s
# (75 MB) and the table 83 s (270 MB); at n = 22 they took 2.2-2.4 s, 1.9 s
# and 20 s, and at n = 20 0.6-1.4 s, 0.9 s and 7.1 s (Python 3.11.7 on 2
# shared vCPUs).  Longer periods are refused; sample them instead.
MAX_EXACT_PERIOD = 24
# A sampled orbit is decided by one substring search when it holds no T_q
# forced prefix, and otherwise read once through an automaton of its
# decoration's windows extended by that prefix, slicing an n-bit ray key
# only where an occurrence reaches the prefix.  One sample's test of r^1
# took 0.08-0.12 ms at this limit with q = 1/3 and 0.05-0.06 ms with
# q = 1/20, and 0.23-0.37 and 0.21-0.68 ms at n = 16,000.  A code whose
# every occurrence reaches the prefix and settles nothing still slices a
# key per occurrence, so its time grows faster than n: (1 0^19 1011)^inf
# cut to n took 0.77 ms at this limit and 4.1 ms at n = 16,000 with
# q = 1/20, all within 16 MB peak RSS (Python 3.11.7); longer periods are
# refused.
MAX_SAMPLE_PERIOD = 4096
# k samples of period n cost about as much as k * (n + _SAMPLE_OVERHEAD) symbols
# when no sample stops early.  At this budget a sampled scan of r^1 with
# q = 1/3, 1/6 and 1/20 took 0.15-0.26 s at n = 1; at n = 64 it took
# 0.84-1.15 s with q = 1/3, the slowest case, 0.63-0.89 s with q = 1/6 and
# 0.32-0.39 s with q = 1/20; at n = 4,096 it took 0.33-0.60 s (three runs
# each on 2 shared vCPUs, Python 3.11.7, 15 MB peak RSS at most); larger
# budgets are refused.
MAX_SAMPLE_SYMBOLS = 1 << 22
_SAMPLE_OVERHEAD = 12
# Width of the Wilson intervals around sampled shares, in standard deviations.
_WILSON_Z = 3


def _lyndon_words(n: int):
    """An iterator over the Lyndon words of length n, one per primitive binary
    necklace; lengths above MAX_EXACT_PERIOD raise DomainError at the call,
    before any is enumerated."""
    if n < 1:
        raise DomainError(f"necklace length must be positive, got {n}")
    if n > MAX_EXACT_PERIOD:
        raise DomainError(
            f"exact enumeration is limited to period {MAX_EXACT_PERIOD}, got {n};"
            " estimate larger periods with scan --sample"
        )
    return _lyndon_stream(n)


def _lyndon_stream(n: int):
    """The Lyndon words of length n in lexicographic order.  Each word of
    length at most n comes from the one before: repeat that to length n,
    drop the trailing 1s, and raise the last 0 to 1."""
    w = "0"
    while w:
        if len(w) == n:
            yield w
        w = (w * (n // len(w) + 1))[:n].rstrip("1")
        if w:
            w = w[:-1] + "1"


def necklaces(n: int) -> list[str]:
    """Canonical codes of all primitive binary necklaces of length n; lengths
    above MAX_EXACT_PERIOD raise DomainError before any is enumerated."""
    return list(map(canonical_code, _lyndon_words(n)))


TableRow = namedtuple("TableRow", "label members values")
TableRow.__doc__ = """One row of a decoration invariant table: its label (str),
its members' canonical codes (tuple of str) and its invariants, one
Fraction per decoration."""

DecInvTable = namedtuple("DecInvTable", "period decorations scope_row rows")
DecInvTable.__doc__ = """A decoration invariant table: the period (int), the
decorations (tuple of str), their scopes (tuple of Fraction) and the rows
(tuple of TableRow)."""


def _row_label(members: list[str]) -> str:
    """The symbols every member shares, with "." where they differ; a row of
    three of the four spellings c_q x w y ends in "(.)" instead of "."."""
    label = "".join(c[0] if len(set(c)) == 1 else "." for c in zip(*members))
    return label[:-1] + "(.)" if len(members) == 3 else label


_DEFAULT_DECORATIONS = (STAR, "", "0", "1", "00", "11", "000", "101", "111")


def decinv_table(
    period: int, decorations: tuple[str, ...] = _DEFAULT_DECORATIONS
) -> DecInvTable:
    """Invariants of every orbit of one period, grouped into table rows.

    Orbits sharing kind, height, and decoration form one row; their
    invariants are required to agree.  A row's label shows the symbol its
    members share at each position, or "." where they differ; a row of
    three of the four spellings c_q x w y ends in "(.)" instead.  Rows are
    ordered by the unimodal order of each row's least member, and the table
    carries a leading row of scopes ("*" marks the star invariant, whose
    scope is 1/2).  Periods above MAX_EXACT_PERIOD raise DomainError.
    """
    if period < 3:
        raise DomainError(f"table requires period at least 3, got {period}")
    decorations = tuple(decorations)
    groups: dict[tuple, list[str]] = {}
    for word in _lyndon_words(period):
        info = classify(word)  # canonicalizes the word, once
        key = (info.kind, info.height, info.decoration)
        groups.setdefault(key, []).append(info.code)
    rows = []
    for members in groups.values():
        members.sort(key=_unimodal_key)
        member_rows = [_values(m, decorations) for m in members]
        if any(row != member_rows[0] for row in member_rows):
            raise RuntimeError(f"group members disagree: {members} -> {member_rows}")
        label = _row_label(members)
        rows.append(TableRow(label, tuple(members), tuple(member_rows[0])))
    rows.sort(key=lambda row: _unimodal_key(row.members[0]))
    return DecInvTable(period, decorations, _plan(decorations)[0], tuple(rows))


def universality_scan(w: str, q: Fraction, n: int) -> Fraction:
    """The exact fraction of period-n orbits whose invariant r^w is below q.

    Each orbit is decided by comparing its ray keys with the threshold T_q
    (invariants._below), without computing r^w.  Periods above
    MAX_EXACT_PERIOD, and q whose denominator is above
    height.MAX_CQ_DENOMINATOR, raise DomainError.
    """
    q = _check_in_scope(w, q)
    words = _lyndon_words(n)  # checks n before _below reads T_q's first n symbols
    # _below reads every cyclic occurrence, so any rotation of a necklace will do
    flags = list(map(_below(w, q, n), words))
    return Fraction(sum(flags), len(flags))


# rng.choice("01") keeps the top two bits of one 32-bit generator output and
# draws again on 2 or 3, so an output spells "0" when its high byte is below
# 64, "1" when it is below 128, and nothing otherwise.  getrandbits(32 * m)
# consumes m outputs and puts the first in its lowest 32 bits.
_SYMBOLS = bytes(b"01"[b >= 64] for b in range(256))
_REDRAWN = bytes(range(128, 256))
# Generator outputs drawn at a time, spelling about half as many symbols.  A
# larger block, or one sized from n or k, raises a sample's peak memory: at
# n = 64, k = 1,000 a block of 4,096 outputs added 40 KB of peak RSS to the
# run, 512 outputs 8 KB and 256 outputs 4 KB, where drawing each word on its
# own added 8 KB; a smaller block costs more time per output.
_BLOCK = 256


def _random_words(rng: random.Random, n: int):
    """The words that successive runs of n rng.choice("01") calls spell.

    The words are consecutive n-symbol pieces of one stream of symbols,
    spelled a block of _BLOCK outputs at a time, so a word may begin in one
    block and end in the next.  Up to a block of outputs is drawn past the
    last word read, so pass a generator that nothing else draws from.
    """
    rest = ""
    while True:
        high = rng.getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK, "little")[3::4]
        stream = rest + high.translate(_SYMBOLS, _REDRAWN).decode()
        end = len(stream) - len(stream) % n
        for i in range(0, end, n):
            yield stream[i : i + n]
        rest = stream[end:]


def universality_sample(
    w: str, q: Fraction, n: int, k: int, seed: int = 0
) -> Fraction:
    """Like the scan, estimated from k orbits drawn uniformly at random.

    Each drawn orbit is decided against T_q as in the scan, stopping at the
    first window occurrence that settles it.  Periods above
    MAX_SAMPLE_PERIOD, k * (n + _SAMPLE_OVERHEAD) above MAX_SAMPLE_SYMBOLS,
    and q whose denominator is above height.MAX_CQ_DENOMINATOR raise
    DomainError before any orbit is drawn.
    """
    q = _check_in_scope(w, q)
    if n < 1 or k < 1:
        raise DomainError("need a positive period and sample size")
    if n > MAX_SAMPLE_PERIOD:
        raise DomainError(f"sampling is limited to period {MAX_SAMPLE_PERIOD}, got {n}")
    cost = k * (n + _SAMPLE_OVERHEAD)
    if cost > MAX_SAMPLE_SYMBOLS:
        raise DomainError(
            f"sampling is limited to {MAX_SAMPLE_SYMBOLS} symbols"
            f" (k * (n + {_SAMPLE_OVERHEAD})), got {cost}"
        )
    codes = islice(filter(_is_primitive, _random_words(random.Random(seed), n)), k)
    return Fraction(sum(map(_below(w, q, n), codes)), k)


def wilson_interval(p, k: int) -> tuple[float, float]:
    """The Wilson score interval (lo, hi) at z = _WILSON_Z for a share p in k trials."""
    p, z = float(p), _WILSON_Z
    centre = p + z * z / (2 * k)
    half = z * math.sqrt(p * (1 - p) / k + z * z / (4 * k * k))
    scale = 1 + z * z / k
    return (centre - half) / scale, (centre + half) / scale
