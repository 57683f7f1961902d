"""Decoration invariants of periodic orbits.

For a decoration word w and an orbit code R, the invariant r^w(R) is a
rational in (0, scope(w)] computed from heights of rays based at cyclic
occurrences of certain windows derived from w.  The orbit R forces the
w-decorated family member at parameter q exactly when q > r^w(R).

The rays of R are rotations of R and of its reverse.  Height is
non-increasing in the unimodal order, so the least height over a set of
rays is the height of its unimodal-greatest ray: each invariant compares
integer unimodal keys and then reads one height, or its cap.  An invariant
is a read, a set of windows with a direction.
:func:`_plan` compiles the reads of a tuple of decorations once per tuple:
lam, mu and nu for each r^w, capped at scope(w), and for r* a lam read of
both rays at every position, capped at 1/2, with empty mu and nu reads.
:func:`_compile` makes the plan's distinct windows one binary Aho-Corasick
automaton, whose states list the windows ending there, so :func:`_keys`
reads the cyclic code once and offers each occurrence's ray keys to every
read its window feeds.
:func:`_values` turns each column's three keys and cap into r^w or r* by
one rule, so tables, r-sequences and r_w read all invariants of a code from
one scan; :func:`_parts` reads mu, nu and lam of one decoration from one
scan, and r_dir compiles its own read.  A column is capped by key: its
greatest key is compared with the cap's key from :func:`_cap_keys`, and
only a key above it, whose height lies below the cap, makes a
:func:`~horseshoe.height.height` call.  Plans hold automata and caps only,
so height's cache stays the one store of ray heights.

The universality scans ask only whether r^w(R) < q, and :func:`_below`
answers that without a height.  T_q = 10 (c_q[2:] 1)^inf is the
unimodal-greatest sequence of height q, so a ray's height is below q exactly
when the ray lies above T_q, and for 0 < q < scope(w), r^w(R) < q exactly
when both rays of some lam occurrence, or some mu ray and some nu ray, lie
above T_q.  :func:`_threshold` turns "above T_q" into one integer
comparison of N-bit ray keys, once per scan, and for q up to and including
1/2 also gives the cap keys.  A key above the threshold t is at least
t + 1 and keeps its leading 1 bits, which spell P = 1 0^(j-1), so a ray
above T_q begins with P.  The read extends r^w's reads (:func:`_reads`) by
P on the sides their rays leave from and runs their automaton as
:func:`_keys` does, with a flag per read in place of a greatest key.
Only occurrences whose rays begin with P are emitted, and each of their
keys is still compared with the threshold, since P is necessary but not
sufficient; a code without P is not below.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .height import HALF, _check_in_scope, cq_word, height, scope
from .words import (
    DomainError,
    _check_word,
    _flip,
    _rotation_key,
    _unimodal_key,
)

FORWARD = "forward"
BACKWARD = "backward"
BOTH = "both"
_DIRECTIONS = (FORWARD, BACKWARD, BOTH)

FORCED = "FORCED"
NOT_FORCED = "NOT-FORCED"
AT_THRESHOLD = "THRESHOLD"

# The token that asks a table or _values for r* in place of a decoration;
# r* is a lam read of both rays at every position, capped at 1/2, whose
# empty mu and nu reads give key 0, so that max(lam, min(mu, nu)) is lam.
STAR = "*"
_STAR_READS = ((("0", "1"), BOTH), ((), FORWARD), ((), BACKWARD))

_BITS = bytes.maketrans(b"01", b"\0\1")


def _cyclic_bits(code: str, L_max: int) -> bytes:
    """The first N + L_max symbols of the cyclic code, as the bytes 0 and 1."""
    N = len(code)
    return (code * (L_max // N + 2))[: N + L_max].encode().translate(_BITS)


def _compile(reads: tuple) -> tuple:
    """Compile reads, a tuple of (windows, direction) with binary windows,
    into one Aho-Corasick automaton of its windows (Aho and Corasick 1975).

    Returns (number of reads, L_max, go, ends).  State s is an even index and
    go[s + b] the state after bit b.  ends[s] is the node (L, feeds, next) of
    the longest window that ends the state's word, or None: its length, the
    reads it feeds as (read index, index in _DIRECTIONS) pairs, and the node
    of the next longest, down the suffix links.
    """
    feeds: dict = {}
    for i, (windows, direction) in enumerate(reads):
        if direction not in _DIRECTIONS:
            raise DomainError(f"unknown direction: {direction!r}")
        feed = (i, _DIRECTIONS.index(direction))  # one pair for all its windows
        for v in windows:
            feeds.setdefault(v, []).append(feed)
    go, at = [-1, -1], {}  # the trie, with -1 for a missing edge
    for v, fed in feeds.items():
        s = 0
        for b in v.encode().translate(_BITS):
            if go[s + b] < 0:
                go[s + b] = len(go)
                go += (-1, -1)
            s = go[s + b]
        at[s] = len(v), tuple(fed)
    # breadth first, so a state's suffix link, being shallower, is complete
    link, ends = [0] * len(go), [None] * len(go)
    ends[0] = (*at[0], None) if 0 in at else None  # the empty window
    queue = [0]
    for s in queue:
        for b in (0, 1):
            t, u = go[s + b], go[link[s] + b] if s else 0
            if t < 0:
                go[s + b] = u
            else:
                link[t] = u
                ends[t] = (*at[t], ends[u]) if t in at else ends[u]
                queue.append(t)
    return len(reads), max(map(len, feeds), default=0), go, ends


# The windows of mu and nu, from the even final and initial subwords (the
# nonempty suffixes and prefixes with an even number of 1s) of w made even
# by one symbol; _plan has checked w, through scope(w), so slices spell them.
def _mu_windows(w: str) -> tuple[str, ...]:
    """v' x for each even final subword v of e w, shortest first, and x in
    01, where e makes e w even and v' is v with its first symbol changed."""
    u = "01"[w.count("1") % 2] + w
    out, odd = [], False
    for i in range(len(u) - 1, -1, -1):
        odd ^= u[i] == "1"
        if not odd:
            v = _flip(u[i]) + u[i + 1 :]
            out += (v + "0", v + "1")
    return tuple(out)


def _nu_windows(w: str) -> tuple[str, ...]:
    """x v' for each even initial subword v of w e, shortest first, and x in
    01, where e makes w e even and v' is v with its last symbol changed:
    mu's windows mirrored, since reversal swaps initial and final subwords."""
    return tuple(v[::-1] for v in _mu_windows(w[::-1]))


def _lam_windows(w: str) -> tuple[str, ...]:
    return tuple(x + w + y for x in "01" for y in "01")


def _reads(w: str) -> tuple:
    """The reads lam, mu and nu of r^w, in that order, for a checked w."""
    return (
        (_lam_windows(w), BOTH),
        (_mu_windows(w), FORWARD),
        (_nu_windows(w), BACKWARD),
    )


# One entry per decoration tuple: a benchmark pass asks at most 21, the r^w
# of each lone decoration of length <= 5 on oracle_sweep, and a table pass
# asks one.
@lru_cache(maxsize=1024)
def _plan(decorations: tuple) -> tuple:
    """(caps, compiled scan) of the columns: for each decoration w, scope(w)
    and the reads lam, mu and nu; for STAR, 1/2 and the reads of r*."""
    caps, reads = [], []
    for w in decorations:
        if w == STAR:
            caps.append(HALF)
            reads += _STAR_READS
        else:
            caps.append(scope(w))
            reads += _reads(w)
    return tuple(caps), _compile(tuple(reads))


def _keys(code: str, scan: tuple) -> list[int]:
    """The key of the unimodal-greatest ray of each read of the scan, or 0
    (0^N, height 1/2) for a read whose windows do not occur in the code.

    Rays are N-bit unimodal keys, which order distinct rays of period N
    exactly because they differ within N symbols.  The scan's automaton
    reads the cyclic code once.  Before symbol e it stands in a state whose
    chain of ends lists the windows ending at e, longest first; a window of
    length L starts at p = e - L, and the first with p >= N, and all after
    it, repeat occurrences already read.  Each occurrence offers its ray key
    to every read it feeds, the lesser of its two keys under "both".
    """
    _check_word(code, allow_empty=False)
    N = len(code)
    # the forward ray at e reads the code from e; the backward ray at p
    # reads leftward from p - 1, which is the reverse from N - p.  Each key
    # is sliced, only where a window ends, from one key of the code doubled
    # or of its reverse doubled, as words._rotation_key slices it.
    KF, KB = _unimodal_key(code * 2), _unimodal_key(code[::-1] * 2)
    mask = (1 << N) - 1
    flip = (0, mask)
    n_reads, L_max, go, ends = scan
    best = [0] * n_reads
    s = 0
    for e, b in enumerate(_cyclic_bits(code, L_max)):
        node, s = ends[s], go[s + b]
        if node is None:
            continue
        r = e % N
        kf = KF >> (N - r) & mask ^ flip[KF >> (2 * N - r) & 1]
        while node is not None:
            L, feeds, node = node
            if e - L >= N:
                break
            r = (L - e) % N  # N - p, mod N
            kb = KB >> (N - r) & mask ^ flip[KB >> (2 * N - r) & 1]
            ks = (kf, kb, kb if kb < kf else kf)  # indexed like _DIRECTIONS
            for i, d in feeds:
                if ks[d] > best[i]:
                    best[i] = ks[d]
    return best


def _threshold(q: Fraction, N: int) -> int:
    """The N-symbol key that a period-N ray exceeds exactly when the ray lies
    above T_q = 10 (c_q[2:] 1)^inf in the unimodal order.

    T_q is the unimodal-greatest sequence of height q for every 0 < q <= 1/2,
    so a ray's height is below q exactly when its key exceeds this one.  The
    scans ask it for 0 < q < scope(w); the capped read asks it for q equal to
    a cap, scope(w) or r*'s 1/2, where a key at most this one reads the cap.

    A ray whose key differs from t, the key of T_q's first N symbols, is
    ordered against T_q by that difference.  The one ray with key t is s^inf
    for s = T_q[:N], and it is ordered once here, within M = N + |c_q| + 1
    symbols, where no period-N ray ties T_q.  T_q's period has length
    n = |c_q| - 1 and ends in 1, while its preperiod ends in 0, so T_q[1] = 0
    and T_q[n + 1] = 1.  A ray r that agreed with T_q on M symbols would give
    T_q[2:M], of length N + n, both periods N and n, hence period gcd(N, n)
    (Fine and Wilf); as 1 + N and 1 + n are congruent modulo that period,
    T_q[1] = r[1] = r[1 + N] = T_q[1 + N] = T_q[n + 1], a contradiction.
    """
    c = cq_word(q)
    per, M = c[2:] + "1", N + len(c) + 1
    T = ("10" + per * (N // len(per) + 2))[:M]  # T_q's first M symbols
    s = T[:N]
    tie_above = _unimodal_key((s * (M // N + 1))[:M]) > _unimodal_key(T)
    return _unimodal_key(s) - tie_above


def _below(w: str, q: Fraction, N: int):
    """The test r^w(R) < q on codes R of length N, for 0 < q < scope(w).

    Let t = _threshold(q, N).  No N-bit key exceeds t = 1^N, so then no
    period-N ray lies above T_q.  Otherwise the keys above t are the keys at
    least t + 1, which keep its leading 1 bits; let j be their number.  Bit
    i of a ray's key is the parity of its first i + 1 symbols, so a ray
    whose key exceeds t begins with P = 1 0^(j-1).  Each read's windows are
    therefore extended by P on the sides its rays leave from: v P forward,
    P' v backward and P' v P under "both", P' being P reversed.  The
    extended windows make one automaton, read as in _keys.  Its occurrences
    are exactly the window occurrences whose rays begin with P, and their
    rays leave j symbols inside the extended window's ends.  P is only
    necessary, so each such ray's key is still compared with t: a read is
    flagged when one of its occurrences has its ray, or both rays under
    "both", above T_q.  A key is sliced only for a read not yet flagged, and
    the test returns True at the first flag that makes lam or (mu and nu).
    Every extended lam and mu window holds P, so a code whose cyclic
    spelling holds no P is not below, and is decided without the walk.
    Codes are not checked: the scans pass only Lyndon words and sampled
    words, after checking w, q, N and the sample size.
    """
    t = _threshold(q, N)
    if t + 1 >> N:
        return lambda code: False
    j = N - (~(t + 1) & (1 << N) - 1).bit_length()
    # j >= 1: t + 1 is at least the key of T_q[:N], whose top bit is 1
    P = "1" + "0" * (j - 1)
    P_ = P[::-1]
    reads = tuple(
        (tuple(P_ * (d != FORWARD) + v + P * (d != BACKWARD) for v in windows), d)
        for windows, d in _reads(w)
    )
    _, L_max, go, ends = _compile(reads)

    def below(code: str) -> bool:
        if P not in code + code[:j]:
            return False
        fwd, bwd = _rotation_key(code), _rotation_key(code[::-1])
        above = [False] * 3  # lam, mu, nu, in _reads' order
        s = 0
        for e, b in enumerate(_cyclic_bits(code, L_max)):
            node, s = ends[s], go[s + b]
            while node is not None:
                L, feeds, node = node
                if e - L >= N:
                    break
                # flag a read whose forward ray at e - j (d not backward) and
                # backward ray at p = e - L + j (d not forward) lie above T_q
                for i, d in feeds:  # d indexes _DIRECTIONS
                    if (
                        not above[i]
                        and (d == 1 or fwd((e - j) % N) > t)
                        and (d == 0 or bwd((L - j - e) % N) > t)
                    ):
                        above[i] = True
                        if above[0] or above[1] and above[2]:
                            return True
        return False

    return below


def _height(key: int, N: int) -> Fraction:
    """The height of the period-N ray with this key, spelled back as the
    Gray code key ^ key >> 1."""
    return height(format(key ^ key >> 1, f"0{N}b"))


# One entry per decoration tuple and period: a table pass asks one, an
# entropy_certs pass one, and an oracle_sweep pass at most 147, the 21 lone
# decorations of length <= 5 at each of its 7 periods.  Entries are keyed by
# decorations, whose strings keep their hashes, not by caps, whose Fractions
# would be hashed anew on every read.
@lru_cache(maxsize=256)
def _cap_keys(decorations: tuple, N: int) -> tuple[int, ...]:
    """The key of each column's cap for period-N rays (see _threshold)."""
    return tuple(_threshold(cap, N) for cap in _plan(decorations)[0])


def _values(code: str, decorations: tuple) -> list[Fraction]:
    """r^w for each decoration w, and r* where w is STAR, from one scan.

    Each column's value is min(cap, height of its greatest key).  Height is
    non-increasing in the key, so a key at most the cap's key reads the cap
    with no height call, and a greater key reads a height below the cap.
    """
    caps, scan = _plan(decorations)
    keys = iter(_keys(code, scan))
    N = len(code)
    # min(lam, max(mu, nu)) over heights is max(lam, min(mu, nu)) over keys
    out = []
    for cap, t, lam_, mu_, nu_ in zip(caps, _cap_keys(decorations, N), keys, keys, keys):
        k = max(lam_, min(mu_, nu_))
        out.append(cap if k <= t else _height(k, N))
    return out


def _parts(w: str, code: str) -> tuple[Fraction, ...]:
    """(mu, nu, lam, r^w) of one decoration, from one scan, each capped by
    key as in _values."""
    _check_word(w)
    (s,), scan = _plan((w,))
    lam_, mu_, nu_ = _keys(code, scan)
    N = len(code)
    (t,) = _cap_keys((w,), N)
    m, n, l_ = (s if k <= t else _height(k, N) for k in (mu_, nu_, lam_))
    return m, n, l_, min(l_, max(m, n))


def r_dir(code: str, windows, direction: str) -> Fraction:
    """Least ray height over all cyclic occurrences of the given windows.

    A window occupying positions p .. p+|v|-1 of the cyclic code has a
    forward ray leaving its right end and a backward ray leaving its left
    end; "both" takes the larger of the two heights before minimizing.
    The windows are a collection of binary words; a bare string is refused.
    """
    if isinstance(windows, str):
        raise DomainError(f"windows must be a collection of words, got {windows!r}")
    scan = _compile(((tuple(map(_check_word, windows)), direction),))
    return _height(_keys(code, scan)[0], len(code))


def mu(w: str, code: str) -> Fraction:
    """Forward-ray invariant over windows built from even suffixes of w."""
    return _parts(w, code)[0]


def nu(w: str, code: str) -> Fraction:
    """Backward-ray invariant over windows built from even prefixes of w."""
    return _parts(w, code)[1]


def lam(w: str, code: str) -> Fraction:
    """Two-sided invariant over the windows x w y."""
    return _parts(w, code)[2]


def r_w(w: str, code: str) -> Fraction:
    """The decoration invariant r^w of an orbit code.

    r^w = min(scope(w), lam, max(mu, nu)), which equals min(lam, max(mu, nu))
    over the scope-capped mu, nu and lam.
    """
    _check_word(w)
    return _values(code, (w,))[0]


def r_star(code: str) -> Fraction:
    """The star invariant: two-sided ray heights at every position."""
    return _values(code, (STAR,))[0]


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

