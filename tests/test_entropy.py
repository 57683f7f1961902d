import math
from fractions import Fraction

import pytest

from horseshoe import entropy
from horseshoe.entropy import (
    DomainError,
    Hbar_poly,
    H_poly,
    entropy_certificate,
    entropy_lower_bound,
    eval_poly,
    f_poly,
    g_poly,
    largest_root,
    root_bracket,
)
from horseshoe.entropy import _certificate

F = Fraction


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    """Quotient and remainder of a divided by b, over the rationals."""
    a, q = [F(c) for c in a], [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k, c = len(a) - len(b), a[-1] / b[-1]
        q[k] = c
        for j, v in enumerate(b):
            a[j + k] -= c * v
        a = _trim(a)
    return q, a


def _deriv(p):
    return _trim([j * c for j, c in enumerate(p)][1:])


def _value(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sturm_count(coeffs, lo, hi):
    """The number of distinct real roots in (lo, hi], exactly.

    The polynomial is divided by its gcd with its derivative, and Sturm's
    theorem counts the roots of that square-free part as V(lo) - V(hi).
    Independent of the package's Descartes isolation.
    """
    p = _trim(coeffs)
    g, h = p, _deriv(p)
    if not h:
        return 0
    while h:
        g, h = h, _divmod(g, h)[1]
    p = _divmod(p, g)[0]
    seq = [p, _deriv(p)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])

    def variations(x):
        signs = [v > 0 for v in (_value(s, x) for s in seq) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(F(lo)) - variations(F(hi))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_g_poly():
    g1 = g_poly(1)
    assert g1[0] == -2
    assert eval_poly(g1, 1) == -4
    for i in range(4):
        g = g_poly(i)
        assert eval_poly(g, 1) == -4
        assert eval_poly(g, 2) == 2 ** (2 * i + 3) - 2
        assert len(g) == 2 * i + 7
    with pytest.raises(DomainError):
        g_poly(-1)


def test_f_poly():
    assert f_poly(F(1, 3)) == [0]
    assert f_poly(F(1, 7)) == [0]
    assert f_poly(F(2, 5)) == [0, 0, 1]
    assert f_poly(F(3, 10)) == [0, 0, 0, 1, 0, 0, 1]
    for q in (F(0), F(3, 5)):
        with pytest.raises(DomainError):
            f_poly(q)


def test_h_coefficients():
    # x^4 - 1 times a reciprocal degree-8 factor
    want = _pmul([-1, 0, 0, 0, 1], [1, -1, -1, -1, 3, -1, -1, -1, 1])
    assert H_poly(1, F(1, 3)) == want
    want = _pmul([0, 0, 1], _pmul([-1, 0, 0, 0, 1], [-2, 2, 0, -1, -1, 1]))
    assert Hbar_poly(1, F(1, 3)) == want


def test_hbar_vanishes_at_one():
    for i in range(3):
        for q in [F(1, 3), F(1, 4), F(2, 5), F(3, 10)]:
            assert eval_poly(Hbar_poly(i, q), 1) == 0


def test_roots():
    root = largest_root(Hbar_poly(1, F(1, 3)))
    assert abs(root - 1.47669) < 5e-5
    root = largest_root(H_poly(1, F(1, 3)))
    assert abs(root - 1.56294) < 5e-5


def test_largest_root_no_root():
    with pytest.raises(DomainError):
        largest_root([1, 0, 1])  # x^2 + 1 has no real root in (1, 2]
    with pytest.raises(DomainError):
        largest_root([-1, 1])  # roots at 1 itself are out of range


def test_sturm_count():
    # (x - 1)^2 (2x - 3)(x^2 - 3): distinct roots 1, 3/2 and sqrt(3)
    p = _pmul(_pmul([1, -2, 1], [-3, 2]), [-3, 0, 1])
    assert sturm_count(p, 1, 2) == 2
    assert sturm_count(p, 0, 1) == 1
    assert sturm_count(p, F(3, 2), 2) == 1
    assert sturm_count([1, 0, 1], -10, 10) == 0


def test_root_bracket_edge_cases():
    # roots at 2 and at a dyadic bisection point come back exactly
    assert root_bracket([-2, 1]) == (2, 2)
    assert root_bracket(_pmul([-3, 2], [-5, 4])) == (F(3, 2), F(3, 2))
    # a lone dyadic root is met by the refining bisection itself
    assert root_bracket([-3, 2]) == (F(3, 2), F(3, 2))
    assert root_bracket([-7, 4]) == (F(7, 4), F(7, 4))
    assert largest_root([-3, 2]) == 1.5
    # roots 5/3 and 5/3 + 2^-55 / 3: the bracket needs more bits than a
    # float holds, and the nearest float lies above its lower end
    p = _pmul([-5, 3], [-(5 * 2**55 + 1), 3 * 2**55])
    a, b = root_bracket(p)
    assert _value(p, a) * _value(p, b) < 0 and sturm_count(p, b, 2) == 0
    assert float(a) > a and largest_root(p) < a
    # a repeated root is never isolated by Descartes' bound
    with pytest.raises(ArithmeticError):
        root_bracket(_pmul([-4, 3], [-4, 3]))


def _fractions_below_half(max_den):
    return sorted(
        {F(m, n) for n in range(3, max_den + 1) for m in range(1, (n + 1) // 2)}
    )


def test_root_bracket_certified():
    """Every bracket holds the largest root in (1, 2], checked by Sturm counts."""
    for i in range(4):
        for q in _fractions_below_half(12):
            for p in (Hbar_poly(i, q), H_poly(i, q)):
                a, b = root_bracket(p)
                pa, pb = _value(p, a), _value(p, b)
                assert pa * pb < 0 or (a == b and pa == 0), (i, q)
                assert b - a <= F(1, 2**30)
                assert sturm_count(p, b, 2) == 0, (i, q)
                assert largest_root(p) == a
            a = root_bracket(Hbar_poly(i, q))[0]
            poly, root, log_root = _certificate(i, q)
            assert list(poly) == Hbar_poly(i, q) and root == a
            assert log_root <= math.log(a)


def _bisect(coeffs, num, k):
    """The refinement by exact bisection alone: halve the isolating interval
    (num / 2^k, (num + 1) / 2^k) until it is at level 30 or deeper and p
    changes sign across it, or return a dyadic root met on the way."""
    sign = entropy._sign_at
    sb, sa = sign(coeffs, num + 1, k), sign(coeffs, num, k)
    while k < 30 or sa != -sb:
        num, k = 2 * num, k + 1
        sm = sign(coeffs, num + 1, k)
        if sm == 0:
            return F(num + 1, 1 << k), F(num + 1, 1 << k)
        if sm != sb:
            num, sa = num + 1, sm
    return F(num, 1 << k), F(num + 1, 1 << k)


def _refined(monkeypatch, p):
    """root_bracket(p), and for each refinement its isolating interval
    (num, k) and the levels of the exact signs it read."""
    refined, refine, sign = [], entropy._refine, entropy._sign_at

    def recorded(coeffs, num, k):
        refined.append((num, k, []))
        return refine(coeffs, num, k)

    def signed(coeffs, num, k):
        if refined:
            refined[-1][2].append(k)
        return sign(coeffs, num, k)

    with monkeypatch.context() as m:
        m.setattr(entropy, "_refine", recorded)
        m.setattr(entropy, "_sign_at", signed)
        return root_bracket(p), refined


def test_root_bracket_equals_bisection(monkeypatch):
    """The float guess changes no bracket: on the H and Hbar polynomials of
    i <= 5 and 0 < q < 1/2 with denominators up to 39, root_bracket equals
    exact bisection of the same isolating interval, and each guess, or a
    neighbour of it, is accepted by exact signs at level 30, with no
    bisection."""
    qs = _fractions_below_half(39)
    for i in range(6):
        for q in qs:
            for p in (Hbar_poly(i, q), H_poly(i, q)):
                got, [(num, k, levels)] = _refined(monkeypatch, p)
                assert got == _bisect(p, num, k), (i, q)
                assert k < 30 and set(levels) == {30}, (i, q, levels)
    assert len(qs) * 12 == 2832


def test_root_bracket_outside_float_range(monkeypatch):
    """Coefficients above float range, or values that overflow floats, fall
    back to bisection and give the bracket of the unscaled polynomial."""
    want = root_bracket([-3, 0, 1])  # sqrt(3)
    assert want == _bisect([-3, 0, 1], 3, 1)
    for p in (
        [-3 * 10**400, 0, 10**400],  # float(coefficient) overflows
        [0] * 120 + [-3 * 10**300, 0, 10**300],  # p(x) overflows near sqrt(3)
    ):
        got, [(_, _, levels)] = _refined(monkeypatch, p)
        assert got == want
        assert min(levels) < 30  # bisected


def test_root_bracket_isolated_past_level_30(monkeypatch):
    """Roots 5/3 and 5/3 + 2^-39 / 3 are isolated below level 30, so no
    guess is made and bisection alone narrows the bracket."""
    p = _pmul([-5, 3], [-(5 * 2**40 + 2), 3 * 2**40])
    guesses, guess = [], entropy._float_root

    def counted(*args):
        guesses.append(args)
        return guess(*args)

    monkeypatch.setattr(entropy, "_float_root", counted)
    got, [(num, k, _)] = _refined(monkeypatch, p)
    assert k > 30 and guesses == []
    assert got == _bisect(p, num, k)
    a, b = got
    assert _value(p, a) * _value(p, b) < 0 and sturm_count(p, b, 2) == 0


def test_root_bracket_refuses_bad_guesses(monkeypatch):
    """A guess is a proposal only: exact signs refuse an interval outside
    the isolating one, though it holds the other root, and an interval
    where p does not change sign; a guess one interval off is mended by its
    neighbour.  Roots 4/3 and 8/5, with 8/5 isolated in (3/2, 2)."""
    p = _pmul([-4, 3], [-8, 5])
    _, [(num, k, _)] = _refined(monkeypatch, p)
    assert (num, k) == (3, 1)
    want = _bisect(p, num, k)
    assert want[0] < F(8, 5) < want[1]
    eps = 2.0**-30
    for x, bisected in (
        (4 / 3, True),  # the other root, outside (3/2, 2)
        (1.5, True),  # the isolating interval's left end
        (1.999, True),  # no sign change near the right end
        (1.6 - eps, False),  # one interval below the root's
        (1.6 + eps, False),  # one interval above it
        (1.6, False),
    ):
        monkeypatch.setattr(entropy, "_float_root", lambda *args: x)
        got, [(_, _, levels)] = _refined(monkeypatch, p)
        assert got == want, x
        assert (min(levels) < 30) == bisected, x


def test_roots_increase_toward_limit():
    limit = largest_root(Hbar_poly(1, F(1, 3)))
    prev = 0.0
    for k in range(2, 7):
        q = F(k, 3 * k - 1)
        root = largest_root(H_poly(1, q))
        assert root > prev
        prev = root
    assert abs(limit - prev) < 1e-2


def test_entropy_certificate():
    cert = entropy_certificate("100111111", 4)
    assert cert is not None
    poly, root, log_root = cert
    assert math.isclose(log_root, math.log(root))
    assert root > 1.0
    assert entropy_lower_bound("100111111", 4) == log_root


def test_entropy_trivial():
    assert entropy_certificate("10", 3) is None
    assert entropy_lower_bound("10", 3) == 0.0
    assert entropy_certificate("1000001", 3) is None


def test_entropy_bound_from_flat_r_sequence():
    # every r^i of 10011010 is 1/3, so the certificate can use i = 1
    from horseshoe.families import r_sequence

    assert set(r_sequence("10011010", 3)) == {F(1, 3)}
    cert = entropy_certificate("10011010", 3)
    assert cert is not None
    assert cert[1] >= 1.47668
