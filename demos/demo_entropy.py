"""Turn an invariant value into a topological entropy lower bound.

Whenever r^w(R) < scope(w) strictly for the odd-ones decoration w = 1^{2i+1},
the orbit R forces a whole parametrized family of companions, and the growth
rate of that family is the largest root of an explicit integer polynomial.
The largest such root over the available i is a certified entropy bound.
"""

import math

from fractions import Fraction as F

from horseshoe import (
    Hbar_poly,
    H_poly,
    entropy_certificate,
    entropy_lower_bound,
    eval_poly,
    largest_root,
    r_sequence,
    root_bracket,
)

CODE = "10011010"


def main():
    rs = r_sequence(CODE, 3)
    print(f"orbit {CODE}: r^(1^(2i+1)) for i=0..3 -> {rs}")

    cert = entropy_certificate(CODE, 3)
    assert cert is not None
    poly, root, logroot = cert
    print(f"certificate polynomial coefficients (low to high): {poly}")
    a, b = root_bracket(poly)
    print(f"largest root in [{a}, {b}], width {float(b - a):.1e}")
    print(f"certified bound = {root:.9f} (the lower end, as a float)")
    print(f"entropy bound = log(root) = {logroot:.9f}")
    assert abs(entropy_lower_bound(CODE, 3) - logroot) < 1e-12
    print()

    # The two closed-form families bracketing the bound, at q = 1/3, i = 1:
    h = H_poly(1, F(1, 3))
    hbar = Hbar_poly(1, F(1, 3))
    print(f"H_poly(1, 1/3)    root = {largest_root(h):.6f}")
    print(f"Hbar_poly(1, 1/3) root = {largest_root(hbar):.6f}")
    print()

    # As k grows, the bound at q = k/(3k-1) climbs toward the q = 1/3 wall.
    print("convergence of the H-family root toward the Hbar root:")
    target = largest_root(hbar)
    for k in range(2, 7):
        q = F(k, 3 * k - 1)
        rk = largest_root(H_poly(1, q))
        print(f"  k={k}  q={q}   root={rk:.6f}   gap={target - rk:+.6f}")

    # Sanity: the polynomial changes sign across the bracket.
    assert eval_poly(poly, float(a)) * eval_poly(poly, float(b)) < 0
    assert abs(math.log(root) - logroot) < 1e-12


if __name__ == "__main__":
    main()
