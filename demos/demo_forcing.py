"""Decide forcing two independent ways and watch them agree.

Route 1: compare the threshold q against the decoration invariant r^w
(pure word combinatorics, exact rationals).

Route 2: build the four boundary-crossing disks of the (w, q) companion
family and count which ones the orbit actually enters (a symbolic stand-in
for intersecting curves in the plane).

The two computations share only the scope check and the integer key of the
unimodal order (words._unimodal_key), so each one checks the other.  That
key is pinned by the references test_words._reference_cmp,
test_disks._reference_counts and test_invariants._reference_r_dir.
"""

from fractions import Fraction as F

from horseshoe import (
    disk_specs,
    forces,
    forcing_oracle,
    intersection_counts,
    q_in_Qw_sufficient,
    r_w,
    scope,
)

CODE = "10010110"
W = "11"


def main():
    r = r_w(W, CODE)
    print(f"orbit {CODE}, decoration {W!r}: r^w = {r}, scope(w) = {scope(W)}")
    print()

    print("q        formula      disks (A,B,C,D counts)   oracle")
    for q in (F(7, 25), F(8, 25), F(9, 25), F(19, 51), F(9, 23)):
        verdict = forces(CODE, W, q)
        counts = intersection_counts(CODE, W, q)
        hit = forcing_oracle(CODE, W, q)
        print(f"{str(q):<8} {verdict:<12} {str(counts):<24} {'forced' if hit else 'not forced'}")
        assert hit == (q > r)
    print()

    # The disks themselves are defined by strict symbolic inequalities;
    # here is the spelled-out boundary data for one threshold.
    q = F(9, 25)
    print(f"disk thresholds for (w={W!r}, q={q}):")
    for spec in disk_specs(W, q):
        print(f"  {spec.name}: principal > ({spec.principal})^oo,"
              f" shifted > ({spec.shifted})^oo")
    print()

    # The sufficiency test tells you for which q the companion family of
    # prime period exists, so the oracle's verdict is unconditional.
    qs = [F(m, d) for d in range(17, 30) for m in range(1, d)]
    good = [q for q in qs if 0 < q < scope(W) and q.denominator > 16
            and q_in_Qw_sufficient(q, W)]
    print(f"sample thresholds passing the prime-period test: {good[:8]}")


if __name__ == "__main__":
    main()
