"""Print the full decoration-invariant table for period-8 orbits.

Every primitive period-8 orbit of the horseshoe appears in one row; columns
are decorations w (the empty one printed as a dot), entries are the
invariant r^w.  The star column is r*, the least over all positions of the
larger of the two ray heights there.  It is an invariant of its own, not
the minimum over the decorations: row 100001.. has r* = 1/2 but r^w = 1/5
for the empty decoration.

Orbits related by the left-right symmetry of the horseshoe share a row.  A
dot in a row label marks a symbol in which the row's members differ.
"""

from horseshoe import classify, decinv_table


def main():
    table = decinv_table(8)

    header = ["orbit".ljust(12)] + [(d or ".").center(6) for d in table.decorations]
    print("".join(header))
    print("scope".ljust(12) + "".join(str(s).center(6) for s in table.scope_row))
    print("-" * len("".join(header)))

    for row in table.rows:
        cells = [str(v).center(6) for v in row.values]
        print(row.label.ljust(12) + "".join(cells))

    print()
    print("row membership (symmetry classes):")
    for row in table.rows:
        kinds = {classify(m).kind for m in row.members}
        print(f"  {row.label:<12} {sorted(row.members)}  [{'/'.join(sorted(kinds))}]")


if __name__ == "__main__":
    main()
