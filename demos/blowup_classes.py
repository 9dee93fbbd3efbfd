"""Lefschetz classes of the two blow-up constructions and their invariants.

The first construction blows up a product Y x Y along the graph of a
self-map; the second blows up 3-space along all its rational points and
then the strict transforms of all its rational lines.  Both classes are
polynomials in L, so Betti numbers, Picard number and Euler number read
straight off the coefficients, and evaluating at q counts rational points.
"""

from nonlift import (
    construction_one_class,
    construction_two_class,
    flag_class_typeA,
    incidence_variety_point_count,
    invariants_table,
    point_count_oracle_construction_two,
    point_line_counts,
    quadric_class,
)


def show(v):
    tab = invariants_table(v)
    print(f"{v.name} (dimension {v.dim})")
    print(f"  class: {v.cls!r}")
    print(f"  betti: {', '.join(str(b) for b in tab.betti)}")
    print(f"  picard {tab.picard}, euler {tab.euler}, palindromic {tab.palindromic}")


def main():
    print("= the two model spaces for the first construction =")
    flag = flag_class_typeA(3)
    quad = quadric_class(3)
    show(flag)
    print(f"  counts flags over F_2: {flag.point_count(2)} "
          f"(brute incidence count {incidence_variety_point_count(2)})")
    print()
    show(quad)
    print()

    print("= first construction: blow up the graph inside Y x Y =")
    show(construction_one_class(flag))
    print()
    show(construction_one_class(quad))
    print()

    print("= second construction: blow up the rational strata of 3-space =")
    for p in (2, 3):
        n_pts, n_lines = point_line_counts(3, p)
        v = construction_two_class(p)
        show(v)
        print(f"  built from {n_pts} rational points and {n_lines} rational lines")
        print(
            f"  class value at q={p}: {v.point_count(p)}, "
            f"stratified enumeration: {point_count_oracle_construction_two(p, p)}"
        )
        print()


if __name__ == "__main__":
    main()
