"""Census of points, lines and planes over small prime fields.

Walks the enumeration layer: canonical coordinates, the closed count
formulas, line duality in the plane, and the packaged incidence
configurations.  Run directly; everything prints deterministically.
"""

from nonlift import (
    ProjPointFp,
    enumerate_lines,
    enumerate_points,
    incidence_config,
    line_dual,
    line_through,
    mp_configuration,
)


def main():
    print("= projective censuses =")
    for p in (2, 3, 5, 7):
        pts2 = enumerate_points(2, p)
        pts3 = enumerate_points(3, p)
        lines3 = enumerate_lines(3, p)
        print(
            f"p={p}: plane has {len(pts2)} points, "
            f"3-space has {len(pts3)} points and {len(lines3)} lines"
        )

    print()
    print("= the seven points and seven lines at p=2 =")
    for ln in enumerate_lines(2, 2):
        members = " ".join(str(pt) for pt in ln.points)
        print(f"dual {line_dual(ln)}: {members}")

    print()
    print("= canonical coordinates =")
    examples = [((2, 0, 3), 5), ((4, 6), 5), ((0, 2, 1), 3)]
    for coords, p in examples:
        print(f"{coords} over F_{p} -> {ProjPointFp(coords, p)}")

    print()
    print("= joining two points =")
    a = ProjPointFp((1, 2, 0), 5)
    b = ProjPointFp((0, 1, 1), 5)
    ln = line_through(a, b)
    print(f"line through {a} and {b} has the {len(ln.points)} points:")
    print("  " + " ".join(str(pt) for pt in ln.points))

    print()
    print("= packaged configurations =")
    cfg = incidence_config(3, 2)
    print(
        f"3-space at p=2: {len(cfg.points)} points, {len(cfg.lines)} lines, "
        f"{len(cfg.planes)} planes, {len(cfg.inclusions)} strict inclusions"
    )
    for p in (2, 3, 5):
        mp = mp_configuration(p)
        print(
            f"propagation configuration at p={p}: {len(mp.points)} points "
            f"(2p+3), {len(mp.lines)} lines, {len(mp.inclusions)} inclusions"
        )


if __name__ == "__main__":
    main()
