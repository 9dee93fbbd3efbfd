"""Exhaustive search as an independent audit of the propagation verdict.

The search enumerates every frame-fixing assignment of lifts to the
rational plane points, pruning a branch the moment a completed collinear
triple fails the determinant test.  It must agree with propagation: no
maps at all when p * 1 survives in the ring, exactly the coordinate-wise
lift when it vanishes.
"""

from nonlift import (
    brute_force_lift_search,
    check_collinearity_preserving,
    propagate_forced_lift,
    ring_make,
    search_over_all_frames,
    trivial_lift_map,
)


def main():
    print("= verdict vs search, side by side =")
    for kind in ("zpk", "fpt"):
        for p in (2, 3):
            ring = ring_make(kind, p, 2)
            _, obstruction = propagate_forced_lift(ring)
            result = brute_force_lift_search(ring)
            print(
                f"{str(ring):13s} verdict {obstruction.verdict:22s} "
                f"maps {len(result.maps)}  nodes {result.nodes_explored}"
            )

    print()
    print("= the single surviving map is the coordinate-wise lift =")
    ring = ring_make("fpt", 3, 2)
    result = brute_force_lift_search(ring)
    found = dict(result.maps[0])
    print(f"found == trivial lift: {found == trivial_lift_map(ring)}")
    print(f"violations of the found map: {len(check_collinearity_preserving(found, ring))}")

    print()
    print("= why the trivial lift fails over Z/4 =")
    z4 = ring_make("zpk", 2, 2)
    violations = check_collinearity_preserving(trivial_lift_map(z4), z4)
    for x, y, z in violations:
        print(f"collinear {x}, {y}, {z} maps to a non-collinear triple (determinant 2)")

    print()
    print("= frame independence spot check =")
    maps, nodes = search_over_all_frames(z4)
    print(
        f"all 256 choices of anchor lifts over Z/4: {len(maps)} maps found "
        f"({nodes} nodes explored)"
    )


if __name__ == "__main__":
    main()
