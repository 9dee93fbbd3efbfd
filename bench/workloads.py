"""Seeded operation lists for the three benchmark workloads.

`build(name, seed, size, workdir)` returns the operations of one pass: each
is a dict with the `nonlift` argv, the parameters the output checks need
and, for `lift check`, the violations the benchmark's own determinant finds.
Map files for `lift check` are written into `workdir` here, before any
timing starts.  The seed draws parameters inside fixed size classes, so
every seed asks for a comparable amount of work; `size="smoke"` takes the
smallest class of each and is for tests only.
"""

from __future__ import annotations

import json
import os
import random

import oracle

WORKLOADS = {
    "audit": {
        "why": "the paper's independent audit: exhaustive lift searches plus "
        "determinant checks of perturbed lifts, dominated by small-ring "
        "reduce and determinant work",
        "size_classes": {
            "brute": "lift brute over Z/p^k and F_p[t]/(t^k): p=5 k=2 (Z/25 only), "
            "p=3 k=2,3, p=2 k=2,3,4; fixed",
            "check": "lift check --map at p=7 over Z/49 and F_7[t]/(t^2), 4 maps "
            "per ring, each the coordinate-wise lift with 1-6 seeded points "
            "moved inside their residue class",
        },
        "note": "check evaluates every collinear triple with no pruning, so a "
        "search-only change should leave the check operations unchanged",
    },
    "certify": {
        "why": "the paper's headline verdict and certificate: forced joins and "
        "meets over rings of 10^4 to 10^9 elements plus large certificate renders",
        "size_classes": {
            "propagate": "lift propagate over zpk:2, zpk:3, fpt:2, fpt:3, each as "
            "text and json, at three cost levels: a prime within 5% of 180, 400 "
            "and 900 for zpk and of 100, 222 and 500 for fpt (24 operations)",
        },
        "note": "no ring here is small enough for a per-ring table",
    },
    "census": {
        "why": "point, line and plane enumeration over F_p plus big-integer "
        "Lefschetz polynomials; no ring arithmetic at all",
        "size_classes": {
            "geom": "count P^3 at p=2,3,5,7; config P^3 as JSON at p=2,3,5; "
            "count and JSON config of P^2 at a seeded p in {11, 13}; mp at p=31 as JSON",
            "grass": "one motive grass per pass at m=80, r=40",
            "small motive": "ps, quadric, flag, construction-one and invariants of "
            "ps:20-30, quadric:20-30, flag:7-8; construction-two at two primes in "
            "[100, 1000); seeded text or JSON",
        },
        "note": "only one grass runs per pass: the operations of a pass share a "
        "process and the Gaussian binomials are memoised at module level, so a "
        "second grass would reuse the first one's work",
    },
}

SIZES = ("full", "smoke")


def _op(group, command, fmt="text", flags=(), **facts):
    """One operation: argv from `flags`, plus the facts its output check needs."""
    argv = [group, command]
    for flag, value in flags:
        argv += [flag, str(value)]
    argv += ["--format", fmt]
    return {"group": group, "command": command, "format": fmt, "argv": argv, **facts}


def _lift(command, fmt, p, kind, k):
    flags = [("--p", p), ("--ring", f"{kind}:{k}")]
    return _op("lift", command, fmt, flags, p=p, kind=kind, k=k)


def _geom(command, fmt, p, dim=2):
    flags = [("--p", p)] if command == "mp" else [("--dim", dim), ("--p", p)]
    return _op("geom", command, fmt, flags, p=p, dim=dim)


def _primes(lo, hi):
    return [n for n in range(lo, hi) if oracle.is_prime(n)]


def _audit(rng, size, workdir):
    if size == "smoke":
        rings = [(2, "zpk", 2), (2, "fpt", 2)]
        maps_per_ring = 1
    else:
        rings = [(5, "zpk", 2)] + [(p, kind, k) for p, ks in ((3, (2, 3)), (2, (2, 3, 4)))
                                   for k in ks for kind in ("zpk", "fpt")]
        maps_per_ring = 4
    ops = [_lift("brute", "text", p, kind, k) for p, kind, k in rings]
    p, k = 7, 2
    points = oracle.plane_points(p)
    for kind in ("zpk", "fpt"):
        ring = oracle.Ring(kind, p, k)
        for n in range(maps_per_ring):
            moved = set(rng.sample(points, rng.randint(1, 6)))
            images = {
                pt: tuple(ring.lift(c, [rng.randrange(p) for _ in range(k - 1)] if pt in moved
                                    else ()) for c in pt)
                for pt in points
            }
            path = os.path.join(workdir, f"map-{kind}{k}-{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"assignments": [
                    {"point": list(pt), "image": [c if kind == "zpk" else list(c) for c in img]}
                    for pt, img in images.items()
                ]}, fh)
            op = _lift("check", "text", p, kind, k)
            op["argv"] += ["--map", path]
            op["violations"] = oracle.violations(p, ring, images)
            ops.append(op)
    return ops


def _certify(rng, size, workdir):
    combos = [(kind, k, fmt) for kind in ("zpk", "fpt") for k in (2, 3)
              for fmt in ("text", "json")]
    # three cost levels, named by their Z/p^k prime; a step over F_p[t]/(t^k)
    # costs about 1.8 steps over Z/p^k, so its prime is scaled down to keep
    # every operation of a level at about the same cost
    levels = (180, 400, 900) if size == "full" else (180,)
    ops = []
    for level in levels:
        for kind, k, fmt in combos:
            centre = level if kind == "zpk" else level / 1.8
            p = rng.choice(_primes(max(100, round(centre * 0.95)), round(centre * 1.05)))
            ops.append(_lift("propagate", fmt, p, kind, k))
    return ops


def _census(rng, size, workdir):
    fmt = lambda: rng.choice(("text", "json"))  # noqa: E731
    if size == "smoke":
        ops = [_geom("count", "text", 2, dim=3), _geom("config", "json", 2, dim=3),
               _geom("mp", "json", 3)]
        grass, small, c2 = (4, 8), [("ps", "--dim", rng.randint(2, 30))], 1
    else:
        ops = [_geom("count", "text", p, dim=3) for p in (2, 3, 5, 7)]
        ops += [_geom("config", "json", p, dim=3) for p in (2, 3, 5)]
        plane = rng.choice((11, 13))
        ops += [_geom("count", "text", plane), _geom("config", "json", plane),
                _geom("mp", "json", 31)]
        grass, c2 = (40, 80), 2
        # Lefschetz classes this small cost the same at any of these sizes
        small = [("ps", "--dim", rng.randint(20, 30)), ("quadric", "--dim", rng.randint(20, 30)),
                 ("flag", "--m", rng.choice((7, 8)))]
    r, m = grass
    ops.append(_op("motive", "grass", "text", [("--r", r), ("--m", m)], r=r, m=m))
    for head, flag, n in small:
        spec = f"{head}:{n}"
        ops.append(_op("motive", head, fmt(), [(flag, n)], space=spec))
        ops.append(_op("motive", "construction-one", fmt(), [("--space", spec)],
                       space=f"construction-one:{spec}"))
        ops.append(_op("motive", "invariants", fmt(), [("--space", f"construction-one:{spec}")],
                       space=f"construction-one:{spec}"))
    for p in rng.sample(_primes(100, 1000), c2):
        ops.append(_op("motive", "construction-two", fmt(), [("--p", p)],
                       space=f"construction-two:{p}"))
    return ops


def build(name, seed, size, workdir):
    """The seeded operations of one pass of workload `name`, in run order.

    The order is fixed per workload: peak memory depends on it.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{name}:{seed}")
    ops = {"audit": _audit, "certify": _certify, "census": _census}[name](rng, size, workdir)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
