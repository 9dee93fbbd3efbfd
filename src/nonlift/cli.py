"""Command-line front end.

Three verb groups: `geom` for rational configurations over a prime field,
`lift` for propagation certificates and exhaustive lift searches over a
coefficient ring, `motive` for Lefschetz-class computations.  Every command
prints to stdout, optionally mirrors the exact same bytes to --out, and is
fully deterministic, so reruns are byte-identical.

Exit status: 0 on success, 1 on usage or domain errors, 2 when
`lift propagate` certifies the non-liftable verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lift_checker, motive
from .errors import NonliftError
from .finite_geometry import (
    ProjPointFp,
    incidence_config,
    mp_configuration,
    point_line_counts,
)
from .local_ring import ProjPointA, ring_make

TEXT, JSON = "text", "json"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_ring_spec(spec, p):
    """Parse `zpk:<k>` or `fpt:<k>`; the prime always rides in via --p."""
    parts = spec.split(":")
    if len(parts) != 2 or parts[0] not in ("zpk", "fpt"):
        raise _UsageError(f"ring spec must be zpk:<k> or fpt:<k>, got {spec!r}")
    try:
        k = int(parts[1])
    except ValueError:
        raise _UsageError(f"ring length in {spec!r} is not an integer") from None
    return ring_make(parts[0], p, k)


def parse_space_spec(spec):
    """Parse a model-space spec into a VarietyClass.

    Grammar: ps:<n> | quadric:<d> | grass:<r>,<m> | flag:<m>
           | construction-one:<inner spec> | construction-two:<p>
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise _UsageError(f"space spec needs a ':', got {spec!r}")
    try:
        if head == "ps":
            return motive.projective_space_class(int(rest))
        if head == "quadric":
            return motive.quadric_class(int(rest))
        if head == "grass":
            r, m = (int(v) for v in rest.split(","))
            return motive.grassmannian_class(r, m)
        if head == "flag":
            return motive.flag_class_typeA(int(rest))
        if head == "construction-one":
            return motive.construction_one_class(parse_space_spec(rest))
        if head == "construction-two":
            return motive.construction_two_class(int(rest))
    except ValueError:
        raise _UsageError(f"bad numbers in space spec {spec!r}") from None
    raise _UsageError(f"unknown space kind {head!r}")


def build_parser():
    parser = _Parser(prog="nonlift", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    def common(sub, *, ring=False):
        if ring:
            sub.add_argument("--ring", default="zpk:2", help="zpk:<k> or fpt:<k>")
        sub.add_argument("--format", choices=(TEXT, JSON), default=TEXT)
        sub.add_argument("--out", help="also write the output bytes to this file")

    geom = top.add_parser("geom", help="configurations over a prime field").add_subparsers(
        dest="command", required=True
    )
    g_count = geom.add_parser("count", help="point/line/plane counts")
    g_count.add_argument("--dim", type=int, required=True, choices=(2, 3))
    g_count.add_argument("--p", type=int, required=True)
    common(g_count)
    g_config = geom.add_parser("config", help="full incidence configuration")
    g_config.add_argument("--dim", type=int, required=True, choices=(2, 3))
    g_config.add_argument("--p", type=int, required=True)
    common(g_config)
    g_mp = geom.add_parser("mp", help="the 2p+3 point propagation configuration")
    g_mp.add_argument("--p", type=int, required=True)
    common(g_mp)

    lift = top.add_parser("lift", help="lifting over a coefficient ring").add_subparsers(
        dest="command", required=True
    )
    l_prop = lift.add_parser("propagate", help="forced-lift certificate")
    l_prop.add_argument("--p", type=int, required=True)
    common(l_prop, ring=True)
    l_brute = lift.add_parser("brute", help="exhaustive lift search")
    l_brute.add_argument("--p", type=int, required=True)
    l_brute.add_argument("--budget", type=int, default=lift_checker.DEFAULT_BUDGET)
    common(l_brute, ring=True)
    l_check = lift.add_parser("check", help="check a point map for collinearity")
    l_check.add_argument("--p", type=int, required=True)
    l_check.add_argument("--map", dest="map_file", help="JSON assignments; default: trivial lift")
    common(l_check, ring=True)

    mot = top.add_parser("motive", help="Lefschetz-class computations").add_subparsers(
        dest="command", required=True
    )
    m_ps = mot.add_parser("ps", help="projective space class")
    m_ps.add_argument("--dim", type=int, required=True)
    common(m_ps)
    m_quad = mot.add_parser("quadric", help="split quadric class")
    m_quad.add_argument("--dim", type=int, required=True)
    common(m_quad)
    m_grass = mot.add_parser("grass", help="Grassmannian class")
    m_grass.add_argument("--r", type=int, required=True)
    m_grass.add_argument("--m", type=int, required=True)
    common(m_grass)
    m_flag = mot.add_parser("flag", help="full flag variety class")
    m_flag.add_argument("--m", type=int, required=True)
    common(m_flag)
    m_c1 = mot.add_parser("construction-one", help="self-map graph blow-up of a square")
    m_c1.add_argument("--space", required=True, help="e.g. flag:3 or quadric:3")
    m_c1.add_argument(
        "--center", choices=motive.CENTER_KINDS, default="frobenius-graph"
    )
    common(m_c1)
    m_c2 = mot.add_parser("construction-two", help="point-line blow-up of 3-space")
    m_c2.add_argument("--p", type=int, required=True)
    common(m_c2)
    m_inv = mot.add_parser("invariants", help="Betti/Hodge table of a space")
    m_inv.add_argument("--space", required=True, help="e.g. construction-one:flag:3")
    common(m_inv)

    return parser


def _class_text(v):
    coeffs = ", ".join(str(v.cls.coeff(i)) for i in range(v.dim + 1))
    return "\n".join(
        [
            f"name: {v.name}",
            f"dimension: {v.dim}",
            f"class: {v.cls!r}",
            f"coefficients: {coeffs}",
            f"Picard number: {v.cls.coeff(1)}",
        ]
    )


def _dump(doc):
    return json.dumps(doc, indent=2)


def _run_geom(args):
    if args.command == "count":
        points, lines = point_line_counts(args.dim, args.p)
        doc = {"dim": args.dim, "p": args.p, "points": points, "lines": lines}
        text = f"points: {points}, lines: {lines}"
        if args.dim == 3:
            doc["planes"] = points
            text += f", planes: {points}"
        return (_dump(doc) if args.format == JSON else text), 0
    if args.command == "config":
        config = incidence_config(args.dim, args.p)
    else:
        config = mp_configuration(args.p)
    if args.format == JSON:
        return _dump(config.to_json()), 0
    parts = [f"points: {len(config.points)}", f"lines: {len(config.lines)}"]
    if config.dim == 3:
        parts.append(f"planes: {len(config.planes)}")
    parts.append(f"inclusions: {len(config.inclusions)}")
    return ", ".join(parts), 0


def _parse_map_file(path, ring):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read map file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"map file is not valid JSON: {exc}") from exc
    mapping = {}
    try:
        for entry in doc["assignments"]:
            pt = ProjPointFp(entry["point"], ring.p)
            # each point once, with coordinates in [0, p): a map written for
            # another prime breaks one rule or the other
            if any(not 0 <= c < ring.p for c in entry["point"]):
                raise _UsageError(
                    f"map point {entry['point']} has a coordinate outside [0, {ring.p})"
                )
            if pt in mapping:
                raise _UsageError(f"map file assigns {pt!r} twice")
            mapping[pt] = ProjPointA(ring, entry["image"])
    except (KeyError, TypeError) as exc:
        raise _UsageError(
            "map file must be a JSON object with an 'assignments' list "
            "of {point, image} entries"
        ) from exc
    return mapping


def _run_lift(args):
    fmt = lift_checker._fmt_point
    ring = parse_ring_spec(args.ring, args.p)
    if args.command == "propagate":
        trace, obstruction = lift_checker.propagate_forced_lift(ring)
        text = lift_checker.certificate_render(trace, obstruction, format=args.format)
        code = 2 if obstruction.verdict == lift_checker.VERDICT_BLOCKED else 0
        return text, code
    if args.command == "brute":
        result = lift_checker.brute_force_lift_search(ring, budget=args.budget)
        if args.format == JSON:
            doc = {
                "p": ring.p,
                "ring": ring.to_json(),
                "frame": "standard",
                "budget": result.budget,
                "nodes_explored": result.nodes_explored,
                "count": len(result.maps),
                "maps": [
                    {
                        "assignments": [
                            {"point": list(pt.coords), "image": [c.to_json() for c in img.coords]}
                            for pt, img in sorted(m.items())
                        ]
                    }
                    for m in result.maps
                ],
            }
            return _dump(doc), 0
        lines = [
            f"maps found: {len(result.maps)}",
            f"nodes explored: {result.nodes_explored}",
        ]
        for i, m in enumerate(result.maps, start=1):
            lines.append(f"map {i}:")
            for pt, img in sorted(m.items()):
                lines.append(f"  {fmt(pt)} -> {fmt(img)}")
        return "\n".join(lines), 0
    # check
    if args.map_file:
        mapping = _parse_map_file(args.map_file, ring)
    else:
        mapping = lift_checker.trivial_lift_map(ring)
    violations = lift_checker.check_collinearity_preserving(mapping, ring)
    if args.format == JSON:
        doc = {
            "p": ring.p,
            "ring": ring.to_json(),
            "count": len(violations),
            "violations": [
                [list(pt.coords) for pt in triple] for triple in violations
            ],
        }
        return _dump(doc), 0
    lines = [f"violations: {len(violations)}"]
    for x, y, z in violations:
        lines.append(f"  {fmt(x)}, {fmt(y)}, {fmt(z)}")
    return "\n".join(lines), 0


def _run_motive(args):
    if args.command == "ps":
        v = motive.projective_space_class(args.dim)
    elif args.command == "quadric":
        v = motive.quadric_class(args.dim)
    elif args.command == "grass":
        v = motive.grassmannian_class(args.r, args.m)
    elif args.command == "flag":
        v = motive.flag_class_typeA(args.m)
    elif args.command == "construction-one":
        v = motive.construction_one_class(parse_space_spec(args.space), center=args.center)
    elif args.command == "construction-two":
        v = motive.construction_two_class(args.p)
    else:  # invariants
        v = parse_space_spec(args.space)
        table = motive.invariants_table(v)
        if args.format == JSON:
            return _dump({"class": v.to_json(), "invariants": table.to_json()}), 0
        body = [
            _class_text(v),
            f"betti: {', '.join(str(b) for b in table.betti)}",
            f"picard: {table.picard}",
            f"euler: {table.euler}",
            f"palindromic: {str(table.palindromic).lower()}",
            f"nonnegative: {str(table.nonnegative).lower()}",
            f"hodge_de_rham_sum_equal: {str(table.hodge_de_rham_sum_equal).lower()}",
        ]
        return "\n".join(body), 0
    if args.format == JSON:
        return _dump(v.to_json()), 0
    return _class_text(v), 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"nonlift: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        if args.group == "geom":
            text, code = _run_geom(args)
        elif args.group == "lift":
            text, code = _run_lift(args)
        else:
            text, code = _run_motive(args)
    except (_UsageError, NonliftError) as exc:
        print(f"nonlift: error: {exc}", file=sys.stderr)
        return 1
    print(text)
    if getattr(args, "out", None):
        try:
            with open(args.out, "wb") as fh:
                fh.write((text + "\n").encode("utf-8"))
        except OSError as exc:
            print(f"nonlift: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
