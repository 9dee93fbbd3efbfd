"""Command-line front end.

Three verb groups: `geom` for rational configurations over a prime field,
`lift` for propagation certificates and exhaustive lift searches over a
coefficient ring, `motive` for Lefschetz-class computations.  Every command
prints to stdout, optionally mirrors the exact same bytes to --out, and is
fully deterministic, so reruns are byte-identical.

Exit status: 0 on success, 1 on usage or domain errors or when the reader
closes stdout early, 2 when `lift propagate` certifies the non-liftable
verdict.
"""

import argparse
import json
import os
import sys

from . import lift_checker, motive
from .errors import NonliftError, write_json
from .finite_geometry import (
    ProjPointFp,
    enumerate_points,
    incidence_config,
    mp_configuration,
    point_line_counts,
)
from .local_ring import ProjPointA, ring_make

TEXT, JSON = "text", "json"

# space kind -> (motive function name, integer options in spec order, help
# line): one `motive` command and one `--space` kind each.  The function is
# looked up when called, so a wrapper installed on `motive` sees the call.
SPACES = {
    "ps": ("projective_space_class", ("dim",), "projective space class"),
    "quadric": ("quadric_class", ("dim",), "split quadric class"),
    "grass": ("grassmannian_class", ("r", "m"), "Grassmannian class"),
    "flag": ("flag_class_typeA", ("m",), "full flag variety class"),
    "construction-two": ("construction_two_class", ("p",), "point-line blow-up of 3-space"),
}

_P = ("--p", {"type": int, "required": True})
_DIM = ("--dim", {"type": int, "required": True, "choices": (2, 3)})
_RING = ("--ring", {"default": "zpk:2", "help": "zpk:<k> or fpt:<k>"})

# group -> (help line, command -> (help line, options)); every command also
# takes --format and --out
COMMANDS = {
    "geom": ("configurations over a prime field", {
        "count": ("point/line/plane counts", [_DIM, _P]),
        "config": ("full incidence configuration", [_DIM, _P]),
        "mp": ("the 2p+3 point propagation configuration", [_P]),
    }),
    "lift": ("lifting over a coefficient ring", {
        "propagate": ("forced-lift certificate", [_P, _RING]),
        "brute": ("exhaustive lift search",
                  [_P, ("--budget", {"type": int, "default": lift_checker.DEFAULT_BUDGET}), _RING]),
        "check": ("check a point map for collinearity", [
            _P, ("--map", {"dest": "map_file", "help": "JSON assignments; default: trivial lift"}),
            _RING,
        ]),
    }),
    "motive": ("Lefschetz-class computations", {
        **{kind: (help_line, [(f"--{name}", {"type": int, "required": True}) for name in options])
           for kind, (_, options, help_line) in SPACES.items()},
        "construction-one": ("self-map graph blow-up of a square", [
            ("--space", {"required": True, "help": "e.g. flag:3 or quadric:3"}),
            ("--center", {"choices": motive.CENTER_KINDS, "default": "frobenius-graph"}),
        ]),
        "invariants": ("Betti/Hodge table of a space",
                       [("--space", {"required": True, "help": "e.g. construction-one:flag:3"})]),
    }),
}


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

    Grammar: construction-one:<inner spec>, or a `SPACES` kind followed by
    its integers, comma-separated: ps:<n> | quadric:<d> | grass:<r>,<m>
    | flag:<m> | construction-two:<p>.  Prefixes are counted in one pass;
    dim y >= 2 doubles with each, so the dimension cap stops a deep nest.
    """
    prefix, nest = "construction-one:", 0
    while spec.startswith(prefix, nest * len(prefix)):
        nest += 1
    spec = spec[nest * len(prefix):]
    head, sep, rest = spec.partition(":")
    if not sep:
        raise _UsageError(f"space spec needs a ':', got {spec!r}")
    if head not in SPACES:
        raise _UsageError(f"unknown space kind {head!r}")
    name, options, _ = SPACES[head]
    numbers = rest.split(",")
    try:
        if len(numbers) != len(options):
            raise ValueError
        v = getattr(motive, name)(*map(int, numbers))
    except ValueError:
        raise _UsageError(f"bad numbers in space spec {spec!r}") from None
    for _ in range(nest):
        v = motive.construction_one_class(v)
    return v


def _parse(argv):
    """The arguments of one command, read by the one parser built for it.

    The first two words pick the group and the command; `-h` or `--help`
    in their place lists that level's entries and exits 0.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    prog, entries = "nonlift", COMMANDS
    for i, (level, usage) in enumerate((("group", "<group> <command>"), ("command", "<command>"))):
        word = words[i] if i < len(words) else None
        if word in ("-h", "--help"):
            width = max(map(len, entries))
            print(f"usage: {prog} {usage} [options]\n\n{level}s:")
            for name, (line, _) in entries.items():
                print(f"  {name:<{width}}  {line}")
            raise SystemExit(0)
        if word not in entries:
            found = f"missing {level}" if word is None else f"unknown {level} {word!r}"
            raise _UsageError(f"{found}; choose from {', '.join(entries)}")
        prog += " " + word
        help_line, entries = entries[word]
    parser = _Parser(prog=prog, description=help_line)
    for flag, options in entries:
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=(TEXT, JSON), default=TEXT)
    parser.add_argument("--out", help="also write the output bytes to this file")
    args = parser.parse_args(words[2:])
    args.group, args.command = words[:2]
    return args


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


def _run_geom(args):
    if args.command == "count":
        points, lines = point_line_counts(args.dim, args.p)
        doc = {"dim": args.dim, "p": args.p, "points": points, "lines": lines}
        text = f"points: {points}, lines: {lines}"
        if args.dim == 3:
            doc["planes"] = points
            text += f", planes: {points}"
        return (write_json(doc) if args.format == JSON else text), 0
    if args.command == "config":
        config = incidence_config(args.dim, args.p)
    else:
        config = mp_configuration(args.p)
    if args.format == JSON:
        return write_json(config.to_json()), 0
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
                            {"point": list(pt.coords), "image": img._coords_json()}
                            for pt, img in sorted(m.items())
                        ]
                    }
                    for m in result.maps
                ],
            }
            return write_json(doc), 0
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
        return write_json(doc), 0
    lines = [f"violations: {len(violations)}"]
    if violations:
        # each point formatted once, not once per violation it is in
        name = {pt.coords: fmt(pt) for pt in enumerate_points(2, ring.p)}
        lines += [f"  {name[x.coords]}, {name[y.coords]}, {name[z.coords]}"
                  for x, y, z in violations]
    return "\n".join(lines), 0


def _run_motive(args):
    if args.command in SPACES:
        name, options, _ = SPACES[args.command]
        v = getattr(motive, name)(*(getattr(args, option) for option in options))
    elif args.command == "construction-one":
        v = motive.construction_one_class(parse_space_spec(args.space), center=args.center)
    else:  # invariants
        v = parse_space_spec(args.space)
        table = motive.invariants_table(v)
        if args.format == JSON:
            return write_json({"class": v.to_json(), "invariants": table.to_json()}), 0
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
        return write_json(v.to_json()), 0
    return _class_text(v), 0


def main(argv=None):
    try:
        args = _parse(argv)
        run = {"geom": _run_geom, "lift": _run_lift, "motive": _run_motive}[args.group]
        text, code = run(args)
    except (_UsageError, NonliftError) as exc:
        print(f"nonlift: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help at any level
        return 0 if exc.code in (0, None) else 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if args.out:
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
