"""Forced propagation of point lifts and the exhaustive search that audits it.

A map from the rational points of the plane over F_p to the plane over a
local coefficient ring A that preserves collinearity and fixes the standard
frame is forced, point by point: the image of every further point is the
meet of two joins of already-pinned points.  Chasing the chain

    next axis point   = join(previous diagonal point, (0:1:0)) ^ join((0:0:1), (1:0:0)),
    next diagonal pt  = join(that axis point, (1:1:0))         ^ join((1:1:1), (1:0:0)),

p steps along the axis returns to the start and pins (p*1 : 0 : 1) against
the already-pinned (0:0:1).  The two agree exactly when p * 1 = 0 in A, so
the element p * 1 is the whole obstruction: nonzero means no such map
exists, and the recorded trace is a replayable certificate of that.

The brute-force search below is the independent oracle: it enumerates every
frame-fixing assignment of lifts outright, pruning on violated collinear
triples, and must agree with the propagation verdict.

Every entry point takes the coefficient ring and reads p off it; the
older form with p before the ring is accepted only when p is the ring's own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    IndeterminateIntersectionError,
    InvalidParameterError,
    MissingAssignmentError,
    check_cap,
)
from .finite_geometry import (
    IncidenceConfig,
    ProjPointFp,
    enumerate_lines,
    enumerate_points,
    line_from_dual,
)
from .local_ring import (
    LineA,
    LocalRing,
    ProjPointA,
    collinear_A,
    enumerate_lifts,
    line_intersect_A,
    line_through_A,
)

VERDICT_BLOCKED = "non-liftable"
VERDICT_OPEN = "liftable-not-excluded"

# Size caps, checked before anything is enumerated.  The search and the
# collinearity check first list all (p^2+p+1)·C(p+1,3) collinear triples of
# P^2(F_p), 66,612 at p = 13; the search also builds its lifts up front:
# (p^2+p-3)·p^(2(k-1)) + 4 with the standard frame, (p^2+p+1)·p^(2(k-1))
# over every frame; propagation stores 2p steps.  The ring length is capped
# by local_ring.K_MAX.
PLANE_P_MAX = 13
LIFTS_MAX = 50_000
PROPAGATE_P_MAX = 5000

_ANCHOR_COORDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def frame_anchors(p):
    """The four standard frame points of P^2(F_p), in the fixed anchor order."""
    return tuple(ProjPointFp(c, p) for c in _ANCHOR_COORDS)


@dataclass(frozen=True)
class Frame:
    """The standard frame over A: each anchor's coordinates re-read in A."""

    ring: LocalRing

    @property
    def images(self):
        return tuple(ProjPointA(self.ring, c) for c in _ANCHOR_COORDS)

    def assignment(self):
        """Anchor point -> image, as a dict."""
        return dict(zip(frame_anchors(self.ring.p), self.images))


@dataclass(frozen=True)
class DerivationStep:
    """One forced step: the meet of two joins pins the target's image."""

    target: ProjPointFp
    line1: LineA
    line2: LineA
    derived: ProjPointA


@dataclass(frozen=True)
class PropagationTrace:
    """The full forced chain, ending in the step that closes the loop."""

    ring: LocalRing
    steps: tuple

    @property
    def p(self):
        return self.ring.p

    @property
    def frame(self):
        return Frame(self.ring)

    def pinned_points(self):
        """Every residue point whose image the trace pinned, sorted."""
        pts = set(frame_anchors(self.p))
        pts.update(step.target for step in self.steps)
        return tuple(sorted(pts))

    def assignment(self):
        """Residue point -> forced image.  The closing step never overrides
        the frame value of its target; the clash, if any, lives in the
        Obstruction record instead."""
        out = self.frame.assignment()
        for step in self.steps:
            out.setdefault(step.target, step.derived)
        return out


@dataclass(frozen=True)
class Obstruction:
    """Outcome of the closing comparison: the element p * 1 must vanish."""

    element: object
    derived: ProjPointA
    required: ProjPointA
    verdict: str

    @property
    def is_zero(self):
        return self.element.is_zero


def _ring_of(name, args):
    """The ring of an entry point's positional arguments: `(ring,)`, or the
    older `(p, ring)`, taken only when p is the int ring.p."""
    ring = args[-1] if args else None
    if len(args) > 2 or not isinstance(ring, LocalRing):
        raise InvalidParameterError(f"{name} expects a LocalRing")
    if len(args) == 2 and not (type(args[0]) is int and args[0] == ring.p):
        raise InvalidParameterError(
            f"residue characteristic mismatch: p={args[0]!r} but ring {ring} has p={ring.p}"
        )
    return ring


def propagate_forced_lift(*args):
    """Run the forced chain over the ring (p = ring.p) with the standard frame.

    Returns (trace, obstruction).  Every join and meet along the way is
    well-defined (distinct residues); this is asserted at each step, as is
    the derived-coordinate law: the n-th axis point comes out at
    (n*1 : 0 : 1) and the n-th diagonal point at ((n+1)*1 : 1 : 1),
    projectively.
    """
    ring = _ring_of("propagate_forced_lift", args)
    p = ring.p
    check_cap(p, PROPAGATE_P_MAX, "prime p")
    e0_img, e1_img, e2_img, unit_img = Frame(ring).images
    steps = []

    def derive(la, lb, expected_coords):
        # the target is the residue point of the expected coordinates
        pt = line_intersect_A(la, lb)
        expected = ProjPointA(ring, expected_coords)
        assert pt == expected, (
            f"derived {pt!r} violates the derived-coordinate law, expected {expected!r}"
        )
        target = ProjPointFp(expected_coords, p)
        steps.append(DerivationStep(target=target, line1=la, line2=lb, derived=pt))
        return pt

    # the fifth frame-determined point (1:1:0)
    corner = derive(
        line_through_A(e2_img, unit_img),
        line_through_A(e0_img, e1_img),
        (1, 1, 0),
    )

    axis_line = line_through_A(e2_img, e0_img)      # residue line y = 0
    diag_line = line_through_A(unit_img, e0_img)    # residue line y = z
    prev_diag = unit_img                            # image of (1:1:1)
    for n in range(1, p):
        axis_pt = derive(
            line_through_A(prev_diag, e1_img),
            axis_line,
            (n, 0, 1),
        )
        prev_diag = derive(
            line_through_A(axis_pt, corner),
            diag_line,
            (n + 1, 1, 1),
        )

    # closing step: one more walk along the axis lands on (p*1 : 0 : 1),
    # whose target residue is the already-pinned (0:0:1)
    final = derive(
        line_through_A(prev_diag, e1_img),
        axis_line,
        (p, 0, 1),
    )

    element = ring.p_one
    assert (final == e2_img) == element.is_zero
    obstruction = Obstruction(
        element=element,
        derived=final,
        required=e2_img,
        verdict=VERDICT_OPEN if element.is_zero else VERDICT_BLOCKED,
    )
    trace = PropagationTrace(ring=ring, steps=tuple(steps))
    return trace, obstruction


def collinear_triples(p):
    """All collinear triples of distinct points of P^2(F_p).

    Each triple lies on exactly one line, so walking the lines lists every
    triple once.  Triples with a repeated point are omitted: their images
    are always collinear (a repeated row kills the determinant), so they
    constrain nothing.
    """
    triples = []
    for line in enumerate_lines(2, p):
        triples.extend(itertools.combinations(line.points, 3))
    return triples


def check_collinearity_preserving(mapping, *args):
    """All collinear triples whose images fail the determinant test.

    `mapping` must assign a point of P^2(A) to every point of P^2(F_p).
    Returns the violating triples; an empty tuple means the map preserves
    collinearity.  Three images with one shared residue and a zero
    determinant are undecidable and raise UndecidableCollinearityError.
    """
    ring = _ring_of("check_collinearity_preserving", args)
    p = ring.p
    check_cap(p, PLANE_P_MAX, "prime p")
    points = enumerate_points(2, p)
    for pt in points:
        if pt not in mapping:
            raise MissingAssignmentError(f"no image assigned for {pt!r}")
        img = mapping[pt]
        if not isinstance(img, ProjPointA) or img.ring != ring or img.dim != 2:
            raise InvalidParameterError(f"image of {pt!r} is not a plane point over {ring}")
    violations = []
    for x, y, z in collinear_triples(p):
        if not collinear_A(mapping[x], mapping[y], mapping[z]):
            violations.append((x, y, z))
    return tuple(violations)


def trivial_lift_map(*args):
    """The coordinate-wise lift: each canonical F_p coordinate re-read in A."""
    ring = _ring_of("trivial_lift_map", args)
    p = ring.p
    check_cap(p, PLANE_P_MAX, "prime p")
    return {pt: ProjPointA(ring, pt.coords) for pt in enumerate_points(2, p)}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a brute-force search: the maps found plus node accounting."""

    maps: tuple
    nodes_explored: int
    budget: int

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


DEFAULT_BUDGET = 10**7


def _search(ring, budget, every_frame):
    """The free-point walk, run once per anchor-image tuple: the standard
    frame, or with `every_frame` each tuple of the anchors' lifts.  Triples
    and free-point lifts are built once; anchor choices count no nodes, and
    `budget` bounds the total over all frames.  Returns (maps, nodes).
    """
    p = ring.p
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InvalidParameterError(f"budget must be a positive integer, got {budget!r}")
    check_cap(p, PLANE_P_MAX, "prime p")
    per_point = p ** (2 * (ring.k - 1))
    anchor_lifts = 4 * (per_point if every_frame else 1)
    check_cap((p * p + p - 3) * per_point + anchor_lifts, LIFTS_MAX, "lift count")

    # the plane has p^2+p+1 >= 7 points and the frame fixes 4, so `free`
    # is never empty
    anchors = frame_anchors(p)
    free = [pt for pt in enumerate_points(2, p) if pt not in anchors]
    rank = {pt: -1 for pt in anchors}
    rank.update({pt: m for m, pt in enumerate(free)})
    completed = [[] for _ in free]
    for triple in collinear_triples(p):
        r = max(rank[x] for x in triple)
        if r >= 0:
            completed[r].append(triple)
    lifts = [enumerate_lifts(pt, ring) for pt in free]
    if every_frame:
        frames = itertools.product(*(enumerate_lifts(a, ring) for a in anchors))
    else:
        frames = (Frame(ring).images,)

    assignment = {}
    found = []
    nodes = 0

    def extend(m):
        nonlocal nodes
        if m == len(free):
            final = dict(assignment)
            assert not check_collinearity_preserving(final, ring)
            found.append(final)
            return
        pt = free[m]
        for cand in lifts[m]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes, budget)
            assignment[pt] = cand
            # lifts of distinct points: distinct residues, always decidable
            if all(
                collinear_A(assignment[x], assignment[y], assignment[z])
                for x, y, z in completed[m]
            ):
                extend(m + 1)
        assignment.pop(pt, None)

    for images in frames:
        assignment.update(zip(anchors, images))
        extend(0)
    return tuple(found), nodes


def brute_force_lift_search(*args, budget=DEFAULT_BUDGET):
    """Exhaustive search over all frame-fixing lift assignments.

    Walks the non-frame points in lexicographic order; candidates for each
    point are its lifts in ascending order.  After every assignment all
    newly-completed collinear triples are checked, so dead branches die at
    the first violated triple.  Every explored candidate counts one node
    against the budget.
    """
    ring = _ring_of("brute_force_lift_search", args)
    maps, nodes = _search(ring, budget, every_frame=False)
    return SearchResult(maps=maps, nodes_explored=nodes, budget=budget)


def search_over_all_frames(*args, budget=DEFAULT_BUDGET):
    """Spot check: the same search for every choice of frame anchor lifts.

    Returns (maps, nodes) aggregated over all frames; `budget` bounds the
    total, and anchor choices count no nodes.  Desk scale only; at p=2 over
    Z/4 this is 4^4 frames of at most 4^3 assignments each.
    """
    return _search(_ring_of("search_over_all_frames", args), budget, every_frame=True)


def extract_used_configuration(trace):
    """The point-line configuration a trace actually touched.

    Points: every residue point pinned by the trace (frame anchors plus all
    step targets).  Lines: the residue lines of every join used in a step.
    The result's point set must coincide with mp_configuration(trace.p)'s;
    tests hold the two together.
    """
    if not isinstance(trace, PropagationTrace):
        raise InvalidParameterError("extract_used_configuration expects a PropagationTrace")
    points = trace.pinned_points()
    duals = []
    for step in trace.steps:
        for line in (step.line1, step.line2):
            d = line.dual.reduce()
            if d not in duals:
                duals.append(d)
    lines = sorted(line_from_dual(d) for d in duals)
    return IncidenceConfig.from_members(points, lines)


# -- certificates -----------------------------------------------------------


def certificate_json(trace, obstruction):
    """The replayable JSON document for a propagation run."""
    return {
        "p": trace.p,
        "ring": trace.ring.to_json(),
        "frame": "standard",
        "steps": [
            {
                "target": list(step.target.coords),
                "line1": step.line1.to_json(),
                "line2": step.line2.to_json(),
                "derived": [c.to_json() for c in step.derived.coords],
            }
            for step in trace.steps
        ],
        "obstruction": {
            "element": obstruction.element.to_json(),
            "isZero": obstruction.is_zero,
        },
        "verdict": obstruction.verdict,
    }


def certificate_parse(doc):
    """Rebuild (trace, obstruction) from a certificate document or its JSON text.

    Every step is replayed: its derived point must be the meet of its two
    lines and reduce to its target.  The element must be p·1 and the
    verdict the one that element implies.  That the lines are joins of
    earlier pinned points is not checked.  Text that is not JSON, and a
    document with a missing or mistyped field, raise InvalidParameterError.
    """
    try:
        return _parse_certificate(json.loads(doc) if isinstance(doc, str) else doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed certificate: {exc!r}") from None


def _parse_certificate(doc):
    ring = LocalRing.from_json(doc["ring"])
    p = ring.p
    if not isinstance(doc["p"], int) or doc["p"] != p:
        raise InvalidParameterError(f"certificate p {doc['p']!r} differs from its ring's p {p}")
    if doc.get("frame") != "standard":
        raise InvalidParameterError(f"unknown frame tag {doc.get('frame')!r}")
    steps = []
    for i, raw in enumerate(doc["steps"], start=1):
        step = DerivationStep(
            target=ProjPointFp(raw["target"], p),
            line1=LineA(ProjPointA(ring, raw["line1"]["dual"])),
            line2=LineA(ProjPointA(ring, raw["line2"]["dual"])),
            derived=ProjPointA(ring, raw["derived"]),
        )
        try:
            meet = line_intersect_A(step.line1, step.line2)
        except IndeterminateIntersectionError as exc:
            raise InvalidParameterError(f"certificate step {i}: {exc}") from None
        if step.derived != meet:
            raise InvalidParameterError(f"certificate step {i}: derived point is not the meet")
        if step.derived.reduce() != step.target:
            raise InvalidParameterError(f"certificate step {i}: derived point misses its target")
        steps.append(step)
    if not steps:
        raise InvalidParameterError("certificate has no derivation steps")
    element = ring.elem(doc["obstruction"]["element"])
    if element != ring.p_one:
        raise InvalidParameterError(f"certificate element {element} is not p·1 = {ring.p_one}")
    if bool(doc["obstruction"]["isZero"]) != element.is_zero:
        raise InvalidParameterError("certificate isZero flag contradicts its element")
    verdict = doc["verdict"]
    if verdict != (VERDICT_OPEN if element.is_zero else VERDICT_BLOCKED):
        raise InvalidParameterError(f"certificate verdict {verdict!r} contradicts its element")
    obstruction = Obstruction(
        element=element,
        derived=steps[-1].derived,
        required=Frame(ring).images[2],
        verdict=verdict,
    )
    trace = PropagationTrace(ring=ring, steps=tuple(steps))
    return trace, obstruction


def _fmt_point(pt):
    """`(a:b:c)` for a point over F_p or over a ring."""
    return "(" + ":".join(str(c) for c in pt.coords) + ")"


def certificate_render(trace, obstruction, format="text"):
    """Human-readable or JSON rendering of a propagation certificate."""
    if format == "json":
        return json.dumps(certificate_json(trace, obstruction), indent=2)
    if format != "text":
        raise InvalidParameterError(f"unknown certificate format {format!r}")
    ring = trace.ring
    lines = [
        "lift propagation certificate",
        f"p: {trace.p}",
        f"ring: {ring}",
        "frame: standard (1:0:0), (0:1:0), (0:0:1), (1:1:1)",
        f"steps: {len(trace.steps)}",
    ]
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"step {i}: target {_fmt_point(step.target)}"
            f" = meet of duals {_fmt_point(step.line1.dual)} and {_fmt_point(step.line2.dual)}"
            f" -> {_fmt_point(step.derived)}"
        )
    lines.append(
        f"closing comparison: derived {_fmt_point(obstruction.derived)}"
        f" against pinned {_fmt_point(obstruction.required)}"
    )
    if obstruction.is_zero:
        lines.append("no obstruction")
    else:
        lines.append(
            f"obstruction p·1 = {obstruction.element} ≠ 0 in {ring}:"
            " no collinearity-preserving lift exists with this frame"
        )
    return "\n".join(lines)
