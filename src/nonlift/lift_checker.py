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

import itertools
import json

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    MissingAssignmentError,
    _Frozen,
    check_cap,
    read_back,
    write_json,
)
from .finite_geometry import (
    IncidenceConfig,
    ProjPointFp,
    _check_config_size,
    _point,
    enumerate_lines,
    enumerate_points,
    line_from_dual,
)
from .local_ring import (
    LocalRing,
    ProjPointA,
    _is_at,
    _join,
    _line_violations,
    _meet,
    _point_A,
    collinear_A,
    enumerate_lifts,
)

VERDICT_BLOCKED = "non-liftable"
VERDICT_OPEN = "liftable-not-excluded"

# Size caps, checked before anything is enumerated.  The search first lists
# all (p^2+p+1)·C(p+1,3) collinear triples of P^2(F_p), 66,612 at p = 13,
# and builds its lifts up front: (p^2+p+1-n)·p^(2(k-1)) + n with n points
# pinned, 4 for the standard frame and 0 over every frame.  The collinearity
# check decides each of the p^2+p+1 lines at once; propagation stores 2p
# steps.  The ring length is capped by local_ring.K_MAX.
PLANE_P_MAX = 13
LIFTS_MAX = 50_000
PROPAGATE_P_MAX = 5000

_ANCHOR_COORDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def frame_anchors(p):
    """The four standard frame points of P^2(F_p), in the fixed anchor order."""
    return tuple(ProjPointFp(c, p) for c in _ANCHOR_COORDS)


class Frame(_Frozen):
    """The standard frame over A: each anchor's coordinates re-read in A."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        super().__init__(ring)

    @property
    def images(self):
        return tuple(ProjPointA(self.ring, c) for c in _ANCHOR_COORDS)

    def assignment(self):
        """Anchor point -> image, as a dict."""
        return dict(zip(frame_anchors(self.ring.p), self.images))


class PropagationTrace(_Frozen):
    """The full forced chain, ending in the step that closes the loop.

    The chain is kept as the coordinate-integer triples of each step
    (derived point, line-1 dual, line-2 dual); `certificate_json` is the
    way to read a step.
    """

    __slots__ = ("ring", "_chain")

    def __init__(self, ring, _chain):
        super().__init__(ring, _chain)

    @property
    def p(self):
        return self.ring.p

    def _residue_points(self, triples):
        """The residue points of canonical triples, each canonical over F_p too."""
        residue, p = self.ring._residue, self.p
        return {_point(tuple(map(residue, ns)), p) for ns in triples}

    def pinned_points(self):
        """Every residue point whose image the trace pinned, sorted."""
        pts = self._residue_points(derived for derived, _, _ in self._chain)
        pts.update(frame_anchors(self.p))
        return tuple(sorted(pts))


class Obstruction(_Frozen):
    """Outcome of the closing comparison: the element p * 1 must vanish."""

    __slots__ = ("element", "derived", "required", "verdict")

    def __init__(self, element, derived, required, verdict):
        super().__init__(element, derived, required, verdict)

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
    projectively.  The chain runs on the points' coordinate-integer
    triples, joined and met by `local_ring._join` and `local_ring._meet`.
    """
    ring = _ring_of("propagate_forced_lift", args)
    p = ring.p
    check_cap(p, PROPAGATE_P_MAX, "prime p")
    images = Frame(ring).images
    e0, e1, e2, unit = (img._ns for img in images)
    chain = []

    def derive(dual1, dual2, expected_coords):
        # the law fixes the derived point, so its residue point is the target
        pt = _meet(ring, dual1, dual2)
        assert _is_at(ring, pt, expected_coords), (
            f"derived {_point_A(ring, pt)!r} violates the derived-coordinate law,"
            f" expected {ProjPointA(ring, expected_coords)!r}"
        )
        chain.append((pt, dual1, dual2))
        return pt

    # the fifth frame-determined point (1:1:0)
    corner = derive(_join(ring, e2, unit), _join(ring, e0, e1), (1, 1, 0))

    axis_line = _join(ring, e2, e0)     # residue line y = 0
    diag_line = _join(ring, unit, e0)   # residue line y = z
    prev_diag = unit                    # image of (1:1:1)
    for n in range(1, p):
        axis_pt = derive(_join(ring, prev_diag, e1), axis_line, (n, 0, 1))
        prev_diag = derive(_join(ring, axis_pt, corner), diag_line, (n + 1, 1, 1))

    # closing step: one more walk along the axis lands on (p*1 : 0 : 1),
    # whose target residue is the already-pinned (0:0:1)
    final = derive(_join(ring, prev_diag, e1), axis_line, (p, 0, 1))

    # the closing comparison against the pinned image of (0:0:1) is decided
    # by the element p·1
    element = ring.p_one
    obstruction = Obstruction(
        element=element,
        derived=_point_A(ring, final),
        required=images[2],
        verdict=VERDICT_OPEN if element.is_zero else VERDICT_BLOCKED,
    )
    assert (final == e2) == obstruction.is_zero
    return PropagationTrace(ring=ring, _chain=tuple(chain)), obstruction


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
    Returns the violating triples in `collinear_triples` order; an empty
    tuple means the map preserves collinearity.  Each line is decided at
    once (`local_ring._line_violations`): if its images have distinct
    residues, the join of the first two is unimodular, so when every other
    image lies on it, every determinant on the line is zero.  Three images
    with one shared residue and a zero determinant are undecidable and
    raise UndecidableCollinearityError.
    """
    ring = _ring_of("check_collinearity_preserving", args)
    p = ring.p
    check_cap(p, PLANE_P_MAX, "prime p")
    points = enumerate_points(2, p)
    images = []
    for pt in points:
        if pt not in mapping:
            raise MissingAssignmentError(f"no image assigned for {pt!r}")
        img = mapping[pt]
        if not isinstance(img, ProjPointA) or img.ring != ring or img.dim != 2:
            raise InvalidParameterError(f"image of {pt!r} is not a plane point over {ring}")
        images.append(img)
    violations = []
    for line in enumerate_lines(2, p):
        at = line.indices
        violations += [
            (points[at[a]], points[at[b]], points[at[c]])
            for a, b, c in _line_violations(ring, [images[i] for i in at])
        ]
    return tuple(violations)


def trivial_lift_map(*args):
    """The coordinate-wise lift: each canonical F_p coordinate re-read in A."""
    ring = _ring_of("trivial_lift_map", args)
    p = ring.p
    check_cap(p, PLANE_P_MAX, "prime p")
    return {pt: ProjPointA(ring, pt.coords) for pt in enumerate_points(2, p)}


class SearchResult(_Frozen):
    """Outcome of a brute-force search: the maps found plus node accounting."""

    __slots__ = ("maps", "nodes_explored", "budget")

    def __init__(self, maps, nodes_explored, budget):
        super().__init__(maps, nodes_explored, budget)

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


DEFAULT_BUDGET = 10**7


def _search(ring, budget, pinned):
    """The walk over the points that `pinned` (residue point -> image) leaves
    free: the frame anchors first, then the rest in `enumerate_points` order.
    Every candidate lift tried counts one node.  Returns (maps, nodes).
    Each point has an image slot, pinned points first, so a found map lists
    its keys in slot order; `completed[s]` holds the slot triples s completes.
    """
    p = ring.p
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InvalidParameterError(f"budget must be a positive integer, got {budget!r}")
    check_cap(p, PLANE_P_MAX, "prime p")
    per_point = p ** (2 * (ring.k - 1))
    check_cap((p * p + p + 1 - len(pinned)) * per_point + len(pinned), LIFTS_MAX, "lift count")

    points = enumerate_points(2, p)
    walk = dict.fromkeys((*frame_anchors(p), *points))  # anchors once, first
    keys = [*pinned, *(pt for pt in walk if pt not in pinned)]
    slot = {pt: s for s, pt in enumerate(keys)}
    slot_of = [slot[pt] for pt in points]  # enumerate_points index -> slot
    completed = [[] for _ in keys]
    for line in enumerate_lines(2, p):
        for triple in itertools.combinations([slot_of[i] for i in line.indices], 3):
            completed[max(triple)].append(triple)
    n = len(pinned)
    lifts = [enumerate_lifts(pt, ring) for pt in keys[n:]]

    images = [*pinned.values(), *(None for _ in lifts)]
    found = []
    nodes = 0

    def extend(s):
        nonlocal nodes
        if s == len(keys):
            final = dict(zip(keys, images))
            assert not check_collinearity_preserving(final, ring)
            found.append(final)
            return
        for cand in lifts[s - n]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes, budget)
            images[s] = cand
            # lifts of distinct points: distinct residues, always decidable
            if all(collinear_A(images[x], images[y], images[z]) for x, y, z in completed[s]):
                extend(s + 1)

    extend(n)
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
    maps, nodes = _search(ring, budget, Frame(ring).assignment())
    return SearchResult(maps=maps, nodes_explored=nodes, budget=budget)


def search_over_all_frames(*args, budget=DEFAULT_BUDGET):
    """Spot check: the same search with no frame pinned, so anchor choices
    count as nodes too.  Returns (maps, nodes), grouped by anchor lifts in
    `itertools.product` order.  Desk scale only; at p=2 over Z/4 this is
    4^4 frames of at most 4^3 assignments each.
    """
    return _search(_ring_of("search_over_all_frames", args), budget, {})


def extract_used_configuration(trace):
    """The point-line configuration a trace actually touched.

    Points: every residue point pinned by the trace (frame anchors plus all
    step targets).  Lines: the residue lines of every join used in a step.
    The result's point set must coincide with mp_configuration(trace.p)'s;
    tests hold the two together.  Each line is listed in full, so the
    trace's p meets mp_configuration's cap before any line is built.
    """
    if not isinstance(trace, PropagationTrace):
        raise InvalidParameterError("extract_used_configuration expects a PropagationTrace")
    _check_config_size(2, trace.p)
    points = trace.pinned_points()
    duals = trace._residue_points(dual for _, *duals in trace._chain for dual in duals)
    lines = sorted(line_from_dual(d) for d in duals)
    return IncidenceConfig.from_members(points, lines)


# -- certificates -----------------------------------------------------------


def certificate_json(trace, obstruction):
    """The replayable JSON document for a propagation run."""
    ring = trace.ring
    residue, js = ring._residue, ring._json
    return {
        "p": trace.p,
        "ring": ring.to_json(),
        "frame": "standard",
        "steps": [
            {
                "target": list(map(residue, derived)),
                "line1": {"dual": list(map(js, dual1))},
                "line2": {"dual": list(map(js, dual2))},
                "derived": list(map(js, derived)),
            }
            for derived, dual1, dual2 in trace._chain
        ],
        "obstruction": {
            "element": obstruction.element.to_json(),
            "isZero": obstruction.is_zero,
        },
        "verdict": obstruction.verdict,
    }


def certificate_parse(doc):
    """The (trace, obstruction) of a certificate document or its JSON text.

    A ring has exactly one certificate, so the document's ring is read and
    its forced chain run again with `propagate_forced_lift`; through
    `errors.read_back` the document is accepted only if it is the one
    `certificate_json` writes for that ring, step for step.  This reads a
    certificate back; it does not check one independently of the prover.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise InvalidParameterError(f"malformed certificate: {exc!r}") from None
    return read_back(doc, _parse_certificate, lambda pair: certificate_json(*pair), "certificate")


def _parse_certificate(doc):
    ring = LocalRing.from_json(doc["ring"])
    p = ring.p
    if not isinstance(doc["p"], int) or doc["p"] != p:
        raise InvalidParameterError(f"certificate p {doc['p']!r} differs from its ring's p {p}")
    return propagate_forced_lift(ring)


def _fmt_point(pt):
    """`(a:b:c)` for a point over F_p or over a ring."""
    if isinstance(pt, ProjPointA):
        return f"({pt._coords_text()})"
    return "(" + ":".join(str(c) for c in pt.coords) + ")"


def certificate_render(trace, obstruction, format="text"):
    """Human-readable or JSON rendering of a propagation certificate."""
    if format == "json":
        return write_json(certificate_json(trace, obstruction))
    if format != "text":
        raise InvalidParameterError(f"unknown certificate format {format!r}")
    ring = trace.ring
    residue, text = ring._residue, ring._text
    lines = [
        "lift propagation certificate",
        f"p: {trace.p}",
        f"ring: {ring}",
        "frame: standard (1:0:0), (0:1:0), (0:0:1), (1:1:1)",
        f"steps: {len(trace._chain)}",
    ]
    for i, (derived, dual1, dual2) in enumerate(trace._chain, start=1):
        lines.append(
            f"step {i}: target ({':'.join([str(residue(n)) for n in derived])})"
            f" = meet of duals ({':'.join(map(text, dual1))}) and ({':'.join(map(text, dual2))})"
            f" -> ({':'.join(map(text, derived))})"
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
