"""Propagation certificates and the exhaustive search that audits them.

The worked chain over Z/4 is frozen step by step; larger cases pin down
counts, node totals and verdicts.  The search results double as the
independent oracle for the propagation verdicts.
"""

import itertools
import json
import random
import time

import pytest

from nonlift import (
    VERDICT_BLOCKED,
    VERDICT_OPEN,
    BudgetExceededError,
    Frame,
    InvalidParameterError,
    MissingAssignmentError,
    NonliftError,
    ProjPointA,
    ProjPointFp,
    UndecidableCollinearityError,
    brute_force_lift_search,
    certificate_json,
    certificate_parse,
    certificate_render,
    check_collinearity_preserving,
    collinear_A,
    collinear_triples,
    enumerate_lifts,
    enumerate_lines,
    enumerate_points,
    extract_used_configuration,
    frame_anchors,
    line_intersect_A,
    line_through_A,
    mp_configuration,
    propagate_forced_lift,
    ring_make,
    search_over_all_frames,
    trivial_lift_map,
)
from nonlift import lift_checker
from nonlift.lift_checker import LIFTS_MAX, PLANE_P_MAX, PROPAGATE_P_MAX
from nonlift.local_ring import K_MAX

Z4 = ring_make("zpk", 2, 2)
F2T = ring_make("fpt", 2, 2)

# (p, kind) -> (maps found, nodes explored) with the default budget
SEARCH_RESULTS = {
    (2, "zpk"): (0, 12),
    (3, "zpk"): (0, 99),
    (2, "fpt"): (1, 12),
    (3, "fpt"): (1, 135),
}

FANO_TRIPLE = (ProjPointFp((0, 1, 1), 2), ProjPointFp((1, 0, 1), 2), ProjPointFp((1, 1, 0), 2))


def reps(pt):
    return tuple(c.rep for c in pt.coords)


def test_frame_anchors_order():
    assert [a.coords for a in frame_anchors(5)] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
    ]


def test_standard_frame():
    frame = Frame(Z4)
    assert frame == Frame(Z4)
    assert [reps(img) for img in frame.images] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
    ]
    assignment = frame.assignment()
    assert assignment[ProjPointFp((1, 1, 1), 2)] == frame.images[3]


def test_propagation_worked_chain_z4():
    trace, obstruction = propagate_forced_lift(Z4)
    steps = certificate_json(trace, obstruction)["steps"]
    expected = [
        # (target, dual of line1, dual of line2, derived image)
        ((1, 1, 0), (1, 3, 0), (0, 0, 1), (1, 1, 0)),
        ((1, 0, 1), (1, 0, 3), (0, 1, 0), (1, 0, 1)),
        ((0, 1, 1), (1, 3, 3), (0, 1, 3), (2, 1, 1)),
        ((0, 0, 1), (1, 0, 2), (0, 1, 0), (2, 0, 1)),
    ]
    assert [
        (step["target"], step["line1"]["dual"], step["line2"]["dual"], step["derived"])
        for step in steps
    ] == [tuple(map(list, row)) for row in expected]
    assert obstruction.verdict == VERDICT_BLOCKED
    assert obstruction.element.rep == 2
    assert not obstruction.is_zero
    assert reps(obstruction.derived) == (2, 0, 1)
    assert reps(obstruction.required) == (0, 0, 1)


def test_propagation_blocked_when_p_survives():
    for p in (2, 3, 5, 7, 11, 13):
        ring = ring_make("zpk", p, 2)
        trace, obstruction = propagate_forced_lift(ring)
        assert obstruction.verdict == VERDICT_BLOCKED
        assert obstruction.element == ring.p_one
        assert obstruction.element.rep == p
        assert len(certificate_json(trace, obstruction)["steps"]) == 2 * p


def test_propagation_open_when_p_vanishes():
    for p in (2, 3, 5, 7):
        for ring in (ring_make("fpt", p, 2), ring_make("zpk", p, 1)):
            trace, obstruction = propagate_forced_lift(ring)
            assert obstruction.verdict == VERDICT_OPEN
            assert obstruction.is_zero
            assert obstruction.derived == obstruction.required


# The chain in closed form, the same integers in every ring: (line-1 dual,
# line-2 dual, derived point) of the corner step and of axis and diagonal
# step n.  Axis step p is the closing step.
_ANCHORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
_CORNER = ((1, -1, 0), (0, 0, 1), (1, 1, 0))


def _axis(n):
    return (1, 0, -n), (0, 1, 0), (n, 0, 1)


def _diagonal(n):
    return (1, -1, -n), (0, 1, -1), (n + 1, 1, 1)


def _closed_form(p):
    rows = [_CORNER]
    for n in range(1, p):
        rows += [_axis(n), _diagonal(n)]
    return rows + [_axis(p)]


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["zpk", "fpt"])
@pytest.mark.parametrize("p", [2, 3, 5, 13, 211])
def test_certificate_is_the_closed_form(p, kind, k):
    # every dual of the table has pivot 1, so each is its integers encoded in
    # the ring; the derived points are the table's, normalized
    ring = ring_make(kind, p, k)
    doc = certificate_json(*propagate_forced_lift(ring))
    rows = _closed_form(p)
    assert len(doc["steps"]) == len(rows) == 2 * p

    def encoded(ints):
        return [ring.elem(x).to_json() for x in ints]

    for step, (dual1, dual2, derived) in zip(doc["steps"], rows):
        pt = ProjPointA(ring, derived)
        assert step == {"target": list(pt.reduce().coords), "line1": {"dual": encoded(dual1)},
                        "line2": {"dual": encoded(dual2)}, "derived": pt.to_json()["coords"]}


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _chain_spans(n):
    """Every join and meet that axis step n and diagonal step n run, with
    the table entry it gives: (u, v, sign, w) with u x v = sign * w."""
    e0, e1, e2, unit = _ANCHORS
    corner, axis, diagonal = _CORNER, _axis(n), _diagonal(n)
    return [
        (e2, unit, -1, corner[0]),
        (e0, e1, 1, corner[1]),
        (corner[0], corner[1], -1, corner[2]),
        (e2, e0, 1, axis[1]),
        (unit, e0, 1, diagonal[1]),
        (_diagonal(n - 1)[2], e1, -1, axis[0]),  # the diagonal point before, (1:1:1) at n = 1
        (axis[0], axis[1], 1, axis[2]),
        (axis[2], corner[2], -1, diagonal[0]),
        (diagonal[0], diagonal[1], 1, diagonal[2]),
    ]


def test_closed_form_identities():
    # each coordinate has degree <= 2 in n, so agreeing at four integers
    # makes every row an identity over Z[n]; a coordinate that is the same
    # 1 or -1 at all four is that constant, a unit in every local ring, so
    # every join and meet of the chain is defined over every ring
    values = [_chain_spans(n) for n in range(4)]
    for row in zip(*values):
        crosses = [_cross(u, v) for u, v, _, _ in row]
        assert crosses == [tuple(sign * c for c in w) for _, _, sign, w in row]
        assert any({c[i] for c in crosses} in ({1}, {-1}) for i in range(3)), row[0]
    # the closing step derives (p:0:1) for the pinned (0:0:1): equal exactly when p*1 = 0
    for ring in (ring_make("zpk", 3, 1), ring_make("zpk", 3, 2), ring_make("fpt", 3, 2)):
        closing = ProjPointA(ring, _closed_form(3)[-1][2])
        assert (closing == ProjPointA(ring, (0, 0, 1))) == ring.p_one.is_zero


def _off_the_line(ring, meets):
    """Each meet moved by the uniformizer in its middle coordinate: the same
    residue point, off both lines it should lie on."""
    pi = ring.elem(ring.p if ring.kind == "zpk" else [0, 1])
    x, y, z = meets[-1].coords
    return ProjPointA(ring, (x, y + pi, z))


def _next_axis_point(ring, meets):
    """The first axis step answered with (2:0:1) instead of (1:0:1)."""
    return ProjPointA(ring, (2, 0, 1)) if len(meets) == 2 else meets[-1]


@pytest.mark.parametrize("spec", [("zpk", 3, 2), ("fpt", 3, 2)], ids=str)
@pytest.mark.parametrize("wrong", [_off_the_line, _next_axis_point])
def test_derived_coordinate_law_check_fires(monkeypatch, spec, wrong):
    # a meet that breaks the law stops the chain at its own step; the chain
    # meets on coordinate-integer triples, so the patch wraps their kernel
    ring = ring_make(*spec)
    meet, meets = lift_checker._meet, []

    def wrong_meet(ring_, dual1, dual2):
        meets.append(ProjPointA(ring, meet(ring_, dual1, dual2)))
        return wrong(ring, meets)._ns

    monkeypatch.setattr(lift_checker, "_meet", wrong_meet)
    with pytest.raises(AssertionError, match="violates the derived-coordinate law"):
        propagate_forced_lift(ring)
    assert len(meets) == (1 if wrong is _off_the_line else 2)


def _replayed_chain(ring):
    """The forced chain replayed with the public join and meet on points
    over A: (target, line 1, line 2, derived) per step, each line the join
    of the frame points and earlier derived points the chain names."""
    e0, e1, e2, unit = Frame(ring).images
    steps = []

    def derive(l1, l2):
        pt = line_intersect_A(l1, l2)
        steps.append((pt.reduce(), l1, l2, pt))
        return pt

    corner = derive(line_through_A(e2, unit), line_through_A(e0, e1))
    axis_line, diag_line, prev_diag = line_through_A(e2, e0), line_through_A(unit, e0), unit
    for _ in range(1, ring.p):
        axis_pt = derive(line_through_A(prev_diag, e1), axis_line)
        prev_diag = derive(line_through_A(axis_pt, corner), diag_line)
    derive(line_through_A(prev_diag, e1), axis_line)
    return steps


def _plain_text(trace, obstruction):
    """The text certificate with every step line spelled out on its own."""
    ring = trace.ring
    lines = [
        "lift propagation certificate",
        f"p: {trace.p}",
        f"ring: {ring}",
        "frame: standard (1:0:0), (0:1:0), (0:0:1), (1:1:1)",
        f"steps: {len(trace._chain)}",
    ]
    for i, (derived, dual1, dual2) in enumerate(trace._chain, start=1):
        lines.append(
            f"step {i}: target ({':'.join(str(ring._residue(n)) for n in derived)})"
            f" = meet of duals ({':'.join(map(ring._text, dual1))})"
            f" and ({':'.join(map(ring._text, dual2))}) -> ({':'.join(map(ring._text, derived))})"
        )
    lines.append(
        f"closing comparison: derived {lift_checker._fmt_point(obstruction.derived)}"
        f" against pinned {lift_checker._fmt_point(obstruction.required)}"
    )
    if obstruction.is_zero:
        lines.append("no obstruction")
    else:
        lines.append(f"obstruction p·1 = {obstruction.element} ≠ 0 in {ring}:"
                     " no collinearity-preserving lift exists with this frame")
    return "\n".join(lines)


def _assert_plain_renders(trace, obstruction):
    """The templated renders against the stdlib writer and a plain per-step text."""
    doc = certificate_json(trace, obstruction)
    assert certificate_render(trace, obstruction, format="json") == json.dumps(doc, indent=2)
    assert certificate_render(trace, obstruction) == _plain_text(trace, obstruction)


@pytest.mark.parametrize("p", [3, 13, 211])
def test_render_texts_do_not_carry_over_between_rings(p):
    # one stored integer is a different element of each ring, so a text
    # rendered for one ring must never be reused for the next
    for kind, k in [("zpk", 2), ("zpk", 3), ("fpt", 2), ("zpk", 2), ("fpt", 3), ("zpk", 3)]:
        _assert_plain_renders(*propagate_forced_lift(ring_make(kind, p, k)))


def test_a_certificate_with_no_steps_renders_as_the_stdlib_writes_it():
    # the step template is split out of a one-step list, and an empty
    # chain must still render its steps as `[]`
    trace, obstruction = propagate_forced_lift(Z4)
    _assert_plain_renders(lift_checker.PropagationTrace(trace.ring, ()), obstruction)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("kind", ["zpk", "fpt"])
@pytest.mark.parametrize("p", [2, 3, 5, 13, 211])
def test_integer_chain_matches_public_join_and_meet(p, kind, k):
    ring = ring_make(kind, p, k)
    trace, obstruction = propagate_forced_lift(ring)
    text = certificate_render(trace, obstruction)
    doc = json.loads(certificate_render(trace, obstruction, format="json"))
    replayed = _replayed_chain(ring)
    assert len(replayed) == len(doc["steps"]) == 2 * p
    lines = [line for line in text.splitlines() if line.startswith("step ")]
    assert len(lines) == 2 * p

    def fmt(pt):
        return repr(pt).removesuffix(f" over {ring}")

    for i, ((target, l1, l2, derived), entry, line) in enumerate(
        zip(replayed, doc["steps"], lines), start=1
    ):
        assert entry == {"target": list(target.coords), "line1": l1.to_json(),
                         "line2": l2.to_json(), "derived": derived.to_json()["coords"]}
        assert line == (f"step {i}: target ({':'.join(map(str, target.coords))}) = meet of"
                        f" duals {fmt(l1.dual)} and {fmt(l2.dual)} -> {fmt(derived)}")
    assert obstruction.derived == replayed[-1][3]
    assert obstruction.required == Frame(ring).images[2]
    _assert_plain_renders(trace, obstruction)


def test_pinned_points_match_mp_configuration():
    for p in (2, 3, 5, 7):
        trace, _ = propagate_forced_lift(ring_make("zpk", p, 2))
        pinned = trace.pinned_points()
        assert len(pinned) == 2 * p + 3
        assert pinned == mp_configuration(p).points


def test_collinear_triples_fano():
    triples = collinear_triples(2)
    assert len(triples) == 7
    for triple in triples:
        assert len(triple) == 3
    assert tuple(sorted(FANO_TRIPLE)) in {tuple(sorted(t)) for t in triples}
    # 13 lines with 4 points each
    assert len(collinear_triples(3)) == 13 * 4


def test_trivial_lift_violations():
    violations = check_collinearity_preserving(trivial_lift_map(Z4), Z4)
    assert violations == (tuple(sorted(FANO_TRIPLE)),)
    assert check_collinearity_preserving(trivial_lift_map(F2T), F2T) == ()
    assert check_collinearity_preserving(trivial_lift_map(ring_make("fpt", 3, 2)), ring_make("fpt", 3, 2)) == ()


def _move_line_x0(ring, images):
    """The trivial lift with (0:0:1), (0:1:0), (0:1:1) sent to `images`."""
    p = ring.p
    triple = (ProjPointFp((0, 0, 1), p), ProjPointFp((0, 1, 0), p), ProjPointFp((0, 1, 1), p))
    mapping = trivial_lift_map(ring)
    for pt, image in zip(triple, images):
        mapping[pt] = ProjPointA(ring, image)
    return triple, mapping


def test_check_raises_on_undecidable_triple():
    # over Z/4, three lifts of (0:0:1) for the line x = 0 of the Fano plane:
    # the determinant lies in 4·Z/4 = 0, so the triple cannot be decided
    triple, mapping = _move_line_x0(Z4, ((0, 0, 1), (0, 2, 1), (2, 0, 1)))
    assert triple in collinear_triples(2)
    with pytest.raises(UndecidableCollinearityError):
        check_collinearity_preserving(mapping, Z4)
    assert _outcome(check_collinearity_preserving, mapping, Z4) == _outcome(
        _reference_check, mapping, Z4
    )
    # over Z/27 the same shape of triple has determinant 9 != 0: a violation,
    # listed with the 31 other triples this map breaks
    Z27 = ring_make("zpk", 3, 3)
    triple, mapping = _move_line_x0(Z27, ((0, 0, 1), (3, 0, 1), (0, 3, 1)))
    violations = check_collinearity_preserving(mapping, Z27)
    assert violations[0] == triple
    assert len(violations) == 32
    assert violations == _reference_check(mapping, Z27)


def _reference_check(mapping, ring):
    """The check triple by triple: `collinear_A` on every collinear triple."""
    return tuple(t for t in collinear_triples(ring.p) if not collinear_A(*map(mapping.get, t)))


def _outcome(check, mapping, ring):
    """The violations, or the type and message of the error raised."""
    try:
        return check(mapping, ring)
    except NonliftError as exc:
        return "raises", type(exc), str(exc)


def _lift_of(ring, coords, rng):
    """A seeded point over A whose residue is `coords`."""
    p = ring.p
    if ring.kind == "zpk":
        return ProjPointA(ring, [c + p * rng.randrange(ring.size // p) for c in coords])
    return ProjPointA(ring, [[c] + [rng.randrange(p) for _ in range(ring.k - 1)] for c in coords])


def _seeded_maps(ring, rng):
    """The coordinate-wise lift with 1-6 points moved inside their residue
    class, then maps that give two or three points of one line one residue."""
    points = enumerate_points(2, ring.p)
    lines = [line.points for line in enumerate_lines(2, ring.p)]
    for n in range(1, 7):
        mapping = trivial_lift_map(ring)
        for pt in rng.sample(points, n):
            mapping[pt] = _lift_of(ring, pt.coords, rng)
        yield mapping
    for shared in (2, 3, 3):
        mapping = trivial_lift_map(ring)
        line = rng.choice(lines)
        group = rng.sample(line, shared)
        for pt in group:
            mapping[pt] = _lift_of(ring, group[0].coords, rng)
        yield mapping


@pytest.mark.parametrize("kind", ["zpk", "fpt"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_check_agrees_with_triple_by_triple_reference(p, kind, k):
    # the per-line check returns what collinear_A on every triple returns,
    # violations in the same order, or raises the same error
    ring = ring_make(kind, p, k)
    rng = random.Random(1000 * p + 10 * k + (kind == "fpt"))
    for mapping in _seeded_maps(ring, rng):
        assert _outcome(check_collinearity_preserving, mapping, ring) == _outcome(
            _reference_check, mapping, ring
        )


def test_check_requires_total_map():
    mapping = trivial_lift_map(Z4)
    mapping.pop(ProjPointFp((1, 1, 1), 2))
    with pytest.raises(MissingAssignmentError):
        check_collinearity_preserving(mapping, Z4)


def test_search_frozen_results():
    for (p, kind), (count, nodes) in SEARCH_RESULTS.items():
        ring = ring_make(kind, p, 2)
        result = brute_force_lift_search(ring)
        assert len(result.maps) == len(result) == count
        assert list(result) == list(result.maps)
        assert result.nodes_explored == nodes
        assert result.budget == 10**7


def test_search_agrees_with_propagation():
    for p in (2, 3):
        for kind in ("zpk", "fpt"):
            ring = ring_make(kind, p, 2)
            _, obstruction = propagate_forced_lift(ring)
            result = brute_force_lift_search(ring)
            if obstruction.verdict == VERDICT_BLOCKED:
                assert len(result.maps) == 0
            else:
                assert len(result.maps) >= 1


def test_search_finds_exactly_trivial_lift():
    for p in (2, 3):
        ring = ring_make("fpt", p, 2)
        result = brute_force_lift_search(ring)
        assert len(result.maps) == 1
        assert dict(result.maps[0]) == trivial_lift_map(ring)
        assert check_collinearity_preserving(dict(result.maps[0]), ring) == ()


def test_search_budget_exhaustion():
    with pytest.raises(BudgetExceededError) as info:
        brute_force_lift_search(Z4, budget=5)
    assert info.value.budget == 5
    assert info.value.nodes_explored >= 5


def test_search_validation():
    with pytest.raises(InvalidParameterError):
        brute_force_lift_search(Z4, budget=0)
    with pytest.raises(InvalidParameterError):
        brute_force_lift_search(4, Z4)


def test_search_over_all_frames_z4():
    # no choice of anchor lifts admits a map: 4^4 frames, all blocked; the
    # 4 + 4^2 + 4^3 + 4^4 = 340 anchor choices count as nodes too
    maps, nodes = search_over_all_frames(Z4)
    assert maps == ()
    assert nodes == 3412
    lifts_per_anchor = [len(enumerate_lifts(a, Z4)) for a in frame_anchors(2)]
    assert lifts_per_anchor == [4, 4, 4, 4]


def test_search_over_all_frames_map_order():
    # over F_2[t]/t^2 every frame admits exactly one map, and the maps come
    # in itertools.product order of the four anchors' lifts
    maps, _ = search_over_all_frames(F2T)
    assert len(maps) == 256
    assert len({frozenset(m.items()) for m in maps}) == 256
    for m in maps:
        assert check_collinearity_preserving(m, F2T) == ()
    anchors = frame_anchors(2)
    assert [tuple(m[a] for a in anchors) for m in maps] == list(
        itertools.product(*(enumerate_lifts(a, F2T) for a in anchors))
    )


def test_found_maps_list_pinned_then_free_points():
    # a map lists the pinned points first (the standard frame, in anchor
    # order), then the free ones in walk order; the every-frame walk pins
    # nothing and walks the anchors first, so its maps list the same order
    for ring in (F2T, ring_make("fpt", 3, 2), ring_make("fpt", 2, 3)):
        anchors = frame_anchors(ring.p)
        order = [*anchors, *(pt for pt in enumerate_points(2, ring.p) if pt not in anchors)]
        maps = list(brute_force_lift_search(ring).maps)
        if ring == F2T:
            maps += search_over_all_frames(ring)[0]
        assert maps
        for m in maps:
            assert list(m) == order


def test_search_over_all_frames_budget_is_one_total():
    # the budget bounds the nodes of all frames together, not of each frame
    with pytest.raises(BudgetExceededError) as info:
        search_over_all_frames(Z4, budget=20)
    assert (info.value.budget, info.value.nodes_explored) == (20, 21)
    # every frame's lifts count against LIFTS_MAX before any is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        search_over_all_frames(ring_make("fpt", 2, 8), budget=1)
    assert time.perf_counter() - start < 1.0


def test_extract_used_configuration():
    for p in (2, 3, 5):
        trace, _ = propagate_forced_lift(ring_make("zpk", p, 2))
        used = extract_used_configuration(trace)
        mp = mp_configuration(p)
        assert used.points == mp.points
        assert len(used.points) == 2 * p + 3
        # derivation uses one join per anchor pair it needs, 2p+3 residue lines
        assert len(used.lines) == 2 * p + 3
        mp_keys = {frozenset(ln.points) for ln in mp.lines}
        for ln in used.lines:
            assert frozenset(ln.points) in mp_keys


def test_extract_used_configuration_cap(monkeypatch):
    # every used line is listed in full, so the trace meets mp_configuration's
    # cap on the plane's inclusions before any line is built
    trace, _ = propagate_forced_lift(ring_make("zpk", 61, 2))
    used = extract_used_configuration(trace)
    assert (len(used.points), len(used.lines)) == (125, 125)
    assert used.points == mp_configuration(61).points

    def no_line(dual):
        raise AssertionError("a line was built")

    monkeypatch.setattr(lift_checker, "line_from_dual", no_line)
    for p in (67, 1999):
        trace, _ = propagate_forced_lift(ring_make("zpk", p, 2))
        with pytest.raises(BudgetExceededError, match="inclusion count .* exceeds the supported"):
            extract_used_configuration(trace)


def test_certificate_schema():
    trace, obstruction = propagate_forced_lift(Z4)
    doc = certificate_json(trace, obstruction)
    assert set(doc) == {"p", "ring", "frame", "steps", "obstruction", "verdict"}
    assert doc["p"] == 2
    assert doc["ring"] == {"kind": "zpk", "p": 2, "k": 2}
    assert doc["frame"] == "standard"
    assert doc["verdict"] == VERDICT_BLOCKED
    assert doc["obstruction"] == {"element": 2, "isZero": False}
    assert len(doc["steps"]) == 4
    step = doc["steps"][0]
    assert set(step) == {"target", "line1", "line2", "derived"}
    assert step["target"] == [1, 1, 0]
    assert step["line1"] == {"dual": [1, 3, 0]}
    assert step["line2"] == {"dual": [0, 0, 1]}
    assert step["derived"] == [1, 1, 0]


def test_certificate_round_trip():
    for p, kind in [(2, "zpk"), (3, "zpk"), (2, "fpt"), (5, "zpk")]:
        ring = ring_make(kind, p, 2)
        trace, obstruction = propagate_forced_lift(ring)
        doc = certificate_json(trace, obstruction)
        trace2, obstruction2 = certificate_parse(doc)
        assert trace2.p == trace.p
        assert trace2.ring == trace.ring
        assert trace2._chain == trace._chain
        assert obstruction2.verdict == obstruction.verdict
        assert obstruction2.element == obstruction.element
        assert certificate_json(trace2, obstruction2) == doc


def test_certificate_parse_rejects_tampering():
    trace, obstruction = propagate_forced_lift(Z4)
    doc = certificate_json(trace, obstruction)
    bad = dict(doc, frame="mystery")
    with pytest.raises(InvalidParameterError):
        certificate_parse(bad)
    bad = dict(doc, verdict="fine")
    with pytest.raises(InvalidParameterError):
        certificate_parse(bad)
    bad = dict(doc, obstruction={"element": 2, "isZero": True})
    with pytest.raises(InvalidParameterError):
        certificate_parse(bad)


def _with_step2(doc, **fields):
    steps = [dict(step) for step in doc["steps"]]
    steps[1].update(fields)
    return dict(doc, steps=steps)


def _forgeries(doc, ring):
    """Single-field forgeries of a certificate, each otherwise self-consistent."""
    ideal = ring.p_one if ring.kind == "zpk" else ring.elem((0, 1))

    def plus_ideal(c):
        return (ring.elem(c) + ideal).to_json()

    derived = doc["steps"][1]["derived"]
    dual = doc["steps"][1]["line1"]["dual"]
    other = ring.p_one + 1
    flipped = VERDICT_OPEN if doc["verdict"] == VERDICT_BLOCKED else VERDICT_BLOCKED
    return [
        # same residue as the target, but not the meet of the two lines
        _with_step2(doc, derived=derived[:2] + [plus_ideal(derived[2])]),
        _with_step2(doc, line1={"dual": dual[:2] + [plus_ideal(dual[2])]}),
        _with_step2(doc, target=[1, 1, 1]),
        dict(doc, obstruction={"element": other.to_json(), "isZero": False},
             verdict=VERDICT_BLOCKED),
        dict(doc, verdict=flipped),
    ]


def test_certificate_parse_rejects_forgeries():
    cases = []
    for p in (2, 3):
        for kind in ("zpk", "fpt"):
            ring = ring_make(kind, p, 2)
            doc = certificate_json(*propagate_forced_lift(ring))
            certificate_parse(doc)
            cases += _forgeries(doc, ring)
    # the forgeries first reproduced on a p=3 certificate over Z/9
    z9 = ring_make("zpk", 3, 2)
    doc = certificate_json(*propagate_forced_lift(z9))
    steps = doc["steps"]
    # another line through step 3's meet: the join of its derived point and (3:1:0)
    other = line_through_A(ProjPointA(z9, steps[2]["derived"]), ProjPointA(z9, (3, 1, 0)))
    assert other.to_json() != steps[2]["line1"]
    cases += [
        _with_step2(doc, derived=[1, 5, 7]),
        _with_step2(doc, line1={"dual": [1, 1, 1]}),
        _with_step2(doc, line1=doc["steps"][1]["line2"]),  # no unique meet
        dict(doc, obstruction={"element": 6, "isZero": False}),
        dict(doc, verdict=VERDICT_OPEN),
        dict(doc, steps=[*steps[:2], dict(steps[2], line1=other.to_json()), *steps[3:]]),
        dict(doc, steps=[*steps[:3], *steps[4:]]),  # step 4 deleted
    ]
    for bad in cases:
        with pytest.raises(InvalidParameterError):
            certificate_parse(bad)
    # a top-level p other than the ring's is refused before any step is read
    for p in (2, 5, 3.0):
        with pytest.raises(InvalidParameterError, match="differs from its ring's p 3"):
            certificate_parse(dict(doc, p=p))


def test_certificate_parse_rejects_malformed_documents():
    # each of these once raised a bare KeyError, TypeError or JSONDecodeError
    doc = certificate_json(*propagate_forced_lift(ring_make("zpk", 3, 2)))
    cases = [
        {key: value for key, value in doc.items() if key != missing}
        for missing in ("p", "ring", "steps", "obstruction", "verdict")
    ]
    cases += [_with_step2(doc, line1=5), [doc], "{", json.dumps(doc)[:-1]]
    for bad in cases:
        with pytest.raises(InvalidParameterError):
            certificate_parse(bad)
    assert certificate_parse(json.dumps(doc))[1].verdict == VERDICT_BLOCKED


def test_certificate_text_render():
    trace, obstruction = propagate_forced_lift(Z4)
    text = certificate_render(trace, obstruction, format="text")
    assert text.splitlines()[-1] == (
        "obstruction p·1 = 2 ≠ 0 in Z/4: "
        "no collinearity-preserving lift exists with this frame"
    )
    assert "step 4: target (0:0:1)" in text
    trace, obstruction = propagate_forced_lift(F2T)
    text = certificate_render(trace, obstruction, format="text")
    assert text.splitlines()[-1] == "no obstruction"


def test_certificate_render_deterministic():
    first = certificate_render(*propagate_forced_lift(ring_make("zpk", 3, 2)), format="json")
    second = certificate_render(*propagate_forced_lift(ring_make("zpk", 3, 2)), format="json")
    assert first == second


@pytest.mark.parametrize("format", ["yaml", "JSON", "", None])
def test_certificate_render_refuses_unknown_formats(format):
    with pytest.raises(InvalidParameterError, match="unknown certificate format"):
        certificate_render(*propagate_forced_lift(Z4), format=format)


def test_size_caps():
    # each cap refuses before anything is enumerated
    for call in (
        lambda: brute_force_lift_search(ring_make("zpk", 17, 1), budget=1),
        lambda: brute_force_lift_search(ring_make("zpk", 3, 5), budget=1),
        lambda: trivial_lift_map(ring_make("zpk", 17, 2)),
        lambda: check_collinearity_preserving({}, ring_make("zpk", 17, 2)),
        lambda: propagate_forced_lift(ring_make("zpk", 5003, 2)),
        lambda: ring_make("fpt", 2, K_MAX + 1),
    ):
        with pytest.raises(BudgetExceededError, match="exceeds the supported maximum"):
            call()
    # and sits above the sizes the tests and the benchmark run
    assert (PLANE_P_MAX, PROPAGATE_P_MAX, K_MAX) == (13, 5000, 8)
    assert (3**2 + 3 - 3) * 3 ** (2 * 3) + 4 <= LIFTS_MAX  # p = 3, k = 4, anchors included
    with pytest.raises(BudgetExceededError, match="search budget exceeded"):
        brute_force_lift_search(ring_make("zpk", 3, 4), budget=1)
    assert len(trivial_lift_map(ring_make("zpk", 13, 2))) == 13**2 + 13 + 1


def test_propagate_validation():
    with pytest.raises(InvalidParameterError):
        propagate_forced_lift(3, Z4)
    with pytest.raises(InvalidParameterError):
        propagate_forced_lift(6, ring_make("zpk", 2, 2))
    for call in (
        lambda: propagate_forced_lift(2),
        lambda: brute_force_lift_search(2),
        lambda: search_over_all_frames(2, budget=1),
        lambda: trivial_lift_map(2),
        lambda: check_collinearity_preserving({}, 2),
        lambda: trivial_lift_map(),
        lambda: trivial_lift_map(2, 2, Z4),
    ):
        with pytest.raises(InvalidParameterError, match="expects a LocalRing"):
            call()


def test_entry_points_take_p_only_when_it_is_the_rings():
    # the form with p before the ring answers as the ring-only form does
    assert brute_force_lift_search(3, ring_make("zpk", 3, 2)).nodes_explored == 99
    assert trivial_lift_map(2, Z4) == trivial_lift_map(Z4)
    assert check_collinearity_preserving(trivial_lift_map(Z4), 2, Z4) == (
        tuple(sorted(FANO_TRIPLE)),
    )
    assert search_over_all_frames(2, Z4) == ((), 3412)
    assert propagate_forced_lift(2, Z4)[1] == propagate_forced_lift(Z4)[1]
    # and a p the ring does not carry is refused, never mapped into the ring
    for call in (
        lambda: trivial_lift_map(3, Z4),
        lambda: check_collinearity_preserving(trivial_lift_map(Z4), 3, Z4),
        lambda: search_over_all_frames(3, Z4, budget=1),
        lambda: brute_force_lift_search(3.0, ring_make("zpk", 3, 2)),
        lambda: propagate_forced_lift(2.0, Z4),
    ):
        with pytest.raises(InvalidParameterError, match="residue characteristic mismatch"):
            call()
