"""Propagation certificates and the exhaustive search that audits them.

The worked chain over Z/4 is frozen step by step; larger cases pin down
counts, node totals and verdicts.  The search results double as the
independent oracle for the propagation verdicts.
"""

import json
import time

import pytest

from nonlift import (
    VERDICT_BLOCKED,
    VERDICT_OPEN,
    BudgetExceededError,
    Frame,
    InvalidParameterError,
    MissingAssignmentError,
    ProjPointA,
    ProjPointFp,
    UndecidableCollinearityError,
    brute_force_lift_search,
    certificate_json,
    certificate_parse,
    certificate_render,
    check_collinearity_preserving,
    collinear_triples,
    enumerate_lifts,
    extract_used_configuration,
    frame_anchors,
    mp_configuration,
    propagate_forced_lift,
    ring_make,
    search_over_all_frames,
    trivial_lift_map,
)
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
    assert len(trace.steps) == 4
    expected = [
        # (target, dual of line1, dual of line2, derived image)
        ((1, 1, 0), (1, 3, 0), (0, 0, 1), (1, 1, 0)),
        ((1, 0, 1), (1, 0, 3), (0, 1, 0), (1, 0, 1)),
        ((0, 1, 1), (1, 3, 3), (0, 1, 3), (2, 1, 1)),
        ((0, 0, 1), (1, 0, 2), (0, 1, 0), (2, 0, 1)),
    ]
    for step, (target, d1, d2, derived) in zip(trace.steps, expected):
        assert step.target.coords == target
        assert reps(step.line1.dual) == d1
        assert reps(step.line2.dual) == d2
        assert reps(step.derived) == derived
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
        assert len(trace.steps) == 2 * p


def test_propagation_open_when_p_vanishes():
    for p in (2, 3, 5, 7):
        for ring in (ring_make("fpt", p, 2), ring_make("zpk", p, 1)):
            trace, obstruction = propagate_forced_lift(ring)
            assert obstruction.verdict == VERDICT_OPEN
            assert obstruction.is_zero
            assert obstruction.derived == obstruction.required


def test_derived_coordinate_law():
    # axis points land on (n:0:1) and diagonal points on (n+1:1:1)
    for p, kind in [(3, "zpk"), (5, "zpk"), (3, "fpt")]:
        ring = ring_make(kind, p, 2)
        trace, _ = propagate_forced_lift(ring)
        for n in range(1, p):
            axis = trace.steps[2 * n - 1]
            diag = trace.steps[2 * n]
            assert axis.target == ProjPointFp((n, 0, 1), p)
            assert axis.derived == ProjPointA(ring, (n, 0, 1))
            assert diag.target == ProjPointFp((n + 1, 1, 1), p)
            assert diag.derived == ProjPointA(ring, (n + 1, 1, 1))
        closing = trace.steps[-1]
        assert closing.target.coords == (0, 0, 1)
        assert closing.derived == ProjPointA(ring, (p, 0, 1))


def test_pinned_points_match_mp_configuration():
    for p in (2, 3, 5, 7):
        trace, _ = propagate_forced_lift(ring_make("zpk", p, 2))
        pinned = trace.pinned_points()
        assert len(pinned) == 2 * p + 3
        assert pinned == mp_configuration(p).points


def test_assignment_keeps_frame_value_for_closing_target():
    trace, _ = propagate_forced_lift(Z4)
    assignment = trace.assignment()
    assert set(assignment) == set(trace.pinned_points())
    assert reps(assignment[ProjPointFp((0, 0, 1), 2)]) == (0, 0, 1)


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
    # over Z/27 the same shape of triple has determinant 9 != 0: a violation,
    # listed with the 31 other triples this map breaks
    Z27 = ring_make("zpk", 3, 3)
    triple, mapping = _move_line_x0(Z27, ((0, 0, 1), (3, 0, 1), (0, 3, 1)))
    violations = check_collinearity_preserving(mapping, Z27)
    assert violations[0] == triple
    assert len(violations) == 32


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
    # no choice of anchor lifts admits a map: 4^4 frames, all blocked
    maps, nodes = search_over_all_frames(Z4)
    assert maps == ()
    assert nodes == 3072
    lifts_per_anchor = [len(enumerate_lifts(a, Z4)) for a in frame_anchors(2)]
    assert lifts_per_anchor == [4, 4, 4, 4]


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
        assert trace2.frame == trace.frame
        assert len(trace2.steps) == len(trace.steps)
        for a, b in zip(trace.steps, trace2.steps):
            assert a.target == b.target
            assert a.line1 == b.line1
            assert a.line2 == b.line2
            assert a.derived == b.derived
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
    doc = certificate_json(*propagate_forced_lift(ring_make("zpk", 3, 2)))
    cases += [
        _with_step2(doc, derived=[1, 5, 7]),
        _with_step2(doc, line1={"dual": [1, 1, 1]}),
        _with_step2(doc, line1=doc["steps"][1]["line2"]),  # no unique meet
        dict(doc, obstruction={"element": 6, "isZero": False}),
        dict(doc, verdict=VERDICT_OPEN),
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
    assert search_over_all_frames(2, Z4) == ((), 3072)
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
