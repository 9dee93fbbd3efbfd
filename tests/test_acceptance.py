"""Acceptance gate: nine timed criteria, one reported line each.

Each criterion body re-derives its expected values from closed formulas or
independent enumeration, never from the code path under test alone.  The
report line prints straight to the terminal even under captured pytest
runs; a FAIL line accompanies the failing assertion.
"""

import itertools
import time

from _lawcheck import law_violations, unit_violations
from nonlift import (
    NotAProjectivePointError,
    ProjPointA,
    VERDICT_BLOCKED,
    VERDICT_OPEN,
    brute_force_lift_search,
    check_collinearity_preserving,
    construction_one_class,
    construction_two_class,
    enumerate_lines,
    enumerate_points,
    extract_used_configuration,
    flag_class_typeA,
    grassmannian_class,
    incidence_config,
    incidence_variety_point_count,
    invariants_table,
    line_through,
    mp_configuration,
    point_count_oracle_construction_two,
    point_line_counts,
    projective_space_class,
    propagate_forced_lift,
    quadric_class,
    quadric_point_count,
    ring_make,
    trivial_lift_map,
)

PRIMES_SMALL = (2, 3, 5, 7)
PRIMES_PROP = (2, 3, 5, 7, 11, 13)


def _run(capfd, number, label, cap_seconds, body):
    start = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as exc:
        error = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if error is None and elapsed <= cap_seconds else "FAIL"
    with capfd.disabled():
        print(f"criterion {number} [{status}] {elapsed:7.3f}s (cap {cap_seconds:g}s): {label}")
    if error is not None:
        raise error
    assert elapsed <= cap_seconds, (
        f"criterion {number} exceeded its time cap: {elapsed:.3f}s > {cap_seconds}s"
    )


def test_criterion_1_counts(capfd):
    def body():
        for p in PRIMES_SMALL:
            counts = {n: (len(enumerate_points(n, p)), len(enumerate_lines(n, p))) for n in (2, 3)}
            assert counts[2] == (1 + p + p**2, 1 + p + p**2)
            assert counts[3] == (1 + p + p**2 + p**3, 1 + p + 2 * p**2 + p**3 + p**4)
            for n in (2, 3):
                assert point_line_counts(n, p) == counts[n]

    _run(capfd, 1, "point and line counts match the closed formulas", 5, body)


def test_criterion_2_propagation_verdicts(capfd):
    def body():
        for p in PRIMES_PROP:
            ring = ring_make("zpk", p, 2)
            _, obstruction = propagate_forced_lift(ring)
            assert obstruction.verdict == VERDICT_BLOCKED
            assert obstruction.element == ring.p_one
            assert obstruction.element.rep == p
            assert not obstruction.is_zero
        for p in PRIMES_PROP:
            for ring in (ring_make("zpk", p, 1), ring_make("fpt", p, 2)):
                _, obstruction = propagate_forced_lift(ring)
                assert obstruction.verdict == VERDICT_OPEN
                assert obstruction.is_zero

    _run(capfd, 2, "propagation blocks exactly when p survives in the ring", 1, body)


def test_criterion_3_exhaustive_searches(capfd):
    def body():
        assert len(brute_force_lift_search(ring_make("zpk", 2, 2)).maps) == 0
        assert len(brute_force_lift_search(ring_make("zpk", 3, 2)).maps) == 0
        for p in (2, 3):
            ring = ring_make("fpt", p, 2)
            result = brute_force_lift_search(ring)
            assert len(result.maps) == 1
            assert dict(result.maps[0]) == trivial_lift_map(ring)

    _run(capfd, 3, "searches find no lift over length-two Witt rings, one over t-rings", 60, body)


def test_criterion_4_extracted_configuration(capfd):
    def body():
        for p in (2, 3, 5):
            trace, _ = propagate_forced_lift(ring_make("zpk", p, 2))
            used = extract_used_configuration(trace)
            mp = mp_configuration(p)
            assert used.points == mp.points
            assert len(used.points) == 2 * p + 3

    _run(capfd, 4, "propagation pins exactly the 2p+3 configuration points", 1, body)


def test_criterion_5_picard_numbers(capfd):
    def body():
        flag_blowup = construction_one_class(flag_class_typeA(3))
        quad_blowup = construction_one_class(quadric_class(3))
        assert flag_blowup.dim == 6
        assert quad_blowup.dim == 6
        assert invariants_table(flag_blowup).picard == 5
        assert invariants_table(quad_blowup).picard == 3

    _run(capfd, 5, "graph blow-ups have Picard numbers 5 and 3 in degree 6", 1, body)


def _builtin_classes():
    return [
        projective_space_class(3),
        quadric_class(3),
        quadric_class(4),
        quadric_class(6),
        grassmannian_class(2, 4),
        grassmannian_class(2, 5),
        flag_class_typeA(3),
        flag_class_typeA(4),
        flag_class_typeA(6),
        construction_one_class(flag_class_typeA(3)),
        construction_one_class(quadric_class(3)),
        construction_two_class(2),
        construction_two_class(3),
        construction_two_class(5),
    ]


def test_criterion_6_nonnegative_coefficients(capfd):
    def body():
        for v in _builtin_classes():
            assert all(v.cls.coeff(i) >= 0 for i in range(v.dim + 1)), v.name

    _run(capfd, 6, "every built-in class has non-negative coefficients", 1, body)


def test_criterion_7_point_count_identities(capfd):
    def body():
        for p in (2, 3, 5):
            assert grassmannian_class(2, 4).point_count(p) == len(enumerate_lines(3, p))
            assert projective_space_class(3).point_count(p) == len(enumerate_points(3, p))
        for p in (2, 3):
            v = construction_two_class(p)
            assert v.point_count(p) == point_count_oracle_construction_two(p, p)
        assert point_count_oracle_construction_two(2, 2) == 315
        assert point_count_oracle_construction_two(3, 3) == 2080

    _run(capfd, 7, "class evaluations count actual rational points", 10, body)


def test_criterion_8_model_space_counts(capfd):
    def body():
        assert incidence_variety_point_count(2) == 21
        assert flag_class_typeA(3).point_count(2) == 21
        assert quadric_point_count(3, 2) == 15
        assert quadric_class(3).point_count(2) == 15

    _run(capfd, 8, "incidence and quadric model spaces count 21 and 15 over F_2", 1, body)


def _incidence_axioms():
    for p in PRIMES_SMALL:
        points = enumerate_points(2, p)
        lines = enumerate_lines(2, p)
        by_pair = {}
        for ln in lines:
            assert len(ln.points) == p + 1
            for a, b in itertools.combinations(ln.points, 2):
                key = (a, b)
                assert key not in by_pair, "two lines through one point pair"
                by_pair[key] = ln
        assert len(by_pair) == len(points) * (len(points) - 1) // 2
        for l1, l2 in itertools.combinations(lines, 2):
            assert len(set(l1.points) & set(l2.points)) == 1
    # spot check the space case at p = 2 against the configuration totals
    cfg = incidence_config(3, 2)
    assert len(cfg.inclusions) == 315
    for a, b in itertools.combinations(cfg.points, 2):
        containing = [ln for ln in cfg.lines if a in ln and b in ln]
        assert len(containing) == 1
        assert containing[0] == line_through(a, b)


def _ring_laws():
    specs = [
        ("zpk", 2, 2), ("zpk", 2, 3), ("zpk", 3, 2), ("zpk", 3, 3),
        ("zpk", 5, 2), ("zpk", 3, 4), ("zpk", 7, 2),
        ("fpt", 2, 2), ("fpt", 2, 3), ("fpt", 3, 2), ("fpt", 5, 2), ("fpt", 3, 4),
    ]
    for kind, p, k in specs:
        ring = ring_make(kind, p, k)
        assert ring.size <= 81
        assert law_violations(ring) == 0
        assert unit_violations(ring) == 0


def _normalization_exhaustive():
    rings = [
        ring_make("zpk", 2, 2), ring_make("zpk", 2, 3), ring_make("zpk", 2, 4),
        ring_make("fpt", 2, 2), ring_make("fpt", 2, 3), ring_make("fpt", 2, 4),
        ring_make("zpk", 3, 2), ring_make("fpt", 3, 2),
    ]
    for ring in rings:
        assert ring.size <= 16
        units = [e for e in ring.elements() if e.is_unit]
        no_unit = 0
        for vec in itertools.product(ring.elements(), repeat=3):
            if not any(c.is_unit for c in vec):
                no_unit += 1
                continue
            pt = ProjPointA(ring, [c.rep for c in vec])
            # raw and element coordinates agree; idempotent, and invariant
            # under every unit rescaling
            assert ProjPointA(ring, vec) == pt
            assert ProjPointA(ring, pt.coords) == pt
            first_unit = next(c for c in pt.coords if c.is_unit)
            assert first_unit == ring.one
            for u in units:
                scaled = [u * c for c in vec]
                assert ProjPointA(ring, scaled) == pt
        assert no_unit == (ring.size // ring.p) ** 3


def _palindromic_and_hodge():
    for v in _builtin_classes():
        tab = invariants_table(v)
        assert tab.palindromic, v.name
        assert tab.hodge_de_rham_sum_equal, v.name
        assert sum(tab.betti) == tab.euler
        assert tab.euler == v.cls(1)


def _euler_additivity():
    # blow-up adds (codim - 1) copies of the center's Euler number
    for p in (2, 3, 5):
        n_pts, n_lines = point_line_counts(3, p)
        expected = 4 + 2 * n_pts + 1 * (2 * n_lines)
        assert construction_two_class(p).euler_number() == expected
    for y in (flag_class_typeA(3), quadric_class(3), projective_space_class(2)):
        chi = y.euler_number()
        expected = chi * chi + (y.dim - 1) * chi
        assert construction_one_class(y).euler_number() == expected


def test_criterion_9_property_suites(capfd):
    def body():
        _incidence_axioms()
        _ring_laws()
        _normalization_exhaustive()
        _palindromic_and_hodge()
        _euler_additivity()

    _run(capfd, 9, "axiom, ring-law, normalization and invariant property sweeps", 30, body)


def test_trivial_lift_audit():
    # standing cross-check behind criteria 2 and 3
    z4 = ring_make("zpk", 2, 2)
    assert len(check_collinearity_preserving(trivial_lift_map(z4), z4)) == 1
    f2t = ring_make("fpt", 2, 2)
    assert check_collinearity_preserving(trivial_lift_map(f2t), f2t) == ()
