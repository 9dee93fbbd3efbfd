"""Enumeration and incidence over prime fields.

Expected values were computed by independent routes (orbit quotients,
pair spans, duality) and then frozen; the oracle computations stay in the
tests so a regression shows both sides.
"""

import itertools
import random
import time

import pytest

from nonlift import (
    BudgetExceededError,
    DegenerateSpanError,
    IncidenceConfig,
    InvalidParameterError,
    LineFp,
    PlaneFp,
    ProjPointFp,
    UnsupportedDimensionError,
    check_prime,
    collinear,
    coplanar,
    enumerate_lines,
    enumerate_points,
    extract_used_configuration,
    incidence_config,
    line_dual,
    line_from_dual,
    line_through,
    mp_configuration,
    propagate_forced_lift,
    ring_make,
)
from nonlift.finite_geometry import P_MAX, _Space

POINT_COUNTS = {
    (2, 2): 7,
    (2, 3): 13,
    (2, 5): 31,
    (2, 7): 57,
    (3, 2): 15,
    (3, 3): 40,
    (3, 5): 156,
    (3, 7): 400,
}

LINE_COUNTS = {
    (2, 2): 7,
    (2, 3): 13,
    (2, 5): 31,
    (3, 2): 35,
    (3, 3): 130,
    (3, 5): 806,
}

# lex order of the canonical representatives
P2_F2_POINTS = [
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, 0),
    (1, 1, 1),
]

FANO_LINES = [
    ((0, 0, 1), (0, 1, 0), (0, 1, 1)),
    ((0, 0, 1), (1, 0, 0), (1, 0, 1)),
    ((0, 0, 1), (1, 1, 0), (1, 1, 1)),
    ((0, 1, 0), (1, 0, 0), (1, 1, 0)),
    ((0, 1, 0), (1, 0, 1), (1, 1, 1)),
    ((0, 1, 1), (1, 0, 0), (1, 1, 1)),
    ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
]

# (points, lines, inclusions) of the restricted configurations
MP_SHAPES = {2: (7, 7, 21), 3: (9, 12, 35), 5: (13, 28, 75)}


def canonical(vec, p):
    vec = tuple(c % p for c in vec)
    lead = next(c for c in vec if c)
    inv = pow(lead, -1, p)
    return tuple((c * inv) % p for c in vec)


def all_canonical_reps(dim, p):
    reps = set()
    for vec in itertools.product(range(p), repeat=dim + 1):
        if any(vec):
            reps.add(canonical(vec, p))
    return reps


def test_point_canonical_form():
    assert ProjPointFp((2, 0, 3), 5).coords == (1, 0, 4)
    assert ProjPointFp((0, 2, 1), 3).coords == (0, 1, 2)
    assert ProjPointFp((4, 6), 5).coords == (1, 4)
    assert ProjPointFp((0, 0, 6), 7).coords == (0, 0, 1)


def test_point_equality_and_hash():
    a = ProjPointFp((2, 4, 1), 5)
    b = ProjPointFp((4, 8, 2), 5)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ProjPointFp((2, 4, 2), 5)


def test_point_rejects_zero_vector():
    with pytest.raises(InvalidParameterError):
        ProjPointFp((0, 0, 0), 3)


def test_point_rejects_composite_modulus():
    with pytest.raises(InvalidParameterError):
        ProjPointFp((1, 0, 0), 6)


def test_check_prime():
    for p in (2, 3, 5, 7, 11, 13):
        check_prime(p)
    for bad in (-2, 0, 1, 4, 6, 9, 15):
        with pytest.raises(InvalidParameterError):
            check_prime(bad)
    # trial division stays bounded: a prime just below P_MAX passes, and
    # anything above it, prime or not, is refused before any division
    assert P_MAX == 2**40
    assert check_prime(2**40 - 87) == 2**40 - 87
    for big in (P_MAX + 1, 2**61 - 1):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="exceeds the supported maximum"):
            check_prime(big)
        assert time.perf_counter() - start < 0.1


def test_points_at_a_large_prime_divide_once():
    # the primality verdict is remembered per p; the type, range and cap
    # checks still run on every call
    p, composite = 2**40 - 87, 1_048_571 * 1_048_573
    start = time.perf_counter()
    points = {ProjPointFp((1, 2, 3), p) for _ in range(1000)}
    assert time.perf_counter() - start < 2
    assert len(points) == 1
    for _ in range(3):
        with pytest.raises(InvalidParameterError, match="= 1048571 \\* 1048573"):
            ProjPointFp((1, 2, 3), composite)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ProjPointFp((1, 2, 3), [p])
        with pytest.raises(BudgetExceededError):
            ProjPointFp((1, 2, 3), P_MAX + 1)


def test_point_counts_match_formula_and_each_other():
    for (dim, p), expected in POINT_COUNTS.items():
        points = enumerate_points(dim, p)
        assert len(points) == expected
        assert len(points) == sum(p**i for i in range(dim + 1))


def test_point_enumeration_matches_quotient_oracle():
    # canonicalize every nonzero vector and compare the resulting sets
    for dim, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        points = enumerate_points(dim, p)
        assert {pt.coords for pt in points} == all_canonical_reps(dim, p)


def test_point_enumeration_is_sorted_lex():
    for dim, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        coords = [pt.coords for pt in enumerate_points(dim, p)]
        assert coords == sorted(coords)
    assert [pt.coords for pt in enumerate_points(2, 2)] == P2_F2_POINTS


def test_enumerate_points_rejects_bad_dim():
    with pytest.raises(UnsupportedDimensionError):
        enumerate_points(4, 2)
    with pytest.raises(InvalidParameterError):
        enumerate_points(-1, 2)
    # dimension zero is the single point
    assert [pt.coords for pt in enumerate_points(0, 5)] == [(1,)]


def test_line_counts():
    for (dim, p), expected in LINE_COUNTS.items():
        assert len(enumerate_lines(dim, p)) == expected
    # Grassmannian count in dimension 3
    for p in (2, 3, 5):
        assert len(enumerate_lines(3, p)) == 1 + p + 2 * p**2 + p**3 + p**4


def test_line_enumeration_matches_pair_span_oracle():
    # spans of all point pairs, deduplicated, must give the same line sets
    for dim, p in [(2, 2), (2, 3), (3, 2)]:
        points = enumerate_points(dim, p)
        spans = {
            frozenset(line_through(a, b).points)
            for a, b in itertools.combinations(points, 2)
        }
        assert spans == {frozenset(ln.points) for ln in enumerate_lines(dim, p)}


def test_line_enumeration_matches_duality_oracle():
    # in the plane, lines biject with points via the dual vector
    for p in (2, 3, 5):
        lines = enumerate_lines(2, p)
        duals = {line_dual(ln) for ln in lines}
        assert len(duals) == len(lines)
        assert duals == set(enumerate_points(2, p))
        for ln in lines:
            rebuilt = line_from_dual(line_dual(ln))
            assert frozenset(rebuilt.points) == frozenset(ln.points)


def test_fano_lines_frozen():
    got = [tuple(pt.coords for pt in ln.points) for ln in enumerate_lines(2, 2)]
    assert sorted(got) == FANO_LINES


def test_line_membership_and_size():
    for dim, p in [(2, 3), (3, 2)]:
        for ln in enumerate_lines(dim, p):
            assert len(ln.points) == p + 1
            for pt in ln.points:
                assert pt in ln


def test_line_through_is_symmetric_and_contains_both():
    pts = enumerate_points(2, 5)
    for a, b in itertools.combinations(pts[:8], 2):
        ln = line_through(a, b)
        assert ln == line_through(b, a)
        assert a in ln and b in ln


def test_point_index_is_enumeration_position():
    for dim in (2, 3):
        for p in (2, 3, 5, 7):
            space = _Space(dim, p)
            points = enumerate_points(dim, p)
            assert [space.index(pt.coords) for pt in points] == list(range(len(points)))
            assert [space.coords(i) for i in range(len(points))] == [pt.coords for pt in points]


def test_line_indices_are_member_positions():
    for dim, p in [(2, 5), (3, 3)]:
        position = {pt: i for i, pt in enumerate(enumerate_points(dim, p))}
        for ln in enumerate_lines(dim, p):
            assert ln.indices == tuple(position[pt] for pt in ln.points)


def test_line_from_points_checks_collinearity():
    corners = [ProjPointFp(v, 2) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    with pytest.raises(InvalidParameterError, match="not collinear"):
        LineFp(corners)
    ln = line_through(corners[0], corners[1])
    assert LineFp(reversed(ln.points)) == ln
    with pytest.raises(InvalidParameterError):
        LineFp([*corners[:2], "(1:1:0)"])


def test_from_members_decides_line_in_plane_from_the_line():
    # the line's first two members are (0:0:1:0) and (0:1:0:0), and only the
    # second is given
    pts = [ProjPointFp(v, 3) for v in ((0, 1, 0, 0), (0, 1, 1, 0))]
    ln = line_through(*pts)
    plane = PlaneFp(ProjPointFp((1, 0, 0, 0), 3))
    cfg = IncidenceConfig(pts, [ln], [plane])
    assert cfg.inclusions == ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    assert cfg.to_json()["planes"] == [[0, 1]]


def _on_plane(pt, plane):
    return sum(a * b for a, b in zip(pt.coords, plane.dual.coords)) % pt.p == 0


def _members_only_configurations():
    trace, _ = propagate_forced_lift(ring_make("zpk", 5, 2))
    # a line of P^3(F_3) whose first two points, (0:0:1:0) and (0:1:0:0),
    # are not given, in one given plane and off the other; each plane has
    # three given points that span it
    ln = line_through(ProjPointFp((0, 1, 0, 0), 3), ProjPointFp((0, 1, 1, 0), 3))
    others = [ProjPointFp(c, 3) for c in ((0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 1, 1))]
    planes = [PlaneFp(ProjPointFp(d, 3)) for d in ((1, 0, 0, 0), (0, 1, 0, 0))]
    return [
        incidence_config(2, 3),
        incidence_config(3, 2),
        mp_configuration(5),
        extract_used_configuration(trace),
        IncidenceConfig([*ln.points[2:], *others], [ln], planes),
    ]


def test_a_configuration_is_its_members():
    assert IncidenceConfig.__slots__ == ("points", "lines", "planes")
    cfg = mp_configuration(3)
    with pytest.raises(TypeError):
        IncidenceConfig(2, 3, cfg.points, cfg.lines, (), ())
    for cfg in _members_only_configurations():
        assert IncidenceConfig.from_json(cfg.to_json()) == cfg
        # the inclusions, each once, from `in`, d.x = 0 mod p and every
        # point of a line on the plane
        lo, po = cfg.line_offset, cfg.plane_offset
        reference = {
            (i, lo + li)
            for li, ln in enumerate(cfg.lines) for i, pt in enumerate(cfg.points) if pt in ln
        }
        reference |= {
            (i, po + pi)
            for pi, pl in enumerate(cfg.planes) for i, pt in enumerate(cfg.points)
            if _on_plane(pt, pl)
        }
        reference |= {
            (lo + li, po + pi)
            for pi, pl in enumerate(cfg.planes) for li, ln in enumerate(cfg.lines)
            if all(_on_plane(pt, pl) for pt in ln.points)
        }
        assert len(cfg.inclusions) == len(set(cfg.inclusions))
        assert set(cfg.inclusions) == reference


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_line_in_plane_matches_member_dot_reference(p, seed):
    # random points, lines and planes of P^3(F_p), with one line whose first
    # point and one whose second point lie on no given plane; a line lies in
    # a plane when every one of its points is orthogonal to the plane's dual
    rng = random.Random(seed)
    points = enumerate_points(3, p)
    all_lines = enumerate_lines(3, p)
    lx, ly = rng.sample(all_lines, 2)
    x, y = lx.points[0], ly.points[1]
    planes = [PlaneFp(d) for d in points]
    planes = [pl for pl in planes if not _on_plane(x, pl) and not _on_plane(y, pl)]
    planes = rng.sample(planes, len(planes) * 3 // 4)
    lines = [ln for ln in rng.sample(all_lines, len(all_lines) // 3) if ln not in (lx, ly)]
    lines += [lx, ly]
    rng.shuffle(lines)
    given = rng.sample(points, len(points) // 3)
    cfg = IncidenceConfig(given, lines, planes)
    expected = [
        (cfg.line_offset + li, cfg.plane_offset + pi)
        for pi, pl in enumerate(planes)
        for li, ln in enumerate(lines)
        if all(_on_plane(pt, pl) for pt in ln.points)
    ]
    assert expected
    assert [pair for pair in cfg.inclusions if pair[0] >= cfg.line_offset] == expected


def test_line_through_rejects_equal_points():
    a = ProjPointFp((1, 2, 1), 3)
    b = ProjPointFp((2, 4, 2), 3)
    with pytest.raises(DegenerateSpanError):
        line_through(a, b)


def test_two_points_determine_unique_line():
    # projective axiom, exhaustive through p = 7
    for p in (2, 3, 5, 7):
        lines = enumerate_lines(2, p)
        for a, b in itertools.combinations(enumerate_points(2, p), 2):
            containing = [ln for ln in lines if a in ln and b in ln]
            assert len(containing) == 1
            assert containing[0] == line_through(a, b)


def test_two_plane_lines_meet_in_one_point():
    for p in (2, 3, 5):
        lines = enumerate_lines(2, p)
        for l1, l2 in itertools.combinations(lines, 2):
            common = set(l1.points) & set(l2.points)
            assert len(common) == 1


def test_collinear_agrees_with_line_membership():
    for p in (2, 3):
        lines = enumerate_lines(2, p)
        on_some_line = {
            triple
            for ln in lines
            for triple in itertools.combinations(ln.points, 3)
        }
        canon = {tuple(sorted(t)) for t in on_some_line}
        for triple in itertools.combinations(enumerate_points(2, p), 3):
            assert collinear(*triple) == (tuple(sorted(triple)) in canon)


def test_coplanar_dim3():
    pts = enumerate_points(3, 2)
    e0, e1, e2, e3 = (ProjPointFp(v, 2) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert not coplanar(e0, e1, e2, e3)
    # x3 = 0 plane
    assert coplanar(e0, e1, e2, ProjPointFp((1, 1, 0, 0), 2))
    inside = [pt for pt in pts if pt.coords[3] == 0]
    assert len(inside) == 7
    for quad in itertools.combinations(inside, 4):
        assert coplanar(*quad)


def test_incidence_config_plane():
    cfg = incidence_config(2, 2)
    assert len(cfg.points) == 7
    assert len(cfg.lines) == 7
    assert cfg.planes == ()
    # 7 lines of 3 points each
    assert len(cfg.inclusions) == 21
    for i, j in cfg.inclusions:
        assert 0 <= i < 7
        assert 7 <= j < 14
        assert cfg.points[i] in cfg.lines[j - 7]


def test_incidence_config_space():
    cfg = incidence_config(3, 2)
    assert (len(cfg.points), len(cfg.lines), len(cfg.planes)) == (15, 35, 15)
    point_line = [(i, j) for i, j in cfg.inclusions if i < cfg.line_offset and j < cfg.plane_offset]
    point_plane = [(i, j) for i, j in cfg.inclusions if i < cfg.line_offset and j >= cfg.plane_offset]
    line_plane = [(i, j) for i, j in cfg.inclusions if i >= cfg.line_offset]
    assert len(point_line) == 35 * 3
    assert len(point_plane) == 15 * 7
    assert len(line_plane) == 15 * 7
    assert len(cfg.inclusions) == 315
    # plane duality: members are exactly the points annihilated by the dual
    for pi, plane in enumerate(cfg.planes):
        members = {cfg.points[i] for i, j in point_plane if j == cfg.plane_offset + pi}
        filtered = {
            pt
            for pt in cfg.points
            if sum(a * b for a, b in zip(pt.coords, plane.dual.coords)) % 2 == 0
        }
        assert members == filtered


def test_incidence_config_strict_global_indices():
    cfg = incidence_config(3, 3)
    n_pts, n_lines, n_planes = len(cfg.points), len(cfg.lines), len(cfg.planes)
    assert cfg.line_offset == n_pts
    assert cfg.plane_offset == n_pts + n_lines
    for i, j in cfg.inclusions:
        assert i < j
        assert j < n_pts + n_lines + n_planes


def test_mp_configuration_shape():
    for p, (n_pts, n_lines, n_incl) in MP_SHAPES.items():
        cfg = mp_configuration(p)
        assert len(cfg.points) == n_pts == 2 * p + 3
        assert len(cfg.lines) == n_lines
        assert len(cfg.inclusions) == n_incl
        assert cfg.planes == ()


def test_mp_configuration_points_explicit():
    cfg = mp_configuration(3)
    expected = {
        (0, 0, 1), (1, 0, 1), (2, 0, 1),
        (1, 1, 1), (2, 1, 1), (0, 1, 1),
        (1, 0, 0), (0, 1, 0), (1, 1, 0),
    }
    assert {pt.coords for pt in cfg.points} == {ProjPointFp(v, 3).coords for v in expected}


def test_mp_configuration_lines_are_restrictions():
    # every listed line is a genuine plane line meeting the point set twice
    for p in (2, 3, 5):
        cfg = mp_configuration(p)
        chosen = set(cfg.points)
        full = {frozenset(ln.points): ln for ln in enumerate_lines(2, p)}
        seen = set()
        for ln in cfg.lines:
            key = frozenset(ln.points)
            assert key in full
            seen.add(key)
            assert len(chosen & set(ln.points)) >= 2
        # and no qualifying line is missing
        for key, ln in full.items():
            if len(chosen & set(ln.points)) >= 2:
                assert key in seen


def test_mp_p2_equals_full_plane():
    cfg = mp_configuration(2)
    full = incidence_config(2, 2)
    assert cfg.points == full.points
    assert {frozenset(ln.points) for ln in cfg.lines} == {
        frozenset(ln.points) for ln in full.lines
    }


def test_config_json_round_trip():
    for cfg in (incidence_config(2, 2), incidence_config(3, 2), mp_configuration(3), mp_configuration(5)):
        doc = cfg.to_json()
        back = IncidenceConfig.from_json(doc)
        assert back.dim == cfg.dim
        assert back.p == cfg.p
        assert back.points == cfg.points
        assert [frozenset(ln.points) for ln in back.lines] == [
            frozenset(ln.points) for ln in cfg.lines
        ]
        assert back.inclusions == cfg.inclusions
        assert back.to_json() == doc


def test_config_json_schema_keys():
    doc = incidence_config(2, 2).to_json()
    assert set(doc) == {"dim", "p", "points", "lines", "planes", "inclusions"}
    assert doc["dim"] == 2
    assert doc["p"] == 2
    assert all(isinstance(row, list) and len(row) == 3 for row in doc["points"])
    assert all(all(isinstance(i, int) for i in row) for row in doc["lines"])
    assert doc["planes"] == []


def test_from_json_rejects_short_lines():
    doc = incidence_config(2, 2).to_json()
    doc["lines"][0] = doc["lines"][0][:1]
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_json(doc)


def test_from_json_rejects_non_coplanar_plane():
    cfg = incidence_config(3, 2)
    back = IncidenceConfig.from_json(cfg.to_json())
    assert [pl.dual for pl in back.planes] == [pl.dual for pl in cfg.planes]
    # the four coordinate points span all of P^3, so no plane holds them
    doc = {
        "dim": 3,
        "p": 2,
        "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "lines": [],
        "planes": [[0, 1, 2, 3]],
        "inclusions": [],
    }
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_json(doc)
    doc["planes"] = [[0, 1, 2]]
    doc["inclusions"] = [[0, 4], [1, 4], [2, 4]]
    assert IncidenceConfig.from_json(doc).planes[0].dual == ProjPointFp((0, 0, 0, 1), 2)
    # three points of one line lie on three planes, so they name no plane either
    doc["points"] = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 1]]
    doc["inclusions"] = [[0, 3], [1, 3], [2, 3]]
    with pytest.raises(InvalidParameterError, match="exactly one plane"):
        IncidenceConfig.from_json(doc)


def test_from_json_derives_line_and_plane_members():
    # a document that leaves one member out of a line or a plane, and drops
    # its inclusion to match, is refused: members are derived, never trusted
    cfg = incidence_config(3, 2)
    for key, parent in (("lines", cfg.line_offset), ("planes", cfg.plane_offset)):
        doc = cfg.to_json()
        dropped = doc[key][0].pop()
        doc["inclusions"].remove([dropped, parent])
        assert len(doc["inclusions"]) == 314
        with pytest.raises(InvalidParameterError, match="writer gives back"):
            IncidenceConfig.from_json(doc)


def test_lines_sortable_and_hashable():
    lines = enumerate_lines(2, 3)
    assert sorted(lines) == lines
    assert len(set(lines)) == len(lines)


def test_line_cross_field_mismatch():
    a = ProjPointFp((1, 0, 0), 2)
    b = ProjPointFp((0, 1, 0), 3)
    with pytest.raises(InvalidParameterError):
        line_through(a, b)


# wrong argument types and spaces, each with the error it must raise
WRONG_ARGUMENTS = {
    "line_dual(5)": (lambda: line_dual(5), InvalidParameterError),
    "line_dual(P3 line)": (lambda: line_dual(enumerate_lines(3, 2)[0]), UnsupportedDimensionError),
    "line_from_dual((1, 0, 0))": (lambda: line_from_dual((1, 0, 0)), InvalidParameterError),
    "line_from_dual(P3 point)": (
        lambda: line_from_dual(ProjPointFp((1, 0, 0, 0), 2)), UnsupportedDimensionError
    ),
    "collinear(1, 2, 3)": (lambda: collinear(1, 2, 3), InvalidParameterError),
    "coplanar(1, 2, 3, 4)": (lambda: coplanar(1, 2, 3, 4), InvalidParameterError),
    "LineFp(5)": (lambda: LineFp(5), InvalidParameterError),
    "LineFp([])": (lambda: LineFp([]), InvalidParameterError),
    "PlaneFp(5)": (lambda: PlaneFp(5).indices, InvalidParameterError),
    "PlaneFp(P2 point)": (
        lambda: PlaneFp(ProjPointFp((1, 0, 0), 3)).indices, UnsupportedDimensionError
    ),
    "IncidenceConfig([pt], [5])": (
        lambda: IncidenceConfig([ProjPointFp((1, 0, 0), 3)], [5]),
        InvalidParameterError,
    ),
    "IncidenceConfig([5], [])": (lambda: IncidenceConfig([5], []), InvalidParameterError),
    "IncidenceConfig(5, [])": (lambda: IncidenceConfig(5, []), InvalidParameterError),
}


@pytest.mark.parametrize("call", WRONG_ARGUMENTS)
def test_wrong_arguments_rejected(call):
    function, error = WRONG_ARGUMENTS[call]
    with pytest.raises(error):
        function()
