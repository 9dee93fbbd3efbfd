"""Arithmetic in the two coefficient rings and projective geometry over them."""

import itertools
import random

import pytest

from _lawcheck import law_violations, unit_violations
from nonlift import (
    IndeterminateIntersectionError,
    IndeterminateSpanError,
    InvalidParameterError,
    LineA,
    LocalRing,
    NotAProjectivePointError,
    ProjPointA,
    ProjPointFp,
    UndecidableCollinearityError,
    UnsupportedDimensionError,
    collinear_A,
    enumerate_lifts,
    enumerate_points,
    line_intersect_A,
    line_through_A,
    ring_make,
)
from nonlift.local_ring import K_MAX, RingElem, _canonical, _cross, _normalize

Z4 = ring_make("zpk", 2, 2)
Z9 = ring_make("zpk", 3, 2)
F2T = ring_make("fpt", 2, 2)
F3T = ring_make("fpt", 3, 2)

# the module-level law sweep; the acceptance suite widens this to |A| <= 81
LAW_RINGS = [
    ("zpk", 2, 2),
    ("zpk", 2, 3),
    ("zpk", 3, 2),
    ("zpk", 5, 2),
    ("fpt", 2, 2),
    ("fpt", 2, 3),
    ("fpt", 3, 2),
]


def test_ring_make_validation():
    with pytest.raises(InvalidParameterError):
        ring_make("weird", 2, 2)
    with pytest.raises(InvalidParameterError):
        ring_make("zpk", 4, 2)
    with pytest.raises(InvalidParameterError):
        ring_make("zpk", 2, 0)
    with pytest.raises(InvalidParameterError):
        ring_make("fpt", 2, -1)


def test_ring_sizes_and_str():
    assert (Z4.size, str(Z4)) == (4, "Z/4")
    assert (Z9.size, str(Z9)) == (9, "Z/9")
    assert (F2T.size, str(F2T)) == (4, "F_2[t]/(t^2)")
    assert str(ring_make("fpt", 5, 1)) == "F_5"
    assert str(ring_make("zpk", 7, 1)) == "Z/7"
    assert ring_make("zpk", 3, 4).size == 81
    assert ring_make("fpt", 3, 4).size == 81


def test_ring_equality_and_json():
    assert Z4 == ring_make("zpk", 2, 2)
    assert Z4 != F2T
    for ring in (Z4, Z9, F2T, F3T):
        doc = ring.to_json()
        assert set(doc) == {"kind", "p", "k"}
        assert LocalRing.from_json(doc) == ring


def test_norm_rep_zpk():
    assert Z9.norm_rep(11) == 2
    assert Z9.norm_rep(-1) == 8
    assert Z4.elem(7).rep == 3


def test_norm_rep_fpt():
    assert F3T.norm_rep((4, -1)) == (1, 2)
    # plain integers embed as n * 1
    assert F3T.elem(5).rep == (2, 0)
    assert F3T.elem(3).rep == (0, 0)


def test_ring_laws_exhaustive():
    for kind, p, k in LAW_RINGS:
        ring = ring_make(kind, p, k)
        assert law_violations(ring) == 0
        assert unit_violations(ring) == 0


def test_units_and_p_one():
    assert Z9.p_one.rep == 3
    assert not Z9.p_vanishes
    assert F3T.p_one.rep == (0, 0)
    assert F3T.p_vanishes
    assert ring_make("zpk", 5, 1).p_vanishes
    assert not Z4.elem(2).is_unit
    assert Z4.elem(3).is_unit
    assert F2T.elem((0, 1)).is_unit is False
    assert F2T.elem((1, 1)).is_unit


def test_lifts_of_residue():
    assert Z4.lifts_of_residue(1) == [1, 3]
    assert Z4.lifts_of_residue(0) == [0, 2]
    assert F3T.lifts_of_residue(2) == [(2, 0), (2, 1), (2, 2)]
    for ring in (Z4, Z9, F2T, F3T):
        union = [rep for r in range(ring.p) for rep in ring.lifts_of_residue(r)]
        assert sorted(union) == sorted(ring.reps())
        for r in range(ring.p):
            for rep in ring.lifts_of_residue(r):
                assert ring.elem(rep).residue == r


def test_elem_arithmetic_zpk():
    a, b = Z9.elem(4), Z9.elem(7)
    assert (a + b).rep == 2
    assert (a * b).rep == 1
    assert (-a).rep == 5
    assert (a - b).rep == 6
    assert (1 + a).rep == 5
    assert (2 * b).rep == 5
    assert a.inverse().rep == 7


def test_elem_coercion():
    # equal rings built separately combine; the result lives in the left ring
    a, b = ring_make("zpk", 3, 2), ring_make("zpk", 3, 2)
    assert a is not b
    total = a.elem(4) + b.elem(7)
    assert total == a.elem(2) and total.ring is a
    assert (b.elem(4) * a.elem(7)).rep == 1
    with pytest.raises(InvalidParameterError):
        Z4.elem(1) + Z9.elem(1)
    with pytest.raises(InvalidParameterError):
        F3T.elem(1) * Z9.elem(1)
    with pytest.raises(TypeError):
        Z9.elem(1) + True
    with pytest.raises(TypeError):
        True - Z9.elem(1)
    assert (5 - Z9.elem(7)).rep == 7
    assert (Z9.elem(7) - 5).rep == 2


def test_elem_arithmetic_fpt():
    a, b = F3T.elem((1, 2)), F3T.elem((2, 2))
    assert (a + b).rep == (0, 1)
    assert (a * b).rep == (2, 0)
    assert a.inverse().rep == (1, 1)
    assert (a * a.inverse()).rep == (1, 0)
    with pytest.raises(InvalidParameterError):
        F3T.elem((0, 1)).inverse()


def test_elem_str():
    assert str(Z9.elem(4)) == "4"
    assert str(F3T.elem((1, 2))) == "1 + 2*t"
    assert str(F3T.elem((0, 1))) == "t"
    assert str(F3T.elem((0, 0))) == "0"
    assert str(F3T.elem((2, 0))) == "2"
    assert str(ring_make("fpt", 2, 3).elem((1, 0, 1))) == "1 + t^2"


def test_elements_sorted():
    for ring in (Z4, Z9, F2T, F3T):
        keys = [e.rep for e in ring.elements()]
        assert keys == sorted(keys)
        assert len(set(keys)) == ring.size


def test_point_canonical_form_zpk():
    x = ProjPointA(Z4, (2, 0, 3))
    assert tuple(c.rep for c in x.coords) == (2, 0, 1)
    y = ProjPointA(Z9, (2, 0, 3))
    assert tuple(c.rep for c in y.coords) == (1, 0, 6)


def test_point_canonical_form_fpt():
    x = ProjPointA(F3T, ((2, 1), (0, 2), (0, 0)))
    assert tuple(c.rep for c in x.coords) == ((1, 0), (0, 1), (0, 0))


def test_point_no_unit_rejected():
    with pytest.raises(NotAProjectivePointError):
        ProjPointA(Z4, (2, 0, 2))
    with pytest.raises(NotAProjectivePointError):
        ProjPointA(Z9, (0, 3, 6))
    with pytest.raises(NotAProjectivePointError):
        ProjPointA(F3T, ((0, 1), (0, 0), (0, 2)))


def test_point_dimension_limits():
    with pytest.raises(UnsupportedDimensionError):
        ProjPointA(Z4, (1,))
    with pytest.raises(UnsupportedDimensionError):
        ProjPointA(Z4, (1, 0, 0, 0, 0))
    assert ProjPointA(Z4, (1, 3)).dim == 1
    assert ProjPointA(Z4, (1, 0, 0, 2)).dim == 3


def test_point_equality_reduce_and_json():
    x = ProjPointA(Z4, (3, 0, 3))
    assert x == ProjPointA(Z4, (1, 0, 1))
    assert x.reduce() == ProjPointFp((1, 0, 1), 2)
    for pt in (x, ProjPointA(F3T, ((2, 1), (0, 2), (1, 1)))):
        doc = pt.to_json()
        assert set(doc) == {"ring", "coords"}
        assert ProjPointA.from_json(doc) == pt


def test_point_mixed_ring_rejected():
    with pytest.raises(InvalidParameterError):
        ProjPointA(Z4, (Z9.elem(1), Z4.elem(0), Z4.elem(0)))


def test_wrong_argument_types_rejected():
    # a ring or points of the wrong type are refused as parameters, not
    # left to fail inside the arithmetic
    for call in (
        lambda: ProjPointA(5, [1, 0, 0]),
        lambda: ProjPointA(Z9, 7),
        lambda: collinear_A(1, 2, 3),
        lambda: line_through_A(1, 2),
        lambda: line_through_A(ProjPointA(Z9, (1, 0, 0)), 2),
    ):
        with pytest.raises(InvalidParameterError):
            call()


def test_point_coordinate_variants():
    a = ProjPointA(Z4, [Z4.elem(2), Z4.elem(0), Z4.elem(3)])
    assert tuple(c.rep for c in a.coords) == (2, 0, 1)
    assert a == ProjPointA(Z4, (2, 0, 3))


def test_enumerate_lifts_frozen():
    lifts = enumerate_lifts(ProjPointFp((0, 0, 1), 2), Z4)
    assert [tuple(c.rep for c in q.coords) for q in lifts] == [
        (0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1),
    ]
    lifts = enumerate_lifts(ProjPointFp((1, 0, 1), 2), Z4)
    assert [tuple(c.rep for c in q.coords) for q in lifts] == [
        (1, 0, 1), (1, 0, 3), (1, 2, 1), (1, 2, 3),
    ]


def test_enumerate_lifts_counts_and_order():
    cases = [(Z4, 2), (Z9, 3), (F2T, 2), (F3T, 3), (ring_make("zpk", 2, 3), 2), (ring_make("fpt", 2, 1), 2)]
    for ring, p in cases:
        for x in enumerate_points(2, p):
            lifts = enumerate_lifts(x, ring)
            assert len(lifts) == ring.p ** (2 * (ring.k - 1))
            keys = [tuple(c.rep for c in q.coords) for q in lifts]
            assert keys == sorted(keys)
            for q in lifts:
                assert q.reduce() == x
                # already canonical: renormalizing changes nothing
                assert ProjPointA(q.ring, q.coords) == q


def test_enumerate_lifts_partition_oracle():
    # every canonical point of the lifted plane appears in exactly one fiber
    for ring in (Z4, F2T):
        seen = set()
        for vec in itertools.product(ring.elements(), repeat=3):
            if any(c.is_unit for c in vec):
                seen.add(ProjPointA(ring, vec))
        assert len(seen) == 28
        fibers = []
        for x in enumerate_points(2, ring.p):
            fibers.extend(enumerate_lifts(x, ring))
        assert len(fibers) == len(seen)
        assert set(fibers) == seen


def test_enumerate_lifts_validation():
    with pytest.raises(InvalidParameterError):
        enumerate_lifts(ProjPointFp((1, 0, 1), 3), Z4)
    with pytest.raises(UnsupportedDimensionError):
        enumerate_lifts(ProjPointFp((1, 0), 2), Z4)


def test_line_through_worked_chain():
    # join duals along the standard frame over Z/4
    e0 = ProjPointA(Z4, (1, 0, 0))
    e1 = ProjPointA(Z4, (0, 1, 0))
    e2 = ProjPointA(Z4, (0, 0, 1))
    f = ProjPointA(Z4, (1, 1, 1))
    cases = [
        ((e2, f), (1, 3, 0)),
        ((e0, e1), (0, 0, 1)),
        ((f, e1), (1, 0, 3)),
        ((e2, e0), (0, 1, 0)),
        ((f, e0), (0, 1, 3)),
    ]
    for (x, y), dual in cases:
        ln = line_through_A(x, y)
        assert tuple(c.rep for c in ln.dual.coords) == dual
        assert ln.contains(x) and ln.contains(y)


def test_line_intersect_worked():
    e0 = ProjPointA(Z4, (1, 0, 0))
    e1 = ProjPointA(Z4, (0, 1, 0))
    e2 = ProjPointA(Z4, (0, 0, 1))
    f = ProjPointA(Z4, (1, 1, 1))
    p1 = line_intersect_A(line_through_A(f, e1), line_through_A(e2, e0))
    assert tuple(c.rep for c in p1.coords) == (1, 0, 1)
    q1 = line_intersect_A(
        line_through_A(p1, ProjPointA(Z4, (1, 1, 0))), line_through_A(f, e0)
    )
    assert tuple(c.rep for c in q1.coords) == (2, 1, 1)
    p2 = line_intersect_A(line_through_A(q1, e1), line_through_A(e2, e0))
    assert tuple(c.rep for c in p2.coords) == (2, 0, 1)


def test_line_span_indeterminate():
    with pytest.raises(IndeterminateSpanError):
        line_through_A(ProjPointA(Z4, (1, 0, 1)), ProjPointA(Z4, (1, 2, 1)))


def test_line_intersect_indeterminate():
    l1 = line_through_A(ProjPointA(Z4, (1, 0, 0)), ProjPointA(Z4, (0, 0, 1)))
    l2 = line_through_A(ProjPointA(Z4, (1, 0, 0)), ProjPointA(Z4, (0, 2, 1)))
    assert l1.dual.reduce() == l2.dual.reduce()
    assert l1 != l2
    with pytest.raises(IndeterminateIntersectionError):
        line_intersect_A(l1, l2)


def test_line_json():
    ln = line_through_A(ProjPointA(Z4, (0, 0, 1)), ProjPointA(Z4, (1, 1, 1)))
    assert ln.to_json() == {"dual": [1, 3, 0]}
    assert isinstance(ln, LineA)


def test_line_contains_checks_ring_and_dimension():
    ln = line_through_A(ProjPointA(Z4, (1, 0, 0)), ProjPointA(Z4, (0, 1, 0)))
    assert ln.contains(ProjPointA(Z4, (1, 1, 0)))
    with pytest.raises(InvalidParameterError):
        ln.contains(ProjPointA(Z9, (1, 0, 0)))
    # a P^3 point once passed, its fourth coordinate ignored
    with pytest.raises(UnsupportedDimensionError):
        ln.contains(ProjPointA(Z4, (1, 0, 0, 0)))


def test_collinear_A_cases():
    a = ProjPointA(Z4, (1, 0, 0))
    b = ProjPointA(Z4, (0, 0, 1))
    c = ProjPointA(Z4, (1, 0, 1))
    assert collinear_A(a, b, c)
    # the lifted quadrilateral triple has determinant 2, a nonzero non-unit
    x = ProjPointA(Z4, (0, 1, 1))
    y = ProjPointA(Z4, (1, 0, 1))
    z = ProjPointA(Z4, (1, 1, 0))
    assert not collinear_A(x, y, z)
    with pytest.raises(UndecidableCollinearityError):
        collinear_A(
            ProjPointA(Z4, (1, 0, 1)),
            ProjPointA(Z4, (1, 2, 1)),
            ProjPointA(Z4, (1, 0, 3)),
        )


# -- RingElem arithmetic against a schoolbook reference ------------------------


def _schoolbook(ring):
    """+, -, *, unary - and inverse on plain representations, written out
    without the ring's integer encoding: ints mod p^k, or coefficient lists
    multiplied term by term and truncated at t^k."""
    p, k, size = ring.p, ring.k, ring.size
    if ring.kind == "zpk":
        return {
            "add": lambda a, b: (a + b) % size,
            "sub": lambda a, b: (a - b) % size,
            "mul": lambda a, b: (a * b) % size,
            "neg": lambda a: -a % size,
            "inverse": lambda a: pow(a, -1, size),
        }

    def mul(a, b):
        out = [0] * k
        for i in range(k):
            for j in range(k - i):
                out[i + j] += a[i] * b[j]
        return tuple(c % p for c in out)

    def inverse(a):
        # solve a * b = 1 one coefficient of t at a time
        b = [pow(a[0], -1, p)]
        for m in range(1, k):
            b.append(-b[0] * sum(a[i] * b[m - i] for i in range(1, m + 1)) % p)
        return tuple(b)

    return {
        "add": lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
        "sub": lambda a, b: tuple((x - y) % p for x, y in zip(a, b)),
        "mul": mul,
        "neg": lambda a: tuple(-x % p for x in a),
        "inverse": inverse,
    }


@pytest.mark.parametrize(
    "spec",
    [("fpt", 2, 8), ("fpt", 13, 8), ("fpt", 4999, 8), ("zpk", 2, 8), ("zpk", 4999, 8)],
    ids=str,
)
def test_ring_arithmetic_matches_schoolbook_reference(spec):
    # k = K_MAX, and p up to just below PROPAGATE_P_MAX: the widest digits
    ring = ring_make(*spec)
    ref = _schoolbook(ring)
    rng = random.Random(f"schoolbook {spec}")
    top = ring.size - 1 if ring.kind == "zpk" else (ring.p - 1,) * ring.k
    reps = [ring.zero.rep, ring.one.rep, top] + [_random_elem(rng, ring).rep for _ in range(40)]
    for a, b in itertools.product(reps, repeat=2):
        x, y = ring.elem(a), ring.elem(b)
        assert (x + y).rep == ref["add"](a, b)
        assert (x - y).rep == ref["sub"](a, b)
        assert (x * y).rep == ref["mul"](a, b)
        assert (x * y) == ring.elem(ref["mul"](a, b))
    for a in reps:
        x = ring.elem(a)
        assert (-x).rep == ref["neg"](a)
        if x.is_unit:
            assert x.inverse().rep == ref["inverse"](a)
            assert ref["mul"](a, x.inverse().rep) == ring.one.rep


def _pack(ring, digits, high=0):
    """The integer with `digits` at the ring's digit positions and `high`,
    which may be negative, above the top digit's w bits."""
    top = ring._shifts[-1] + ring._mask.bit_length()
    return sum(d << s for d, s in zip(digits, ring._shifts)) + (high << top)


def _reference_reduce(ring, digits):
    """The reduction over F_p[t]/(t^k) of a packed integer, digit by digit:
    each of the low k digits mod p, at its position, the high part dropped."""
    return sum(d % ring.p << s for d, s in zip(digits, ring._shifts))


@pytest.mark.parametrize("p", [2, 13, 4999])
def test_reduce_matches_digit_reference(p):
    # every length up to K_MAX, p up to just below PROPAGATE_P_MAX
    rng = random.Random(f"reduce fpt {p}")
    for k in range(1, K_MAX + 1):
        ring = ring_make("fpt", p, k)
        top = ring._mask  # the largest digit, 2^w - 1
        cases = [([0] * k, 0), ([1] + [0] * (k - 1), 0), ([p] + [0] * (k - 1), 0),
                 ([top] * k, 0), ([top] * k, top * top), ([top] * k, ring.size), ([top] * k, -1)]
        cases += [([rng.randrange(top + 1) for _ in range(k)], rng.randrange(-top, top))
                  for _ in range(50)]
        for digits, high in cases:
            n = _pack(ring, digits, high)
            assert ring._reduce(n) == _reference_reduce(ring, digits), (k, digits, high)


def _digit_sweep(ring, values):
    """Each value at each digit position: alone, with every other digit at
    2^w - 1, and alone over a negative high part (a `_cross` difference)."""
    k, top = ring.k, ring._mask
    for i in range(k):
        for fill, high in ((0, 0), (top, 0), (0, -top)):
            digits = [fill] * k
            for d in values:
                digits[i] = d
                n = _pack(ring, digits, high)
                assert ring._reduce(n) == _reference_reduce(ring, digits), (i, digits, high)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_reduce_digit_sweep(p):
    # every digit value the reduction admits, at every length up to K_MAX
    for k in range(1, K_MAX + 1):
        ring = ring_make("fpt", p, k)
        _digit_sweep(ring, range(ring._mask + 1))


def test_reduce_boundary_digits_at_widest_layout():
    # p = 4999: digits around each multiple of p that matters, and the top
    p = 4999
    for k in range(1, K_MAX + 1):
        ring = ring_make("fpt", p, k)
        top = ring._mask
        last = top // p * p
        _digit_sweep(ring, [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, (p - 1) ** 2,
                            k * (p - 1) ** 2, 3 * k * (p - 1) ** 2, last - 1, last, top])


# -- plane geometry over A against RingElem arithmetic --------------------------


def _ref_cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _ref_det(x, y, z):
    c = _ref_cross(x.coords, y.coords)
    return c[0] * z.coords[0] + c[1] * z.coords[1] + c[2] * z.coords[2]


def _residues(x):
    return tuple(c.residue for c in x.coords)


def _assert_kernel_agrees(x, y, z):
    """collinear_A, join, meet and contains against the RingElem determinant."""
    ring = x.ring
    det = _ref_det(x, y, z)
    if det.is_zero and _residues(x) == _residues(y) == _residues(z):
        with pytest.raises(UndecidableCollinearityError):
            collinear_A(x, y, z)
    else:
        assert collinear_A(x, y, z) == det.is_zero
    if _residues(x) == _residues(y):
        with pytest.raises(IndeterminateSpanError):
            line_through_A(x, y)
        with pytest.raises(IndeterminateIntersectionError):
            line_intersect_A(LineA(x), LineA(y))
        return
    ref = ProjPointA(ring, _ref_cross(x.coords, y.coords))
    line = line_through_A(x, y)
    assert line.dual == ref
    assert line_intersect_A(LineA(x), LineA(y)) == ref
    assert line.contains(x) and line.contains(y)
    assert line.contains(z) == det.is_zero


def _plane_points_A(ring):
    return [a for x in enumerate_points(2, ring.p) for a in enumerate_lifts(x, ring)]


@pytest.mark.parametrize("ring", [Z4, F2T], ids=str)
def test_plane_kernel_matches_ring_arithmetic_exhaustive(ring):
    points = _plane_points_A(ring)
    assert len(points) == 28
    # every triple up to order: reordering only changes the determinant's sign
    for x, y, z in itertools.combinations_with_replacement(points, 3):
        _assert_kernel_agrees(x, y, z)


def _random_elem(rng, ring):
    if ring.kind == "zpk":
        return ring.elem(rng.randrange(ring.size))
    return ring.elem([rng.randrange(ring.p) for _ in range(ring.k)])


def _random_point(rng, ring, combine=()):
    """A random point, or a random combination of `combine` plus a random
    point times a random power of the uniformizer (zero when the power is k)."""
    pi = ring.elem(ring.p if ring.kind == "zpk" else [0, 1])
    while True:
        noise = [_random_elem(rng, ring) for _ in range(3)]
        if combine:
            scale = ring.one
            for _ in range(rng.randrange(1, ring.k + 1)):
                scale = scale * pi
            a, b = _random_elem(rng, ring), _random_elem(rng, ring)
            noise = [a * u + b * v + scale * n
                     for u, v, n in zip(combine[0].coords, combine[1].coords, noise)]
        if any(c.is_unit for c in noise):
            return ProjPointA(ring, noise)


@pytest.mark.parametrize(
    "spec", [("zpk", 3, 3), ("fpt", 3, 3), ("fpt", 13, 8), ("zpk", 907, 2), ("fpt", 503, 3)],
    ids=str,
)
def test_plane_kernel_matches_ring_arithmetic_sampled(spec):
    ring = ring_make(*spec)
    rng = random.Random(f"kernel {spec}")
    for _ in range(150):
        x, y = _random_point(rng, ring), _random_point(rng, ring)
        _assert_kernel_agrees(x, y, _random_point(rng, ring))
        _assert_kernel_agrees(x, y, _random_point(rng, ring, (x, y)))
        # lifts of x's residue: the undecidable corner
        near_x = _random_point(rng, ring, (x, x))
        _assert_kernel_agrees(x, near_x, _random_point(rng, ring, (x, near_x)))


# -- the stored coordinate integers against the RingElem path ------------------

POINT_RINGS = [("zpk", 2, 1), ("zpk", 2, 8), ("zpk", 3, 5), ("zpk", 907, 2),
               ("fpt", 2, 8), ("fpt", 5, 3), ("fpt", 13, 8), ("fpt", 503, 2)]


def _ref_normalize(coords):
    """The canonical coordinates by RingElem operators: divide by the first unit."""
    pivot = next(c for c in coords if c.is_unit)
    inv = pivot.inverse()
    assert pivot * inv == pivot.ring.one
    return tuple(c * inv for c in coords)


def _random_coords(rng, ring, n):
    """n random elements, each times a random power of the uniformizer, so
    leading non-units and zeros are common; at least one is a unit."""
    pi = ring.elem(ring.p if ring.kind == "zpk" else [0, 1])
    while True:
        coords = []
        for _ in range(n):
            c = _random_elem(rng, ring)
            for _ in range(rng.choice((0, 0, 1, ring.k))):
                c = c * pi
            coords.append(c)
        if any(c.is_unit for c in coords):
            return coords


@pytest.mark.parametrize("spec", POINT_RINGS, ids=str)
def test_point_integers_match_ring_elem_normalization(spec):
    ring = ring_make(*spec)
    rng = random.Random(f"point {spec}")
    for _ in range(60):
        coords = _random_coords(rng, ring, rng.randrange(2, 5))
        # raw representations, ring elements, or a mix of both
        given = [c if rng.random() < 0.5 else c.rep for c in coords]
        x = ProjPointA(ring, given)
        ref = _ref_normalize(coords)
        assert x.coords == ref
        assert all(type(c) is RingElem and c.ring is ring for c in x.coords)
        assert next(c for c in x.coords if c.is_unit) == ring.one
        assert x.dim == len(coords) - 1
        residues = [c.residue for c in coords]
        assert x.reduce() == ProjPointFp(residues, ring.p)
        assert x.reduce().coords == ProjPointFp(residues, ring.p).coords
        assert x.to_json() == {"ring": ring.to_json(), "coords": [c.to_json() for c in ref]}
        assert repr(x) == f"({':'.join(str(c) for c in ref)}) over {ring}"


@pytest.mark.parametrize("spec", POINT_RINGS, ids=str)
def test_meet_equals_point_from_raw_coordinates(spec):
    ring = ring_make(*spec)
    twin = LocalRing(*spec)
    assert twin is not ring and twin == ring
    rng = random.Random(f"meet {spec}")
    done = 0
    while done < 40:
        x = ProjPointA(ring, _random_coords(rng, ring, 3))
        y = ProjPointA(ring, _random_coords(rng, ring, 3))
        if x.reduce() == y.reduce():
            continue
        done += 1
        meet = line_intersect_A(LineA(x), LineA(y))
        # the same point from raw coordinates over the twin ring, scaled by a unit
        unit = _random_coords(rng, ring, 1)[0]
        raw = ProjPointA(twin, [(unit * c).rep for c in _ref_cross(x.coords, y.coords)])
        assert raw == meet and meet == raw
        assert hash(raw) == hash(meet)
        assert len({raw, meet}) == 1
        assert raw.coords == meet.coords
        assert meet.reduce() == raw.reduce()
        assert LineA(x).contains(raw) and LineA(y).contains(raw)


@pytest.mark.parametrize("spec", POINT_RINGS, ids=str)
def test_cross_product_without_unit_is_not_a_point(spec):
    # two points with one residue: their cross product lies in the maximal
    # ideal, and normalizing it refuses, rather than running off the end
    ring = ring_make(*spec)
    rng = random.Random(f"no unit {spec}")
    for _ in range(20):
        x = ProjPointA(ring, _random_coords(rng, ring, 3))
        y = _random_point(rng, ring, (x, x))
        cross = _cross(ring, x._ns, y._ns)
        with pytest.raises(NotAProjectivePointError):
            _normalize(ring, cross)
        with pytest.raises(NotAProjectivePointError):
            ProjPointA(ring, [_canonical(ring, n) for n in cross])
        with pytest.raises(IndeterminateSpanError):
            line_through_A(x, y)
