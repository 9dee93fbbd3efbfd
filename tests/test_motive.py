"""Lefschetz-class computations and their point-count oracles.

Every closed-form class is checked against a brute enumeration at small q
before the coefficients are frozen here.
"""

import math
import tracemalloc

import pytest

from nonlift import (
    BudgetExceededError,
    DIM_MAX,
    InvalidBlowupError,
    InvalidParameterError,
    InvariantsTable,
    LEFSCHETZ,
    LPolynomial,
    VarietyClass,
    blowup_class,
    construction_one_class,
    construction_two_class,
    enumerate_lines,
    enumerate_points,
    flag_class_typeA,
    grassmannian_class,
    incidence_variety_point_count,
    invariants_table,
    point_count_oracle_construction_two,
    point_line_counts,
    projective_space_class,
    quadric_class,
    quadric_point_count,
)

FROZEN_COEFFS = {
    "ps3": (1, 1, 1, 1),
    "quadric2": (1, 2, 1),
    "quadric3": (1, 1, 1, 1),
    "quadric4": (1, 1, 2, 1, 1),
    "quadric6": (1, 1, 1, 2, 1, 1, 1),
    "grass24": (1, 1, 2, 1, 1),
    "grass25": (1, 1, 2, 2, 2, 1, 1),
    "flag3": (1, 2, 2, 1),
    "flag4": (1, 3, 5, 6, 5, 3, 1),
    "c1_flag3": (1, 5, 11, 14, 11, 5, 1),
    "c1_quadric3": (1, 3, 5, 6, 5, 3, 1),
    "c2_p2": (1, 51, 51, 1),
    "c2_p3": (1, 171, 171, 1),
}


def test_lpoly_construction_trims():
    assert LPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert LPolynomial(()).coeffs == ()
    assert LPolynomial((0,)).degree == -1
    assert LPolynomial((0, 0, 3)).degree == 2
    assert LPolynomial.zero() == 0
    assert LPolynomial.one() == 1
    assert LEFSCHETZ.coeffs == (0, 1)
    assert LPolynomial.lefschetz(3).coeffs == (0, 0, 0, 1)
    assert LPolynomial.sum_of_powers(1, 2).coeffs == (0, 1, 1)
    assert LPolynomial.sum_of_powers(2, 1) == LPolynomial.zero()


def test_lpoly_arithmetic():
    a = LPolynomial((1, 1))
    assert (a * a).coeffs == (1, 2, 1)
    assert (a + 1).coeffs == (2, 1)
    assert (2 * a).coeffs == (2, 2)
    assert (a - a) == LPolynomial.zero()
    assert (-a).coeffs == (-1, -1)
    assert (1 - a).coeffs == (0, -1)
    assert (a * LPolynomial.zero()) == LPolynomial.zero()
    # cancellation trims the top
    assert (LPolynomial((0, 0, 1)) - LPolynomial((1, 0, 1))).coeffs == (-1,)


def test_lpoly_eval_matches_power_sum():
    poly = LPolynomial((3, 0, 2, 7))
    for q in (-2, 0, 1, 2, 10):
        assert poly(q) == 3 + 2 * q**2 + 7 * q**3
    with pytest.raises(InvalidParameterError):
        poly(1.5)


def test_lpoly_palindromic():
    assert LPolynomial((1, 2, 1)).is_palindromic()
    assert not LPolynomial((1, 2)).is_palindromic()
    # padding against a larger dimension matters
    assert LPolynomial((1, 1, 1)).is_palindromic(2)
    assert not LPolynomial((1, 1, 1)).is_palindromic(3)
    assert LPolynomial.zero().is_palindromic()


def test_lpoly_repr():
    assert repr(LPolynomial((1, 5, 11))) == "1 + 5*L + 11*L^2"
    assert repr(LPolynomial((0, 1))) == "L"
    assert repr(LPolynomial((1, -1))) == "1 - L"
    assert repr(LPolynomial(())) == "0"


def test_projective_space():
    assert projective_space_class(0).cls.coeffs == (1,)
    v = projective_space_class(3)
    assert v.cls.coeffs == FROZEN_COEFFS["ps3"]
    assert v.dim == 3
    assert v.name == "P^3"
    for p in (2, 3, 5):
        assert v.point_count(p) == len(enumerate_points(3, p))
    with pytest.raises(InvalidParameterError):
        projective_space_class(-1)


def test_quadric_classes():
    for key, d in [("quadric2", 2), ("quadric3", 3), ("quadric4", 4), ("quadric6", 6)]:
        assert quadric_class(d).cls.coeffs == FROZEN_COEFFS[key]
    with pytest.raises(InvalidParameterError):
        quadric_class(0)


def test_quadric_counts_match_enumeration():
    for d in (1, 2, 3, 4):
        for q in (2, 3):
            assert quadric_class(d).point_count(q) == quadric_point_count(d, q)
    # the middle term is what separates even from odd
    assert quadric_point_count(3, 2) == 15
    assert quadric_point_count(4, 2) == 35


def test_grassmannian_classes():
    assert grassmannian_class(2, 4).cls.coeffs == FROZEN_COEFFS["grass24"]
    assert grassmannian_class(2, 5).cls.coeffs == FROZEN_COEFFS["grass25"]
    assert grassmannian_class(0, 4).cls == LPolynomial.one()
    assert grassmannian_class(4, 4).cls == LPolynomial.one()
    assert grassmannian_class(1, 4).cls == projective_space_class(3).cls
    with pytest.raises(InvalidParameterError):
        grassmannian_class(3, 2)


def _pascal_gauss(m, r):
    """[m, r] by the recurrence [m, r] = [m-1, r-1] + L^r [m-1, r]."""
    if r in (0, m):
        return LPolynomial.one()
    return _pascal_gauss(m - 1, r - 1) + LPolynomial.lefschetz(r) * _pascal_gauss(m - 1, r)


def test_grassmannian_matches_pascal_recurrence():
    for m in range(13):
        for r in range(m + 1):
            assert grassmannian_class(r, m).cls == _pascal_gauss(m, r)


def test_grassmannian_size_cap():
    assert grassmannian_class(40, 80).dim == 1600
    assert grassmannian_class(50, 100).dim == DIM_MAX
    with pytest.raises(BudgetExceededError):
        grassmannian_class(50, 101)
    with pytest.raises(BudgetExceededError):
        grassmannian_class(600, 1200)


def test_dimension_cap():
    assert projective_space_class(DIM_MAX).dim == DIM_MAX
    assert quadric_class(DIM_MAX).dim == DIM_MAX
    for build in (
        lambda: projective_space_class(DIM_MAX + 1),
        lambda: projective_space_class(10**8),
        lambda: quadric_class(DIM_MAX + 1),
        lambda: construction_one_class(projective_space_class(DIM_MAX // 2 + 1)),
    ):
        with pytest.raises(BudgetExceededError):
            build()


def test_grassmannian_symmetry_and_counts():
    for m in range(1, 7):
        for r in range(m + 1):
            assert grassmannian_class(r, m).cls == grassmannian_class(m - r, m).cls
    # subspace counting oracle: product formula over actual prime powers
    for m in range(1, 6):
        for r in range(m + 1):
            for q in (2, 3):
                num = 1
                den = 1
                for i in range(r):
                    num *= q ** (m - i) - 1
                    den *= q ** (r - i) - 1
                assert grassmannian_class(r, m).point_count(q) == num // den


def test_grass24_counts_lines_of_3_space():
    for p in (2, 3, 5):
        assert grassmannian_class(2, 4).point_count(p) == len(enumerate_lines(3, p))


def test_flag_classes():
    assert flag_class_typeA(1).cls == LPolynomial.one()
    assert flag_class_typeA(2).cls.coeffs == (1, 1)
    assert flag_class_typeA(3).cls.coeffs == FROZEN_COEFFS["flag3"]
    assert flag_class_typeA(4).cls.coeffs == FROZEN_COEFFS["flag4"]
    assert flag_class_typeA(3).dim == 3
    assert flag_class_typeA(4).dim == 6


def test_flag_euler_is_factorial():
    for m in range(1, 9):
        assert flag_class_typeA(m).euler_number() == math.factorial(m)


def test_flag_product_only_range():
    # beyond the enumeration bound the product formula stands alone
    assert flag_class_typeA(7).dim == 21
    assert flag_class_typeA(8).dim == 28
    assert flag_class_typeA(8).cls.is_palindromic(28)
    with pytest.raises(BudgetExceededError):
        flag_class_typeA(9)
    with pytest.raises(InvalidParameterError):
        flag_class_typeA(0)


def test_flag3_counts_incidence_variety():
    for q in (2, 3):
        assert flag_class_typeA(3).point_count(q) == incidence_variety_point_count(q)
    assert incidence_variety_point_count(2) == 21


def test_blowup_formula():
    x = projective_space_class(3)
    z = projective_space_class(1)
    out = blowup_class(x, z, 2)
    assert out.cls == x.cls + LPolynomial.sum_of_powers(1, 1) * z.cls
    assert out.dim == 3
    assert out.name == "Bl[P^1](P^3)"


def test_blowup_validation():
    x = projective_space_class(3)
    z = projective_space_class(1)
    with pytest.raises(InvalidBlowupError):
        blowup_class(x, z, 1)
    with pytest.raises(InvalidBlowupError):
        blowup_class(x, z, 3)
    with pytest.raises(InvalidParameterError):
        blowup_class(x, "P^1", 2)


def test_blowup_propagates_cellular():
    x = VarietyClass(name="mystery", dim=3, cls=LPolynomial((1, 1, 1, 1)), cellular=False)
    z = projective_space_class(1)
    assert not blowup_class(x, z, 2).cellular
    assert blowup_class(projective_space_class(3), z, 2).cellular


def test_construction_one_frozen():
    v = construction_one_class(flag_class_typeA(3))
    assert v.cls.coeffs == FROZEN_COEFFS["c1_flag3"]
    assert v.dim == 6
    assert v.name == "Bl[graph](Fl(3) x Fl(3))"
    w = construction_one_class(quadric_class(3))
    assert w.cls.coeffs == FROZEN_COEFFS["c1_quadric3"]
    assert w.name == "Bl[graph](Q^3 x Q^3)"


def test_construction_one_center_choices_agree():
    y = flag_class_typeA(3)
    graph = construction_one_class(y, center="frobenius-graph")
    diagonal = construction_one_class(y, center="diagonal")
    assert graph.cls == diagonal.cls
    assert diagonal.name == "Bl[diagonal](Fl(3) x Fl(3))"
    with pytest.raises(InvalidParameterError):
        construction_one_class(y, center="secant")


def test_construction_one_needs_room():
    with pytest.raises(InvalidParameterError):
        construction_one_class(projective_space_class(1))
    with pytest.raises(InvalidParameterError):
        construction_one_class("flag")


def test_construction_one_euler():
    assert construction_one_class(flag_class_typeA(3)).euler_number() == 48
    assert construction_one_class(quadric_class(3)).euler_number() == 24


def test_rational_counts():
    assert point_line_counts(3, 2) == (15, 35)
    assert point_line_counts(3, 3) == (40, 130)
    assert point_line_counts(3, 5) == (156, 806)
    for p in (2, 3, 5):
        pts, lines = point_line_counts(3, p)
        assert pts == len(enumerate_points(3, p))
        assert lines == len(enumerate_lines(3, p))


def test_construction_two_frozen():
    v = construction_two_class(2)
    assert v.cls.coeffs == FROZEN_COEFFS["c2_p2"]
    assert v.name == "config-blowup(P^3, p=2)"
    assert v.euler_number() == 104
    w = construction_two_class(3)
    assert w.cls.coeffs == FROZEN_COEFFS["c2_p3"]
    assert w.euler_number() == 344
    with pytest.raises(InvalidParameterError):
        construction_two_class(4)


def test_construction_two_oracle():
    for p in (2, 3):
        v = construction_two_class(p)
        assert v.point_count(p) == point_count_oracle_construction_two(p, p)
    assert point_count_oracle_construction_two(2, 2) == 315
    assert point_count_oracle_construction_two(3, 3) == 2080
    with pytest.raises(InvalidParameterError):
        point_count_oracle_construction_two(2, 3)
    with pytest.raises(InvalidParameterError):
        point_count_oracle_construction_two(2, 4)


def test_variety_class_validation():
    with pytest.raises(InvalidParameterError):
        VarietyClass(name="bad", dim=1, cls=LPolynomial((1, 1, 1)))
    with pytest.raises(InvalidParameterError):
        VarietyClass(name="bad", dim=-1, cls=LPolynomial.one())


def test_variety_class_json_round_trip():
    for v in (
        projective_space_class(3),
        flag_class_typeA(4),
        construction_two_class(3),
        construction_one_class(quadric_class(3)),
    ):
        doc = v.to_json()
        assert set(doc) == {"name", "dim", "coeffs"}
        assert len(doc["coeffs"]) == v.dim + 1
        back = VarietyClass.from_json(doc)
        assert back.name == v.name
        assert back.dim == v.dim
        assert back.cls == v.cls


def test_json_big_ints_become_strings():
    big = 2**60
    v = VarietyClass(name="big", dim=1, cls=LPolynomial((1, big)))
    doc = v.to_json()
    assert doc["coeffs"] == [1, str(big)]
    back = VarietyClass.from_json(doc)
    assert back.cls.coeff(1) == big
    # boundary: 2^53 - 1 still rides as a number
    edge = VarietyClass(name="edge", dim=1, cls=LPolynomial((1, 2**53 - 1)))
    assert edge.to_json()["coeffs"] == [1, 2**53 - 1]


def test_from_json_reads_back_only_what_to_json_writes():
    # a fractional coefficient, or a dim that disagrees with the
    # coefficients, was once read as the class 1 + L + L^2 in dimension 5
    good = {"name": "x", "dim": 2, "coeffs": [1, str(2**60), 1]}
    assert VarietyClass.from_json(good).cls == LPolynomial((1, 2**60, 1))
    for bad in ([1, 1.5, 1], [1, "a", 1], [1, True, 1], [1, "12", 1], [1, " " + str(2**60), 1]):
        with pytest.raises(InvalidParameterError):
            VarietyClass.from_json({"name": "x", "dim": 2, "coeffs": bad})
    with pytest.raises(InvalidParameterError):
        VarietyClass.from_json({"name": "x", "dim": 5, "coeffs": [1, 1, 1]})
    assert VarietyClass.from_json({"name": "x", "dim": 5, "coeffs": [1, 1, 1, 0, 0, 0]}).dim == 5
    doc = invariants_table(construction_two_class(3)).to_json()
    for key, value in (("euler", 1.5), ("picard", "7"), ("betti", doc["betti"][:-1]),
                       ("betti", [float(b) for b in doc["betti"]]), ("dim", "3")):
        with pytest.raises(InvalidParameterError):
            InvariantsTable.from_json(dict(doc, **{key: value}))


def test_non_cellular_class_round_trips():
    # to_json once dropped the flag, and the class read back as cellular
    mystery = VarietyClass(name="m", dim=2, cls=LPolynomial((1, 1, 1)), cellular=False)
    doc = mystery.to_json()
    assert doc["cellular"] is False
    back = VarietyClass.from_json(doc)
    assert back == mystery
    with pytest.raises(InvalidParameterError):
        invariants_table(back)
    # a cellular class writes no flag, and reads back cellular
    ps2 = projective_space_class(2)
    assert "cellular" not in ps2.to_json()
    assert VarietyClass.from_json(ps2.to_json()).cellular
    for bad in (0, 1, "false", None):
        with pytest.raises(InvalidParameterError):
            VarietyClass.from_json(dict(doc, cellular=bad))


def test_invariants_table_frozen():
    tab = invariants_table(construction_one_class(flag_class_typeA(3)))
    assert tab.dim == 6
    assert tab.betti == (1, 0, 5, 0, 11, 0, 14, 0, 11, 0, 5, 0, 1)
    assert tab.picard == 5
    assert tab.euler == 48
    assert tab.palindromic
    assert tab.nonnegative
    assert tab.hodge_de_rham_sum_equal
    # diagonal Hodge table
    for i, row in enumerate(tab.hodge):
        for j, h in enumerate(row):
            assert h == (tab.betti[2 * i] if i == j else 0)


def test_invariants_table_stores_no_dense_hodge_table():
    v = grassmannian_class(50, 100)
    tracemalloc.start()
    try:
        tab = invariants_table(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert tab.betti[::2] == v.cls.coeffs


def test_invariants_table_small():
    tab = invariants_table(projective_space_class(2))
    assert tab.betti == (1, 0, 1, 0, 1)
    assert tab.picard == 1
    assert tab.euler == 3


def test_invariants_refuse_non_cellular():
    v = VarietyClass(name="mystery", dim=2, cls=LPolynomial((1, 1, 1)), cellular=False)
    with pytest.raises(InvalidParameterError):
        invariants_table(v)


def test_invariants_json_round_trip():
    tab = invariants_table(construction_two_class(3))
    doc = tab.to_json()
    assert InvariantsTable.from_json(doc) == tab


def test_invariants_de_rham_flag_is_not_stored():
    # the flag holds for every cellular class, so it is a property, and a
    # document claiming otherwise is refused
    tab = invariants_table(construction_two_class(3))
    assert "hodge_de_rham_sum_equal" not in vars(tab)
    assert tab.to_json()["hodge_de_rham_sum_equal"] is True
    for flag in (False, None, 1, "true"):
        doc = dict(tab.to_json(), hodge_de_rham_sum_equal=flag)
        with pytest.raises(InvalidParameterError):
            InvariantsTable.from_json(doc)


def test_all_builtin_classes_palindromic_nonnegative():
    builtins = [
        projective_space_class(3),
        quadric_class(3),
        quadric_class(4),
        quadric_class(6),
        grassmannian_class(2, 4),
        flag_class_typeA(3),
        flag_class_typeA(4),
        construction_one_class(flag_class_typeA(3)),
        construction_one_class(quadric_class(3)),
        construction_two_class(2),
        construction_two_class(3),
        construction_two_class(5),
    ]
    for v in builtins:
        tab = invariants_table(v)
        assert tab.palindromic, v.name
        assert tab.nonnegative, v.name
        assert tab.hodge_de_rham_sum_equal, v.name
