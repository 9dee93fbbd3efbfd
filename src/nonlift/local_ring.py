"""Finite local rings Z/p^k and F_p[t]/(t^k), and projective geometry over them.

Both families are local with residue field F_p; an element is a unit exactly
when its residue is nonzero.  The first family has p * 1 != 0 as soon as
k >= 2 (in particular Z/p^2 is the ring of length-2 Witt vectors of F_p),
the second is the equicharacteristic control case with p * 1 = 0 always.

A `RingElem` stores one integer.  For Z/p^k it is the residue in [0, p^k);
for F_p[t]/(t^k) it packs the coefficients c0 + c1*t + ... by Kronecker
substitution, coefficient i in the w-bit digit i, so one integer product is
one polynomial product.  `LocalRing` owns the encoding: it packs outside
input once `norm_rep` has checked it, unpacks for `rep`, `to_json` and `str`,
and gives the one reduction that every operator and plane function calls
(mod p^k, or each of the low k digits mod p).  Subtraction adds the ring's
bias first, a multiple of p in each digit that keeps any digit from
borrowing.  Projective points over a ring A carry at least one unit
coordinate and are normalized by scaling the first unit coordinate to 1.

Lines in the projective plane over A are represented by their dual
coordinate vectors.  Join and meet are then one operation, the normalized
cross product of two points with distinct residues (of two line duals, for
a meet), and three points are collinear when the cross product of two of
them is orthogonal to the third; both read the stored integers directly.
Residue tests compare residue lists.
"""

from __future__ import annotations

import itertools

from .errors import (
    IndeterminateIntersectionError,
    IndeterminateSpanError,
    InvalidParameterError,
    NotAProjectivePointError,
    UndecidableCollinearityError,
    UnsupportedDimensionError,
    check_cap,
)
from .finite_geometry import MAX_DIM, ProjPointFp, check_prime

KINDS = ("zpk", "fpt")

# Largest ring length k; the lift counts p^(2(k-1)) and the cost of a product
# over F_p[t]/(t^k) grow with it.
K_MAX = 8


class LocalRing:
    """One of the two coefficient ring families, fixed by (kind, p, k)."""

    __slots__ = ("kind", "p", "k", "size", "_shifts", "_mask", "_bias", "_reduce", "_residue")

    def __init__(self, kind, p, k):
        if kind not in KINDS:
            raise InvalidParameterError(f"ring kind must be one of {KINDS}, got {kind!r}")
        check_prime(p)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidParameterError(f"ring length k must be an integer >= 1, got {k!r}")
        check_cap(k, K_MAX, "ring length")
        size = p**k
        if kind == "zpk":
            # one digit: % maps any integer, a negative difference too, to its
            # residue, so no bias is needed
            shifts, mask, bias = None, None, 0
            reduce, residue = size.__rmod__, p.__rmod__
        else:
            # Digits of unreduced values stay below 2^w: a product's are at
            # most k(p-1)^2, a dot product's 3k(p-1)^2, and a difference's
            # below k(p-1)^2 + bias digit kp(p-1).  Digits at and above k
            # only carry or borrow upwards, so masking the low k discards them.
            w = (3 * k * p * p).bit_length()
            shifts, mask = range(0, w * k, w), (1 << w) - 1
            bias = sum(k * p * (p - 1) << s for s in shifts)
            def reduce(n):
                return sum((n >> s & mask) % p << s for s in shifts)
            residue = mask.__and__
        values = (kind, p, k, size, shifts, mask, bias, reduce, residue)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LocalRing is immutable")

    def norm_rep(self, rep):
        """Canonicalize a raw representation (int, or coefficient sequence)."""
        if self.kind == "zpk":
            if not isinstance(rep, int) or isinstance(rep, bool):
                raise InvalidParameterError(f"Z/p^k element must be an integer, got {rep!r}")
            return rep % self.size
        if isinstance(rep, int) and not isinstance(rep, bool):
            rep = (rep,)
        if not isinstance(rep, (tuple, list)) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in rep
        ):
            raise InvalidParameterError(f"F_p[t]/(t^k) coefficients must be integers, got {rep!r}")
        rep = tuple(c % self.p for c in rep)
        if len(rep) > self.k:
            raise InvalidParameterError(f"coefficient vector longer than k={self.k}: {rep!r}")
        return rep + (0,) * (self.k - len(rep))

    def _encode(self, rep):
        """The stored integer of a raw representation checked by `norm_rep`."""
        rep = self.norm_rep(rep)
        return rep if self.kind == "zpk" else sum(c << s for c, s in zip(rep, self._shifts))

    def _decode(self, n):
        """The canonical representation of a stored integer."""
        return n if self.kind == "zpk" else tuple(n >> s & self._mask for s in self._shifts)

    def reps(self):
        """All raw representations in ascending lexicographic order."""
        if self.kind == "zpk":
            return list(range(self.size))
        return list(itertools.product(range(self.p), repeat=self.k))

    def lifts_of_residue(self, r):
        """All representations reducing to residue r, ascending."""
        r = int(r) % self.p
        if self.kind == "zpk":
            return [r + self.p * m for m in range(self.p ** (self.k - 1))]
        return [(r,) + tail for tail in itertools.product(range(self.p), repeat=self.k - 1)]

    # -- element interface -------------------------------------------------

    def elem(self, value):
        """Wrap an integer n (meaning n * 1) or a raw representation."""
        return RingElem(self, value)

    @property
    def zero(self):
        return RingElem(self, 0)

    @property
    def one(self):
        return RingElem(self, 1)

    @property
    def p_one(self):
        """The element p * 1, whose vanishing is the whole story."""
        return RingElem(self, self.p)

    @property
    def p_vanishes(self):
        return self.p_one == self.zero

    def elements(self):
        return [RingElem(self, rep) for rep in self.reps()]

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LocalRing):
            return NotImplemented
        return (self.kind, self.p, self.k) == (other.kind, other.p, other.k)

    def __hash__(self):
        return hash((self.kind, self.p, self.k))

    def __repr__(self):
        return f"LocalRing({self.kind!r}, p={self.p}, k={self.k})"

    def __str__(self):
        if self.kind == "zpk":
            return f"Z/{self.size}"
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}[t]/(t^{self.k})"

    def to_json(self):
        return {"kind": self.kind, "p": self.p, "k": self.k}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["kind"], doc["p"], doc["k"])


def ring_make(kind, p, k):
    """Construct one of the two supported coefficient rings."""
    return LocalRing(kind, p, k)


class RingElem:
    """An element of a LocalRing; its operators are the one arithmetic path.

    The element is the ring's integer `_n`; `rep` decodes it.
    """

    __slots__ = ("ring", "_n")

    def __init__(self, ring, rep):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_n", ring._encode(rep))

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    @property
    def rep(self):
        return self.ring._decode(self._n)

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise InvalidParameterError("elements of different rings")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return RingElem(self.ring, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _reduced(self.ring, self._n + other._n)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._minus(self._n)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._minus(other._n)

    def _minus(self, n):
        """n minus this element, n a stored integer of the same ring."""
        return _reduced(self.ring, n + self.ring._bias - self._n)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _reduced(self.ring, self._n * other._n)

    __rmul__ = __mul__

    def __neg__(self):
        return self._minus(0)

    @property
    def is_unit(self):
        return self.residue != 0

    @property
    def is_zero(self):
        return self._n == 0

    @property
    def residue(self):
        return self.ring._residue(self._n)

    def inverse(self):
        """Newton's step b -> b(2 - ab) from the residue's inverse, which
        doubles the power of p (or t) that ab - 1 is divisible by."""
        ring, n = self.ring, self._n
        if not self.is_unit:
            raise InvalidParameterError(f"{self.rep!r} is not a unit in {ring}")
        reduce, bias = ring._reduce, ring._bias
        b = pow(self.residue, -1, ring.p)
        for _ in range((ring.k - 1).bit_length()):
            b = reduce(b * reduce(2 + bias - n * b))
        return _canonical(ring, b)

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._n == other._n and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring, self._n))

    def __repr__(self):
        return f"{self!s} in {self.ring}"

    def __str__(self):
        if self.ring.kind == "zpk":
            return str(self._n)
        terms = [
            str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("t" if i == 1 else f"t^{i}")
            for i, c in enumerate(self.rep) if c
        ]
        return " + ".join(terms) or "0"

    def to_json(self):
        return self._n if self.ring.kind == "zpk" else list(self.rep)


def _canonical(ring, n):
    """A RingElem over a stored integer that is reduced already."""
    elem = object.__new__(RingElem)
    object.__setattr__(elem, "ring", ring)
    object.__setattr__(elem, "_n", n)
    return elem


def _reduced(ring, n):
    """A RingElem over the reduction of an integer in the ring's encoding."""
    return _canonical(ring, ring._reduce(n))


class ProjPointA:
    """A point of P^n(A) in canonical form (first unit coordinate 1)."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        elems = [c if isinstance(c, RingElem) else RingElem(ring, c) for c in coords]
        if any(c.ring is not ring and c.ring != ring for c in elems):
            raise InvalidParameterError("coordinate from a different ring")
        if not 1 <= len(elems) - 1 <= MAX_DIM:
            raise UnsupportedDimensionError(
                f"projective points need 2 to {MAX_DIM + 1} coordinates, got {len(elems)}"
            )
        pivot = next((i for i, c in enumerate(elems) if c.is_unit), None)
        if pivot is None:
            raise NotAProjectivePointError(
                f"no unit coordinate in {[str(c) for c in elems]} over {ring}"
            )
        inv = elems[pivot].inverse()._n
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", tuple(_reduced(ring, c._n * inv) for c in elems))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPointA is immutable")

    @property
    def dim(self):
        return len(self.coords) - 1

    def reduce(self):
        """Image in P^n(F_p) under the residue map."""
        return ProjPointFp(tuple(c.residue for c in self.coords), self.ring.p)

    def __eq__(self, other):
        if not isinstance(other, ProjPointA):
            return NotImplemented
        return self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, tuple(c._n for c in self.coords)))

    def __repr__(self):
        return f"({':'.join(str(c) for c in self.coords)}) over {self.ring}"

    def to_json(self):
        return {"ring": self.ring.to_json(), "coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, doc):
        ring = LocalRing.from_json(doc["ring"])
        return cls(ring, doc["coords"])


def enumerate_lifts(x, ring):
    """All points of P^2(A) reducing to the plane point x, ascending.

    The canonical form fixes the pivot coordinate to 1; every coordinate
    before it runs over the maximal ideal and every one after it over the
    lifts of its residue, p^(2(k-1)) points in total.
    """
    if not isinstance(x, ProjPointFp):
        raise InvalidParameterError("enumerate_lifts expects a ProjPointFp")
    if x.dim != 2:
        raise UnsupportedDimensionError("enumerate_lifts is defined in ambient dimension 2")
    if ring.p != x.p:
        raise InvalidParameterError(
            f"residue characteristics differ: point over F_{x.p}, ring {ring}"
        )
    pivot = next(i for i, c in enumerate(x.coords) if c)
    options = [[1] if i == pivot else ring.lifts_of_residue(c) for i, c in enumerate(x.coords)]
    return [ProjPointA(ring, combo) for combo in itertools.product(*options)]


def _same_plane_points(points):
    ring = points[0].ring
    for x in points:
        if not isinstance(x, ProjPointA) or (x.ring is not ring and x.ring != ring):
            raise InvalidParameterError("points must share one coefficient ring")
        if len(x.coords) != 3:
            raise UnsupportedDimensionError(
                f"operation defined in ambient dimension 2, got {x.dim}"
            )
    return ring


def _residues(x):
    """The residues of a canonical point's coordinates, canonical over F_p too."""
    return [c.residue for c in x.coords]


def _ints(x):
    """The stored integers of a point's coordinates."""
    return [c._n for c in x.coords]


def _cross(ring, u, v):
    """The reduced cross product of two coordinate-integer triples."""
    reduce, bias = ring._reduce, ring._bias
    u0, u1, u2 = u
    v0, v1, v2 = v
    return [
        reduce(u1 * v2 + bias - u2 * v1),
        reduce(u2 * v0 + bias - u0 * v2),
        reduce(u0 * v1 + bias - u1 * v0),
    ]


def _orthogonal(ring, u, v):
    """Whether two coordinate-integer triples have zero dot product."""
    return not ring._reduce(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])


def _cross_point(x, y, error, message):
    """The normalized cross product of two plane points with distinct residues.

    For two points it is the dual of the line joining them; for two line
    duals it is the point where the lines meet.  Equal residues raise
    `error(message)`, with the shared residue filled into `message`.
    """
    ring = _same_plane_points((x, y))
    if _residues(x) == _residues(y):
        raise error(message.format(x.reduce()))
    u, v = _ints(x), _ints(y)
    out = ProjPointA(ring, [_canonical(ring, n) for n in _cross(ring, u, v)])
    dual = _ints(out)
    assert _orthogonal(ring, dual, u) and _orthogonal(ring, dual, v)
    return out


class LineA:
    """A line of P^2(A), represented by its dual coordinate vector."""

    __slots__ = ("dual",)

    def __init__(self, dual):
        if not isinstance(dual, ProjPointA) or dual.dim != 2:
            raise InvalidParameterError("a plane-line dual is a 3-coordinate point")
        object.__setattr__(self, "dual", dual)

    def __setattr__(self, name, value):
        raise AttributeError("LineA is immutable")

    @property
    def ring(self):
        return self.dual.ring

    def contains(self, x):
        ring = _same_plane_points((self.dual, x))
        return _orthogonal(ring, _ints(self.dual), _ints(x))

    def __eq__(self, other):
        if not isinstance(other, LineA):
            return NotImplemented
        return self.dual == other.dual

    def __hash__(self):
        return hash(("LineA", self.dual))

    def __repr__(self):
        return f"LineA(dual={self.dual!r})"

    def to_json(self):
        return {"dual": [c.to_json() for c in self.dual.coords]}


def line_through_A(x, y):
    """The unique line of P^2(A) joining two points with distinct residues."""
    return LineA(_cross_point(
        x, y, IndeterminateSpanError,
        "points reduce to the same residue point {!r}; join not unique",
    ))


def line_intersect_A(l1, l2):
    """The unique intersection point of two lines with distinct residue duals."""
    if not isinstance(l1, LineA) or not isinstance(l2, LineA):
        raise InvalidParameterError("line_intersect_A expects LineA arguments")
    return _cross_point(
        l1.dual, l2.dual, IndeterminateIntersectionError,
        "lines reduce to the same residue line; intersection not unique",
    )


def collinear_A(x, y, z):
    """Determinant collinearity test for three plane points over A.

    The determinant is the cross product of x and y dotted with z; nonzero
    means not collinear, and zero means collinear once two residues differ.
    If all three residues coincide, y = x + πu and z = x + πv put it in
    π²·A, zero for every such triple when k <= 2, so a zero determinant
    there decides nothing and raises UndecidableCollinearityError.
    """
    ring = _same_plane_points((x, y, z))
    if not _orthogonal(ring, _cross(ring, _ints(x), _ints(y)), _ints(z)):
        return False
    if _residues(x) == _residues(y) == _residues(z):
        raise UndecidableCollinearityError(
            f"all three points reduce to {x.reduce()!r} and the determinant vanishes;"
            " collinearity undecidable"
        )
    return True
