"""Finite local rings Z/p^k and F_p[t]/(t^k), and projective geometry over them.

Both families are local with residue field F_p; an element is a unit exactly
when its residue is nonzero.  The first family has p * 1 != 0 as soon as
k >= 2 (in particular Z/p^2 is the ring of length-2 Witt vectors of F_p),
the second is the equicharacteristic control case with p * 1 = 0 always.

A `RingElem` stores one integer.  For Z/p^k it is the residue in [0, p^k);
for F_p[t]/(t^k) it packs the coefficients c0 + c1*t + ... by Kronecker
substitution, coefficient i in the w-bit digit at bit iW, so one integer
product is one polynomial product.  The spacing W = 2w + bitlen(p) leaves a
zero gap above each digit, room for the one multiply-shift that divides every
digit by p at once (the `LocalRing` comment has the proof).  `LocalRing` owns
the encoding: it packs outside input once `norm_rep` has checked it, unpacks
for `rep`, `to_json` and `str`, and gives the one reduction that every
operator and plane function calls (mod p^k, or each of the low k digits mod
p).  Subtraction adds the ring's bias first, a multiple of p in each digit
that keeps any digit from borrowing.  Projective points over a ring A carry
at least one unit coordinate and are normalized by scaling the first unit
coordinate to 1.  A point stores its coordinates' integers, normalized once;
`coords` wraps them as `RingElem`s only when read, and the renderers format
the integers.

Lines in the projective plane over A are represented by their dual
coordinate vectors.  Join and meet are then one kernel, `_span`, the
normalized cross product of two canonical coordinate-integer triples (two
points, or two line duals for a meet), and three points are collinear when
the cross product of two of them is orthogonal to the third; both read the
stored integers directly.  Join and meet read their residue test off the
cross product: it has a unit coordinate exactly when the two residues
differ.  The forced chain of `lift_checker` runs on the triples through
`_join` and `_meet`; the public functions wrap them in points and lines.
"""

import itertools

from .errors import (
    IndeterminateIntersectionError,
    IndeterminateSpanError,
    InvalidParameterError,
    NotAProjectivePointError,
    UndecidableCollinearityError,
    UnsupportedDimensionError,
    _Frozen,
    check_cap,
    read_back,
)
from .finite_geometry import MAX_DIM, ProjPointFp, _point, check_prime

KINDS = ("zpk", "fpt")

# Largest ring length k; the lift counts p^(2(k-1)) and the cost of a product
# over F_p[t]/(t^k) grow with it.
K_MAX = 8


class LocalRing(_Frozen):
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
            # below k(p-1)^2 + bias digit kp(p-1).  Digit i sits at bit
            # s_i = iW, W = 2w + l, l = bitlen(p).  Masking to `low` drops the
            # digits at and above k, which only carry or borrow upwards, and
            # a difference's negative high part.  One multiply-shift then
            # divides every digit d by p (Granlund-Montgomery): magic*p -
            # 2^(w+l) <= p < 2^l gives floor(d*magic / 2^(w+l)) = floor(d/p),
            # d*magic < 2^W keeps each product in its digit's W bits, and
            # after the shift digit i's fraction bits lie in [s_i - w - l, s_i),
            # clear of digit i-1's quotient bits [s_(i-1), s_(i-1) + w)
            # exactly because W >= 2w + l.
            w, l = (3 * k * p * p).bit_length(), p.bit_length()
            shifts, mask = tuple(range(0, (2 * w + l) * k, 2 * w + l)), (1 << w) - 1
            bias = sum(k * p * (p - 1) << s for s in shifts)
            low, magic, e = (1 << shifts[-1] + w) - 1, (1 << w + l) // p + 1, w + l
            qmask = sum(mask << s for s in shifts)
            def reduce(n):
                n &= low
                return n - p * ((n * magic) >> e & qmask)
            residue = mask.__and__
        super().__init__(kind, p, k, size, shifts, mask, bias, reduce, residue)

    def __reduce__(self):
        # the fpt reduction is a closure, so a ring is rebuilt from (kind, p, k)
        return LocalRing, (self.kind, self.p, self.k)

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
        if self.kind == "zpk":
            return n
        mask = self._mask
        return tuple([n >> s & mask for s in self._shifts])

    def _json(self, n):
        """The JSON form of a stored integer: the residue, or the coefficient list."""
        return n if self.kind == "zpk" else list(self._decode(n))

    def _text(self, n):
        """The text form of a stored integer, as `RingElem.__str__` prints it."""
        if self.kind == "zpk":
            return str(n)
        terms = [
            str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("t" if i == 1 else f"t^{i}")
            for i, c in enumerate(self._decode(n)) if c
        ]
        return " + ".join(terms) or "0"

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
        """The ring of a `to_json` document, read by `errors.read_back`."""
        return read_back(doc, lambda d: cls(d["kind"], d["p"], d["k"]), cls.to_json, "ring")


def ring_make(kind, p, k):
    """Construct one of the two supported coefficient rings."""
    return LocalRing(kind, p, k)


class RingElem(_Frozen):
    """An element of a LocalRing; its operators are the one arithmetic path.

    The element is the ring's integer `_n`; `rep` decodes it.
    """

    __slots__ = ("ring", "_n")

    def __init__(self, ring, rep):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_n", ring._encode(rep))

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
        if not self.is_unit:
            raise InvalidParameterError(f"{self.rep!r} is not a unit in {self.ring}")
        return _canonical(self.ring, _inverse(self.ring, self._n))

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._n == other._n and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring, self._n))

    def __repr__(self):
        return f"{self!s} in {self.ring}"

    def __str__(self):
        return self.ring._text(self._n)

    def to_json(self):
        return self.ring._json(self._n)


def _inverse(ring, n):
    """The inverse of the unit stored as n.  Over Z/p^k it is one modular
    inverse; over F_p[t]/(t^k), Newton's step b -> b(2 - nb) from the residue's
    inverse doubles the power of t that nb - 1 is divisible by."""
    if ring.kind == "zpk":
        return pow(n, -1, ring.size)
    reduce, bias = ring._reduce, ring._bias
    b = pow(ring._residue(n), -1, ring.p)
    for _ in range((ring.k - 1).bit_length()):
        b = reduce(b * reduce(2 + bias - n * b))
    return b


def _canonical(ring, n):
    """A RingElem over a stored integer that is reduced already."""
    elem = object.__new__(RingElem)
    object.__setattr__(elem, "ring", ring)
    object.__setattr__(elem, "_n", n)
    return elem


def _reduced(ring, n):
    """A RingElem over the reduction of an integer in the ring's encoding."""
    return _canonical(ring, ring._reduce(n))


class ProjPointA(_Frozen):
    """A point of P^n(A) in canonical form (first unit coordinate 1)."""

    __slots__ = ("ring", "_ns")

    def __init__(self, ring, coords):
        if not isinstance(ring, LocalRing) or not isinstance(coords, (tuple, list)):
            raise InvalidParameterError(
                "a point over A takes a LocalRing and a tuple or list of coordinates"
            )
        ns = []
        for c in coords:
            if not isinstance(c, RingElem):
                ns.append(ring._encode(c))
            elif c.ring is ring or c.ring == ring:
                ns.append(c._n)
            else:
                raise InvalidParameterError("coordinate from a different ring")
        if not 1 <= len(ns) - 1 <= MAX_DIM:
            raise UnsupportedDimensionError(
                f"projective points need 2 to {MAX_DIM + 1} coordinates, got {len(ns)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_ns", _normalize(ring, ns))

    @property
    def coords(self):
        return tuple(_canonical(self.ring, n) for n in self._ns)

    @property
    def dim(self):
        return len(self._ns) - 1

    def reduce(self):
        """Image in P^n(F_p) under the residue map."""
        return _point(tuple(map(self.ring._residue, self._ns)), self.ring.p)

    def __eq__(self, other):
        if not isinstance(other, ProjPointA):
            return NotImplemented
        return self._ns == other._ns and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring, self._ns))

    def _coords_text(self):
        """`a:b:c`, the renderers' form of the coordinates."""
        return ":".join([self.ring._text(n) for n in self._ns])

    def _coords_json(self):
        return [self.ring._json(n) for n in self._ns]

    def __repr__(self):
        return f"({self._coords_text()}) over {self.ring}"

    def to_json(self):
        return {"ring": self.ring.to_json(), "coords": self._coords_json()}

    @classmethod
    def from_json(cls, doc):
        """The point of a `to_json` document, read by `errors.read_back`."""
        return read_back(
            doc, lambda d: cls(LocalRing.from_json(d["ring"]), d["coords"]), cls.to_json, "point"
        )


def _normalize(ring, ns):
    """Stored coordinate integers scaled so that the first unit is 1."""
    residue = ring._residue
    for pivot in ns:
        if residue(pivot):
            reduce, inv = ring._reduce, _inverse(ring, pivot)
            return tuple([reduce(n * inv) for n in ns])
    raise NotAProjectivePointError(
        f"no unit coordinate in {[ring._text(n) for n in ns]} over {ring}"
    )


def _point_A(ring, ns):
    """A ProjPointA over stored integers already in canonical form, unchecked."""
    pt = object.__new__(ProjPointA)
    object.__setattr__(pt, "ring", ring)
    object.__setattr__(pt, "_ns", ns)
    return pt


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
    options = [[1] if i == pivot else map(ring._encode, ring.lifts_of_residue(c))
               for i, c in enumerate(x.coords)]
    return [_point_A(ring, combo) for combo in itertools.product(*options)]


def _same_plane_points(points):
    ring = points[0].ring if isinstance(points[0], ProjPointA) else None
    for x in points:
        if not isinstance(x, ProjPointA) or (x.ring is not ring and x.ring != ring):
            raise InvalidParameterError("points must share one coefficient ring")
        if len(x._ns) != 3:
            raise UnsupportedDimensionError(
                f"operation defined in ambient dimension 2, got {x.dim}"
            )
    return ring


def _residues(x):
    """The residues of a canonical point's coordinates, canonical over F_p too."""
    return list(map(x.ring._residue, x._ns))


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


def _span(ring, u, v):
    """The normalized cross product of two canonical coordinate-integer
    triples, or None if it has no unit coordinate.

    The residues of canonical triples are canonical over F_p, so the cross
    product has a unit coordinate exactly when the two residues differ.  For
    two points it is the dual of the line joining them; for two line duals
    it is the point where the lines meet.  The forced chain calls it twice a
    step, so the scaling by the first unit and both orthogonality checks are
    inlined here; `_normalize` and `_orthogonal` serve the other callers.
    """
    reduce, residue, bias = ring._reduce, ring._residue, ring._bias
    (u0, u1, u2), (v0, v1, v2) = u, v
    w0 = reduce(u1 * v2 + bias - u2 * v1)
    w1 = reduce(u2 * v0 + bias - u0 * v2)
    w2 = reduce(u0 * v1 + bias - u1 * v0)
    for pivot in (w0, w1, w2):
        if residue(pivot):
            inv = _inverse(ring, pivot)
            w0, w1, w2 = reduce(w0 * inv), reduce(w1 * inv), reduce(w2 * inv)
            assert not reduce(w0 * u0 + w1 * u1 + w2 * u2)
            assert not reduce(w0 * v0 + w1 * v1 + w2 * v2)
            return (w0, w1, w2)
    return None


def _join(ring, u, v):
    """The dual triple of the line through two point triples."""
    dual = _span(ring, u, v)
    if dual is None:
        raise IndeterminateSpanError(
            f"points reduce to the same residue point {_point_A(ring, u).reduce()!r};"
            " join not unique"
        )
    return dual


def _meet(ring, u, v):
    """The point triple where two lines, given by their dual triples, meet."""
    pt = _span(ring, u, v)
    if pt is None:
        raise IndeterminateIntersectionError(
            "lines reduce to the same residue line; intersection not unique"
        )
    return pt


def _is_at(ring, ns, ints):
    """Whether the canonical triple ns is the plane point (a*1 : b*1 : c*1) for
    integers (a, b, c) in [0, p] with a unit among them: the two triples'
    cross product vanishes, which for two triples with a unit coordinate is
    projective equality."""
    reduce, residue, bias = ring._reduce, ring._residue, ring._bias
    (u0, u1, u2), (v0, v1, v2) = ns, map(reduce, ints)
    return bool(residue(v0) or residue(v1) or residue(v2)) and not (
        reduce(u1 * v2 + bias - u2 * v1) or reduce(u2 * v0 + bias - u0 * v2)
        or reduce(u0 * v1 + bias - u1 * v0))


class LineA(_Frozen):
    """A line of P^2(A), represented by its dual coordinate vector."""

    __slots__ = ("dual",)

    def __init__(self, dual):
        if not isinstance(dual, ProjPointA) or dual.dim != 2:
            raise InvalidParameterError("a plane-line dual is a 3-coordinate point")
        object.__setattr__(self, "dual", dual)

    @property
    def ring(self):
        return self.dual.ring

    def contains(self, x):
        ring = _same_plane_points((self.dual, x))
        return _orthogonal(ring, self.dual._ns, x._ns)

    def __eq__(self, other):
        if not isinstance(other, LineA):
            return NotImplemented
        return self.dual == other.dual

    def __hash__(self):
        return hash(("LineA", self.dual))

    def __repr__(self):
        return f"LineA(dual={self.dual!r})"

    def to_json(self):
        return {"dual": self.dual._coords_json()}


def line_through_A(x, y):
    """The unique line of P^2(A) joining two points with distinct residues."""
    ring = _same_plane_points((x, y))
    return LineA(_point_A(ring, _join(ring, x._ns, y._ns)))


def line_intersect_A(l1, l2):
    """The unique intersection point of two lines with distinct residue duals."""
    if not isinstance(l1, LineA) or not isinstance(l2, LineA):
        raise InvalidParameterError("line_intersect_A expects LineA arguments")
    ring = _same_plane_points((l1.dual, l2.dual))
    return _point_A(ring, _meet(ring, l1.dual._ns, l2.dual._ns))


def collinear_A(x, y, z):
    """Determinant collinearity test for three plane points over A.

    The determinant is the cross product of x and y dotted with z; nonzero
    means not collinear, and zero means collinear once two residues differ.
    If all three residues coincide, y = x + πu and z = x + πv put it in
    π²·A, zero for every such triple when k <= 2, so a zero determinant
    there decides nothing and raises UndecidableCollinearityError.
    """
    ring = _same_plane_points((x, y, z))
    if not _orthogonal(ring, _cross(ring, x._ns, y._ns), z._ns):
        return False
    if _residues(x) == _residues(y) == _residues(z):
        raise UndecidableCollinearityError(
            f"all three points reduce to {x.reduce()!r} and the determinant vanishes;"
            " collinearity undecidable"
        )
    return True


def _line_violations(ring, pts):
    """The index triples a < b < c of `pts`, the images of one residue line's
    points, that fail `collinear_A`, in `itertools.combinations` order.

    If two images share a residue, each triple goes through `collinear_A`,
    which raises where it cannot decide.  Otherwise every triple is
    decidable and the join c of the first two images is unimodular (its
    residue is the join of two distinct points of P^2(F_p)).  If every image
    is orthogonal to c, each triple's matrix M has Mc = 0, so
    det(M)·c = adj(M)·Mc = 0 and det(M) = 0: no violation on the line.
    Otherwise each pair's cross product is computed once and dotted with
    every later image, which is `collinear_A`'s test.
    """
    ns = [x._ns for x in pts]
    if len({tuple(map(ring._residue, v)) for v in ns}) < len(ns):
        return [t for t in itertools.combinations(range(len(pts)), 3)
                if not collinear_A(*(pts[i] for i in t))]
    join = _cross(ring, ns[0], ns[1])
    if all(_orthogonal(ring, join, v) for v in ns[2:]):
        return []
    return [(a, b, c) for a, b in itertools.combinations(range(len(ns)), 2)
            for u in [_cross(ring, ns[a], ns[b])]
            for c, v in enumerate(ns[b + 1:], b + 1) if not _orthogonal(ring, u, v)]
