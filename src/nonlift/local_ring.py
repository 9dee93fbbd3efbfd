"""Finite local rings Z/p^k and F_p[t]/(t^k), and projective geometry over them.

Both families are local with residue field F_p; an element is a unit exactly
when its residue is nonzero.  The first family has p * 1 != 0 as soon as
k >= 2 (in particular Z/p^2 is the ring of length-2 Witt vectors of F_p),
the second is the equicharacteristic control case with p * 1 = 0 always.

Elements are represented exactly: an integer in [0, p^k) for Z/p^k, and a
length-k tuple of coefficients (c0 + c1*t + ... ) with entries in [0, p)
for F_p[t]/(t^k).  `RingElem` is the one arithmetic path: its operators
compute on that representation and build canonical results, so
`LocalRing.norm_rep` checks only input from outside.  Projective points over
a ring A carry at least one unit coordinate and are normalized by scaling
the first unit coordinate to 1.

Lines in the projective plane over A are represented by their dual
coordinate vectors.  Join and meet are then one operation, the normalized
cross product of two points with distinct residues (of two line duals, for
a meet), and three points are collinear when the cross product of two of
them is orthogonal to the third.  That kernel computes on integers: a Z/p^k
representation is one already, and an F_p[t]/(t^k) element is packed by
Kronecker substitution (a w-bit digit per coefficient), so one integer product
is one truncated polynomial product.  Residue tests compare residue tuples.
"""

from __future__ import annotations

import functools
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

    __slots__ = ("kind", "p", "k", "size")

    def __init__(self, kind, p, k):
        if kind not in KINDS:
            raise InvalidParameterError(f"ring kind must be one of {KINDS}, got {kind!r}")
        check_prime(p)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidParameterError(f"ring length k must be an integer >= 1, got {k!r}")
        check_cap(k, K_MAX, "ring length")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "size", p**k)

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
            raise InvalidParameterError(
                f"coefficient vector longer than k={self.k}: {rep!r}"
            )
        return rep + (0,) * (self.k - len(rep))

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
    """An element of a LocalRing; its operators are the one arithmetic path."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring, rep):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rep", ring.norm_rep(rep))

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise InvalidParameterError("elements of different rings")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return RingElem(self.ring, other)
        return None

    def _sum(self, other, sign):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring
        if ring.kind == "zpk":
            return _canonical(ring, (self.rep + sign * other.rep) % ring.size)
        p = ring.p
        return _canonical(ring, tuple((x + sign * y) % p for x, y in zip(self.rep, other.rep)))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring, a, b = self.ring, self.rep, other.rep
        if ring.kind == "zpk":
            return _canonical(ring, (a * b) % ring.size)
        p, k = ring.p, ring.k
        out = [0] * k
        for i, x in enumerate(a):
            if x:
                for j in range(k - i):
                    out[i + j] = (out[i + j] + x * b[j]) % p
        return _canonical(ring, tuple(out))

    __rmul__ = __mul__

    def __neg__(self):
        ring = self.ring
        if ring.kind == "zpk":
            return _canonical(ring, (-self.rep) % ring.size)
        p = ring.p
        return _canonical(ring, tuple((-x) % p for x in self.rep))

    @property
    def is_unit(self):
        return self.residue != 0

    @property
    def is_zero(self):
        return self.rep == 0 if self.ring.kind == "zpk" else not any(self.rep)

    @property
    def residue(self):
        return self.rep % self.ring.p if self.ring.kind == "zpk" else self.rep[0]

    def inverse(self):
        ring, a = self.ring, self.rep
        if not self.is_unit:
            raise InvalidParameterError(f"{a!r} is not a unit in {ring}")
        if ring.kind == "zpk":
            return _canonical(ring, pow(a, -1, ring.size))
        p = ring.p
        b = [pow(a[0], -1, p)]
        for m in range(1, ring.k):
            s = sum(a[i] * b[m - i] for i in range(1, m + 1)) % p
            b.append((-b[0] * s) % p)
        return _canonical(ring, tuple(b))

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.rep == other.rep and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __repr__(self):
        return f"{self!s} in {self.ring}"

    def __str__(self):
        if self.ring.kind == "zpk":
            return str(self.rep)
        terms = []
        for i, c in enumerate(self.rep):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return self.rep if self.ring.kind == "zpk" else list(self.rep)


def _canonical(ring, rep):
    """A RingElem over a representation that is canonical by construction."""
    elem = object.__new__(RingElem)
    object.__setattr__(elem, "ring", ring)
    object.__setattr__(elem, "rep", rep)
    return elem


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
        inv = elems[pivot].inverse()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", tuple(c * inv for c in elems))

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
        return hash((self.ring, tuple(c.rep for c in self.coords)))

    def __repr__(self):
        return f"({':'.join(str(c) for c in self.coords)}) over {self.ring}"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "coords": [c.to_json() for c in self.coords],
        }

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


@functools.lru_cache(maxsize=None)
def _plane_kernel(ring):
    """Plane incidence over `ring` on integers: (pack, unpack, cross, orthogonal).

    `pack` maps coordinates to kernel integers, `unpack` a canonical one back
    to an element; `cross` and `orthogonal` work on packed triples.
    """
    if ring.kind == "zpk":
        size = ring.size
        def pack(coords):
            return [c.rep for c in coords]
        def unpack(n):
            return _canonical(ring, n)
        def sub(pos, neg):
            return (pos - neg) % size
    else:
        # Kronecker substitution: digit i, w bits wide, holds the coefficient
        # of t^i.  A product of packed elements, or a sum of three, has digits
        # below 3k(p-1)^2 < 2^(w-1): no carry crosses a digit, so digits
        # 0..k-1 are the truncated product.
        p, k = ring.p, ring.k
        w = (3 * k * (p - 1) ** 2).bit_length() + 1
        mask, shifts = (1 << w) - 1, range(0, w * k, w)
        def pack(coords):
            return [sum(c << s for c, s in zip(x.rep, shifts)) for x in coords]
        def unpack(n):
            return _canonical(ring, tuple(n >> s & mask for s in shifts))
        def sub(pos, neg):
            return sum(((pos >> s & mask) - (neg >> s & mask)) % p << s for s in shifts)

    def cross(u, v):
        u0, u1, u2 = u
        v0, v1, v2 = v
        return [sub(u1 * v2, u2 * v1), sub(u2 * v0, u0 * v2), sub(u0 * v1, u1 * v0)]

    def orthogonal(u, v):
        return not sub(u[0] * v[0] + u[1] * v[1] + u[2] * v[2], 0)

    return pack, unpack, cross, orthogonal


def _cross_point(x, y, error, message):
    """The normalized cross product of two plane points with distinct residues.

    For two points it is the dual of the line joining them; for two line
    duals it is the point where the lines meet.  Equal residues raise
    `error(message)`, with the shared residue filled into `message`.
    """
    ring = _same_plane_points((x, y))
    if _residues(x) == _residues(y):
        raise error(message.format(x.reduce()))
    pack, unpack, cross, orthogonal = _plane_kernel(ring)
    u, v = pack(x.coords), pack(y.coords)
    out = ProjPointA(ring, [unpack(n) for n in cross(u, v)])
    dual = pack(out.coords)
    assert orthogonal(dual, u) and orthogonal(dual, v)
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
        pack, _, _, orthogonal = _plane_kernel(_same_plane_points((self.dual, x)))
        return orthogonal(pack(self.dual.coords), pack(x.coords))

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
    pack, _, cross, orthogonal = _plane_kernel(_same_plane_points((x, y, z)))
    if not orthogonal(cross(pack(x.coords), pack(y.coords)), pack(z.coords)):
        return False
    if _residues(x) == _residues(y) == _residues(z):
        raise UndecidableCollinearityError(
            f"all three points reduce to {x.reduce()!r} and the determinant vanishes;"
            " collinearity undecidable"
        )
    return True
