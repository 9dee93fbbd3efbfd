"""Exact projective geometry over prime fields in ambient dimension up to 3.

Points of P^n(F_p) are kept in a canonical form, scaling the first nonzero
coordinate to 1, which makes representatives unique, hashable, and totally
ordered by their coordinate tuples.  Lines are stored extensionally as their
p+1 member points in sorted order; planes of P^3 are represented through
their dual points.  Everything is small exact integer arithmetic.

The counts work out to 1 + p + ... + p^n points in P^n, the same number of
planes as points in P^3 by duality, and 1 + p + 2p^2 + p^3 + p^4 lines in
P^3 (the lines form the Grassmannian of 2-subspaces of a 4-space).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .errors import (
    DegenerateSpanError,
    InvalidParameterError,
    UnsupportedDimensionError,
    check_cap,
    read_back,
)

MAX_DIM = 3
P_MAX = 2**40  # trial division takes about 0.3 s at the cap
# Largest configuration built, counted in inclusions before anything is
# enumerated: (p^2+p+1)(p+1) in the plane, which mp_configuration scans too;
# in P^3 the point-line, point-plane and line-plane pairs each number
# (p^2+1)(p^2+p+1)(p+1).  Admits the plane to p = 61 and P^3 to p = 7.
INCLUSIONS_MAX = 250_000


def check_prime(p):
    """Validate p (at most P_MAX) by trial division and return it unchanged."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InvalidParameterError(f"p must be an integer, got {p!r}")
    if p < 2:
        raise InvalidParameterError(f"p must be a prime >= 2, got {p}")
    check_cap(p, P_MAX, "prime p")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise InvalidParameterError(f"p must be prime, got {p} = {d} * {p // d}")
        d += 1
    return p


def _check_dim(n, *, low=0):
    if not isinstance(n, int) or isinstance(n, bool) or n < low:
        raise InvalidParameterError(f"ambient dimension must be an integer >= {low}, got {n!r}")
    if n > MAX_DIM:
        raise UnsupportedDimensionError(f"ambient dimension {n} not supported (max {MAX_DIM})")
    return n


class ProjPointFp:
    """A point of P^n(F_p) in canonical form (first nonzero coordinate 1)."""

    __slots__ = ("p", "coords")

    def __init__(self, coords, p):
        check_prime(p)
        coords = tuple(coords)
        _check_dim(len(coords) - 1)
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise InvalidParameterError(f"point coordinates must be integers, got {c!r}")
        reduced = tuple(c % p for c in coords)
        pivot = next((i for i, c in enumerate(reduced) if c), None)
        if pivot is None:
            raise InvalidParameterError("all coordinates vanish; not a projective point")
        inv = pow(reduced[pivot], -1, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", tuple((c * inv) % p for c in reduced))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPointFp is immutable")

    @property
    def dim(self):
        return len(self.coords) - 1

    def __eq__(self, other):
        if not isinstance(other, ProjPointFp):
            return NotImplemented
        return self.p == other.p and self.coords == other.coords

    def __hash__(self):
        return hash((self.p, self.coords))

    def __lt__(self, other):
        if not isinstance(other, ProjPointFp) or other.p != self.p:
            return NotImplemented
        return self.coords < other.coords

    def __le__(self, other):
        if not isinstance(other, ProjPointFp) or other.p != self.p:
            return NotImplemented
        return self.coords <= other.coords

    def __repr__(self):
        return f"({':'.join(str(c) for c in self.coords)})/F{self.p}"


def _dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


class LineFp:
    """A line of P^n(F_p), stored extensionally as its p+1 sorted points."""

    __slots__ = ("p", "points")

    def __init__(self, points):
        points = tuple(sorted(points))
        if not points:
            raise InvalidParameterError("a line needs points")
        p = points[0].p
        dim = points[0].dim
        for pt in points:
            if pt.p != p or pt.dim != dim:
                raise InvalidParameterError("line points must share one ambient space")
        if len(set(points)) != p + 1:
            raise InvalidParameterError(
                f"a line over F_{p} has exactly {p + 1} distinct points, got {len(set(points))}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "points", points)

    def __setattr__(self, name, value):
        raise AttributeError("LineFp is immutable")

    @property
    def dim(self):
        return self.points[0].dim

    def __contains__(self, pt):
        i = bisect_left(self.points, pt)
        return i < len(self.points) and self.points[i] == pt

    def __eq__(self, other):
        if not isinstance(other, LineFp):
            return NotImplemented
        return self.p == other.p and self.points == other.points

    def __hash__(self):
        return hash((self.p, self.points))

    def __lt__(self, other):
        if not isinstance(other, LineFp) or other.p != self.p:
            return NotImplemented
        return self._key() < other._key()

    def _key(self):
        return tuple(pt.coords for pt in self.points)

    def __repr__(self):
        return f"LineFp[{', '.join(repr(pt) for pt in self.points)}]"


def _span(u, v, p):
    """The line spanned by coordinate vectors u and v: v, then u + t*v for t in F_p."""
    members = [ProjPointFp(v, p)]
    for t in range(p):
        members.append(ProjPointFp(tuple(a + t * b for a, b in zip(u, v)), p))
    return LineFp(members)


def line_through(x, y):
    """The unique line joining two distinct points.

    Raises DegenerateSpanError when x == y.
    """
    if not isinstance(x, ProjPointFp) or not isinstance(y, ProjPointFp):
        raise InvalidParameterError("line_through expects ProjPointFp arguments")
    if x.p != y.p or x.dim != y.dim:
        raise InvalidParameterError("points live in different ambient spaces")
    if x == y:
        raise DegenerateSpanError(f"coincident points {x!r} span no line")
    return _span(x.coords, y.coords, x.p)


def _rank(pts, kind):
    p = pts[0].p
    dim = pts[0].dim
    for pt in pts:
        if not isinstance(pt, ProjPointFp) or pt.p != p or pt.dim != dim:
            raise InvalidParameterError(f"{kind} expects points of one ambient space")
    return len(_row_reduce([pt.coords for pt in pts], p)[1])


def collinear(x, y, z):
    """Whether three (not necessarily distinct) points lie on one line.

    Decided exactly as rank of the 3 x (n+1) coordinate matrix being at
    most 2; symmetric in the arguments.
    """
    return _rank((x, y, z), "collinear") <= 2


def coplanar(x, y, z, w):
    """Whether four points of P^3(F_p) lie on one plane.

    Decided, like `collinear`, by the rank of the coordinate matrix mod p
    being at most 3.
    """
    rank = _rank((x, y, z, w), "coplanar")
    if x.dim != 3:
        raise UnsupportedDimensionError("coplanar is defined in ambient dimension 3")
    return rank <= 3


def _row_reduce(rows, p):
    """Reduced row echelon form mod p: (nonzero rows, their pivot columns)."""
    mat = [[v % p for v in r] for r in rows]
    pivots = []
    for col in range(len(mat[0])):
        row = len(pivots)
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(v * inv) % p for v in mat[row]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != row and f:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _kernel(rows, p):
    """A basis of the null space mod p, one vector per free column."""
    reduced, pivots = _row_reduce(rows, p)
    cols = len(rows[0])
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[free] = 1
        for r, col in zip(reduced, pivots):
            vec[col] = -r[free] % p
        basis.append(tuple(vec))
    return basis


def enumerate_points(n, p):
    """All points of P^n(F_p) in ascending lexicographic coordinate order."""
    check_prime(p)
    _check_dim(n)
    out = []
    for pivot in range(n, -1, -1):
        prefix = (0,) * pivot + (1,)
        for tail in itertools.product(range(p), repeat=n - pivot):
            out.append(ProjPointFp(prefix + tail, p))
    return out


def enumerate_lines(n, p):
    """All lines of P^n(F_p), n in {2, 3}, each exactly once, sorted.

    Lines correspond to reduced row echelon 2 x (n+1) matrices; expanding
    each echelon basis gives every member point already in canonical form,
    so no normalization or deduplication is needed.
    """
    check_prime(p)
    _check_dim(n, low=2)
    cols = n + 1
    lines = []
    for a in range(cols):
        for b in range(a + 1, cols):
            free0 = [j for j in range(a + 1, cols) if j != b]
            free1 = [j for j in range(b + 1, cols)]
            for vals0 in itertools.product(range(p), repeat=len(free0)):
                r0 = [0] * cols
                r0[a] = 1
                for j, v in zip(free0, vals0):
                    r0[j] = v
                for vals1 in itertools.product(range(p), repeat=len(free1)):
                    r1 = [0] * cols
                    r1[b] = 1
                    for j, v in zip(free1, vals1):
                        r1[j] = v
                    lines.append(_span(r0, r1, p))
    lines.sort()
    return lines


def point_line_counts(n, p):
    """(points, lines) of P^n(F_p), n in {2, 3}, by the closed formulas."""
    check_prime(p)
    _check_dim(n, low=2)
    points = sum(p**i for i in range(n + 1))
    lines = points if n == 2 else 1 + p + 2 * p**2 + p**3 + p**4
    return points, lines


def line_dual(line):
    """Dual point of a line in P^2 (coefficients of its linear equation)."""
    if line.dim != 2:
        raise UnsupportedDimensionError("line duals live in ambient dimension 2")
    (d,) = _kernel([pt.coords for pt in line.points[:2]], line.p)
    return ProjPointFp(d, line.p)


def line_from_dual(d):
    """Line of P^2 cut out by the linear form with coefficient vector d."""
    if d.dim != 2:
        raise UnsupportedDimensionError("line duals live in ambient dimension 2")
    u, v = _kernel([d.coords], d.p)
    return _span(u, v, d.p)


@dataclass(frozen=True)
class PlaneFp:
    """A plane of P^3(F_p), given by its dual point."""

    dual: ProjPointFp


@dataclass(frozen=True)
class IncidenceConfig:
    """A finite point-line(-plane) configuration with its strict inclusions.

    Inclusions are child/parent pairs over a concatenated global index
    space: points first, then lines, then planes.  Only strict containments
    are listed (the reflexive closure is implicit); together with the
    point-in-plane pairs this makes the listed relation transitive.
    """

    dim: int
    p: int
    points: tuple
    lines: tuple
    planes: tuple = ()
    inclusions: tuple = ()

    @property
    def line_offset(self):
        return len(self.points)

    @property
    def plane_offset(self):
        return len(self.points) + len(self.lines)

    def to_json(self):
        # a line's or plane's members are the points its inclusions name
        off = self.line_offset
        members = [[] for _ in (*self.lines, *self.planes)]
        for child, parent in self.inclusions:
            if child < off <= parent:
                members[parent - off].append(child)
        return {
            "dim": self.dim,
            "p": self.p,
            "points": [list(pt.coords) for pt in self.points],
            "lines": [sorted(m) for m in members[: len(self.lines)]],
            "planes": [sorted(m) for m in members[len(self.lines):]],
            "inclusions": [list(pair) for pair in self.inclusions],
        }

    @classmethod
    def from_json(cls, doc):
        """The configuration of a `to_json` document, read by `errors.read_back`.

        Each line is the join of its first two listed members, each plane the
        one through its members, and `from_members` derives everything else.
        Before any line is joined, p must pass the cap every writer applies,
        and the lines may hold at most INCLUSIONS_MAX points in all.
        """
        def build(d):
            p = check_prime(d["p"])
            _check_config_size(d["dim"], p)
            check_cap(len(d["lines"]) * (p + 1), INCLUSIONS_MAX, "configuration line points")
            points = [ProjPointFp(c, p) for c in d["points"]]
            lines = [line_through(*(points[i] for i in members[:2])) for members in d["lines"]]
            planes = [
                PlaneFp(_plane_dual_from_members([points[i] for i in members], p))
                for members in d["planes"]
            ]
            return cls.from_members(points, lines, planes)

        return read_back(doc, build, cls.to_json, "configuration")

    @classmethod
    def from_members(cls, points, lines, planes=()):
        """Configuration of the given points, lines and planes.

        Lists every point of `points` on each line and plane, then every
        line lying in each plane; line members outside `points` are left out.
        The points must be distinct and of one space, the lines distinct (by
        their first two points) and the planes distinct (by their duals).
        """
        idx = {pt: i for i, pt in enumerate(points)}
        if len(idx) != len(points) or len({(pt.p, pt.dim) for pt in points}) != 1:
            raise InvalidParameterError("configuration points must be distinct, in one space")
        if (len({line.points[:2] for line in lines}) != len(lines)
                or len({plane.dual for plane in planes}) != len(planes)):
            raise InvalidParameterError("configuration lines and planes must be distinct")
        line_off = len(points)
        plane_off = line_off + len(lines)
        inclusions = [
            (idx[pt], line_off + li)
            for li, line in enumerate(lines)
            for pt in line.points
            if pt in idx
        ]
        on_plane = [
            [i for i, pt in enumerate(points) if _dot(plane.dual.coords, pt.coords, pt.p) == 0]
            for plane in planes
        ]
        for pi, members in enumerate(on_plane):
            inclusions.extend((i, plane_off + pi) for i in members)
        for pi, members in enumerate(on_plane):
            member_set = set(members)
            for li, line in enumerate(lines):
                a, b = line.points[0], line.points[1]
                if idx[a] in member_set and idx[b] in member_set:
                    inclusions.append((line_off + li, plane_off + pi))
        return cls(
            dim=points[0].dim,
            p=points[0].p,
            points=tuple(points),
            lines=tuple(lines),
            planes=tuple(planes),
            inclusions=tuple(inclusions),
        )


def _plane_dual_from_members(members, p):
    basis = _kernel([pt.coords for pt in members], p) if members else ()
    if len(basis) != 1:
        raise InvalidParameterError("plane members do not lie on exactly one plane")
    return ProjPointFp(basis[0], p)


def _check_config_size(n, p):
    inclusions = point_line_counts(n, p)[1] * (p + 1) * (3 if n == 3 else 1)
    check_cap(inclusions, INCLUSIONS_MAX, f"P^{n}(F_{p}) inclusion count")


def incidence_config(n, p):
    """The full incidence configuration of P^n(F_p), n in {2, 3}."""
    _check_config_size(n, p)
    points = enumerate_points(n, p)
    planes = [PlaneFp(d) for d in points] if n == 3 else []
    return IncidenceConfig.from_members(points, enumerate_lines(n, p), planes)


def mp_configuration(p):
    """The planar configuration pinned by forced propagation, with its lines.

    Points: (n:0:1) and (n+1:1:1) for 0 <= n <= p-1 together with (1:0:0),
    (0:1:0) and (1:1:0), always 2p+3 in total.  Lines: every line of
    P^2(F_p) meeting the point set in at least two points (the lines of the
    restriction matroid); listed lines keep their full p+1 members, while
    inclusions only relate the listed points to them.
    """
    _check_config_size(2, p)
    chosen = set()
    for n in range(p):
        chosen.add(ProjPointFp((n % p, 0, 1), p))
        chosen.add(ProjPointFp(((n + 1) % p, 1, 1), p))
    for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0)):
        chosen.add(ProjPointFp(c, p))
    lines = [
        line for line in enumerate_lines(2, p)
        if sum(1 for pt in line.points if pt in chosen) >= 2
    ]
    return IncidenceConfig.from_members(sorted(chosen), lines)
