"""Exact projective geometry over prime fields in ambient dimension up to 3.

Points of P^n(F_p) are kept in a canonical form, scaling the first nonzero
coordinate to 1, which makes representatives unique, hashable, and totally
ordered by their coordinate tuples.  Each point also has an index, its rank
in that order, computed from its coordinates.  Lines are stored
extensionally as the sorted indices of their p+1 member points; planes of
P^3 are represented through their dual points.  Point objects are built only
where a caller reads them.  Everything is small exact integer arithmetic.

The counts work out to 1 + p + ... + p^n points in P^n, the same number of
planes as points in P^3 by duality, and 1 + p + 2p^2 + p^3 + p^4 lines in
P^3 (the lines form the Grassmannian of 2-subspaces of a 4-space).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import add

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


def _point(coords, p):
    """A ProjPointFp from a coordinate tuple already in canonical form, unchecked."""
    pt = object.__new__(ProjPointFp)
    object.__setattr__(pt, "p", p)
    object.__setattr__(pt, "coords", coords)
    return pt


class _Space:
    """P^n(F_p) with its points numbered in `enumerate_points` order.

    A canonical point's index is the offset of its pivot position (the count
    of points with more leading zeros) plus its tail read in base p.  Point
    objects are built the first time they are read, each at most once.
    """

    __slots__ = ("n", "p", "_offset", "_weight", "_built")

    def __init__(self, n, p):
        self.n, self.p = n, p
        self._offset = [(p ** (n - c) - 1) // (p - 1) for c in range(n + 1)]
        self._weight = [p ** (n - c) for c in range(n + 1)]
        self._built = {}

    def index(self, coords):
        pivot = next(c for c, v in enumerate(coords) if v)
        w = self._weight
        return self._offset[pivot] + sum(coords[c] * w[c] for c in range(pivot + 1, self.n + 1))

    def coords(self, i):
        pivot = next(c for c, off in enumerate(self._offset) if off <= i)
        tail = i - self._offset[pivot]
        return (0,) * pivot + (1,) + tuple(tail // w % self.p for w in self._weight[pivot + 1:])

    def point(self, i):
        pt = self._built.get(i)
        if pt is None:
            pt = self._built[i] = _point(self.coords(i), self.p)
        return pt

    def span(self, rows):
        """Sorted indices of the points spanned by reduced row echelon `rows`.

        First those spanned by rows[1:], then those with rows[0]'s pivot:
        rows[0] plus a combination of the middle rows plus t times the last.
        The middle rows' pivot columns read the combination and the last
        row's reads t, so these come in ascending order too.
        """
        if len(rows) == 1:
            return [self.index(rows[0])]
        p = self.p
        head, *mid, last = rows
        out = self.span(rows[1:])
        for ts in itertools.product(range(p), repeat=len(mid)):
            row = head
            for t, m in zip(ts, mid):
                row = [(a + t * b) % p for a, b in zip(row, m)]
            out += self._ray(row, last)
        return out

    def _ray(self, r0, r1):
        """Indices of r0 + t*r1 for t = 0, ..., p-1, for echelon rows r0 and r1.

        Only the columns after r1's pivot where r1 is nonzero need reducing
        mod p; r1's pivot column reads t and the others keep r0's entries.
        """
        p, w = self.p, self._weight
        a, b = r0.index(1), r1.index(1)
        start = self._offset[a] + sum(
            x * w[c] for c, (x, y) in enumerate(zip(r0, r1)) if c > a and not y
        )
        ray = range(start, start + p * w[b], w[b])
        for c in range(b + 1, self.n + 1):
            if r1[c]:
                x, y, wc = r0[c], r1[c], w[c]
                ray = list(map(add, ray, [(x + t * y) % p * wc for t in range(p)]))
        return ray

    def line(self, u, v):
        """The line through the independent coordinate vectors u and v."""
        return LineFp._of(self, tuple(self.span(_row_reduce([u, v], self.p)[0])))

    def annihilator(self, rows):
        """Sorted indices of the points x with r . x = 0 for every row r."""
        return tuple(self.span(_row_reduce(_kernel(rows, self.p), self.p)[0]))


class LineFp:
    """A line of P^n(F_p): the sorted indices of its p+1 points.

    `indices` are positions in `enumerate_points(n, p)` order, so they sort
    as the points do; `points` builds the point objects when first read.
    Built from points, a line checks that every one of them lies on the
    join of two of them.
    """

    __slots__ = ("p", "indices", "_space", "_points")

    def __init__(self, points):
        points = tuple(points)
        if not points:
            raise InvalidParameterError("a line needs points")
        first = points[0]
        if any(not isinstance(pt, ProjPointFp) or pt.p != first.p or pt.dim != first.dim
               for pt in points):
            raise InvalidParameterError("line points must share one ambient space")
        p = first.p
        space = _Space(first.dim, p)
        indices = sorted({space.index(pt.coords) for pt in points})
        if len(indices) != p + 1:
            raise InvalidParameterError(
                f"a line over F_{p} has exactly {p + 1} distinct points, got {len(indices)}"
            )
        join = space.line(space.coords(indices[0]), space.coords(indices[1]))
        if list(join.indices) != indices:
            raise InvalidParameterError("line points are not collinear")
        for name in LineFp.__slots__:
            object.__setattr__(self, name, getattr(join, name))

    @classmethod
    def _of(cls, space, indices):
        line = object.__new__(cls)
        for name, value in zip(cls.__slots__, (space.p, indices, space, None)):
            object.__setattr__(line, name, value)
        return line

    def __setattr__(self, name, value):
        raise AttributeError("LineFp is immutable")

    @property
    def dim(self):
        return self._space.n

    @property
    def points(self):
        if self._points is None:
            object.__setattr__(self, "_points", tuple(map(self._space.point, self.indices)))
        return self._points

    def _first_coords(self):
        """Coordinates of two points spanning the line."""
        return [self._space.coords(i) for i in self.indices[:2]]

    def __contains__(self, pt):
        if not isinstance(pt, ProjPointFp) or pt.p != self.p or pt.dim != self.dim:
            return False
        i = self._space.index(pt.coords)
        j = bisect_left(self.indices, i)
        return j < len(self.indices) and self.indices[j] == i

    def __eq__(self, other):
        if not isinstance(other, LineFp):
            return NotImplemented
        return (self.p, self.dim, self.indices) == (other.p, other.dim, other.indices)

    def __hash__(self):
        return hash((self.p, self.indices))

    def __lt__(self, other):
        if not isinstance(other, LineFp) or (other.p, other.dim) != (self.p, self.dim):
            return NotImplemented
        return self.indices < other.indices

    def __repr__(self):
        return f"LineFp[{', '.join(repr(pt) for pt in self.points)}]"


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
    return _Space(x.dim, x.p).line(x.coords, y.coords)


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
            out.append(_point(prefix + tail, p))
    return out


def enumerate_lines(n, p):
    """All lines of P^n(F_p), n in {2, 3}, each exactly once, sorted.

    Lines correspond to reduced row echelon 2 x (n+1) matrices; expanding
    each echelon basis gives the index of every member point directly, so no
    point is built, normalized or deduplicated.
    """
    check_prime(p)
    _check_dim(n, low=2)
    space = _Space(n, p)
    cols = n + 1
    keys = []
    for a, b in itertools.combinations(range(cols), 2):
        free0 = [j for j in range(a + 1, cols) if j != b]
        free1 = range(b + 1, cols)
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
                keys.append(tuple(space.span([r0, r1])))
    keys.sort()
    return [LineFp._of(space, key) for key in keys]


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
    (d,) = _kernel(line._first_coords(), line.p)
    return ProjPointFp(d, line.p)


def line_from_dual(d):
    """Line of P^2 cut out by the linear form with coefficient vector d."""
    if d.dim != 2:
        raise UnsupportedDimensionError("line duals live in ambient dimension 2")
    return _Space(2, d.p).line(*_kernel([d.coords], d.p))


@dataclass(frozen=True)
class PlaneFp:
    """A plane of P^3(F_p), given by its dual point."""

    dual: ProjPointFp

    @cached_property
    def indices(self):
        """Sorted indices of its points, the points its dual annihilates."""
        return _Space(self.dual.dim, self.dual.p).annihilator([self.dual.coords])


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
        line lying in each plane, read off the planes through the line (the
        points of its dual line); members outside `points` are left out.
        The points, lines and plane duals must share one space (P^3 if there
        are planes), and the points, the lines and the planes must each be
        distinct.
        """
        kinds = {(x.p, x.dim) for x in (*points, *lines, *(plane.dual for plane in planes))}
        if not points or len(kinds) != 1 or (planes and points[0].dim != 3):
            raise InvalidParameterError("configuration points, lines and planes must share one space")
        space = _Space(points[0].dim, points[0].p)
        at = {space.index(pt.coords): i for i, pt in enumerate(points)}
        if (len(at) != len(points) or len({line.indices for line in lines}) != len(lines)
                or len({plane.dual for plane in planes}) != len(planes)):
            raise InvalidParameterError("configuration points, lines and planes must be distinct")
        line_off = len(points)
        plane_off = line_off + len(lines)
        inclusions = [
            (at[i], line_off + li)
            for li, line in enumerate(lines)
            for i in line.indices
            if i in at
        ]
        for pi, plane in enumerate(planes):
            members = sorted(at[i] for i in plane.indices if i in at)
            inclusions.extend((i, plane_off + pi) for i in members)
        if planes:
            plane_at = {space.index(plane.dual.coords): pi for pi, plane in enumerate(planes)}
            line_in_plane = sorted(
                (plane_at[d], li)
                for li, line in enumerate(lines)
                for d in space.annihilator(line._first_coords())
                if d in plane_at
            )
            inclusions.extend((line_off + li, plane_off + pi) for pi, li in line_in_plane)
        return cls(
            dim=space.n,
            p=space.p,
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
    space = _Space(2, p)
    at = {space.index(pt.coords) for pt in chosen}
    lines = [line for line in enumerate_lines(2, p) if len(at.intersection(line.indices)) >= 2]
    return IncidenceConfig.from_members(sorted(chosen), lines)
