"""Expected outputs derived without importing nonlift.

Every check here recomputes its fact from first principles: closed-form
counts, the topological Euler number, the Gaussian-binomial product, or a
3x3 determinant over Z/p^k or F_p[t]/(t^k) written out below.  `check`
compares one operation's captured stdout and exit code with those facts and
returns the list of mismatches (empty when the output is right).
"""

from __future__ import annotations

import itertools
import json
import math
import re

# -- rings Z/p^k and F_p[t]/(t^k) on raw representations ----------------------


class Ring:
    """Just enough ring arithmetic for a determinant and a dot product."""

    def __init__(self, kind, p, k):
        self.kind, self.p, self.k = kind, p, k
        self.modulus = p**k

    def lift(self, c, tail=()):
        """The element c + p*tail (zpk) or c + tail[0] t + ... (fpt)."""
        if self.kind == "zpk":
            return (c + self.p * sum(t * self.p**i for i, t in enumerate(tail))) % self.modulus
        rep = [c % self.p] + [t % self.p for t in tail]
        return tuple(rep + [0] * (self.k - len(rep)))

    def from_json(self, raw):
        return raw % self.modulus if self.kind == "zpk" else tuple(raw)

    def add(self, a, b):
        if self.kind == "zpk":
            return (a + b) % self.modulus
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == "zpk":
            return (a - b) % self.modulus
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.kind == "zpk":
            return a * b % self.modulus
        out = [0] * self.k
        for i in range(self.k):
            for j in range(self.k - i):
                out[i + j] += a[i] * b[j]
        return tuple(c % self.p for c in out)

    def is_zero(self, a):
        return a == 0 if self.kind == "zpk" else not any(a)

    def inverse(self, a):
        if self.kind == "zpk":
            return pow(a, -1, self.modulus)
        inv = [pow(a[0], -1, self.p)]
        for n in range(1, self.k):
            s = sum(a[i] * inv[n - i] for i in range(1, n + 1))
            inv.append(-inv[0] * s % self.p)
        return tuple(inv)

    def normalize(self, pt):
        """Scale a projective point so its first unit coordinate is 1."""
        unit = next(c for c in pt if (c if self.kind == "zpk" else c[0]) % self.p)
        inv = self.inverse(unit)
        return tuple(self.mul(c, inv) for c in pt)

    def det3(self, r0, r1, r2):
        m, s = self.mul, self.sub
        minor0 = s(m(r1[1], r2[2]), m(r1[2], r2[1]))
        minor1 = s(m(r1[0], r2[2]), m(r1[2], r2[0]))
        minor2 = s(m(r1[0], r2[1]), m(r1[1], r2[0]))
        return self.add(s(m(r0[0], minor0), m(r0[1], minor1)), m(r0[2], minor2))

    def dot(self, u, v):
        total = self.mul(u[0], v[0])
        for a, b in zip(u[1:], v[1:]):
            total = self.add(total, self.mul(a, b))
        return total


# -- rational geometry ----------------------------------------------------------


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def plane_points(p):
    """Canonical points of P^2(F_p): first nonzero coordinate equal to 1."""
    pts = [(1, a, b) for a in range(p) for b in range(p)]
    pts += [(0, 1, b) for b in range(p)]
    pts.append((0, 0, 1))
    return pts


def _canonical(v, p):
    v = [c % p for c in v]
    pivot = next(c for c in v if c)
    inv = pow(pivot, -1, p)
    return tuple(c * inv % p for c in v)


def plane_lines(p):
    """Lines of P^2(F_p) as lists of member points, one per dual point."""
    pts = plane_points(p)
    return [
        [x for x in pts if (d[0] * x[0] + d[1] * x[1] + d[2] * x[2]) % p == 0]
        for d in pts
    ]


def space_counts(dim, p):
    """Closed-form (points, lines, planes, inclusions) of P^dim(F_p)."""
    if dim == 2:
        n = p * p + p + 1
        return n, n, 0, n * (p + 1)
    points = 1 + p + p**2 + p**3
    lines = 1 + p + 2 * p**2 + p**3 + p**4
    per_plane = p * p + p + 1  # points, and also lines, of one plane
    return points, lines, points, lines * (p + 1) + 2 * points * per_plane


def mp_counts(p):
    """(points, lines, inclusions) of the 2p+3 point configuration.

    Lines are those of P^2(F_p) through at least two chosen points; they
    are found as the joins of chosen pairs.
    """
    chosen = {(n % p, 0, 1) for n in range(p)} | {((n + 1) % p, 1, 1) for n in range(p)}
    chosen |= {(1, 0, 0), (0, 1, 0), (1, 1, 0)}
    chosen = {_canonical(c, p) for c in chosen}
    duals = set()
    for u, v in itertools.combinations(sorted(chosen), 2):
        duals.add(_canonical((u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                              u[0] * v[1] - u[1] * v[0]), p))
    incl = sum(1 for d in duals for x in chosen if sum(a * b for a, b in zip(d, x)) % p == 0)
    return len(chosen), len(duals), incl


def violations(p, ring, images):
    """Collinear triples of distinct points whose images have nonzero determinant.

    `images` maps each canonical point to its image row of ring elements.
    Triples come back as frozensets of points.
    """
    out = set()
    for line in plane_lines(p):
        for x, y, z in itertools.combinations(line, 3):
            if not ring.is_zero(ring.det3(images[x], images[y], images[z])):
                out.add(frozenset((x, y, z)))
    return out


# -- motive facts ---------------------------------------------------------------


def space_facts(spec):
    """(dimension, Euler number) of a model-space spec such as flag:4."""
    head, _, rest = spec.partition(":")
    if head == "ps":
        n = int(rest)
        return n, n + 1
    if head == "quadric":
        d = int(rest)
        return d, d + 1 + (1 if d % 2 == 0 else 0)
    if head == "flag":
        m = int(rest)
        return m * (m - 1) // 2, math.factorial(m)
    if head == "construction-one":
        dim, chi = space_facts(rest)
        # blow up Y x Y along a copy of Y: the exceptional divisor is a
        # P^(dim-1)-bundle over Y, replacing Y and adding (dim-1) * chi(Y)
        return 2 * dim, chi * chi + (dim - 1) * chi
    if head == "construction-two":
        p = int(rest)
        pts, lines, _, _ = space_counts(3, p)
        # each point becomes a P^2 (+2), each line a P^1 x P^1 (+2 * 1)
        return 3, 4 + 2 * pts + 2 * lines
    raise ValueError(f"no facts for space {spec!r}")


def gauss_binomial_at(m, r, q):
    """Number of r-subspaces of F_q^m, by the product formula."""
    num = math.prod(q ** (m - i) - 1 for i in range(r))
    den = math.prod(q ** (i + 1) - 1 for i in range(r))
    return num // den


# -- output checks ----------------------------------------------------------------

_POINT = re.compile(r"\(([^()]*)\)")


def _ints(text):
    return tuple(int(c) for c in text.split(":"))


def _field(text, name):
    m = re.search(rf"^{re.escape(name)}: (.*)$", text, re.M)
    if m is None:
        raise ValueError(f"no '{name}:' line")
    return m.group(1)


def _coeffs(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        return doc["dim"], [int(c) for c in doc["coeffs"]]
    dim = int(_field(text, "dimension"))
    return dim, [int(c) for c in _field(text, "coefficients").split(", ")]


def _check_brute(op, text):
    found = int(_field(text, "maps found"))
    nodes = int(_field(text, "nodes explored"))
    want = 1 if op["kind"] == "fpt" else 0
    errs = []
    if found != want:
        errs.append(f"maps found {found}, expected {want}")
    if nodes < 1:
        errs.append(f"nodes explored {nodes} < 1")
    return errs


def _law(p, ring):
    """Derived points of the forced chain: corner, axis/diagonal pairs, closing point."""
    pts = [(1, 1, 0)]
    for n in range(1, p):
        pts += [(n, 0, 1), (n + 1, 1, 1)]
    pts.append((p, 0, 1))
    return [ring.normalize(tuple(ring.lift(c) for c in pt)) for pt in pts]


def _check_propagate(op, text, code):
    p, ring = op["p"], Ring(op["kind"], op["p"], op["k"])
    law = _law(p, ring)
    blocked = op["kind"] == "zpk"
    errs = [] if code == (2 if blocked else 0) else [f"exit code {code}"]
    if op["format"] == "json":
        doc = json.loads(text)
        steps = doc["steps"]
        derived = [tuple(ring.from_json(c) for c in s["derived"]) for s in steps]
        for s, pt in zip(steps, derived):
            duals = [tuple(ring.from_json(c) for c in s[key]["dual"]) for key in ("line1", "line2")]
            if not all(ring.is_zero(ring.dot(d, pt)) for d in duals):
                errs.append(f"derived {pt} is off a line of its step")
        element = ring.from_json(doc["obstruction"]["element"])
        if element != ring.lift(p):
            errs.append(f"obstruction element {element}")
        verdict = "non-liftable" if blocked else "liftable-not-excluded"
        if doc["verdict"] != verdict:
            errs.append(f"verdict {doc['verdict']}")
    else:
        # along the chain every coordinate renders as a plain residue integer
        steps = re.findall(r"^step \d+: .*-> \(([^()]*)\)$", text, re.M)
        derived = [tuple(ring.lift(c) for c in _ints(s)) for s in steps]
        if int(_field(text, "steps")) != len(steps):
            errs.append("steps header disagrees with the listed steps")
        closing = _POINT.findall(_field(text, "closing comparison"))[0]
        if tuple(ring.lift(c) for c in _ints(closing)) != law[-1]:
            errs.append(f"closing point ({closing})")
        tail = f"obstruction p·1 = {p} ≠ 0" if blocked else "no obstruction"
        if tail not in text:
            errs.append(f"no '{tail}' line")
    if len(derived) != 2 * p:
        errs.append(f"{len(derived)} steps, expected {2 * p}")
    elif derived != law:
        bad = next(i for i, (a, b) in enumerate(zip(derived, law)) if a != b)
        errs.append(f"step {bad + 1} derived {derived[bad]}, expected {law[bad]}")
    return errs


def _check_geom(op, text):
    dim, p, fmt = op["dim"], op["p"], op["format"]
    if op["command"] == "mp":
        pts, lines, incl = mp_counts(p)
        want = {"points": pts, "lines": lines, "inclusions": incl}
    else:
        pts, lines, planes, incl = space_counts(dim, p)
        want = {"points": pts, "lines": lines}
        if dim == 3:
            want["planes"] = planes
        if op["command"] == "config":
            want["inclusions"] = incl
    if fmt == "json":
        doc = json.loads(text)
        got = {key: doc[key] if isinstance(doc[key], int) else len(doc[key]) for key in want}
        if op["command"] == "config" and any(len(line) != p + 1 for line in doc["lines"]):
            return ["a line without p+1 member points"]
    else:
        got = {key: int(val) for key, val in re.findall(r"(\w+): (\d+)", text)}
    return [f"{key} {got.get(key)}, expected {val}" for key, val in want.items()
            if got.get(key) != val]


def _check_motive(op, text):
    fmt, cmd = op["format"], op["command"]
    if cmd == "invariants":
        doc = json.loads(text) if fmt == "json" else None
        euler = doc["invariants"]["euler"] if doc else _field(text, "euler")
        dim, chi = space_facts(op["space"])
        return [] if int(euler) == chi else [f"euler {euler}, expected {chi}"]
    dim, coeffs = _coeffs(text, fmt)
    if cmd == "grass":
        r, m = op["r"], op["m"]
        want_dim, value = r * (m - r), gauss_binomial_at(m, r, 2)
        got = sum(c << i for i, c in enumerate(coeffs))
        errs = [] if got == value else ["class at q=2 differs from the Gaussian binomial"]
    else:
        want_dim, chi = space_facts(op["space"])
        errs = [] if sum(coeffs) == chi else [f"euler {sum(coeffs)}, expected {chi}"]
    if dim != want_dim:
        errs.append(f"dimension {dim}, expected {want_dim}")
    return errs


def _check_check(op, text):
    want = op["violations"]
    if op["format"] == "json":
        doc = json.loads(text)
        count = doc["count"]
        got = {frozenset(tuple(pt) for pt in triple) for triple in doc["violations"]}
    else:
        count = int(_field(text, "violations"))
        got = {frozenset(_ints(pt) for pt in _POINT.findall(line))
               for line in text.splitlines()[1:]}
    errs = []
    if count != len(want):
        errs.append(f"violations {count}, expected {len(want)}")
    if got != want:
        errs.append(f"{len(got ^ want)} violating triples differ from the determinant oracle")
    return errs


def check(op, text, code):
    """Mismatches between one operation's output and the independent facts."""
    group = op["group"]
    if group == "lift" and op["command"] == "propagate":
        try:
            return _check_propagate(op, text, code)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
    if code != 0:
        return [f"exit code {code}"]
    try:
        if group == "geom":
            return _check_geom(op, text)
        if group == "motive":
            return _check_motive(op, text)
        if op["command"] == "brute":
            return _check_brute(op, text)
        return _check_check(op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
