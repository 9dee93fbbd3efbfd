"""Exhaustive ring-law verification over precomputed index tables.

Shared between the unit tests and the acceptance suite.  The tables index
the results of element arithmetic by canonical representation, so a result
that is not canonical fails the lookup; the sweep itself is integer table
lookups so an 81-element ring stays around a second.
"""


def build_tables(ring):
    elems = ring.elements()
    index = {e.rep: i for i, e in enumerate(elems)}
    add = [[index[(a + b).rep] for b in elems] for a in elems]
    mul = [[index[(a * b).rep] for b in elems] for a in elems]
    neg = [index[(-a).rep] for a in elems]
    return elems, index, add, mul, neg


def law_violations(ring):
    """Count of violated instances of the commutative-ring axioms."""
    elems, index, add, mul, neg = build_tables(ring)
    n = len(elems)
    zero = index[ring.zero.rep]
    one = index[ring.one.rep]
    bad = 0
    rng = range(n)
    for i in rng:
        if add[i][zero] != i:
            bad += 1
        if mul[i][one] != i:
            bad += 1
        if add[i][neg[i]] != zero:
            bad += 1
        row_a, row_m = add[i], mul[i]
        for j in rng:
            if row_a[j] != add[j][i]:
                bad += 1
            if row_m[j] != mul[j][i]:
                bad += 1
    for i in rng:
        ai, mi = add[i], mul[i]
        for j in rng:
            aij, mij = ai[j], mi[j]
            aj, mj = add[j], mul[j]
            for t in rng:
                if add[aij][t] != ai[aj[t]]:
                    bad += 1
                if mul[mij][t] != mi[mj[t]]:
                    bad += 1
                if mi[aj[t]] != add[mij][mi[t]]:
                    bad += 1
    return bad


def unit_violations(ring):
    """Units are exactly the nonzero residues and invert to one."""
    bad = 0
    one = ring.one
    units = 0
    for e in ring.elements():
        if e.is_unit:
            units += 1
            if e * e.inverse() != one:
                bad += 1
        elif e.residue != 0:
            bad += 1
    expected = ring.size - ring.size // ring.p
    if units != expected:
        bad += 1
    return bad
