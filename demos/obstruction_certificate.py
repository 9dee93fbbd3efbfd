"""Forced propagation of a lift and the certificate it leaves behind.

Fixing the standard frame, the image of every further rational point of
the plane is forced: it is the meet of two joins of points already pinned.
Chasing the chain around the axis returns to the start and derives
(p*1 : 0 : 1) for the already-pinned (0:0:1), so everything hinges on
whether p * 1 vanishes in the coefficient ring.  Over Z/p^2 it does not,
and the trace is a replayable impossibility certificate; over
F_p[t]/(t^2) it vanishes and the chain closes quietly.
"""

import json

from nonlift import (
    certificate_json,
    certificate_parse,
    certificate_render,
    extract_used_configuration,
    mp_configuration,
    propagate_forced_lift,
    ring_make,
)


def main():
    for kind, p in (("zpk", 2), ("zpk", 3), ("fpt", 3)):
        ring = ring_make(kind, p, 2)
        trace, obstruction = propagate_forced_lift(ring)
        print(f"=== p = {p} over {ring} ===")
        print(certificate_render(trace, obstruction, format="text"))
        print()

    print("=== the certificate round-trips through JSON ===")
    ring = ring_make("zpk", 5, 2)
    trace, obstruction = propagate_forced_lift(ring)
    doc = certificate_json(trace, obstruction)
    wire = json.dumps(doc)
    trace2, obstruction2 = certificate_parse(json.loads(wire))
    print(f"serialized {len(wire)} bytes, reparsed verdict: {obstruction2.verdict}")
    print(f"obstruction element: {obstruction2.element} in {ring}")
    print()

    print("=== what the chain actually touches ===")
    used = extract_used_configuration(trace)
    mp = mp_configuration(5)
    print(f"pinned points: {len(used.points)} (the 2p+3 = 13 configuration points)")
    print(f"derivation lines: {len(used.lines)}")
    print(f"matches the packaged configuration point set: {used.points == mp.points}")


if __name__ == "__main__":
    main()
