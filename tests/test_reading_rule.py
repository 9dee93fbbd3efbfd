"""The one reading rule: every reader accepts a document only if its writer gives it back.

The six readers are `LocalRing`, `ProjPointA`, `IncidenceConfig`,
`VarietyClass` and `InvariantsTable` `.from_json`, and `certificate_parse`.
Each is fed a valid document with one field mutated (a key dropped, a key
added, or a value swapped for `true`, `1.0`, `"1"`, `null` or `[]`) and must
refuse it with InvalidParameterError.
"""

import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlift import (
    IncidenceConfig,
    InvariantsTable,
    LocalRing,
    LPolynomial,
    ProjPointA,
    VarietyClass,
    certificate_json,
    certificate_parse,
    incidence_config,
    invariants_table,
    mp_configuration,
    propagate_forced_lift,
    ring_make,
)
from nonlift.errors import InvalidParameterError
from nonlift.finite_geometry import INCLUSIONS_MAX, point_line_counts

F3T = ring_make("fpt", 3, 2)
BIG = VarietyClass(name="big", dim=2, cls=LPolynomial((1, 2**60, 1)))

DOCS = {
    "ring": (LocalRing.from_json, F3T.to_json()),
    "point": (ProjPointA.from_json, ProjPointA(F3T, ((2, 1), (0, 2), (1, 1))).to_json()),
    "plane configuration": (IncidenceConfig.from_json, mp_configuration(3).to_json()),
    "space configuration": (IncidenceConfig.from_json, incidence_config(3, 2).to_json()),
    "variety class": (VarietyClass.from_json, BIG.to_json()),
    "invariants table": (InvariantsTable.from_json, invariants_table(BIG).to_json()),
    "certificate": (certificate_parse, certificate_json(*propagate_forced_lift(F3T))),
    "Z/9 certificate": (
        certificate_parse,
        certificate_json(*propagate_forced_lift(ring_make("zpk", 3, 2))),
    ),
}
SWAPS = (True, 1.0, "1", None, [])


def _paths(node, path=()):
    """Every path into a document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _text(doc):
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_every_valid_document_reads_back(name):
    read, doc = DOCS[name]
    read(copy.deepcopy(doc))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_one_mutated_field_is_refused(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    read, doc = DOCS[name]
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    op = data.draw(st.sampled_from(("drop", "add", "swap")))
    if op == "drop":
        path = data.draw(st.sampled_from(
            [q for q in paths if q and isinstance(_at(doc, q[:-1]), dict)]
        ))
        mutated = copy.deepcopy(doc)
        del _at(mutated, path[:-1])[path[-1]]
    elif op == "add":
        path = data.draw(st.sampled_from([q for q in paths if isinstance(_at(doc, q), dict)]))
        mutated = copy.deepcopy(doc)
        _at(mutated, path)["extra"] = 0
    else:
        path = data.draw(st.sampled_from(paths[1:]))
        value = data.draw(st.sampled_from(SWAPS))
        mutated = copy.deepcopy(doc)
        _at(mutated, path[:-1])[path[-1]] = value
    if _text(mutated) == _text(doc):
        read(mutated)
        return
    try:
        read(mutated)
    except InvalidParameterError:
        return
    # a name is free text, so another name still makes a valid class
    assert name == "variety class" and op == "swap" and path == ("name",) and value == "1"


def test_documents_accepted_before_the_reading_rule_are_refused():
    full = incidence_config(2, 2).to_json()
    line = full["lines"][0]
    stray = next(i for i in range(len(full["points"])) if i not in line)
    restricted = mp_configuration(3).to_json()
    short = next(i for i, m in enumerate(restricted["lines"]) if len(m) < 4)
    extra = next(i for i in range(9) if i not in restricted["lines"][short])
    certificate = certificate_json(*propagate_forced_lift(ring_make("zpk", 3, 2)))
    table = invariants_table(BIG).to_json()
    cases = [
        # a "line" of three points that are not collinear
        (IncidenceConfig.from_json, dict(full, lines=[line[:2] + [stray]] + full["lines"][1:])),
        # forged inclusions
        (IncidenceConfig.from_json, dict(full, inclusions=[[0, 7]])),
        # a point added to a restricted line of the mp configuration
        (IncidenceConfig.from_json, dict(restricted, lines=[
            sorted(m + [extra]) if i == short else m for i, m in enumerate(restricted["lines"])
        ])),
        # extra top-level keys
        (certificate_parse, dict(certificate, extra=0)),
        (LocalRing.from_json, dict(F3T.to_json(), extra=0)),
        (VarietyClass.from_json, dict(BIG.to_json(), extra=0)),
        # a table whose Picard number is not b_2, or with an odd Betti number
        (InvariantsTable.from_json, dict(table, picard=7)),
        (InvariantsTable.from_json, dict(table, betti=[1, 1] + table["betti"][2:])),
    ]
    for read, doc in cases:
        with pytest.raises(InvalidParameterError):
            read(doc)


def test_malformed_documents_raise_no_bare_exception():
    # each of these once raised a bare KeyError or TypeError
    for read, doc in (
        (LocalRing.from_json, {"kind": "zpk"}),
        (LocalRing.from_json, [1]),
        (ProjPointA.from_json, {"ring": F3T.to_json()}),
        (IncidenceConfig.from_json, {"p": 3}),
        (VarietyClass.from_json, {"name": "x", "dim": 10**9, "coeffs": [1]}),
    ):
        with pytest.raises(InvalidParameterError):
            read(doc)


def test_configuration_points_are_distinct():
    doc = mp_configuration(3).to_json()
    doc["points"][1] = doc["points"][0]
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_json(doc)
    pts = mp_configuration(3).points
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_members(pts + pts[:1], ())


def test_configuration_lines_and_planes_are_distinct():
    cfg = mp_configuration(3)
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_members(cfg.points, cfg.lines + cfg.lines[:1])
    # the document of that configuration once read back with 13 lines, not 12
    first = len(cfg.points)
    repeat = tuple((child, first + len(cfg.lines)) for child, parent in cfg.inclusions
                   if parent == first)
    doc = IncidenceConfig(cfg.dim, cfg.p, cfg.points, cfg.lines + cfg.lines[:1], (),
                          cfg.inclusions + repeat).to_json()
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_json(doc)
    space = incidence_config(3, 2)
    with pytest.raises(InvalidParameterError):
        IncidenceConfig.from_members(space.points, space.lines, space.planes + space.planes[:1])


def test_configuration_size_is_capped_before_any_line_is_joined():
    # one listed line over F_100003 was once built with all 100,004 points (seconds)
    doc = {"dim": 2, "p": 100003, "points": [[0, 0, 1], [0, 1, 0]], "lines": [[0, 1]],
           "planes": [], "inclusions": [[0, 2], [1, 2]]}
    # 100,000 copies of one line at p = 3: 400,000 line points
    many = dict(mp_configuration(3).to_json(), lines=[[0, 1]] * 100_000)
    for bad in (doc, many):
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="exceeds the supported maximum"):
            IncidenceConfig.from_json(bad)
        assert time.perf_counter() - start < 0.5
    # the largest documents nonlift writes stay inside the cap: P^2(F_61), P^3(F_7)
    assert point_line_counts(2, 61)[1] * 62 == 234_546 <= INCLUSIONS_MAX
    assert point_line_counts(3, 7)[1] * 8 <= INCLUSIONS_MAX
