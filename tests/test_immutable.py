"""The package's immutable classes, which share one base, `errors._Frozen`.

The eight records take positional and keyword arguments, compare and hash
field by field, and refuse assignment and deletion.  Every immutable class
survives copy, deepcopy and pickle as an equal object, and reading one
never writes any of its slots.
"""

import copy
import pickle

import pytest

from nonlift import (
    VERDICT_BLOCKED,
    VERDICT_OPEN,
    Frame,
    IncidenceConfig,
    InvalidParameterError,
    InvariantsTable,
    LineA,
    LPolynomial,
    Obstruction,
    PlaneFp,
    ProjPointA,
    ProjPointFp,
    PropagationTrace,
    SearchResult,
    VarietyClass,
    brute_force_lift_search,
    enumerate_lines,
    invariants_table,
    mp_configuration,
    projective_space_class,
    propagate_forced_lift,
    ring_make,
)
from nonlift.errors import _Frozen

Z4 = ring_make("zpk", 2, 2)
F3T = ring_make("fpt", 3, 2)
E1 = ProjPointA(Z4, (1, 0, 0))
E2 = ProjPointA(Z4, (0, 1, 0))
POINTS = tuple(ProjPointFp(c, 2) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
LINE = enumerate_lines(2, 2)[0]
CLS = LPolynomial((1, 1, 1))
DUAL = ProjPointFp((0, 0, 1, 2), 3)

# name -> (class, positional arguments, the same as keywords, {field: default}
# of a record built from the positional ones with the defaults left out)
RECORDS = {
    "PlaneFp": (PlaneFp, (DUAL,), {"dual": DUAL}, {}),
    "IncidenceConfig": (
        IncidenceConfig,
        (POINTS, (LINE,), ()),
        {"points": POINTS, "lines": (LINE,), "planes": ()},
        {"planes": ()},
    ),
    "Frame": (Frame, (Z4,), {"ring": Z4}, {}),
    "PropagationTrace": (
        PropagationTrace, (Z4, ((1, 2, 3),)), {"ring": Z4, "_chain": ((1, 2, 3),)}, {},
    ),
    "Obstruction": (
        Obstruction,
        (Z4.p_one, E1, E2),
        {"element": Z4.p_one, "derived": E1, "required": E2},
        {},
    ),
    "SearchResult": (
        SearchResult, ((), 12, 100), {"maps": (), "nodes_explored": 12, "budget": 100}, {},
    ),
    "VarietyClass": (
        VarietyClass, ("P^2", 2, CLS, False),
        {"name": "P^2", "dim": 2, "cls": CLS, "cellular": False},
        {"cellular": True},
    ),
    "InvariantsTable": (
        InvariantsTable,
        (2, (1, 0, 1, 0, 1)),
        {"dim": 2, "betti": (1, 0, 1, 0, 1)},
        {},
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_a_frozen_record(name):
    cls, args, kwargs, defaults = RECORDS[name]
    record = cls(*args)
    # positional and keyword forms give equal records with equal hashes
    for twin in (cls(*args), cls(**kwargs)):
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record
    # the defaults, with the arguments that carry them left out
    if defaults:
        short = cls(*args[: len(args) - len(defaults)])
        assert {field: getattr(short, field) for field in defaults} == defaults
    # records of different classes are unequal, even over the same values
    others = [other_cls(*other_args) for other_cls, other_args, _, _ in RECORDS.values()
              if other_cls is not cls]
    assert all(record != other for other in others)
    assert record != args
    # the repr names the class, then its fields
    assert repr(record).startswith(f"{name}({cls.__slots__[0]}=")
    for field in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            delattr(record, field)
    assert record == cls(*args)


def test_record_checks_run_at_construction():
    with pytest.raises(InvalidParameterError):
        PlaneFp(5)
    with pytest.raises(InvalidParameterError):
        VarietyClass(name="bad", dim=-1, cls=LPolynomial.one())


def _instances():
    trace, obstruction = propagate_forced_lift(Z4)
    ps = projective_space_class(2)
    return [
        ProjPointFp((1, 2, 0), 3),
        LINE,
        PlaneFp(ProjPointFp((0, 1, 1, 2), 3)),
        mp_configuration(3),
        F3T,
        F3T.elem((1, 2)),
        ProjPointA(F3T, ((0, 1), 1, (2, 2))),
        LineA(ProjPointA(F3T, (0, 0, 1))),
        CLS,
        Frame(F3T),
        trace,
        obstruction,
        brute_force_lift_search(ring_make("fpt", 2, 2)),
        ps,
        invariants_table(ps),
    ]


def test_every_immutable_class_is_covered():
    objs = _instances()
    names = {type(obj).__name__ for obj in objs}
    assert len(names) == 15 and set(RECORDS) <= names
    assert all(isinstance(obj, _Frozen) for obj in objs)


@pytest.mark.parametrize("rebuild", [
    copy.copy,
    copy.deepcopy,
    lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_deepcopy_and_pickle_round_trip(rebuild):
    for obj in _instances():
        out = rebuild(obj)
        assert type(out) is type(obj) and out == obj, type(obj).__name__
        assert repr(out) == repr(obj)
        with pytest.raises(AttributeError, match="is immutable"):
            out.extra = None


def _fingerprint(value):
    try:
        return pickle.dumps(value)
    except (AttributeError, pickle.PicklingError):  # a ring's local reduction functions
        return repr(value)


def _slots(obj):
    """Each slot's value and its pickled bytes, so a write to the slot or
    into a value it holds shows."""
    names = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    return [(name, getattr(obj, name), _fingerprint(getattr(obj, name))) for name in names]


def test_reading_never_writes():
    for obj in _instances():
        name = type(obj).__name__
        before = _slots(obj)
        reads = [read for cls in type(obj).__mro__ for read, attr in vars(cls).items()
                 if isinstance(attr, property)]
        for read in reads:
            getattr(obj, read)
        repr(obj)
        if hasattr(obj, "to_json"):
            obj.to_json()
        after = _slots(obj)
        assert [n for n, _, _ in after] == [n for n, _, _ in before], name
        for (slot, old, old_bytes), (_, new, new_bytes) in zip(before, after):
            assert new is old and new_bytes == old_bytes, f"{name}.{slot}"


def test_verdict_is_read_off_the_element():
    for ring, verdict in ((ring_make("zpk", 2, 2), VERDICT_BLOCKED),
                          (ring_make("fpt", 2, 2), VERDICT_OPEN)):
        obstruction = propagate_forced_lift(ring)[1]
        assert obstruction.verdict == verdict and "verdict" not in Obstruction.__slots__
        derived, required = obstruction.derived, obstruction.required
        assert Obstruction(ring.p_one, derived, required).verdict == verdict
        assert Obstruction(ring.zero, derived, required).verdict == VERDICT_OPEN
        assert Obstruction(ring.one, derived, required).verdict == VERDICT_BLOCKED


def test_a_pickled_line_carries_only_its_indices():
    # a line holds only p, dim and indices and builds its points on each
    # read, so reading other lines' points cannot grow its pickle
    lines = enumerate_lines(2, 61)
    line = lines[0]
    fresh = len(pickle.dumps(line))
    for other in lines[:50]:
        other.points
    assert len(pickle.dumps(line)) == fresh
    for out in (pickle.loads(pickle.dumps(line)), copy.deepcopy(line)):
        assert type(out) is type(line) and out == line
        assert out.points == line.points
