"""The one indent-2 JSON writer against `json.dumps(doc, indent=2)`.

`errors.write_json` renders every `--format json` document and every JSON
certificate; on the types those documents hold it must give the stdlib's
bytes exactly, and on any other type raise TypeError as `json` does.
"""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlift.errors import write_json
from nonlift.motive import _JSON_INT_LIMIT, _encode_int

class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


LIMIT_INTS = [_encode_int(n) for n in (
    _JSON_INT_LIMIT, -_JSON_INT_LIMIT, _JSON_INT_LIMIT + 1, -_JSON_INT_LIMIT - 1,
)]

DOCS = {
    "empty dict": {},
    "empty list": [],
    "nested empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": [{}]},
    "list of empties": [[], {}],
    "non-ASCII": {"é": "日本語", "emoji": "😀", "line separator": "\u2028"},
    "control characters": ["\x00\x1f\x7f", "tab\there", "quote\" and \\ back", "\n"],
    "bool beside int": [True, 1, False, 0, None, {"t": True, "one": 1}],
    "ints at the JSON limit": {"coeffs": LIMIT_INTS, "row": [0] * 5 + LIMIT_INTS},
    "big ints": [2**200, -(2**200), 0, -1],
    "tuples": {"t": (1, 2, 3), "nested": ((1, "a"), [True, (None,)]), "empty": ()},
    "mixed flat row": [1, "2", True, None, "é"],
    # ints are rendered in place; an int subclass or a bool beside them is not
    "int subclasses beside ints": {
        "row": [0, _Level.HIGH, 1, True, False, 2, _Level.LOW],
        "level": _Level.HIGH, "flag": True, "count": 3, "rows": [[1, _Level.LOW], [True, 0]],
    },
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_writer_matches_stdlib(name):
    doc = DOCS[name]
    assert write_json(doc) == json.dumps(doc, indent=2)


class _Opaque:
    """A value `json` cannot encode whose repr, and so its test id, is fixed."""

    def __repr__(self):
        return "<opaque>"


@pytest.mark.parametrize(
    "doc",
    [1.5, [1.0], [1, 2.5], {"a": _Opaque()}, {"a": [{"b": float("nan")}]}, {1: 2}, {1, 2},
     {"row": [0, 1, 2.0, 3]}],
    ids=repr,
)
def test_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        write_json(doc)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
)
_docs = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_docs)
def test_writer_matches_stdlib_on_random_documents(doc):
    assert write_json(doc) == json.dumps(doc, indent=2)
