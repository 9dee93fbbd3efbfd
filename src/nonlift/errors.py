"""Exception types shared across the package, the checks that raise them, the
immutable classes' base, and the one JSON reading rule and indent-2 writer."""

import json
import re
from json.encoder import encode_basestring_ascii


class NonliftError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameterError(NonliftError):
    """A parameter is outside its documented domain (non-prime p, bad k, ...)."""


class UnsupportedDimensionError(NonliftError):
    """Ambient dimension outside the supported range."""


class DegenerateSpanError(NonliftError):
    """Coincident points span no line."""


class NotAProjectivePointError(NonliftError):
    """No unit coordinate, so the vector defines no projective point."""


class IndeterminateSpanError(NonliftError):
    """Both points reduce to the same residue point; the joining line is not unique."""


class IndeterminateIntersectionError(NonliftError):
    """Both lines reduce to the same residue line; the intersection is not unique."""


class UndecidableCollinearityError(NonliftError):
    """All three residues coincide, so the determinant test decides nothing."""


class MissingAssignmentError(NonliftError):
    """The point map is not total."""


class BudgetExceededError(NonliftError):
    """Search aborted after exhausting its node budget."""

    def __init__(self, nodes_explored, budget, message=None):
        super().__init__(
            message
            or f"search budget exceeded: {nodes_explored} nodes explored, budget {budget}"
        )
        self.nodes_explored = nodes_explored
        self.budget = budget


class _Frozen:
    """Base of the immutable classes: assigning or deleting an attribute
    raises.  `__init__` sets the `__slots__` in order (hot constructors set
    theirs directly), and `==`, `hash` and `repr` go field by field over
    them; the points, rings, ring elements and polynomials define their
    own, and lines their own `repr`.  Copy, deepcopy and pickle rebuild
    from the slot values.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), *self._values())


def _rebuild(cls, *values):
    """An object of an immutable class from its slot values, unchecked."""
    obj = object.__new__(cls)
    _Frozen.__init__(obj, *values)
    return obj


def check_cap(value, cap, label):
    """Refuse a size above its documented cap, before any work is done."""
    if value > cap:
        raise BudgetExceededError(0, cap, f"{label} {value} exceeds the supported maximum {cap}")


def read_back(doc, build, write, label):
    """The one reading rule: `build(doc)`, accepted only if `write` gives `doc` back.

    Both documents are compared as sorted-key JSON text, so `true` is not
    `1` and `1.0` is not `1`.  A document that cannot be built, or that
    differs from the one its object writes, raises InvalidParameterError.
    """
    try:
        obj = build(doc)
        same = json.dumps(write(obj), sort_keys=True) == json.dumps(doc, sort_keys=True)
    except InvalidParameterError:
        raise
    except (NonliftError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed {label}: {exc!r}") from None
    if not same:
        raise InvalidParameterError(f"malformed {label}: not the document its writer gives back")
    return obj


def write_json(doc):
    """The indent-2 JSON text of a document, byte for byte `json.dumps(doc,
    indent=2)` on the types the package writes: dicts with str keys, lists,
    tuples, ints, bools, None and str.  Anything else raises TypeError.

    Each container is one `join` of its rendered items, so no list of every
    small piece of the document is ever held.  Items of exact type int are
    rendered in place; every other item, bools and int subclasses included,
    goes through `_write`.
    """
    return _write(doc, "\n")


def _write(value, newline):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ("," + inner).join([
            int.__repr__(v) if type(v) is int else _write(v, inner) for v in value
        ])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join([
            f"{_key(k)}: {int.__repr__(v) if type(v) is int else _write(v, inner)}"
            for k, v in value.items()
        ])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key):
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


_FIELD = r'"\\u0000(\d+)"'  # compiled on first use, not at import


def _field(i):
    """The leaf string that `_write_template` turns into its i-th field."""
    return f"\0{i}"


def _write_template(value, newline):
    """`_write(value, newline)` as a `%` template: the leaves `_field(0)`,
    `_field(1)`, ... become its `%s` fields, and must appear in that order.
    Returns the template and, per field, the newline at which `_write`
    renders a value in that place: a newline and the indent of the field's
    line.
    """
    parts = re.split(_FIELD, _write(value, newline))
    assert parts[1::2] == [str(i) for i in range(len(parts) // 2)], "fields out of order"
    newlines = []
    for text in parts[:-1:2]:
        line = text.rpartition("\n")[2]
        newlines.append("\n" + " " * (len(line) - len(line.lstrip(" "))))
    return "%s".join([text.replace("%", "%%") for text in parts[::2]]), newlines


class InvalidBlowupError(NonliftError):
    """Center dimension and codimension do not fit the ambient class."""
