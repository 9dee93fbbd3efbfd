"""Exception types shared across the package, and the checks that raise them."""

import json


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


class InvalidBlowupError(NonliftError):
    """Center dimension and codimension do not fit the ambient class."""
