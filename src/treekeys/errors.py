"""Exception types shared across the package, and the field check every
document loader starts with."""

from typing import Any, Collection, Mapping


class PolicyError(ValueError):
    """Malformed or inconsistent policy input (documents, labels, order, trees)."""


class CycleError(PolicyError):
    """The supplied order relation contains a directed cycle."""


class UnknownLabelError(PolicyError):
    """A label was referenced that is not an element of the poset."""


class AuthorizationError(Exception):
    """The requested label is not dominated by the holder's label."""


class VerificationError(Exception):
    """An integrity or self-verification check failed."""


def check_fields(document: Any, allowed: Collection[str], what: str) -> Mapping[str, Any]:
    """``document`` itself, once it is a JSON object with no field outside
    ``allowed``; PolicyError otherwise."""
    if not isinstance(document, Mapping):
        raise PolicyError(f"{what} document must be a JSON object")
    unknown = set(document) - set(allowed)
    if unknown:
        raise PolicyError(f"unknown {what} fields: {sorted(unknown)}")
    return document
