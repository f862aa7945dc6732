"""Exception types shared across the engine."""
from __future__ import annotations


class AlexdbError(Exception):
    """Base class for all engine errors."""


class DuplicateKeyError(AlexdbError):
    """Two elements (or rows) share a key that must be unique."""


class DanglingPairError(AlexdbError):
    """A bounded-by pair references an element that is not in the space."""


class T0ViolationError(AlexdbError):
    """The bounded-by relation has a cycle, so points are not separable.

    ``cycle`` lists the offending keys in order; the last entry closes
    back to the first.
    """

    def __init__(self, message: str, cycle: list = None):
        super().__init__(message)
        self.cycle = list(cycle or [])


class NotFoundError(AlexdbError):
    """An element id, version token, or table row does not exist."""


class EmptySpaceError(AlexdbError):
    """The operation is undefined on a space with no elements."""


class SizeGuardError(AlexdbError):
    """Input exceeds the configured size bound for an exhaustive check."""


class MissingGeometryError(AlexdbError):
    """No coordinate row is available where one is required."""


class DiscontinuousMapError(AlexdbError):
    """A map that must be continuous is not; carries the offending report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class IntegrityError(AlexdbError):
    """Bookkeeping columns contradict each other: a deletion precedes its
    creation, or an element generalises onto its own level."""


class ForeignKeyError(AlexdbError):
    """A store row references a key that no referenced table provides."""


class StoreFormatError(AlexdbError):
    """A store file is missing, misnamed, or has an unexpected header."""


class QueryParseError(AlexdbError):
    """Query text could not be parsed; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryEvalError(AlexdbError):
    """A query expression is well-formed but cannot be evaluated.

    ``path`` names the offending node, outermost operator first.
    """

    def __init__(self, message: str, path: tuple = ()):
        where = "/".join(path) or "<root>"
        super().__init__(f"{where}: {message}")
        self.path = tuple(path)


class AttributeMergeWarning(UserWarning):
    """Attribute values clashed during a merge; the first writer won."""
