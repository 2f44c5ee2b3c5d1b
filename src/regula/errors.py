"""Exception types shared across the package."""


class RegulaError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(RegulaError):
    """Permutations of different degrees were combined."""


class CapExceeded(RegulaError):
    """A group is too large for the requested exhaustive operation."""


class NotNormal(RegulaError):
    """A subgroup required to be normal is not."""


class NotInGroup(RegulaError):
    """An element required to lie in a group does not."""


class UnknownGroupName(RegulaError):
    """A named group is not present in the bundled data directory."""


class GroupDataError(RegulaError):
    """A generator data file could not be read, or failed its order or
    fingerprint certification."""


class ExprParseError(RegulaError):
    """Group expression syntax error, with position and expected tokens."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.position = position
        self.expected = frozenset(expected)
