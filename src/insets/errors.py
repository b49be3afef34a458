"""Exception types shared across the package."""

__all__ = [
    "BFileFormatError",
    "CapExceededError",
    "FixtureError",
    "FixtureNotFoundError",
    "NonUnitConstantTermError",
]


class CapExceededError(ValueError):
    """An enumeration was requested beyond its configured tractability cap."""


class NonUnitConstantTermError(ValueError):
    """Series division needs a denominator with constant term +1 or -1."""


class FixtureError(Exception):
    """A sequence fixture could not be obtained or used."""


class FixtureNotFoundError(FixtureError):
    """No local fixture file and fetching is disabled or impossible."""


class BFileFormatError(FixtureError):
    """A b-file fixture is malformed (bad line or non-contiguous indices)."""
