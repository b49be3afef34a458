"""Exception types shared across the package."""

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class CapExceededError(ValueError):
    """An enumeration was requested beyond its configured tractability cap."""


class NonUnitConstantTermError(ValueError):
    """Series division needs a denominator with constant term +1 or -1."""


class FixtureError(Exception):
    """A sequence fixture could not be read or used."""


class FixtureNotFoundError(FixtureError):
    """The fixture directory holds no file for the requested fixture id."""


class BFileFormatError(FixtureError):
    """A b-file fixture is malformed (bad line or non-contiguous indices)."""
