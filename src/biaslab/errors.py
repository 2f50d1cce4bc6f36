"""Exception and warning types shared across the package."""

from numbers import Integral


class BiaslabError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BiaslabError):
    """An argument violates an operation's preconditions."""


class ValidationError(BiaslabError):
    """A spec, config, or name reference failed validation."""


def expect(kind: type, owner: str, optional: bool = False, **fields: object) -> None:
    """Raise ``ValidationError`` naming the first of ``fields`` that is not a
    ``kind`` (``str``, ``numbers.Real`` or ``numbers.Integral``), or None where
    ``optional``; a bool is no number."""
    for name, value in fields.items():
        if not (optional and value is None) and (isinstance(value, bool) or not isinstance(value, kind)):
            noun = {str: "a string", Integral: "an integer"}.get(kind, "a number")
            raise ValidationError(f"{owner}: {name} must be {noun}, got {value!r}")


class DataError(BiaslabError):
    """The data cannot support the requested computation (empty,
    degenerate, insufficient rows, missing group, ...)."""


class SingularDesignError(DataError):
    """Design matrix is rank deficient.

    ``term`` names the first offending column when known.
    """

    def __init__(self, message: str, term: str | None = None):
        super().__init__(message)
        self.term = term


class WeakInstrumentError(DataError):
    """First-stage slope too close to zero for a meaningful Wald ratio."""


class SeparationWarning(UserWarning):
    """Logistic fit shows signs of complete separation."""
