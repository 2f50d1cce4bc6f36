"""Exception and warning types shared across the package, and the view
through which config readers take their fields."""

import dataclasses
import functools
from numbers import Integral, Real
from typing import Any, Callable, Iterator


class BiaslabError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BiaslabError):
    """An argument violates an operation's preconditions."""


class ValidationError(BiaslabError):
    """A spec, config, or name reference failed validation.  ``field`` is the
    refused field's path relative to the object that raised it ("" for the
    object itself), or None once the message begins with the full path."""

    def __init__(self, message: str, field: str | None = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field, self.message = field, message


# what ``expect`` and ``Doc.want`` call a value of each kind; ``(Real, str)`` is
# a number or the name of a placeholder that a Monte Carlo template binds
_NOUNS = {str: "a string", Integral: "an integer", Real: "a number", bool: "true or false",
          list: "a list", dict: "an object", (Real, str): "a number or a placeholder name"}
# the types that JSON parsing gives each kind, which pass without the slower
# check against the kind's abstract class
_PLAIN = {str: (str,), Integral: (int,), Real: (int, float), bool: (bool,), list: (list,),
          dict: (dict,), (Real, str): (int, float, str)}
# the least int that ``float()`` refuses, as it rounds to 2^1024
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _is(kind: type | tuple, value: object) -> bool:
    if type(value) is int and kind in (Real, (Real, str)):  # a number is one that float() takes
        return abs(value) < _FLOAT_INT_LIMIT
    return type(value) in _PLAIN[kind] or (
        isinstance(value, kind) and (kind is bool or not isinstance(value, bool)))


def shown(value: object) -> str:
    """``repr(value)`` for an error message, an integer of more than 24 digits
    shortened to its first and last digits and its length (to its bit length past
    ``str``'s digit limit), and any other repr of more than 80 characters cut there."""
    try:
        text = repr(value)
    except ValueError:  # an int past the interpreter's limit on digits converted, or a container of one
        return (f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
                if isinstance(value, int) else f"a {type(value).__name__} too long to show")
    if isinstance(value, int) and len(digits := text.lstrip("-")) > 24:
        return f"{text[:len(text) - len(digits) + 4]}…{digits[-3:]} ({len(digits)} digits)"
    return text if len(text) <= 80 else text[:79] + "…"


def expect(kind: type | tuple, /, optional: bool = False, **fields: object) -> None:
    """Raise ``ValidationError`` naming the first of ``fields`` that is not a
    ``kind`` (a key of ``_NOUNS``), or None where ``optional``; a bool is no number."""
    for name, value in fields.items():
        if not (optional and value is None) and not _is(kind, value):
            raise ValidationError(f"must be {_NOUNS[kind]}, got {shown(value)}", name)


def expect_count(**counts: object) -> None:
    """Raise ``ValidationError`` naming the first of ``counts`` that is not an
    integer in [1, 2^63), the sizes that numpy can take."""
    expect(Integral, **counts)
    for name, v in counts.items():
        if not 1 <= v < 2**63:  # type: ignore[operator]
            raise ValidationError(f"must be {'>= 1' if v < 1 else '< 2^63'}, got {shown(v)}", name)


class Doc:
    """A JSON value and its path in a config document, such as ``mc.bindings``.

    Readers take their fields through it, so that each error names its field:
    a missing key is ``mc.bindings.b_xc.hi: required``.  A whole document's
    path is empty, and its errors say ``config``.
    """

    __slots__ = ("value", "path")

    def __init__(self, value: object, path: str = ""):
        self.value, self.path = value, path

    @classmethod
    def of(cls, doc: object, path: str) -> "Doc":
        """``doc`` if it is a view already, else a view of it at ``path``."""
        return doc if isinstance(doc, Doc) else cls(doc, path)

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path or 'config'}: {message}", None)

    def want(self, kind: type | tuple) -> Any:
        """The value, if it is a ``kind`` (a key of ``_NOUNS``)."""
        if not _is(kind, self.value):
            raise self.error(f"must be {_NOUNS[kind]}, got {shown(self.value)}")
        return self.value

    def at(self, key: str, value: object = None) -> "Doc":
        """The view of ``value`` at ``key``, a path relative to this one."""
        return Doc(value, f"{self.path}.{key}" if self.path and key and key[0] != "[" else self.path + key)

    def get(self, key: str, default: object = None) -> "Doc":
        """The view of ``key`` in this object, or of ``default`` where it is absent."""
        return self.at(key, self.want(dict).get(key, default))

    def __getitem__(self, key: str) -> "Doc":
        obj = self.want(dict)
        if key not in obj:
            raise self.at(key).error("required")
        return self.at(key, obj[key])

    def __contains__(self, key: str) -> bool:
        return key in self.want(dict)

    def __iter__(self) -> Iterator["Doc"]:
        return (self.at(f"[{i}]", v) for i, v in enumerate(self.want(list)))

    def items(self) -> list[tuple[str, "Doc"]]:
        return [(k, self.at(k, v)) for k, v in self.want(dict).items()]

    def build(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, with this path put before the field of a
        ``ValidationError`` it raises that names its field relative to the object."""
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            if exc.field is None:
                raise
            raise self.at(exc.field).error(exc.message) from exc

    def read(self, cls: type, **given: Any) -> Any:
        """The dataclass ``cls`` built from this object: each field not in
        ``given`` from the key of its name, required unless the field has a
        default value."""
        obj = self.want(dict)
        for f in _fields(cls):
            if f.name not in given:
                given[f.name] = obj.get(f.name, f.default)
                if given[f.name] is dataclasses.MISSING:
                    raise self.at(f.name).error("required")
        return self.build(cls, **given)


_fields = functools.cache(dataclasses.fields)


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
