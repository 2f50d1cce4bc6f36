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
    """A spec, config, or name reference failed validation."""


# what ``expect`` and ``Doc.want`` call a value of each kind
_NOUNS = {str: "a string", Integral: "an integer", Real: "a number", bool: "true or false",
          list: "a list", dict: "an object"}
# the types that JSON parsing gives each kind, which pass without the slower
# check against the kind's abstract class
_PLAIN = {str: (str,), Integral: (int,), Real: (int, float), bool: (bool,), list: (list,),
          dict: (dict,)}


def _is(kind: type, value: object) -> bool:
    return type(value) in _PLAIN[kind] or (
        isinstance(value, kind) and (kind is bool or not isinstance(value, bool)))


def expect(kind: type, owner: str, /, optional: bool = False, **fields: object) -> None:
    """Raise ``ValidationError`` naming the first of ``fields`` that is not a
    ``kind`` (a key of ``_NOUNS``), or None where ``optional``; a bool is no number."""
    for name, value in fields.items():
        if not (optional and value is None) and not _is(kind, value):
            raise ValidationError(f"{owner}: {name} must be {_NOUNS[kind]}, got {value!r}")


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
        return ValidationError(f"{self.path or 'config'}: {message}")

    def want(self, kind: type) -> Any:
        """The value, if it is a ``kind`` (a key of ``_NOUNS``)."""
        if not _is(kind, self.value):
            raise self.error(f"must be {_NOUNS[kind]}, got {self.value!r}")
        return self.value

    def _path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default: object = None) -> "Doc":
        """The view of ``key`` in this object, or of ``default`` where it is absent."""
        return Doc(self.want(dict).get(key, default), self._path(key))

    def __getitem__(self, key: str) -> "Doc":
        obj = self.want(dict)
        if key not in obj:
            raise ValidationError(f"{self._path(key)}: required")
        return Doc(obj[key], self._path(key))

    def __contains__(self, key: str) -> bool:
        return key in self.want(dict)

    def __iter__(self) -> Iterator["Doc"]:
        return (Doc(v, f"{self.path}[{i}]") for i, v in enumerate(self.want(list)))

    def items(self) -> list[tuple[str, "Doc"]]:
        return [(k, Doc(v, self._path(k))) for k, v in self.want(dict).items()]

    def build(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, with this path put before the message of a
        ``ValidationError`` it raises, unless the message begins with it."""
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            if str(exc).startswith((f"{self.path}:", f"{self.path}.", f"{self.path}[")):
                raise
            raise self.error(str(exc)) from exc

    def read(self, cls: type, **given: Any) -> Any:
        """The dataclass ``cls`` built from this object: each field not in
        ``given`` from the key of its name, required unless the field has a
        default value."""
        obj = self.want(dict)
        for f in _fields(cls):
            if f.name not in given:
                given[f.name] = obj.get(f.name, f.default)
                if given[f.name] is dataclasses.MISSING:
                    raise ValidationError(f"{self._path(f.name)}: required")
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
