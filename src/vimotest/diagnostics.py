"""Source spans, diagnostics, and the immutable record base that every AST,
IR and runtime value class derives from."""

from __future__ import annotations

from typing import NamedTuple

# Closed diagnostic code table. Every diagnostic carries one of these codes.
E_SYNTAX = "E001"
E_UNKNOWN_WIDGET = "E101"
E_UNSUPPORTED_FEATURE = "E102"
E_UNKNOWN_COMMAND = "E103"
E_ARITY_MISMATCH = "E104"
E_TYPE_MISMATCH = "E105"
E_DUPLICATE_NAME = "E106"
E_UNRESOLVED_CONTEXT = "E107"
E_RAGGED_TABLE = "E108"
E_CONTEXT_CYCLE = "E109"
E_UNKNOWN_COLUMN = "E110"


class SourceSpan(NamedTuple):
    """A 1-based (line, column) position plus length inside one file."""

    file: str = "<input>"
    line: int = 1
    column: int = 1
    length: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


UNKNOWN_SPAN = SourceSpan()


class Field(NamedTuple):
    """A record field default that keeps its field out of ==, hash and repr."""

    default: object


def span_field():
    """Record field for AST spans: never part of structural equality."""
    return Field(UNKNOWN_SPAN)


_MISSING = object()  # the default of a required field

# The `pass` keeps `__init__` valid for a class with no fields, such as Record.
_INIT = "def __init__(self, {params}):\n{body}\n    pass"


class _RecordType(type):
    """Builds a record class: ``__slots__`` from the annotations, the names of
    the compared fields, and an ``__init__`` compiled from one ``exec`` that
    writes through the slots. Equality, hash and repr are ``Record``'s own."""

    def __new__(mcls, name, bases, ns):
        own = ns.get("__annotations__", {})
        defaults = {f: ns.pop(f, _MISSING) for f in own}
        cls = super().__new__(mcls, name, bases, {**ns, "__slots__": tuple(own)})
        # Field name -> default (a plain value, a Field or _MISSING), inherited first.
        cls._fields = fields = {**getattr(cls, "_fields", {}), **defaults}
        cls._compared = tuple(f for f, d in fields.items() if not isinstance(d, Field))
        env, params, body = {}, [], []
        for f, default in fields.items():
            default = default.default if isinstance(default, Field) else default
            env[f"_s_{f}"], env[f"_d_{f}"] = getattr(cls, f).__set__, default
            params.append(f if default is _MISSING else f"{f}=_d_{f}")
            body.append(f"    _s_{f}(self, {f})")
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(_INIT.format(params=", ".join(params), body="\n".join(body)), env)
        cls.__init__ = env["__init__"]
        return cls


class Record(metaclass=_RecordType):
    """An immutable value object whose fields are its annotations, with optional
    defaults. Equality needs the exact type and, like hash and repr, skips
    ``Field`` fields such as spans; ``copy`` and ``pickle`` rebuild a record
    via ``__init__``."""

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._compared])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


class Diagnostic(Record):
    code: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        return f"{self.span}: {self.code}: {self.message}"


def error(code: str, message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(code=code, message=message, span=span)
