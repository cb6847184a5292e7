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
    """A record field default beyond a plain value: ``factory`` makes a fresh one
    per instance; ``compare=False`` keeps the field out of ==, hash and repr."""

    default: object = None
    factory: object = None
    compare: bool = True


def span_field():
    """Record field for AST spans: never part of structural equality."""
    return Field(UNKNOWN_SPAN, compare=False)


_MISSING = object()  # the default of a required field or of a factory field

# The `pass` keeps `__init__` valid for a class with no fields, such as Record.
_METHODS = """
def __init__(self, {params}):
{body}
    pass
def __eq__(self, other):
    return ({mine}) == ({theirs}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash(({mine}))
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
"""


class _RecordType(type):
    """Builds a record class: ``__slots__`` from the annotations, and the four
    methods below from one ``exec``, ``__init__`` writing through the slots."""

    def __new__(mcls, name, bases, ns):
        own = ns.get("__annotations__", {})
        defaults = {f: ns.pop(f, _MISSING) for f in own}
        cls = super().__new__(mcls, name, bases, {**ns, "__slots__": tuple(own)})
        # Field name -> default (a plain value, a Field or _MISSING), inherited first.
        cls._fields = fields = {**getattr(cls, "_fields", {}), **defaults}
        env, params, body, compared = {"_MISSING": _MISSING}, [], [], []
        for f, field in fields.items():
            field = field if isinstance(field, Field) else Field(field)
            env[f"_s_{f}"], env[f"_d_{f}"], env[f"_f_{f}"] = (
                getattr(cls, f).__set__, field.default, field.factory)
            if field.factory is not None:
                params.append(f"{f}=_MISSING")
                body.append(f"    if {f} is _MISSING: {f} = _f_{f}()")
            else:
                params.append(f if field.default is _MISSING else f"{f}=_d_{f}")
            body.append(f"    _s_{f}(self, {f})")
            if field.compare:
                compared.append(f)
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(_METHODS.format(params=", ".join(params), body="\n".join(body),
                             mine="".join(f"self.{f}," for f in compared),
                             theirs="".join(f"other.{f}," for f in compared),
                             shown=", ".join(f"{f}={{self.{f}!r}}" for f in compared)), env)
        for method in ("__init__", "__eq__", "__hash__", "__repr__"):
            setattr(cls, method, env[method])
        return cls


class Record(metaclass=_RecordType):
    """An immutable value object whose fields are its annotations, with optional
    defaults. Equality needs the exact type and skips ``compare=False`` fields
    such as spans; ``copy`` and ``pickle`` rebuild a record via ``__init__``."""

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
