"""Source spans and diagnostics shared by the parser and the analyzer."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based (line, column) position plus length inside one file."""

    file: str = "<input>"
    line: int = 1
    column: int = 1
    length: int = 0


UNKNOWN_SPAN = SourceSpan()


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        return f"{self.span.file}:{self.span.line}:{self.span.column}: {self.code}: {self.message}"


def error(code: str, message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(code=code, message=message, span=span)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    """Every diagnostic is an error."""
    return bool(diagnostics)


def span_field():
    """Dataclass field for AST spans: never part of structural equality."""
    return field(default=UNKNOWN_SPAN, compare=False, repr=False)
