"""The statements of a generated test, written for either target.

One walker turns an ``IRTest`` into source lines. What differs between
Java and C++ is data in a ``TargetSpec``; the walker never asks which
target it serves.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ir import (
    CONTROLLER_LOCAL,
    SETUP_LOCAL,
    VM_LOCAL,
    AssertEqual,
    BoolLit,
    CallSetup,
    CellField,
    Comment,
    DeclareLocal,
    DeclareParams,
    IRClass,
    IRExpr,
    IRTest,
    IRUnit,
    IntLit,
    InvokeCommand,
    LocalRef,
    NullLit,
    PropertyGet,
    RowColorField,
    RowCount,
    RowMatrix,
    StringLit,
)
from .literals import quote


class TargetSpec(NamedTuple):
    indent: str
    types: dict[str, str]  # IR type -> target type
    scope: str  # prefix of a generated type named from the test, e.g. "ns::"
    member: str  # separator between a class and its nested type
    construct: str  # object local with constructor arguments
    construct_bare: str  # object local without them
    assert_call: str
    continuation: str  # before each further chunk of a multi-line string
    null: str  # the optIndex value for no row
    index: tuple[str, str]  # around a row or cell index
    comment: Callable[[str], str]  # text kept on one ``//`` line
    # The expected value spelled in the actual value's type, or None when the
    # plain expression already has it.
    expected: Callable[[IRExpr, IRExpr], str | None]


def write_test_body(lines: list[str], unit: IRUnit, test: IRTest,
                    spec: TargetSpec) -> None:
    ind, assert_call, typed_expected = spec.indent, spec.assert_call, spec.expected
    lines.append(_new(spec, _instance_type(spec, unit.view_model), VM_LOCAL))
    target = VM_LOCAL
    if unit.controller is not None:
        lines.append(_new(spec, _instance_type(spec, unit.controller),
                          CONTROLLER_LOCAL, VM_LOCAL))
        target = CONTROLLER_LOCAL
    lines.append(_new(spec, f"{spec.scope}{unit.suite_name}Setup", SETUP_LOCAL, VM_LOCAL))
    for stmt in test.statements:
        kind = type(stmt)
        if kind is AssertEqual:
            expected = (typed_expected(stmt.expected, stmt.actual)
                        or _expr(stmt.expected, spec))
            lines.append(f"{ind}{assert_call}({expected}, "
                         f"{_expr(stmt.actual, spec)}, {quote(stmt.message)});")
        elif kind is InvokeCommand:
            args = ", ".join([_expr(a, spec) for a in stmt.args])
            lines.append(f"{ind}{target}.{stmt.method}({args});")
        elif kind is DeclareLocal:
            _declare_local(lines, ind, stmt, spec)
        elif kind is CallSetup:
            lines.append(f"{ind}{SETUP_LOCAL}.provideContext({quote(stmt.context_name)}, "
                         f"{_expr(stmt.payload, spec)}, {quote(stmt.delivery)});")
        elif kind is DeclareParams:
            lines.append(_new(spec, f"{spec.scope}{stmt.owner}{spec.member}{stmt.type_name}",
                              stmt.name))
            for field, arg in stmt.fields:
                lines.append(f"{ind}{stmt.name}.{field} = {_expr(arg, spec)};")
        elif kind is Comment:
            lines.append(f"{ind}// {spec.comment(stmt.text)}")
        elif kind is RowMatrix:
            lines.append(f"{ind}// expected {stmt.widget} rows:")
            for row in stmt.display(spec.comment):
                lines.append(f"{ind}// {row}")


def _instance_type(spec: TargetSpec, cls: IRClass) -> str:
    """The class a test instantiates: the hand-written ``Impl`` of an
    abstract class, otherwise the class itself."""
    return f"{spec.scope}{cls.name}Impl" if cls.abstract else f"{spec.scope}{cls.name}"


def _new(spec: TargetSpec, type_: str, name: str, args: str = "") -> str:
    template = spec.construct if args else spec.construct_bare
    return spec.indent + template.format(type=type_, name=name, args=args)


def _declare_local(lines: list[str], ind: str, stmt: DeclareLocal,
                   spec: TargetSpec) -> None:
    init = stmt.init
    if isinstance(init, StringLit) and init.multiline:
        parts = init.value.split("\n")
        head = quote(parts[0] + "\n")
        lines.append(f"{ind}{spec.types['string']} {stmt.name} = {head}")
        for part in parts[1:-1]:
            chunk = quote(part + "\n")
            lines.append(f"{ind}{spec.continuation}{chunk}")
        lines.append(f"{ind}{spec.continuation}{quote(parts[-1])};")
    else:
        lines.append(f"{ind}{spec.types[stmt.ir_type]} {stmt.name} = {_expr(init, spec)};")


def _expr(expr: IRExpr, spec: TargetSpec) -> str:
    kind = type(expr)
    if kind is StringLit:
        return quote(expr.value)
    if kind is CellField:
        open_, close = spec.index
        return (f"{VM_LOCAL}.{expr.getter}(){open_}{expr.row}{close}"
                f".cells{open_}{expr.column}{close}.{expr.field}")
    if kind is PropertyGet:
        return f"{VM_LOCAL}.{expr.getter}()"
    if kind is LocalRef:
        return expr.name
    if kind is IntLit:
        return str(expr.value)
    if kind is BoolLit:
        return "true" if expr.value else "false"
    if kind is RowCount:
        return f"{VM_LOCAL}.{expr.getter}().size()"
    if kind is RowColorField:
        open_, close = spec.index
        return f"{VM_LOCAL}.{expr.getter}(){open_}{expr.row}{close}.color"
    if kind is NullLit:
        return spec.null
    raise TypeError(f"cannot emit expression {expr!r}")
