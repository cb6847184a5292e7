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
    AssertRows,
    BoolLit,
    CallSetup,
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
    PropertyGet,
    StringLit,
)
from .literals import quote
from .printer import align_pipe_rows, expectation_grid


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
    # An expected table value spelled in the type of what it is compared
    # with: a row count, a quoted cell or row string, a selected row index.
    row_count: str
    cell: str
    row_index: str


def write_test_body(lines: list[str], unit: IRUnit, test: IRTest,
                    spec: TargetSpec) -> None:
    ind, assert_call = spec.indent, spec.assert_call
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
            lines.append(f"{ind}{assert_call}({_expr(stmt.expected, spec)}, "
                         f"{_expr(stmt.actual, spec)}, {quote(stmt.message)});")
        elif kind is AssertRows:
            _assert_rows(lines, stmt, spec)
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


def _assert_rows(lines: list[str], stmt: AssertRows, spec: TargetSpec) -> None:
    """The expected table as an aligned comment, then its row count and,
    row by row, each non-ignored cell's value, tooltip and colour, the row's
    colour and its selection; then the selected-row check."""
    ind, widget, exp = spec.indent, stmt.widget, stmt.expectation
    grid, marks = expectation_grid(exp)
    lines.append(f"{ind}// expected {widget} rows:")
    # Escape before aligning, so a cell the escape widens keeps its column.
    shown = align_pipe_rows([[spec.comment(cell) for cell in row] for row in grid])
    lines.extend(f"{ind}// {row}{mark}" for row, mark in zip(shown, marks))

    head = f"{ind}{spec.assert_call}("

    def assert_(expected: str, actual: str, message: str) -> None:
        lines.append(f"{head}{expected}, {actual}, {quote(message)});")

    open_, close = spec.index
    string, index = spec.cell.format, spec.row_index.format
    rows = f"{VM_LOCAL}.{stmt.rows_getter}()"
    selected = f"{VM_LOCAL}.{stmt.selected_getter}()"
    assert_(spec.row_count.format(len(exp.rows)), f"{rows}.size()", f"{widget}: row count")
    for i, row in enumerate(exp.rows):
        row_ref = f"{rows}{open_}{i}{close}"
        for title, column, cell in zip(exp.header, stmt.columns, row.cells):
            if cell.ignored:
                continue
            cell_ref = f"{row_ref}.cells{open_}{column}{close}"
            label = f"{widget}[{i}][{title}]"
            assert_(string(quote(cell.value)), f"{cell_ref}.text", f"{label}: value")
            if cell.tooltip is not None:
                assert_(string(quote(cell.tooltip)), f"{cell_ref}.tooltip",
                        f"{label}: tooltip")
            if cell.color is not None:
                assert_(string(_color(cell.color)), f"{cell_ref}.color", f"{label}: color")
        if row.color is not None:
            assert_(string(_color(row.color)), f"{row_ref}.color", f"{widget}[{i}]: color")
        if row.selected:
            assert_(index(i), selected, f"{widget}: selected row")
    check = exp.selected_row_check
    if check is not None:
        assert_(spec.null if check == "none" else index(check), selected,
                f"{widget}: selected row")


def _color(name: str) -> str:
    """An expected colour as a string literal; no colour is ``""``."""
    return quote("" if name == "none" else name)


def _expr(expr: IRExpr, spec: TargetSpec) -> str:
    kind = type(expr)
    if kind is StringLit:
        return quote(expr.value)
    if kind is PropertyGet:
        return f"{VM_LOCAL}.{expr.getter}()"
    if kind is LocalRef:
        return expr.name
    if kind is IntLit:
        return str(expr.value)
    if kind is BoolLit:
        return "true" if expr.value else "false"
    raise TypeError(f"cannot emit expression {expr!r}")
