"""The statements of a generated test, written for either target.

One walker turns an ``IRTest`` into source lines. What differs between
Java and C++ is data in a ``TargetSpec``; the walker never asks which
target it serves.

An expected table can hold thousands of checks, so its text is built at
the coarsest level it varies at: the comment grid is escaped once per
table, each column's cell reference and label tail once per table, each
row's reference and label head once per row. Each check adds only its
expected value to the text of its row and column. The labels are
``model.check_label``'s, composed from its parts ``row_label`` and
``aspect_label``.
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
from .model import aspect_label, check_label, row_checks, row_label
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
    string: tuple[str, str]  # around a quoted cell or row string
    row_index: str
    gate: bool  # the asserts after a table's row count need it to hold


def write_test_body(lines: list[str], unit: IRUnit, test: IRTest,
                    spec: TargetSpec, written: dict[int, str]) -> None:
    """Append the lines of ``test``. ``written`` maps the id of an
    ``InvokeCommand``, ``Comment`` or ``AssertEqual`` statement to its line;
    lowering shares one such statement among the equal steps of a unit, so
    the caller passes one dict per unit and spec, for as long as the unit
    lives."""
    ind, assert_call = spec.indent, spec.assert_call
    lines.append(_new(spec, _instance_type(spec, unit.view_model), VM_LOCAL))
    target = VM_LOCAL
    if unit.controller is not None:
        lines.append(_new(spec, _instance_type(spec, unit.controller),
                          CONTROLLER_LOCAL, VM_LOCAL))
        target = CONTROLLER_LOCAL
    lines.append(_new(spec, f"{spec.scope}{unit.suite_name}Setup", SETUP_LOCAL, VM_LOCAL))
    for stmt in test.statements:
        line = written.get(id(stmt))
        if line is not None:
            lines.append(line)
            continue
        kind = type(stmt)
        if kind is AssertEqual:
            line = (f"{ind}{assert_call}({_expr(stmt.expected, spec)}, "
                    f"{_expr(stmt.actual, spec)}, {quote(stmt.message)});")
        elif kind is InvokeCommand:
            args = ", ".join([_expr(a, spec) for a in stmt.args])
            line = f"{ind}{target}.{stmt.method}({args});"
        elif kind is Comment:
            line = f"{ind}// {spec.comment(stmt.text)}"
        if line is not None:
            written[id(stmt)] = line
            lines.append(line)
        elif kind is AssertRows:
            _assert_rows(lines, stmt, spec)
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
        # Each line but the last is its own literal, its closing quote
        # moved past a literal ``\n``.
        head, *middle, last = init.value.split("\n")
        lines.append(f"{ind}{spec.types['string']} {stmt.name} = {quote(head)[:-1]}\\n\"")
        lines.extend([f"{ind}{spec.continuation}{quote(part)[:-1]}\\n\"" for part in middle])
        lines.append(f"{ind}{spec.continuation}{quote(last)};")
    else:
        lines.append(f"{ind}{spec.types[stmt.ir_type]} {stmt.name} = {_expr(init, spec)};")


# Each aspect a cell check asserts, and the generated cell field it reads.
_CELL_FIELDS = (("value", "text"), ("tooltip", "tooltip"), ("color", "color"))


def _assert_rows(lines: list[str], stmt: AssertRows, spec: TargetSpec) -> None:
    """The expected table as an aligned comment, then one assert per check
    of ``model.row_checks``. A failed C++ assert returns where a Java one
    throws, so with ``spec.gate`` the later asserts need the row count."""
    ind, widget, exp = spec.indent, stmt.widget, stmt.expectation
    grid, marks = expectation_grid(exp)
    lines.append(f"{ind}// expected {widget} rows:")
    # Escape before aligning, so a cell the escape widens keeps its column.
    # The escape changes a cell only if it changes the whole table's text.
    comment = spec.comment
    text = "\n".join(map("\n".join, grid))
    if comment(text) != text:
        grid = [[comment(cell) for cell in row] for row in grid]
    lines.extend(f"{ind}// {row}{mark}" for row, mark in zip(align_pipe_rows(grid), marks))

    open_, close = spec.index
    string_open, string_close = spec.string
    rows = f"{VM_LOCAL}.{stmt.rows_getter}()"
    # Quoting a label escapes its widget name and column titles, each once here.
    name = quote(widget)[1:-1]
    checks = row_checks(exp, stmt.columns)
    count = next(checks)[4]
    head = f"{ind}{spec.assert_call}("
    lines.append(f"{head}{spec.row_count.format(count)}, {rows}.size(), "
                 f'"{check_label(name, "rows", "rowCount")}");')
    if spec.gate:
        gate = f"{ind}if ({rows}.size() == {count}) {{"
        lines.append(gate)
        head = f"{ind}    {spec.assert_call}("
    selected = (f"{VM_LOCAL}.{stmt.selected_getter}(), "
                f'"{check_label(name, "rows", "selected")}");')
    # Per column title and aspect, what follows the row in the actual value
    # and in the label; the row's own colour has no title.
    tails = {None: {"color": ('.color, "', aspect_label("color") + '");')}}
    for column, title in zip(stmt.columns, exp.header):
        cell, escaped = f".cells{open_}{column}{close}.", quote(title)[1:-1]
        tails[title] = {aspect: (f'{cell}{field}, "', aspect_label(aspect, escaped) + '");')
                        for aspect, field in _CELL_FIELDS}
    string_head = f"{head}{string_open}"
    current = None
    for aspect, i, _, title, expected in checks:
        if aspect == "selected":
            if i is not None and not expected:
                continue  # one selected index implies the unmarked rows
            row = expected if i is None else i
            lines.append(f"{head}{spec.null if row is None else spec.row_index.format(row)}, "
                         f"{selected}")
            continue
        if i != current:
            current = i
            actual = f"{string_close}, {rows}{open_}{i}{close}"
            label = row_label(name, i)
        actual_tail, label_tail = tails[title][aspect]
        # A generated cell or row field is a string, and no colour is "".
        lines.append(f"{string_head}{quote(expected or '')}{actual}{actual_tail}{label}{label_tail}")
    if spec.gate:  # close the block, or drop it if it guards nothing
        if lines[-1] == gate:
            lines.pop()
        else:
            lines.append(f"{ind}}}")


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
