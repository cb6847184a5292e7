"""Canonical pretty-printer for descriptions and test suites.

Output is deterministic: 2-space indentation, pipe-table columns padded to a
uniform width, one trailing newline. Printing a parsed AST and re-parsing it
yields a structurally equal AST.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import zip_longest

from .model import (
    ArgContextRef,
    CellExpectation,
    CheckValue,
    CommandDecl,
    ContextDefinition,
    CustomAction,
    CustomCommand,
    DataTableBody,
    FEATURE_RANK,
    FeatureKind,
    FileBody,
    NameBinding,
    ReferenceBody,
    RowsExpectation,
    TestScenario,
    TestSuite,
    TextBody,
    ViewModelDescription,
    WidgetAction,
    WidgetCommand,
    WidgetDecl,
    WidgetKind,
    XmlBody,
)


def pretty_print(ast: ViewModelDescription | TestSuite) -> str:
    if isinstance(ast, ViewModelDescription):
        return _print_view_model(ast)
    if isinstance(ast, TestSuite):
        return _print_suite(ast)
    raise TypeError(f"cannot pretty-print {type(ast).__name__}")


def _escape(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _triple(content: str) -> str:
    # Triple-quoted blocks carry their content verbatim, so a run of three
    # quotes or a trailing quote would merge with the delimiter.
    if '"""' in content or content.endswith('"'):
        raise ValueError(
            "triple-quoted context content must not contain '\"\"\"' "
            "or end with a quote")
    return f'"""{content}"""'


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return _escape(value)


def _features_sorted(features) -> list[FeatureKind]:
    return sorted(features, key=FEATURE_RANK.__getitem__)


class _Writer:
    def __init__(self):
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text if text else "")

    def block(self, depth: int, head: str, body) -> None:
        """Emit ``head { ... }``, collapsing an empty body to ``head { }``."""
        before = len(self.lines)
        self.line(depth, head + " {")
        body(depth + 1)
        if len(self.lines) == before + 1:
            self.lines[before] = "  " * depth + head + " { }"
        else:
            self.line(depth, "}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# ViewModel descriptions
# ---------------------------------------------------------------------------


def _print_view_model(desc: ViewModelDescription) -> str:
    w = _Writer()
    head = f"viewmodel {desc.name}"
    if desc.bindings:
        w.line(0, head + " bind {")
        for b in desc.bindings:
            w.line(1, _binding(b))
        w.line(0, "} {")
    else:
        w.line(0, head + " {")
    w.block(1, "widgets", lambda d: _print_widgets(w, d, desc.widgets))
    w.block(1, "commands", lambda d: _print_commands(w, d, desc.commands))
    w.line(0, "}")
    return w.text()


def _binding(b: NameBinding) -> str:
    if b.subject in ("typeName", "fileName"):
        return f"{b.subject} = {_escape(b.bound_name)}"
    part = "name" if b.subject == "propertyName" else "getter"
    return f"property {b.widget}.{b.feature.value} {part} = {_escape(b.bound_name)}"


def _print_widgets(w: _Writer, depth: int, widgets) -> None:
    for widget in widgets:
        _print_widget(w, depth, widget)


def _print_widget(w: _Writer, depth: int, widget: WidgetDecl) -> None:
    if widget.kind is WidgetKind.TABLE:
        w.line(depth, f"table {widget.name} {{")
        w.block(depth + 1, "columns", lambda d: [
            w.line(d, f"{c.cell_kind.value} {_escape(c.title)}") for c in widget.columns])
        if widget.enabled_optional:
            feats = ", ".join(f.value for f in _features_sorted(widget.enabled_optional))
            w.line(depth + 1, f"supports {feats}")
        w.line(depth, "}")
        return
    head = f"{widget.kind.value} {widget.name}"
    if not widget.enabled_optional and not widget.examples:
        w.line(depth, head)
        return
    w.line(depth, head + " {")
    if widget.enabled_optional:
        feats = ", ".join(f.value for f in _features_sorted(widget.enabled_optional))
        w.line(depth + 1, f"supports {feats}")
    for feature, value in widget.examples:
        w.line(depth + 1, f"example {feature.value} = {_literal(value)}")
    w.line(depth, "}")


def _print_commands(w: _Writer, depth: int, commands) -> None:
    for command in commands:
        w.line(depth, _command(command))


def _command(command: CommandDecl) -> str:
    form = command.form
    if isinstance(form, WidgetCommand):
        return f"{form.kind.value} on {form.target}"
    assert isinstance(form, CustomCommand)
    params = ", ".join(f"{p.name}: {p.type.value}" for p in form.params)
    return f"command {command.name}({params})"


# ---------------------------------------------------------------------------
# Test suites
# ---------------------------------------------------------------------------


def _print_suite(suite: TestSuite) -> str:
    w = _Writer()
    w.block(0, f"testsuite {suite.name} for {suite.target_view_model}",
            lambda d: [_print_scenario(w, d, s) for s in suite.scenarios])
    return w.text()


def _print_scenario(w: _Writer, depth: int, scenario: TestScenario) -> None:
    w.line(depth, f"scenario {_escape(scenario.description)} {{")
    w.block(depth + 1, "given",
            lambda d: [_print_context(w, d, c) for c in scenario.given])
    w.block(depth + 1, "when",
            lambda d: [w.line(d, _action(a)) for a in scenario.when])
    w.block(depth + 1, "then",
            lambda d: [_print_check(w, d, c) for c in scenario.then])
    w.line(depth, "}")


def _print_context(w: _Writer, depth: int, ctx: ContextDefinition) -> None:
    body = ctx.body
    if isinstance(body, DataTableBody):
        w.line(depth, f"datatable {ctx.name} {{")
        for line in align_pipe_rows([list(body.header)] + [list(r) for r in body.rows]):
            w.line(depth + 1, line)
        w.line(depth, "}")
    elif isinstance(body, TextBody):
        w.line(depth, f'text {ctx.name} {_triple(body.text)}')
    elif isinstance(body, XmlBody):
        w.line(depth, f'xml {ctx.name} {_triple(body.text)}')
    elif isinstance(body, FileBody):
        w.line(depth, f"file {ctx.name} {_escape(body.path)}")
    elif isinstance(body, ReferenceBody):
        if not ctx.is_pure_use():
            raise ValueError(
                f"context alias {ctx.name!r} -> {body.target!r} has no textual form")
        w.line(depth, f"use {body.target}")


def _action(action) -> str:
    if isinstance(action, WidgetAction):
        head = f"{action.kind.value} {action.widget}"
        if action.arg is None:
            return head
        return f"{head} {_literal(action.arg)}"
    assert isinstance(action, CustomAction)
    args = ", ".join(
        arg.name if isinstance(arg, ArgContextRef) else _literal(arg.value)
        for arg in action.args)
    return f"{action.name}({args})"


def _print_check(w: _Writer, depth: int, check: CheckValue) -> None:
    if isinstance(check.expectation, RowsExpectation):
        _print_rows_check(w, depth, check)
        return
    w.line(depth, f"{check.widget_kind.value} {check.widget} "
                  f"{check.feature.value} {_literal(check.expectation)}")


def _print_rows_check(w: _Writer, depth: int, check: CheckValue) -> None:
    exp = check.expectation
    assert isinstance(exp, RowsExpectation)
    if not exp.header:
        raise ValueError(
            f"rows expectation for {check.widget!r} asserts no columns; "
            "a pipe row needs at least one cell")
    w.line(depth, f"table {check.widget} {{")
    if exp.ignored_columns:
        titles = ", ".join(_escape(t) for t in exp.ignored_columns)
        w.line(depth + 1, f"ignore {titles}")
    w.line(depth + 1, "rows {")
    grid, marks = expectation_grid(exp)
    for line, mark in zip(align_pipe_rows(grid), marks):
        w.line(depth + 2, line + mark)
    w.line(depth + 1, "}")
    if exp.selected_row_check is not None:
        w.line(depth + 1, f"selectedRow {exp.selected_row_check}")
    w.line(depth, "}")


def expectation_grid(
    exp: RowsExpectation,
) -> tuple[tuple[tuple[str, ...], ...], tuple[str, ...]]:
    """The cell texts of an expected table, header first, and the row marks
    that follow each pipe row (the header's is empty)."""
    grid = [exp.header]
    marks = [""]
    for row in exp.rows:
        grid.append(tuple(map(expectation_cell_text, row.cells)))
        color = row.color
        if row.selected:
            marks.append(" [selected]" if color is None else f" [selected] [color {color}]")
        else:
            marks.append("" if color is None else f" [color {color}]")
    return tuple(grid), tuple(marks)


def expectation_cell_text(cell: CellExpectation) -> str:
    if cell.ignored:
        return "*"
    if cell.tooltip is None and cell.color is None:
        return cell.value
    parts = [cell.value] if cell.value else []
    if cell.tooltip is not None:
        parts.append(f"[tooltip {_escape(cell.tooltip)}]")
    if cell.color is not None:
        parts.append(f"[color {cell.color}]")
    return " ".join(parts)


def align_pipe_rows(grid: Sequence[Sequence[str]]) -> list[str]:
    """Render a cell grid as pipe rows with uniform column widths; a column
    is as wide as its widest cell, and a row shorter than the longest one
    ends early."""
    widths = [max(map(len, column)) for column in zip_longest(*grid, fillvalue="")]
    return ["| " + " | ".join(map(str.ljust, row, widths)) + " |" for row in grid]
