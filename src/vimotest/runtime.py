"""In-process scenario execution against user-supplied presentation logic.

The widget state store is the observable surface of the system under test:
presentation logic mutates it in response to command actions, and the
then-part assertions read it back. Context definitions are rendered to
strings (multiline, JSON, or XML) and handed to a test-setup adapter before
any action runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from itertools import compress
from operator import is_not
from typing import Callable, Protocol

from .analyzer import LinkedScenario, LinkedSuite, ResolvedContext
from .diagnostics import Record
from .model import (
    COLOR_NAMES,
    RowsExpectation,
    COMMAND_EFFECT,
    FEATURE_NAME,
    FEATURE_TYPE,
    ContextBody,
    DataTableBody,
    FeatureKind,
    FileBody,
    TextBody,
    ViewModelDescription,
    WidgetCommand,
    WidgetDecl,
    XmlBody,
    row_checks,
    xml_attribute_name,
)

STORE_COLORS = tuple(c for c in COLOR_NAMES if c != "none")

_FEATURES = {name: kind for kind, name in FEATURE_NAME.items()}
# Bound once: reading an enum member costs a class attribute lookup on each use.
_ROWS, _SELECTED_ROW, _TEXT = FeatureKind.ROWS, FeatureKind.SELECTED_ROW, FeatureKind.TEXT


class StoreError(Exception):
    """A write violated the description-derived store invariants."""


class ExecutionError(Exception):
    """Scenario execution failed outside of an assertion mismatch."""


class CellValue(Record):
    text: str = ""  # label text or image name, depending on the column kind
    tooltip: str | None = None
    color: str | None = None


class RowValue(Record):
    cells: tuple[CellValue, ...]
    color: str | None = None


class CheckFailure(Record):
    widget: str
    feature: str
    aspect: str  # value | tooltip | color | selected | rowCount
    expected: str
    actual: str
    row_index: int | None = None
    column_title: str | None = None


class ScenarioResult(Record):
    description: str
    status: str  # passed | failed | error
    failures: tuple[CheckFailure, ...] = ()
    duration_millis: int = 0
    duration_micros: int = 0
    error: str | None = None


class PresentationLogicPort(Protocol):
    def handle(self, command: str, args: list, store: "WidgetStateStore") -> None:
        """React to one command action by mutating the store."""


class TestSetupPort(Protocol):
    def provide_context(self, name: str, payload: str, delivery: str) -> None:
        """Receive one rendered context; payload is inline text or a file path."""


class RunConfig(Record):
    """Runtime slice of the generation configuration."""

    context_format: str = "multiline"  # multiline | json | xml
    context_delivery: str = "inline"  # inline | file


# ---------------------------------------------------------------------------
# Widget state store
# ---------------------------------------------------------------------------


class WidgetStateStore:
    """Mutable (widget, feature) -> value map scoped to one scenario run.

    Only features enabled in the description exist; writes of anything else
    raise StoreError. Table rows always match the declared column count and
    the selected row index always stays below the row count.

    A table row is validated when it enters the table. A table is trusted
    while every row it holds is immutable all the way down: a plain
    ``RowValue`` whose ``cells`` is a tuple of plain ``CellValue``. A write
    to a trusted table checks only the rows between the longest start and
    end it keeps in place (the same row object at the same position from
    either end), so an append or an insert checks one row and a delete
    none; a row that moves, or leaves and comes back, is checked again. A
    write that keeps the stored first row first and adds a row after the
    stored last row, or removes a single row other than the first or the
    last, compares rows by tuple ``==``, so there a row equal to the stored
    row at its place is kept too. A write to an untrusted table checks
    every row.
    """

    def __init__(self, description: ViewModelDescription):
        self._widgets: dict[str, WidgetDecl] = {w.name: w for w in description.widgets}
        self._values: dict[tuple[str, FeatureKind], object] = {}
        # Tables whose stored rows are all immutable all the way down.
        self._trusted: set[str] = set()
        for widget in description.widgets:
            examples = dict(widget.examples)
            for feature in widget.features():
                self._values[(widget.name, feature)] = examples.get(
                    feature, _DEFAULT_VALUES[FEATURE_TYPE[feature]])

    def _checked_key(self, widget: str,
                     feature: FeatureKind | str) -> tuple[str, FeatureKind]:
        """The key of a (widget, feature) pair that is not stored as given,
        or the StoreError that says why it is not."""
        if isinstance(feature, str):
            try:
                feature = FeatureKind(feature)
            except ValueError:
                raise StoreError(f"unknown feature '{feature}'") from None
        decl = self._widgets.get(widget)
        if decl is None:
            raise StoreError(f"unknown widget '{widget}'")
        if feature not in decl.features():
            raise StoreError(
                f"widget '{widget}' does not have the '{feature.value}' feature")
        return widget, feature

    def widget(self, name: str) -> WidgetDecl:
        decl = self._widgets.get(name)
        if decl is None:
            raise StoreError(f"unknown widget '{name}'")
        return decl

    def has(self, widget: str, feature: FeatureKind) -> bool:
        return (widget, feature) in self._values

    def get(self, widget: str, feature: FeatureKind | str):
        if type(feature) is str:
            feature = _FEATURES.get(feature, feature)
        try:
            value = self._values[widget, feature]
        except (KeyError, TypeError):
            value = self._values[self._checked_key(widget, feature)]
        if isinstance(value, tuple):
            return list(value)
        return value

    def set(self, widget: str, feature: FeatureKind | str, value) -> None:
        if type(feature) is str:
            feature = _FEATURES.get(feature, feature)
        key = (widget, feature)
        try:
            old = self._values[key]
        except (KeyError, TypeError):
            key = widget, feature = self._checked_key(widget, feature)
            old = self._values[key]
        self._values[key] = self._validate(widget, feature, old, value)

    def rows(self, widget: str) -> list[RowValue]:
        return self.get(widget, _ROWS)

    def set_rows(self, widget: str, rows) -> None:
        self.set(widget, _ROWS, rows)

    def selected_row(self, widget: str) -> int | None:
        return self.get(widget, _SELECTED_ROW)

    def _validate(self, widget: str, feature: FeatureKind, old, value):
        if feature is _ROWS:
            return self._validate_rows(widget, old, value)
        if feature is _SELECTED_ROW:
            if value is None:
                return None
            if not isinstance(value, int) or isinstance(value, bool):
                raise StoreError(
                    f"{widget}.selectedRow takes an int or None, got {value!r}")
            count = len(self._values[(widget, _ROWS)])
            if not 0 <= value < count:
                raise StoreError(
                    f"{widget}.selectedRow = {value} is out of range "
                    f"for {count} row(s)")
            return value
        if feature is _TEXT:
            if not isinstance(value, str):
                raise StoreError(f"{widget}.{feature.value} takes a string, got {value!r}")
            return value
        if not isinstance(value, bool):
            raise StoreError(f"{widget}.{feature.value} takes a bool, got {value!r}")
        return value

    def _validate_rows(self, widget: str, old: tuple[RowValue, ...],
                       value) -> tuple[RowValue, ...]:
        try:
            rows = tuple(value)
        except TypeError:
            raise StoreError(f"{widget}.rows takes RowValue items, got {value!r}") from None
        new = rows
        if widget in self._trusted:
            new = _entering_rows(rows, old)
        arity = len(self._widgets[widget].columns)
        trusted = True
        for row in new:
            if not isinstance(row, RowValue):
                raise StoreError(f"{widget}.rows takes RowValue items, got {row!r}")
            cells = row.cells
            if type(row) is not RowValue or type(cells) is not tuple:
                trusted = False
                if not isinstance(cells, (tuple, list)):
                    raise StoreError(
                        f"{widget} row cells must be a tuple or list of CellValue, got {cells!r}")
            if len(cells) != arity:
                raise StoreError(
                    f"{widget} row has {len(cells)} cells; "
                    f"the table declares {arity} columns")
            _validate_color(row.color, f"{widget} row")
            for cell in cells:
                if type(cell) is not CellValue:
                    if not isinstance(cell, CellValue):
                        raise StoreError(
                            f"{widget} row cells must be CellValue items, got {cell!r}")
                    trusted = False
                if cell.color is not None:
                    _validate_color(cell.color, f"{widget} cell")
                if not isinstance(cell.text, str):
                    raise StoreError(
                        f"{widget} cell text must be a string, got {cell.text!r}")
                if cell.tooltip is not None and not isinstance(cell.tooltip, str):
                    raise StoreError(f"{widget} cell tooltip must be a string "
                                     f"or None, got {cell.tooltip!r}")
        selected = self._values.get((widget, _SELECTED_ROW))
        if isinstance(selected, int) and selected >= len(rows):
            raise StoreError(
                f"{widget}.selectedRow = {selected} would exceed the new "
                f"row count {len(rows)}; clear the selection first")
        if trusted:
            self._trusted.add(widget)
        else:
            self._trusted.discard(widget)
        return rows


def _entering_rows(rows: tuple, old: tuple) -> tuple:
    """The rows of a write to a trusted table that its stored rows ``old``
    do not keep in place, see ``WidgetStateStore``."""
    count = len(old)
    if count and rows and rows[0] is old[0]:
        if len(rows) == count + 1 and rows[-2] is old[-1] and rows[:-1] == old:
            return rows[count:]
        if len(rows) == count - 1 and rows[-1] is old[-1]:
            # A single delete: every row after the first moved one moved up by one.
            start = next(compress(range(count - 1), map(is_not, rows, old)), count - 1)
            if rows[start:] == old[start + 1:]:
                return ()
    shared = min(len(rows), count)
    start = next(compress(range(shared), map(is_not, rows, old)), shared)
    # The kept end is sought only among the rows after the kept start.
    rest = shared - start
    end = len(rows) - next(
        compress(range(rest), map(is_not, reversed(rows), reversed(old))), rest)
    return rows[start:end]


def _validate_color(color: str | None, what: str) -> None:
    if color is not None and color not in STORE_COLORS:
        raise StoreError(f"{what} color must be one of {STORE_COLORS}, got {color!r}")


# The value a feature starts with, by its IR type, when its widget gives no example.
_DEFAULT_VALUES = {"bool": False, "string": "", "rowList": (), "optIndex": None}


# ---------------------------------------------------------------------------
# Context rendering
# ---------------------------------------------------------------------------


def render_context(body: ContextBody, format: str = "multiline") -> str:
    """Render a resolved context body to a string.

    Data tables render per the requested format; every other body passes
    through unchanged. File bodies are read from disk.
    """
    if isinstance(body, DataTableBody):
        if format == "multiline":
            return _render_multiline(body)
        if format == "json":
            return _render_json(body)
        if format == "xml":
            return _render_xml(body)
        raise ValueError(f"unknown context format {format!r}")
    if isinstance(body, (TextBody, XmlBody)):
        return body.text
    if isinstance(body, FileBody):
        try:
            with open(body.path, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ExecutionError(
                f"cannot read context file '{body.path}': {exc}") from exc
    raise ValueError(f"cannot render unresolved context body {body!r}")


def _render_multiline(body: DataTableBody) -> str:
    lines = [" | ".join(body.header)]
    lines.extend(" | ".join(row) for row in body.rows)
    return "\n".join(lines)


def _render_json(body: DataTableBody) -> str:
    records = [dict(zip(body.header, row)) for row in body.rows]
    return json.dumps(records, separators=(",", ":"), ensure_ascii=False)


def _render_xml(body: DataTableBody) -> str:
    names = [xml_attribute_name(title) for title in body.header]
    if not body.rows:
        return "<rows/>"
    rows = []
    for row in body.rows:
        attrs = " ".join(
            f'{name}="{_xml_escape(cell)}"' for name, cell in zip(names, row))
        rows.append(f"<row {attrs}/>" if attrs else "<row/>")
    return "<rows>" + "".join(rows) + "</rows>"


def _xml_escape(value: str) -> str:
    # Each escape runs only on a value that holds its character.
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    if '"' in value:
        value = value.replace('"', "&quot;")
    # A conforming parser turns a raw tab, LF or CR in an attribute value
    # into a space; a character reference keeps it.
    if "\t" in value:
        value = value.replace("\t", "&#9;")
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    if "\r" in value:
        value = value.replace("\r", "&#13;")
    return value


# ---------------------------------------------------------------------------
# Check evaluation
# ---------------------------------------------------------------------------


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def evaluate_rows_check(widget: WidgetDecl, expectation,
                        rows: list[RowValue],
                        selected_row: int | None) -> list[CheckFailure]:
    """Compare a rows expectation against actual table state, check by
    check of ``model.row_checks``.

    A row-count mismatch is reported as a single failure and suppresses all
    finer-grained checks. Ignored cells and columns never produce failures.
    """
    checks = row_checks(expectation, widget.column_indexes(expectation.header))
    count = next(checks)[4]
    if count != len(rows):
        return [CheckFailure(widget=widget.name, feature="rows", aspect="rowCount",
                             expected=str(count), actual=str(len(rows)))]
    failures: list[CheckFailure] = []
    for aspect, i, column, title, expected in checks:
        if aspect == "value":
            cell = rows[i].cells[column]
            actual = cell.text
        elif aspect == "tooltip":
            actual = cell.tooltip
            if expected == (actual or ""):
                continue
        elif aspect == "color":
            actual = (rows[i] if column is None else cell).color
        elif i is None:  # the selectedRow trailer
            actual, i = selected_row, expected
        else:  # a row of a marked table
            states = ("not selected", "selected")
            expected, actual = states[expected], states[selected_row == i]
        if expected != actual:
            failures.append(CheckFailure(
                widget=widget.name, feature="selectedRow" if aspect == "selected" else "rows",
                aspect=aspect, expected=_show(expected), actual=_show(actual),
                row_index=i, column_title=title))
    return failures


def _evaluate_check(check, store: WidgetStateStore) -> list[CheckFailure]:
    if isinstance(check.expectation, RowsExpectation):
        widget = store.widget(check.widget)
        rows = store.rows(check.widget)
        selected = (store.selected_row(check.widget)
                    if store.has(check.widget, _SELECTED_ROW) else None)
        return evaluate_rows_check(widget, check.expectation, rows, selected)
    actual = store.get(check.widget, check.feature)
    if actual != check.expectation:
        return [CheckFailure(widget=check.widget, feature=check.feature.value,
                             aspect="value", expected=_show(check.expectation),
                             actual=_show(actual))]
    return []


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def execute_scenario(
    linked: LinkedScenario,
    description: ViewModelDescription,
    logic: PresentationLogicPort,
    setup: TestSetupPort,
    config: RunConfig = RunConfig(),
) -> ScenarioResult:
    """Run one scenario: deliver contexts, dispatch actions, evaluate checks."""
    start = time.perf_counter_ns()
    temp_dir: tempfile.TemporaryDirectory | None = None

    def finished(status: str, **fields) -> ScenarioResult:
        micros = (time.perf_counter_ns() - start) // 1000
        return ScenarioResult(description=linked.scenario.description,
                              status=status, duration_millis=micros // 1000,
                              duration_micros=micros, **fields)

    try:
        store = WidgetStateStore(description)
        try:
            for context in linked.contexts:
                payload = render_context(context.body, config.context_format)
                if config.context_delivery == "file":
                    if temp_dir is None:
                        temp_dir = tempfile.TemporaryDirectory(prefix="vimotest-")
                    path = os.path.join(temp_dir.name, f"{context.name}.ctx")
                    with open(path, "w", encoding="utf-8", newline="\n") as handle:
                        handle.write(payload)
                    setup.provide_context(context.name, os.path.abspath(path), "file")
                else:
                    setup.provide_context(context.name, payload, "inline")
            for action in linked.actions:
                args = []
                for arg in action.args:
                    if isinstance(arg, ResolvedContext):
                        args.append(render_context(arg.body, config.context_format))
                    else:
                        args.append(arg)
                form = action.decl.form
                if isinstance(form, WidgetCommand):
                    effect = COMMAND_EFFECT[form.kind]
                    if effect is not None:
                        store.set(form.target, effect, args[0])
                logic.handle(action.decl.name, args, store)
        except (StoreError, ExecutionError) as exc:
            return finished("error", error=str(exc))
        except Exception as exc:  # logic and setup are user code
            return finished("error", error=f"{type(exc).__name__}: {exc}")
        failures: list[CheckFailure] = []
        for check in linked.checks:
            failures.extend(_evaluate_check(check, store))
        return finished("passed" if not failures else "failed",
                        failures=tuple(failures))
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()


def run_suite(
    linked: LinkedSuite,
    logic_factory: Callable[[], PresentationLogicPort],
    setup_factory: Callable[[], TestSetupPort],
    config: RunConfig = RunConfig(),
) -> list[ScenarioResult]:
    """Run every scenario with a fresh logic/setup pair; results keep order."""

    def run_one(scenario: LinkedScenario) -> ScenarioResult:
        try:
            logic = logic_factory()
            setup = setup_factory()
        except Exception as exc:
            return ScenarioResult(description=scenario.scenario.description,
                                  status="error",
                                  error=f"factory failed: {exc}")
        return execute_scenario(scenario, linked.description, logic, setup, config)

    return [run_one(s) for s in linked.scenarios]
