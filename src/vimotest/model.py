"""Widget catalog and the AST types shared by parser, analyzer, runtime, and codegen.

The catalog is a fixed, closed set of five logical widget kinds. Each kind
declares which features it always carries (inherent), which a description may
opt into (optional), and which built-in widget commands it supports. All AST
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, unique

from .diagnostics import SourceSpan, span_field
from .lexer import IDENT_PATTERN


# The kinds hash by identity: members are singletons and Enum equality is
# identity, so the hash agrees with ==, and it runs in C where Enum.__hash__
# is Python code. They are plain Enums, never equal to their strings.
@unique
class WidgetKind(Enum):
    __hash__ = object.__hash__

    BUTTON = "button"
    LABEL = "label"
    CHECKBOX = "checkbox"
    TEXTFIELD = "textfield"
    TABLE = "table"


@unique
class FeatureKind(Enum):
    __hash__ = object.__hash__

    ENABLED = "enabled"
    VISIBLE = "visible"
    TEXT = "text"
    CHECKED = "checked"
    ROWS = "rows"
    SELECTED_ROW = "selectedRow"


@unique
class CommandKind(Enum):
    __hash__ = object.__hash__

    CLICK = "click"
    CHECK = "check"
    FILL_TEXT = "fillText"
    SELECT_ROW = "selectRow"


@unique
class CellKind(Enum):
    __hash__ = object.__hash__

    LABEL = "label"
    IMAGE = "image"
    CHECKBOX = "checkbox"


@unique
class ParamType(Enum):
    __hash__ = object.__hash__

    STRING = "string"
    BOOL = "bool"
    INT = "int"
    CONTEXT = "context"


# Closed color set; "none" asserts the absence of a color.
COLOR_NAMES = ("red", "green", "yellow", "blue", "gray", "none")

# Canonical feature order (the declaration order of FeatureKind) for the
# parser, the pretty-printer and the code generators.
FEATURE_RANK = {feature: i for i, feature in enumerate(FeatureKind)}

BOOL_FEATURES = frozenset({FeatureKind.ENABLED, FeatureKind.VISIBLE, FeatureKind.CHECKED})

# Intrinsic parameter carried by each widget command, and the feature the
# command updates on the target widget before presentation logic runs.
COMMAND_PARAM: dict[CommandKind, ParamType | None] = {
    CommandKind.CLICK: None,
    CommandKind.CHECK: ParamType.BOOL,
    CommandKind.FILL_TEXT: ParamType.STRING,
    CommandKind.SELECT_ROW: ParamType.INT,
}

COMMAND_EFFECT: dict[CommandKind, FeatureKind | None] = {
    CommandKind.CLICK: None,
    CommandKind.CHECK: FeatureKind.CHECKED,
    CommandKind.FILL_TEXT: FeatureKind.TEXT,
    CommandKind.SELECT_ROW: FeatureKind.SELECTED_ROW,
}


@dataclass(frozen=True)
class WidgetCatalogEntry:
    kind: WidgetKind
    inherent: frozenset[FeatureKind]
    optional: frozenset[FeatureKind]
    widget_commands: frozenset[CommandKind]


CATALOG: dict[WidgetKind, WidgetCatalogEntry] = {
    WidgetKind.BUTTON: WidgetCatalogEntry(
        kind=WidgetKind.BUTTON,
        inherent=frozenset(),
        optional=frozenset({FeatureKind.ENABLED, FeatureKind.VISIBLE}),
        widget_commands=frozenset({CommandKind.CLICK}),
    ),
    WidgetKind.LABEL: WidgetCatalogEntry(
        kind=WidgetKind.LABEL,
        inherent=frozenset({FeatureKind.TEXT}),
        optional=frozenset({FeatureKind.ENABLED, FeatureKind.VISIBLE}),
        widget_commands=frozenset(),
    ),
    WidgetKind.CHECKBOX: WidgetCatalogEntry(
        kind=WidgetKind.CHECKBOX,
        inherent=frozenset({FeatureKind.CHECKED}),
        optional=frozenset({FeatureKind.ENABLED, FeatureKind.VISIBLE}),
        widget_commands=frozenset({CommandKind.CHECK}),
    ),
    WidgetKind.TEXTFIELD: WidgetCatalogEntry(
        kind=WidgetKind.TEXTFIELD,
        inherent=frozenset({FeatureKind.TEXT}),
        optional=frozenset({FeatureKind.ENABLED, FeatureKind.VISIBLE}),
        widget_commands=frozenset({CommandKind.FILL_TEXT}),
    ),
    WidgetKind.TABLE: WidgetCatalogEntry(
        kind=WidgetKind.TABLE,
        inherent=frozenset({FeatureKind.ROWS}),
        optional=frozenset({FeatureKind.SELECTED_ROW, FeatureKind.ENABLED, FeatureKind.VISIBLE}),
        widget_commands=frozenset({CommandKind.SELECT_ROW}),
    ),
}


def catalog_lookup(kind: WidgetKind) -> WidgetCatalogEntry:
    """Return the fixed catalog entry for a widget kind. Total over the enum."""
    return CATALOG[kind]


_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")


def is_identifier(raw: str) -> bool:
    return bool(_IDENT_RE.match(raw))


def validate_identifier(raw: str) -> str:
    """Accept ``[A-Za-z][A-Za-z0-9_]*`` and return it unchanged; reject otherwise."""
    if not raw:
        raise ValueError("identifier must not be empty")
    if not _IDENT_RE.match(raw):
        if raw[0].isdigit():
            raise ValueError(f"identifier must not start with a digit: {raw!r}")
        raise ValueError(f"not a valid identifier: {raw!r}")
    return raw


# ---------------------------------------------------------------------------
# ViewModel description AST
# ---------------------------------------------------------------------------

Literal = bool | int | str


@dataclass(frozen=True)
class ColumnSpec:
    cell_kind: CellKind
    title: str
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class WidgetDecl:
    name: str
    kind: WidgetKind
    enabled_optional: frozenset[FeatureKind] = frozenset()
    columns: tuple[ColumnSpec, ...] = ()
    # (feature, literal) pairs in canonical feature order.
    examples: tuple[tuple[FeatureKind, Literal], ...] = ()
    span: SourceSpan = span_field()

    def features(self) -> frozenset[FeatureKind]:
        """Inherent plus enabled-optional features of this widget."""
        return catalog_lookup(self.kind).inherent | self.enabled_optional


@dataclass(frozen=True)
class Param:
    name: str
    type: ParamType


@dataclass(frozen=True)
class WidgetCommand:
    kind: CommandKind
    target: str


@dataclass(frozen=True)
class CustomCommand:
    params: tuple[Param, ...] = ()


@dataclass(frozen=True)
class CommandDecl:
    name: str
    form: WidgetCommand | CustomCommand
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class NameBinding:
    """Overrides one generated target name.

    subject is one of "typeName", "fileName", "propertyName", "getterName";
    widget/feature are set for the property and getter subjects only.
    """

    subject: str
    bound_name: str
    widget: str | None = None
    feature: FeatureKind | None = None
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class ViewModelDescription:
    name: str
    widgets: tuple[WidgetDecl, ...] = ()
    commands: tuple[CommandDecl, ...] = ()
    bindings: tuple[NameBinding, ...] = ()
    span: SourceSpan = span_field()

    def widget(self, name: str) -> WidgetDecl | None:
        for w in self.widgets:
            if w.name == name:
                return w
        return None


# ---------------------------------------------------------------------------
# Test suite AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataTableBody:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class TextBody:
    text: str


@dataclass(frozen=True)
class XmlBody:
    text: str


@dataclass(frozen=True)
class FileBody:
    path: str


@dataclass(frozen=True)
class ReferenceBody:
    target: str


ContextBody = DataTableBody | TextBody | XmlBody | FileBody | ReferenceBody


@dataclass(frozen=True)
class ContextDefinition:
    name: str
    body: ContextBody
    span: SourceSpan = span_field()

    def is_pure_use(self) -> bool:
        """True for a plain ``use X`` entry: a reference, not a definition."""
        return isinstance(self.body, ReferenceBody) and self.body.target == self.name


@dataclass(frozen=True)
class ArgLiteral:
    value: Literal


@dataclass(frozen=True)
class ArgContextRef:
    name: str


Argument = ArgLiteral | ArgContextRef


@dataclass(frozen=True)
class WidgetAction:
    kind: CommandKind
    widget: str
    arg: Literal | None = None
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class CustomAction:
    name: str
    args: tuple[Argument, ...] = ()
    span: SourceSpan = span_field()


Action = WidgetAction | CustomAction


@dataclass(frozen=True)
class CellExpectation:
    ignored: bool = False
    value: str = ""
    tooltip: str | None = None
    color: str | None = None


@dataclass(frozen=True)
class RowExpectation:
    cells: tuple[CellExpectation, ...]
    selected: bool = False
    color: str | None = None


@dataclass(frozen=True)
class RowsExpectation:
    """Expected table contents: a header naming the asserted columns, one
    expectation row per expected table row, plus optional selection check.

    selected_row_check is None (unchecked), an int index, or "none"
    (asserts no selection).
    """

    header: tuple[str, ...]
    rows: tuple[RowExpectation, ...] = ()
    ignored_columns: tuple[str, ...] = ()
    selected_row_check: int | str | None = None


@dataclass(frozen=True)
class CheckValue:
    widget: str
    widget_kind: WidgetKind
    feature: FeatureKind
    expectation: Literal | RowsExpectation
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class TestScenario:
    description: str
    given: tuple[ContextDefinition, ...] = ()
    when: tuple[Action, ...] = ()
    then: tuple[CheckValue, ...] = ()
    span: SourceSpan = span_field()


@dataclass(frozen=True)
class TestSuite:
    name: str
    target_view_model: str
    scenarios: tuple[TestScenario, ...] = ()
    span: SourceSpan = span_field()
