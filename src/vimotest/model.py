"""Widget catalog and the AST types shared by parser, analyzer, runtime, and codegen.

The catalog is a fixed, closed set of five logical widget kinds. Each kind
declares which features it always carries (inherent), which a description may
opt into (optional), and which built-in widget commands it supports. All AST
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum, unique
from functools import lru_cache

from .diagnostics import Record, SourceSpan, span_field
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

# The value type of each feature and of each parameter type, as an IR type
# name. The parser's checks, the analyzer's type rules, the runtime's
# defaults and the lowering all derive from these two tables.
FEATURE_TYPE: dict[FeatureKind, str] = {
    FeatureKind.ENABLED: "bool", FeatureKind.VISIBLE: "bool", FeatureKind.TEXT: "string",
    FeatureKind.CHECKED: "bool", FeatureKind.ROWS: "rowList", FeatureKind.SELECTED_ROW: "optIndex",
}
PARAM_TYPE: dict[ParamType, str] = {
    ParamType.STRING: "string", ParamType.BOOL: "bool", ParamType.INT: "int",
    ParamType.CONTEXT: "string",
}
BOOL_FEATURES = frozenset(f for f, t in FEATURE_TYPE.items() if t == "bool")

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


class WidgetCatalogEntry(Record):
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


# The XML 1.0 name characters that every edition accepts: those of the
# fourth edition's Appendix B, which expat (and so ``xml.etree``) keeps and
# the fifth edition's wider ranges contain. ``_XML_NAME_START`` lists the
# letters (BaseChar, Ideographic) and '_', ``_XML_NAME_MORE`` the rest of
# NameChar ('-', '.', Digit, CombiningChar, Extender) without ':', which
# would make a namespace prefix. Each entry is a hex code point or range.
_XML_NAME_START = """
41-5A 5F 61-7A C0-D6 D8-F6 F8-131 134-13E 141-148 14A-17E 180-1C3 1CD-1F0
1F4-1F5 1FA-217 250-2A8 2BB-2C1 386 388-38A 38C 38E-3A1 3A3-3CE 3D0-3D6 3DA 3DC
3DE 3E0 3E2-3F3 401-40C 40E-44F 451-45C 45E-481 490-4C4 4C7-4C8 4CB-4CC 4D0-4EB
4EE-4F5 4F8-4F9 531-556 559 561-586 5D0-5EA 5F0-5F2 621-63A 641-64A 671-6B7
6BA-6BE 6C0-6CE 6D0-6D3 6D5 6E5-6E6 905-939 93D 958-961 985-98C 98F-990 993-9A8
9AA-9B0 9B2 9B6-9B9 9DC-9DD 9DF-9E1 9F0-9F1 A05-A0A A0F-A10 A13-A28 A2A-A30
A32-A33 A35-A36 A38-A39 A59-A5C A5E A72-A74 A85-A8B A8D A8F-A91 A93-AA8 AAA-AB0
AB2-AB3 AB5-AB9 ABD AE0 B05-B0C B0F-B10 B13-B28 B2A-B30 B32-B33 B36-B39 B3D
B5C-B5D B5F-B61 B85-B8A B8E-B90 B92-B95 B99-B9A B9C B9E-B9F BA3-BA4 BA8-BAA
BAE-BB5 BB7-BB9 C05-C0C C0E-C10 C12-C28 C2A-C33 C35-C39 C60-C61 C85-C8C C8E-C90
C92-CA8 CAA-CB3 CB5-CB9 CDE CE0-CE1 D05-D0C D0E-D10 D12-D28 D2A-D39 D60-D61
E01-E2E E30 E32-E33 E40-E45 E81-E82 E84 E87-E88 E8A E8D E94-E97 E99-E9F EA1-EA3
EA5 EA7 EAA-EAB EAD-EAE EB0 EB2-EB3 EBD EC0-EC4 F40-F47 F49-F69 10A0-10C5
10D0-10F6 1100 1102-1103 1105-1107 1109 110B-110C 110E-1112 113C 113E 1140 114C
114E 1150 1154-1155 1159 115F-1161 1163 1165 1167 1169 116D-116E 1172-1173 1175
119E 11A8 11AB 11AE-11AF 11B7-11B8 11BA 11BC-11C2 11EB 11F0 11F9 1E00-1E9B
1EA0-1EF9 1F00-1F15 1F18-1F1D 1F20-1F45 1F48-1F4D 1F50-1F57 1F59 1F5B 1F5D
1F5F-1F7D 1F80-1FB4 1FB6-1FBC 1FBE 1FC2-1FC4 1FC6-1FCC 1FD0-1FD3 1FD6-1FDB
1FE0-1FEC 1FF2-1FF4 1FF6-1FFC 2126 212A-212B 212E 2180-2182 3007 3021-3029
3041-3094 30A1-30FA 3105-312C 4E00-9FA5 AC00-D7A3
"""
_XML_NAME_MORE = """
2D-2E 30-39 B7 2D0-2D1 300-345 360-361 387 483-486 591-5A1 5A3-5B9 5BB-5BD 5BF
5C1-5C2 5C4 640 64B-652 660-669 670 6D6-6E4 6E7-6E8 6EA-6ED 6F0-6F9 901-903 93C
93E-94D 951-954 962-963 966-96F 981-983 9BC 9BE-9C4 9C7-9C8 9CB-9CD 9D7 9E2-9E3
9E6-9EF A02 A3C A3E-A42 A47-A48 A4B-A4D A66-A71 A81-A83 ABC ABE-AC5 AC7-AC9
ACB-ACD AE6-AEF B01-B03 B3C B3E-B43 B47-B48 B4B-B4D B56-B57 B66-B6F B82-B83
BBE-BC2 BC6-BC8 BCA-BCD BD7 BE7-BEF C01-C03 C3E-C44 C46-C48 C4A-C4D C55-C56
C66-C6F C82-C83 CBE-CC4 CC6-CC8 CCA-CCD CD5-CD6 CE6-CEF D02-D03 D3E-D43 D46-D48
D4A-D4D D57 D66-D6F E31 E34-E3A E46-E4E E50-E59 EB1 EB4-EB9 EBB-EBC EC6 EC8-ECD
ED0-ED9 F18-F19 F20-F29 F35 F37 F39 F3E-F3F F71-F84 F86-F8B F90-F95 F97 F99-FAD
FB1-FB7 FB9 20D0-20DC 20E1 3005 302A-302F 3031-3035 3099-309A 309D-309E
30FC-30FE
"""


def _range_bounds(table: str) -> list[int]:
    """The sorted bounds of a table's ranges: a code point lies in a range
    when an odd number of bounds are at or below it."""
    bounds = []
    for entry in table.split():
        lo, _, hi = entry.partition("-")
        bounds += (int(lo, 16), int(hi or lo, 16) + 1)
    return bounds


_NAME_START_BOUNDS = _range_bounds(_XML_NAME_START)
_NAME_CHAR_BOUNDS = sorted(_NAME_START_BOUNDS + _range_bounds(_XML_NAME_MORE))


@lru_cache(maxsize=1024)
def xml_attribute_name(title: str) -> str:
    """The XML attribute name of a data-table column title: every character
    that is not an XML name character, ':' and blanks included, becomes '_',
    and a name that cannot start as it is gets a '_' prefix (``""`` -> ``_``,
    ``1x`` -> ``_1x``). Cached per title: a corpus repeats few titles."""
    name = "".join(ch if bisect_right(_NAME_CHAR_BOUNDS, ord(ch)) & 1 else "_"
                   for ch in title)
    return name if name and bisect_right(_NAME_START_BOUNDS, ord(name[0])) & 1 else "_" + name


# ---------------------------------------------------------------------------
# ViewModel description AST
# ---------------------------------------------------------------------------

Literal = bool | int | str


class ColumnSpec(Record):
    cell_kind: CellKind
    title: str
    span: SourceSpan = span_field()


class WidgetDecl(Record):
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

    def has_feature(self, feature: FeatureKind) -> bool:
        """``feature in self.features()``, without building the set."""
        return feature in self.enabled_optional or feature in CATALOG[self.kind].inherent

    def column_indexes(self, titles: tuple[str, ...]) -> tuple[int, ...]:
        """The declared index of the column each title names."""
        declared = {c.title: i for i, c in enumerate(self.columns)}
        return tuple([declared[title] for title in titles])


class Param(Record):
    name: str
    type: ParamType


class WidgetCommand(Record):
    kind: CommandKind
    target: str


class CustomCommand(Record):
    params: tuple[Param, ...] = ()


class CommandDecl(Record):
    name: str
    form: WidgetCommand | CustomCommand
    span: SourceSpan = span_field()


class NameBinding(Record):
    """Overrides one generated target name.

    subject is one of "typeName", "fileName", "propertyName", "getterName";
    widget/feature are set for the property and getter subjects only.
    """

    subject: str
    bound_name: str
    widget: str | None = None
    feature: FeatureKind | None = None
    span: SourceSpan = span_field()


class ViewModelDescription(Record):
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


class DataTableBody(Record):
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...] = ()


class TextBody(Record):
    text: str


class XmlBody(Record):
    text: str


class FileBody(Record):
    path: str


class ReferenceBody(Record):
    target: str


ContextBody = DataTableBody | TextBody | XmlBody | FileBody | ReferenceBody


class ContextDefinition(Record):
    name: str
    body: ContextBody
    span: SourceSpan = span_field()

    def is_pure_use(self) -> bool:
        """True for a plain ``use X`` entry: a reference, not a definition."""
        return isinstance(self.body, ReferenceBody) and self.body.target == self.name


class ArgLiteral(Record):
    value: Literal


class ArgContextRef(Record):
    name: str


Argument = ArgLiteral | ArgContextRef


class WidgetAction(Record):
    kind: CommandKind
    widget: str
    arg: Literal | None = None
    span: SourceSpan = span_field()


class CustomAction(Record):
    name: str
    args: tuple[Argument, ...] = ()
    span: SourceSpan = span_field()


Action = WidgetAction | CustomAction


class CellExpectation(Record):
    ignored: bool = False
    value: str = ""
    tooltip: str | None = None
    color: str | None = None


class RowExpectation(Record):
    cells: tuple[CellExpectation, ...]
    selected: bool = False
    color: str | None = None


class RowsExpectation(Record):
    """Expected table contents: a header naming the asserted columns, one
    expectation row per expected table row, plus optional selection check.

    selected_row_check is None (unchecked), an int index, or "none"
    (asserts no selection).
    """

    header: tuple[str, ...]
    rows: tuple[RowExpectation, ...] = ()
    ignored_columns: tuple[str, ...] = ()
    selected_row_check: int | str | None = None


def _unless_none(name):
    """An expected colour or selected row, None where it is ``none``."""
    return None if name == "none" else name


def row_checks(exp: RowsExpectation, columns: tuple[int, ...]):
    """Each check of an expected table as ``(aspect, row, column, title,
    expected)``: the row count; row by row, each non-ignored cell's value,
    stated tooltip and colour, the row's colour and, in a table with a
    marked row, whether the row is selected; last the ``selectedRow``
    trailer, with no row. ``columns`` holds each header title's declared
    column index; only cell checks have a column. An expected colour or
    selected row of ``none`` is None."""
    yield "rowCount", None, None, None, len(exp.rows)
    marked = any([row.selected for row in exp.rows])
    for i, row in enumerate(exp.rows):
        for column, title, cell in zip(columns, exp.header, row.cells):
            if not cell.ignored:
                yield "value", i, column, title, cell.value
                if cell.tooltip is not None:
                    yield "tooltip", i, column, title, cell.tooltip
                if cell.color is not None:
                    yield "color", i, column, title, _unless_none(cell.color)
        if row.color is not None:
            yield "color", i, None, None, _unless_none(row.color)
        if marked:
            yield "selected", i, None, None, row.selected
    if exp.selected_row_check is not None:
        yield "selected", None, None, None, _unless_none(exp.selected_row_check)


def check_label(widget: str, feature: str, aspect: str,
                row: int | None = None, title: str | None = None) -> str:
    """What a check is called in a generated assert and in a run failure:
    ``Tasks: row count``, ``Tasks: selected row``, ``Tasks[0][Due Date]:
    tooltip``, ``Tasks[1]: color``, ``AddNewTask.enabled``."""
    if aspect == "rowCount":
        return f"{widget}: row count"
    if aspect == "selected":
        return f"{widget}: selected row"
    if row is None:
        return f"{widget}.{feature}"
    if title is None:
        return f"{widget}[{row}]: {aspect}"
    return f"{widget}[{row}][{title}]: {aspect}"


class CheckValue(Record):
    widget: str
    widget_kind: WidgetKind
    feature: FeatureKind
    expectation: Literal | RowsExpectation
    span: SourceSpan = span_field()


class TestScenario(Record):
    description: str
    given: tuple[ContextDefinition, ...] = ()
    when: tuple[Action, ...] = ()
    then: tuple[CheckValue, ...] = ()
    span: SourceSpan = span_field()


class TestSuite(Record):
    name: str
    target_view_model: str
    scenarios: tuple[TestScenario, ...] = ()
    span: SourceSpan = span_field()
