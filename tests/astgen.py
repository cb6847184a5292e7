"""Seeded random generators for catalog-valid descriptions, suites, and grids.

Everything is driven by a caller-supplied random.Random so test runs are
reproducible. Generated ASTs are valid under analysis and printable in
canonical form, which makes them usable for round-trip, soundness, and
name-map properties alike.
"""

from __future__ import annotations

import random
import string

from vimotest.model import (
    COMMAND_EFFECT,
    ArgContextRef,
    ArgLiteral,
    CellExpectation,
    CellKind,
    CheckValue,
    ColumnSpec,
    CommandDecl,
    CommandKind,
    ContextDefinition,
    CustomAction,
    CustomCommand,
    DataTableBody,
    FEATURE_RANK,
    FeatureKind,
    FileBody,
    NameBinding,
    Param,
    ParamType,
    ReferenceBody,
    RowExpectation,
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
    catalog_lookup,
)
from vimotest.names import KEYWORDS, camel_case

_WORDS = ("Alpha", "Bravo", "Charlie", "Delta", "Echo", "Foxtrot", "Golf",
          "Hotel", "India", "Juliet", "Kilo", "Lima", "Mike", "November")

# Safe inside pipe cells: no '|', '[', ']', '*', and of the control
# characters only tab, the one a source file may hold inside a line.
_CELL_ALPHABET = string.ascii_letters + string.digits + " \t.,:;!?&<>'\"/+-=#@\\é²"
# String literals also carry escapes that decode to control characters, and
# text that spells a Java unicode escape.
_STRING_PIECES = ("\n", "\t", '"', "\\", "\\u000a")
_TITLE_ALPHABET = string.ascii_letters + string.digits

_EXAMPLE_VALUES = {
    FeatureKind.ENABLED: lambda rng: rng.random() < 0.5,
    FeatureKind.VISIBLE: lambda rng: rng.random() < 0.5,
    FeatureKind.CHECKED: lambda rng: rng.random() < 0.5,
    FeatureKind.TEXT: lambda rng: "sample text",
}


class NamePool:
    def __init__(self, rng: random.Random, prefix: str = ""):
        self.rng = rng
        self.prefix = prefix
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"{self.prefix}{self.rng.choice(_WORDS)}{self.counter}"


def cell_text(rng: random.Random, max_len: int = 10) -> str:
    n = rng.randint(0, max_len)
    return "".join(rng.choice(_CELL_ALPHABET) for _ in range(n)).strip()


def string_value(rng: random.Random, max_len: int = 10) -> str:
    """Cell text with up to two of ``_STRING_PIECES`` spliced in."""
    text = cell_text(rng, max_len)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_STRING_PIECES) + text[at:]
    return text


def column_title(rng: random.Random, index: int) -> str:
    word = "".join(rng.choice(_TITLE_ALPHABET) for _ in range(rng.randint(1, 6)))
    title = f"C{word} {index}" if rng.random() < 0.5 else f"C{word}{index}"
    return title


def random_grid(rng: random.Random, max_cols: int = 6,
                max_rows: int = 6) -> DataTableBody:
    """A data table with unique, XML-attribute-safe column titles."""
    cols = rng.randint(1, max_cols)
    header = tuple(column_title(rng, j) for j in range(cols))
    rows = tuple(
        tuple(cell_text(rng) for _ in range(cols))
        for _ in range(rng.randint(0, max_rows)))
    return DataTableBody(header=header, rows=rows)


def random_description(rng: random.Random) -> ViewModelDescription:
    widgets = NamePool(rng, "W")
    commands = NamePool(rng, "Cmd")
    decls: list[WidgetDecl] = []
    for _ in range(rng.randint(0, 5)):
        decls.append(_random_widget(rng, widgets.fresh()))
    command_decls: list[CommandDecl] = []
    used_widget_commands: set[tuple[CommandKind, str]] = set()
    for widget in decls:
        for kind in sorted(catalog_lookup(widget.kind).widget_commands,
                           key=lambda k: k.value):
            effect = COMMAND_EFFECT[kind]
            if effect is not None and effect not in widget.features():
                continue
            if rng.random() < 0.6:
                key = (kind, widget.name)
                used_widget_commands.add(key)
                command_decls.append(CommandDecl(
                    name=camel_case(widget.name, kind.value),
                    form=WidgetCommand(kind=kind, target=widget.name)))
    for _ in range(rng.randint(0, 3)):
        params = []
        for p in range(rng.randint(0, 3)):
            ptype = rng.choice(list(ParamType))
            params.append(Param(name=f"p{p}", type=ptype))
        command_decls.append(CommandDecl(name=commands.fresh(),
                                         form=CustomCommand(params=tuple(params))))
    rng.shuffle(command_decls)
    desc = ViewModelDescription(name=f"Vm{widgets.fresh()}", widgets=tuple(decls),
                                commands=tuple(command_decls))
    if decls and rng.random() < 0.3:
        desc = ViewModelDescription(name=desc.name, widgets=desc.widgets,
                                    commands=desc.commands,
                                    bindings=_random_bindings(rng, decls))
    return desc


def _random_widget(rng: random.Random, name: str) -> WidgetDecl:
    kind = rng.choice(list(WidgetKind))
    entry = catalog_lookup(kind)
    optional = sorted(entry.optional, key=lambda f: FEATURE_RANK[f])
    enabled = frozenset(f for f in optional if rng.random() < 0.5)
    columns: tuple[ColumnSpec, ...] = ()
    examples: list[tuple[FeatureKind, object]] = []
    if kind is WidgetKind.TABLE:
        columns = tuple(
            ColumnSpec(cell_kind=rng.choice(list(CellKind)),
                       title=column_title(rng, j))
            for j in range(rng.randint(1, 4)))
    else:
        for feature in sorted(entry.inherent | enabled,
                              key=lambda f: FEATURE_RANK[f]):
            maker = _EXAMPLE_VALUES.get(feature)
            if maker is not None and rng.random() < 0.25:
                examples.append((feature, maker(rng)))
    return WidgetDecl(name=name, kind=kind, enabled_optional=enabled,
                      columns=columns, examples=tuple(examples))


def _random_bindings(rng: random.Random, widgets) -> tuple[NameBinding, ...]:
    bindings: list[NameBinding] = []
    n = 0
    if rng.random() < 0.5:
        n += 1
        bindings.append(NameBinding(subject="typeName", bound_name=f"BoundType{n}"))
    if rng.random() < 0.3:
        n += 1
        bindings.append(NameBinding(subject="fileName", bound_name=f"bound_file_{n}"))
    for _ in range(rng.randint(0, 2)):
        widget = rng.choice(widgets)
        features = sorted(widget.features(), key=lambda f: FEATURE_RANK[f])
        if not features:
            continue
        feature = rng.choice(features)
        subject = rng.choice(("propertyName", "getterName"))
        key = (subject, widget.name, feature)
        if any((b.subject, b.widget, b.feature) == key for b in bindings):
            continue
        n += 1
        bindings.append(NameBinding(subject=subject, bound_name=f"boundName{n}",
                                    widget=widget.name, feature=feature))
    return tuple(bindings)


def random_suite(rng: random.Random, desc: ViewModelDescription) -> TestSuite:
    contexts = NamePool(rng, "ctx")
    scenarios: list[TestScenario] = []
    concrete_names: list[str] = []
    for i in range(rng.randint(0, 3)):
        scenarios.append(_random_scenario(rng, desc, i, contexts, concrete_names))
    return TestSuite(name=f"Suite{contexts.fresh()}",
                     target_view_model=desc.name, scenarios=tuple(scenarios))


def _random_scenario(rng, desc, index, contexts, concrete_names) -> TestScenario:
    given: list[ContextDefinition] = []
    for _ in range(rng.randint(0, 2)):
        given.append(_random_context(rng, contexts, concrete_names))
    if concrete_names and rng.random() < 0.3:
        target = rng.choice(concrete_names)
        given.append(ContextDefinition(name=target,
                                       body=ReferenceBody(target=target)))
    when = tuple(_random_action(rng, desc, given, contexts, concrete_names)
                 for _ in range(rng.randint(0, 3)))
    when = tuple(a for a in when if a is not None)
    then = _random_checks(rng, desc)
    return TestScenario(description=f"Scenario {index} {contexts.fresh()}",
                        given=tuple(given), when=when, then=then)


# Locals every generated test declares: a context may be named like one.
_FIXTURE_LOCALS = ("vm", "setup", "controller")


def _random_context(rng, contexts, concrete_names) -> ContextDefinition:
    name = contexts.fresh()
    clash = rng.choice(_FIXTURE_LOCALS)
    if clash not in concrete_names and rng.random() < 0.2:
        name = clash
    concrete_names.append(name)
    roll = rng.random()
    if roll < 0.55:
        body = random_grid(rng, max_cols=4, max_rows=3)
    elif roll < 0.75:
        # triple-quoted content must not end with '"' or contain '"""'
        tail = cell_text(rng).replace('"', "'")
        body = TextBody(text="line one\nline two " + tail)
    elif roll < 0.9:
        value = cell_text(rng).replace('"', "'").replace("<", "(").replace("&", "+")
        body = XmlBody(text=f'<data value="{value}" />')
    else:
        body = FileBody(path=f"fixtures/{name}.txt")
    return ContextDefinition(name=name, body=body)


def _random_action(rng, desc, given, contexts, concrete_names):
    widget_commands = [c for c in desc.commands
                       if not isinstance(c.form, CustomCommand)]
    custom_commands = [c for c in desc.commands
                       if isinstance(c.form, CustomCommand)]
    pick = rng.random()
    if widget_commands and (pick < 0.5 or not custom_commands):
        decl = rng.choice(widget_commands)
        kind = decl.form.kind
        arg = None
        if kind is CommandKind.CHECK:
            arg = rng.random() < 0.5
        elif kind is CommandKind.FILL_TEXT:
            arg = string_value(rng)
        elif kind is CommandKind.SELECT_ROW:
            arg = rng.randint(0, 3)
        return WidgetAction(kind=kind, widget=decl.form.target, arg=arg)
    if not custom_commands:
        return None
    decl = rng.choice(custom_commands)
    args = []
    for param in decl.form.params:
        if param.type is ParamType.CONTEXT:
            ctx = _random_context(rng, contexts, concrete_names)
            given.append(ctx)
            args.append(ArgContextRef(name=ctx.name))
        elif param.type is ParamType.BOOL:
            args.append(ArgLiteral(value=rng.random() < 0.5))
        elif param.type is ParamType.INT:
            args.append(ArgLiteral(value=rng.randint(-5, 99)))
        else:
            args.append(ArgLiteral(value=string_value(rng)))
    return CustomAction(name=decl.name, args=tuple(args))


_SCALAR_CHECKABLE = (FeatureKind.ENABLED, FeatureKind.VISIBLE,
                     FeatureKind.CHECKED, FeatureKind.TEXT)


def _random_checks(rng, desc) -> tuple[CheckValue, ...]:
    checks: list[CheckValue] = []
    used: set[tuple[str, FeatureKind]] = set()
    for widget in desc.widgets:
        if widget.kind is WidgetKind.TABLE:
            if rng.random() < 0.6:
                checks.append(CheckValue(
                    widget=widget.name, widget_kind=widget.kind,
                    feature=FeatureKind.ROWS,
                    expectation=random_rows_expectation(rng, widget)))
            continue
        for feature in sorted(widget.features(), key=lambda f: FEATURE_RANK[f]):
            if feature not in _SCALAR_CHECKABLE or rng.random() > 0.4:
                continue
            key = (widget.name, feature)
            if key in used:
                continue
            used.add(key)
            value = (string_value(rng) if feature is FeatureKind.TEXT
                     else rng.random() < 0.5)
            checks.append(CheckValue(widget=widget.name, widget_kind=widget.kind,
                                     feature=feature, expectation=value))
    rng.shuffle(checks)
    return tuple(checks)


def random_rows_expectation(rng, widget: WidgetDecl,
                            rows: int | None = None) -> RowsExpectation:
    titles = [c.title for c in widget.columns]
    keep = rng.choice(titles)  # the header needs at least one column
    ignored = tuple(t for t in titles if t != keep and rng.random() < 0.2)
    header = [t for t in titles if t not in ignored]
    rng.shuffle(header)
    has_selection = FeatureKind.SELECTED_ROW in widget.features()
    n_rows = rng.randint(0, 4) if rows is None else rows
    selected_index = (rng.randrange(n_rows)
                      if has_selection and n_rows and rng.random() < 0.4 else None)
    row_expectations = []
    for i in range(n_rows):
        cells = []
        for _ in header:
            if rng.random() < 0.12:
                cells.append(CellExpectation(ignored=True))
                continue
            cells.append(CellExpectation(
                value=cell_text(rng),
                tooltip=string_value(rng) if rng.random() < 0.2 else None,
                color=rng.choice(("red", "green", "yellow", "blue", "gray", "none"))
                if rng.random() < 0.15 else None))
        row_expectations.append(RowExpectation(
            cells=tuple(cells),
            selected=(i == selected_index),
            color=rng.choice(("red", "green", "none")) if rng.random() < 0.2
            else None))
    check: int | str | None = None
    if has_selection and n_rows and rng.random() < 0.2:
        check = rng.randrange(n_rows)
    elif has_selection and rng.random() < 0.1:
        check = "none"
    return RowsExpectation(header=tuple(header), rows=tuple(row_expectations),
                           ignored_columns=ignored, selected_row_check=check)


def random_state_pair(rng: random.Random, widget: WidgetDecl):
    """A rows expectation plus matching random actual table state."""
    from vimotest.runtime import CellValue, RowValue

    exp = random_rows_expectation(rng, widget)
    n_rows = len(exp.rows)
    titles = [c.title for c in widget.columns]
    rows = [RowValue(
        cells=tuple(CellValue(text=rng.choice(("a", "b", "")),
                              tooltip=rng.choice((None, "tip")),
                              color=rng.choice((None, "red")))
                    for _ in titles),
        color=rng.choice((None, "red", "green")))
        for _ in range(n_rows)]
    selected = rng.randrange(n_rows) if n_rows and rng.random() < 0.5 else None
    return exp, rows, selected


# The two ends of the 32-bit int range and one value past each. Both targets
# write an int literal as an ``int``, so one past the range is an E105.
EDGE_INTS = (-2**31 - 1, -2**31, 2**31 - 1, 2**31)
# A row index also has the ends of the row range, 0 and -1: no row has a
# negative index, so below 0 is an E105 too.
ROW_EDGE_INTS = EDGE_INTS + (-1, 0)


def with_edge_ints(rng: random.Random, suite: TestSuite) -> tuple[TestSuite, int]:
    """``suite`` with about half of its int literals replaced: a row index (a
    selectRow argument or a selectedRow index) by one of ``ROW_EDGE_INTS``,
    an int command argument by one of ``EDGE_INTS``; and the number of
    replacements that are an E105. The generators above keep to small ints,
    so their random streams stay as they were."""
    past = 0

    def pick(value: int, row: bool = False) -> int:
        nonlocal past
        if rng.random() < 0.5:
            return value
        value = rng.choice(ROW_EDGE_INTS if row else EDGE_INTS)
        past += not (0 if row else -2**31) <= value < 2**31
        return value

    def action(a):
        if isinstance(a, WidgetAction) and type(a.arg) is int:
            return WidgetAction(kind=a.kind, widget=a.widget, arg=pick(a.arg, row=True))
        if isinstance(a, CustomAction):
            return CustomAction(name=a.name, args=tuple(
                ArgLiteral(value=pick(arg.value))
                if isinstance(arg, ArgLiteral) and type(arg.value) is int else arg
                for arg in a.args))
        return a

    def check(c):
        exp = c.expectation
        if isinstance(exp, RowsExpectation) and type(exp.selected_row_check) is int:
            exp = RowsExpectation(header=exp.header, rows=exp.rows,
                                  ignored_columns=exp.ignored_columns,
                                  selected_row_check=pick(exp.selected_row_check, row=True))
            return CheckValue(widget=c.widget, widget_kind=c.widget_kind,
                              feature=c.feature, expectation=exp)
        return c

    scenarios = tuple(TestScenario(description=s.description, given=s.given,
                                   when=tuple(map(action, s.when)),
                                   then=tuple(map(check, s.then)))
                      for s in suite.scenarios)
    return TestSuite(name=suite.name, target_view_model=suite.target_view_model,
                     scenarios=scenarios), past


def failure_keys(failures):
    return [(f.aspect, f.row_index, f.column_title, f.expected, f.actual)
            for f in failures]


def with_random_ignores(rng: random.Random, exp: RowsExpectation):
    """Mark random non-ignored cells as ignored; report (row, title) positions."""
    positions = set()
    new_rows = []
    for i, row in enumerate(exp.rows):
        cells = list(row.cells)
        for j, c in enumerate(cells):
            if not c.ignored and rng.random() < 0.3:
                cells[j] = CellExpectation(ignored=True)
                positions.add((i, exp.header[j]))
        new_rows.append(RowExpectation(cells=tuple(cells), selected=row.selected,
                                       color=row.color))
    return RowsExpectation(header=exp.header, rows=tuple(new_rows),
                           ignored_columns=exp.ignored_columns,
                           selected_row_check=exp.selected_row_check), positions


_PACKAGE_SEPARATOR = {"java": ".", "cpp": "::"}
_NOT_IDENTIFIERS = ("1st", "ex-ample", "ex\u00e4mple", "a b", "a/b", "_x", "x$")


def random_package(rng: random.Random, target: str) -> tuple[str, bool]:
    """A ``javaPackage`` (``target`` "java") or ``cppNamespace`` ("cpp")
    value and whether gen must accept it. An accepted one is empty, which
    means none, or identifiers joined by the target's separator, none a
    keyword of the target. Each other one holds a keyword, an empty
    segment, a ``..`` or a non-identifier, and gen exits 3 on it."""
    separator = _PACKAGE_SEPARATOR[target]
    parts = [rng.choice(_WORDS).lower() + rng.choice(("", "2", "_x"))
             for _ in range(rng.randint(1, 3))]
    flaw = rng.choice((None, None, None, "keyword", "empty", "dots", "other"))
    at = rng.randint(0, len(parts))
    if flaw is None:
        return ("" if rng.random() < 0.1 else separator.join(parts)), True
    if flaw == "keyword":
        parts.insert(at, rng.choice(sorted(KEYWORDS[target])))
    elif flaw == "empty":
        parts.insert(at, "")
    elif flaw == "other":
        parts.insert(at, rng.choice(_NOT_IDENTIFIERS))
    else:
        return rng.choice(("../", "/../", "..")).join(
            [separator.join(parts[:at]), separator.join(parts[at:])]), False
    return separator.join(parts), False
