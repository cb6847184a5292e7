"""Neutral intermediate representation and the lowering pass that fills it.

The IR is target-agnostic: every name in it comes from the name map, types
are the five abstract kinds (bool, string, int, rowList, optIndex), and test
procedures are flat statement lists. Per-target emitters turn one IR into
source text.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from .analyzer import ContextArgument, LinkedSuite, NameMap
from .genconfig import GenConfig
from .literals import quote
from .model import (
    COMMAND_EFFECT,
    COMMAND_PARAM,
    CommandDecl,
    CustomCommand,
    FeatureKind,
    FileBody,
    ParamType,
    RowsExpectation,
    ViewModelDescription,
    WidgetCommand,
)
from .names import camel_case, pascal_case
from .printer import align_pipe_rows, expectation_grid
from .runtime import render_context

_FEATURE_IR_TYPE = {
    FeatureKind.ENABLED: "bool",
    FeatureKind.VISIBLE: "bool",
    FeatureKind.CHECKED: "bool",
    FeatureKind.TEXT: "string",
    FeatureKind.ROWS: "rowList",
    FeatureKind.SELECTED_ROW: "optIndex",
}

_PARAM_IR_TYPE = {
    ParamType.STRING: "string",
    ParamType.BOOL: "bool",
    ParamType.INT: "int",
    ParamType.CONTEXT: "string",
}

_WIDGET_COMMAND_PARAM_NAME = {
    ParamType.BOOL: "checked",
    ParamType.STRING: "text",
    ParamType.INT: "rowIndex",
}


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class StringLit:
    value: str
    multiline: bool = False


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class NullLit:
    pass


@dataclass(frozen=True)
class LocalRef:
    name: str


@dataclass(frozen=True)
class PropertyGet:
    getter: str
    ir_type: str


@dataclass(frozen=True)
class RowCount:
    getter: str


@dataclass(frozen=True)
class CellField:
    getter: str
    row: int
    column: int
    field: str  # text | tooltip | color


@dataclass(frozen=True)
class RowColorField:
    getter: str
    row: int


IRExpr = (StringLit | IntLit | BoolLit | NullLit | LocalRef | PropertyGet
          | RowCount | CellField | RowColorField)


# -- statements --------------------------------------------------------------


@dataclass(frozen=True)
class Comment:
    text: str


@dataclass(frozen=True)
class DeclareLocal:
    name: str
    ir_type: str
    init: IRExpr


@dataclass(frozen=True)
class CallSetup:
    context_name: str
    payload: IRExpr
    delivery: str  # inline | file


@dataclass(frozen=True)
class InvokeCommand:
    method: str
    args: tuple[IRExpr, ...] = ()
    param_object: str | None = None


@dataclass(frozen=True)
class RowMatrix:
    """The expected table, carried for test readability as cell text (header
    first) plus the row marks that follow each pipe row."""

    widget: str
    grid: tuple[tuple[str, ...], ...]
    marks: tuple[str, ...]

    def display(self, escape: Callable[[str], str]) -> list[str]:
        """Aligned pipe rows of the cells as ``escape`` spells them, so a
        cell the escape widens keeps its column straight."""
        lines = align_pipe_rows([[escape(cell) for cell in row] for row in self.grid])
        return [line + mark for line, mark in zip(lines, self.marks)]


@dataclass(frozen=True)
class AssertEqual:
    expected: IRExpr
    actual: IRExpr
    message: str


IRStatement = Comment | DeclareLocal | CallSetup | InvokeCommand | RowMatrix | AssertEqual


# -- declarations ------------------------------------------------------------


@dataclass(frozen=True)
class IRParam:
    name: str
    ir_type: str


@dataclass(frozen=True)
class IRParamClass:
    name: str
    fields: tuple[IRParam, ...]


@dataclass(frozen=True)
class IRProperty:
    name: str
    ir_type: str
    getter: str
    setter: str


@dataclass(frozen=True)
class IROperation:
    name: str
    params: tuple[IRParam, ...] = ()
    abstract: bool = True
    param_object: str | None = None


@dataclass(frozen=True)
class IRClass:
    name: str
    abstract: bool
    properties: tuple[IRProperty, ...] = ()
    operations: tuple[IROperation, ...] = ()
    param_classes: tuple[IRParamClass, ...] = ()


@dataclass(frozen=True)
class IRTest:
    name: str
    statements: tuple[IRStatement, ...] = ()


@dataclass(frozen=True)
class IRUnit:
    """classes[0] is always the ViewModel; classes[1], when present, is the
    View Controller holding the command operations."""

    classes: tuple[IRClass, ...]
    tests: tuple[IRTest, ...] = ()
    suite_name: str | None = None

    @property
    def view_model(self) -> IRClass:
        return self.classes[0]

    @property
    def controller(self) -> IRClass | None:
        return self.classes[1] if len(self.classes) > 1 else None


def ir_to_dict(unit: IRUnit) -> dict:
    return asdict(unit)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower_to_ir(
    desc: ViewModelDescription,
    linked: LinkedSuite | None,
    name_map: NameMap,
    config: GenConfig,
) -> IRUnit:
    properties = _lower_properties(desc, name_map)
    operations = tuple(_lower_operation(c, name_map, config) for c in desc.commands)
    param_classes = tuple(
        IRParamClass(
            name=name_map.commands[c.name].param_object,
            fields=tuple(IRParam(p.name, _PARAM_IR_TYPE[p.type])
                         for p in c.form.params))
        for c in desc.commands
        if config.parameter_object and isinstance(c.form, CustomCommand)
        and c.form.params)

    if config.commands_on_view_model:
        classes: tuple[IRClass, ...] = (IRClass(
            name=name_map.type_name, abstract=config.abstract_view_model,
            properties=properties, operations=operations,
            param_classes=param_classes),)
    else:
        view_model = IRClass(name=name_map.type_name,
                             abstract=config.abstract_view_model,
                             properties=properties)
        controller = IRClass(name=name_map.type_name + "Controller",
                             abstract=config.abstract_view_model,
                             operations=operations, param_classes=param_classes)
        classes = (view_model, controller)

    tests: tuple[IRTest, ...] = ()
    suite_name = None
    if linked is not None:
        suite_name = linked.suite.name
        tests = tuple(_lower_scenario(s, desc, name_map, config)
                      for s in linked.scenarios)
    return IRUnit(classes=classes, tests=tests, suite_name=suite_name)


def _lower_properties(desc, name_map) -> tuple[IRProperty, ...]:
    order = {f: i for i, f in enumerate(FeatureKind)}
    out = []
    for widget in desc.widgets:
        for feature in sorted(widget.features(), key=order.__getitem__):
            names = name_map.properties[(widget.name, feature)]
            out.append(IRProperty(name=names.property_name,
                                  ir_type=_FEATURE_IR_TYPE[feature],
                                  getter=names.getter, setter=names.setter))
    return tuple(out)


def _lower_operation(command: CommandDecl, name_map: NameMap,
                     config: GenConfig) -> IROperation:
    names = name_map.commands[command.name]
    form = command.form
    if isinstance(form, WidgetCommand):
        intrinsic = COMMAND_PARAM[form.kind]
        params = () if intrinsic is None else (
            IRParam(_WIDGET_COMMAND_PARAM_NAME[intrinsic],
                    _PARAM_IR_TYPE[intrinsic]),)
        return IROperation(name=names.method, params=params,
                           abstract=config.abstract_view_model)
    assert isinstance(form, CustomCommand)
    params = tuple(IRParam(p.name, _PARAM_IR_TYPE[p.type]) for p in form.params)
    param_object = (names.param_object
                    if config.parameter_object and form.params else None)
    return IROperation(name=names.method, params=params,
                       abstract=config.abstract_view_model,
                       param_object=param_object)


class _LocalNames:
    def __init__(self):
        self.used: set[str] = set()

    def claim(self, base: str) -> str:
        name = base
        n = 1
        while name in self.used:
            n += 1
            name = f"{base}{n}"
        self.used.add(name)
        return name


def _context_payload(body, config) -> tuple[str, str]:
    """Payload literal and delivery mode for one context.

    File-based contexts keep their path and are always delivered as files;
    everything else is rendered inline per the configured format.
    """
    if isinstance(body, FileBody):
        return body.path, "file"
    return render_context(body, config.context_format), config.context_delivery


def _lower_scenario(linked_scenario, desc, name_map, config) -> IRTest:
    statements: list[IRStatement] = []
    locals_ = _LocalNames()
    context_locals: dict[str, str] = {}

    for context in linked_scenario.contexts:
        payload, delivery = _context_payload(context.body, config)
        local = locals_.claim(camel_case(context.name))
        context_locals[context.name] = local
        statements.append(DeclareLocal(
            name=local, ir_type="string",
            init=StringLit(value=payload, multiline="\n" in payload)))
        statements.append(CallSetup(context_name=context.name,
                                    payload=LocalRef(local),
                                    delivery=delivery))

    for action in linked_scenario.actions:
        statements.extend(
            _lower_action(action, desc, name_map, config, locals_, context_locals))

    for check in linked_scenario.checks:
        statements.extend(_lower_check(check, desc, name_map))

    return IRTest(name=linked_scenario.test_name, statements=tuple(statements))


def _lower_action(action, desc, name_map, config, locals_, context_locals):
    statements: list[IRStatement] = []
    args: list[IRExpr] = []
    for arg in action.args:
        if isinstance(arg, ContextArgument):
            local = context_locals.get(arg.name)
            if local is None:
                payload, _ = _context_payload(arg.body, config)
                local = locals_.claim(camel_case(arg.name))
                context_locals[arg.name] = local
                statements.append(DeclareLocal(
                    name=local, ir_type="string",
                    init=StringLit(value=payload, multiline="\n" in payload)))
            args.append(LocalRef(local))
        else:
            args.append(_literal_expr(arg))
    form = action.decl.form
    names = name_map.commands[action.decl.name]
    param_object = None
    if isinstance(form, WidgetCommand):
        effect = COMMAND_EFFECT[form.kind]
        if effect is not None:
            setter = name_map.properties[(form.target, effect)].setter
            statements.append(Comment(
                f"the view applies {setter}({_literal_text(action.args[0])}) "
                f"before the command runs"))
    elif config.parameter_object and form.params:
        param_object = names.param_object
    statements.append(InvokeCommand(method=names.method, args=tuple(args),
                                    param_object=param_object))
    return statements


def _literal_expr(value) -> IRExpr:
    if isinstance(value, bool):
        return BoolLit(value)
    if isinstance(value, int):
        return IntLit(value)
    return StringLit(str(value))


def _literal_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if not isinstance(value, str) else quote(value)


def _lower_check(check, desc, name_map):
    if isinstance(check.expectation, RowsExpectation):
        return _lower_rows_check(check, desc, name_map)
    names = name_map.properties[(check.widget, check.feature)]
    expected = _literal_expr(check.expectation)
    actual = PropertyGet(getter=names.getter,
                         ir_type=_FEATURE_IR_TYPE[check.feature])
    return [AssertEqual(expected=expected, actual=actual,
                        message=f"{check.widget}.{check.feature.value}")]


def _lower_rows_check(check, desc, name_map):
    exp = check.expectation
    widget = desc.widget(check.widget)
    rows_getter = name_map.properties[(check.widget, FeatureKind.ROWS)].getter
    declared = {c.title: i for i, c in enumerate(widget.columns)}

    grid, marks = expectation_grid(exp)
    statements: list[IRStatement] = [
        RowMatrix(widget=check.widget, grid=grid, marks=marks),
        AssertEqual(expected=IntLit(len(exp.rows)),
                    actual=RowCount(getter=rows_getter),
                    message=f"{check.widget}: row count"),
    ]
    for i, row in enumerate(exp.rows):
        for j, cell in enumerate(row.cells):
            if cell.ignored:
                continue
            title = exp.header[j]
            column = declared[title]
            statements.append(AssertEqual(
                expected=StringLit(cell.value),
                actual=CellField(getter=rows_getter, row=i, column=column,
                                 field="text"),
                message=f"{check.widget}[{i}][{title}]: value"))
            if cell.tooltip is not None:
                statements.append(AssertEqual(
                    expected=StringLit(cell.tooltip),
                    actual=CellField(getter=rows_getter, row=i, column=column,
                                     field="tooltip"),
                    message=f"{check.widget}[{i}][{title}]: tooltip"))
            if cell.color is not None:
                statements.append(AssertEqual(
                    expected=StringLit("" if cell.color == "none" else cell.color),
                    actual=CellField(getter=rows_getter, row=i, column=column,
                                     field="color"),
                    message=f"{check.widget}[{i}][{title}]: color"))
        if row.color is not None:
            statements.append(AssertEqual(
                expected=StringLit("" if row.color == "none" else row.color),
                actual=RowColorField(getter=rows_getter, row=i),
                message=f"{check.widget}[{i}]: color"))
        if row.selected:
            statements.append(_selected_assert(check.widget, name_map, IntLit(i)))
    if exp.selected_row_check is not None:
        expected = (NullLit() if exp.selected_row_check == "none"
                    else IntLit(exp.selected_row_check))
        statements.append(_selected_assert(check.widget, name_map, expected))
    return statements


def _selected_assert(widget: str, name_map, expected):
    getter = name_map.properties[(widget, FeatureKind.SELECTED_ROW)].getter
    return AssertEqual(expected=expected,
                       actual=PropertyGet(getter=getter, ir_type="optIndex"),
                       message=f"{widget}: selected row")
