"""Neutral intermediate representation and the lowering pass that fills it.

The IR is target-agnostic: every name in it comes from the name map, types
are the five abstract kinds (bool, string, int, rowList, optIndex), and test
procedures are flat statement lists; an expected table is one ``AssertRows``
statement, which ``testbody`` expands. The IR names every local a test
declares: the fixture locals below and the target's keywords are taken
first, then each context and parameter-object local gets a name no earlier
local or keyword holds. ``testbody`` writes the statements for either
target from a small per-target spec; each emitter writes its own class
files.
"""

from __future__ import annotations

from .analyzer import LinkedSuite, NameMap, ResolvedContext
from .diagnostics import Record
from .genconfig import GenConfig
from .literals import quote
from .model import (
    COMMAND_EFFECT,
    COMMAND_PARAM,
    FEATURE_NAME,
    FEATURE_RANK,
    FEATURE_TYPE,
    PARAM_TYPE,
    CommandDecl,
    CustomCommand,
    FeatureKind,
    FileBody,
    ParamType,
    RowsExpectation,
    ViewModelDescription,
    WidgetCommand,
    check_label,
)
from .names import KEYWORDS, camel_case

# Bound once: reading an enum member costs a class attribute lookup on each use.
_ROWS, _SELECTED_ROW = FeatureKind.ROWS, FeatureKind.SELECTED_ROW

_WIDGET_COMMAND_PARAM_NAME = {
    ParamType.BOOL: "checked",
    ParamType.STRING: "text",
    ParamType.INT: "rowIndex",
}


# -- expressions -------------------------------------------------------------


class StringLit(Record):
    value: str
    multiline: bool = False


class IntLit(Record):
    value: int


class BoolLit(Record):
    value: bool


class LocalRef(Record):
    name: str


class PropertyGet(Record):
    getter: str


IRExpr = StringLit | IntLit | BoolLit | LocalRef | PropertyGet


# -- statements --------------------------------------------------------------


class Comment(Record):
    text: str


class DeclareLocal(Record):
    name: str
    ir_type: str
    init: IRExpr


class CallSetup(Record):
    context_name: str
    payload: IRExpr
    delivery: str  # inline | file


class DeclareParams(Record):
    """A parameter-object local of type ``owner.type_name``, its fields set
    in declaration order."""

    name: str
    owner: str
    type_name: str
    fields: tuple[tuple[str, IRExpr], ...]


class InvokeCommand(Record):
    method: str
    args: tuple[IRExpr, ...] = ()


class AssertEqual(Record):
    """A scalar literal compared with a property."""

    expected: IRExpr
    actual: PropertyGet
    message: str


class AssertRows(Record):
    """An expected table: the row count, then every asserted aspect of its
    rows in order. ``columns`` holds the declared column index of each
    header cell; ``selected_getter`` is None when the widget has no
    selected row."""

    widget: str
    rows_getter: str
    selected_getter: str | None
    columns: tuple[int, ...]
    expectation: RowsExpectation


IRStatement = (Comment | DeclareLocal | CallSetup | DeclareParams | InvokeCommand
               | AssertEqual | AssertRows)

# The locals every generated test declares before its statements.
VM_LOCAL = "vm"
CONTROLLER_LOCAL = "controller"  # only when a View Controller is generated
SETUP_LOCAL = "setup"


# -- declarations ------------------------------------------------------------


class IRParam(Record):
    name: str
    ir_type: str


class IRProperty(Record):
    name: str
    ir_type: str
    getter: str
    setter: str


class IROperation(Record):
    name: str
    params: tuple[IRParam, ...] = ()
    # With a name here, the operation takes one object of this class,
    # whose fields are ``params``.
    param_object: str | None = None


class IRClass(Record):
    name: str
    abstract: bool
    properties: tuple[IRProperty, ...] = ()
    operations: tuple[IROperation, ...] = ()


class IRTest(Record):
    name: str
    statements: tuple[IRStatement, ...] = ()


class IRUnit(Record):
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


def ir_to_dict(node):
    """IR as plain data: a record, such as an ``IRUnit``, becomes a dict of its
    fields, and a tuple a tuple, each item converted in turn."""
    if isinstance(node, Record):
        return {f: ir_to_dict(getattr(node, f)) for f in node._fields}
    return tuple(map(ir_to_dict, node)) if type(node) is tuple else node


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
    name, abstract = name_map.type_name, config.abstract_view_model
    if config.commands_on_view_model:
        classes: tuple[IRClass, ...] = (
            IRClass(name, abstract, properties, operations),)
        fixture = (VM_LOCAL, SETUP_LOCAL)
    else:
        classes = (IRClass(name, abstract, properties),
                   IRClass(name + "Controller", abstract, (), operations))
        fixture = (VM_LOCAL, CONTROLLER_LOCAL, SETUP_LOCAL)

    tests: tuple[IRTest, ...] = ()
    suite_name = None
    if linked is not None:
        suite_name = linked.suite.name
        widgets = {w.name: w for w in reversed(desc.widgets)}  # the first of a name wins
        # Statements lowered once and shared by every equal step of the unit:
        # by the id of a LinkedAction that claims no local, and by the
        # (widget, feature, type, value) of a scalar check.
        actions: dict[int, list[IRStatement]] = {}
        checks: dict[tuple, AssertEqual] = {}
        tests = tuple(_lower_scenario(s, widgets, name_map, config, fixture,
                                      classes[-1].name, actions, checks)
                      for s in linked.scenarios)
    return IRUnit(classes=classes, tests=tests, suite_name=suite_name)


def _lower_properties(desc, name_map) -> tuple[IRProperty, ...]:
    out = []
    for widget in desc.widgets:
        for feature in sorted(widget.features(), key=FEATURE_RANK.__getitem__):
            names = name_map.properties[(widget.name, feature)]
            out.append(IRProperty(name=names.property_name,
                                  ir_type=FEATURE_TYPE[feature],
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
                    PARAM_TYPE[intrinsic]),)
        return IROperation(name=names.method, params=params)
    assert isinstance(form, CustomCommand)
    params = tuple(IRParam(p.name, PARAM_TYPE[p.type]) for p in form.params)
    param_object = (names.param_object
                    if config.parameter_object and form.params else None)
    return IROperation(name=names.method, params=params, param_object=param_object)


class _LocalNames:
    def __init__(self, fixture: tuple[str, ...], target: str):
        self.used: set[str] = set(fixture) | KEYWORDS[target]

    def claim(self, base: str) -> str:
        name = base
        n = 1
        while name in self.used:
            n += 1
            name = f"{base}{n}"
        self.used.add(name)
        return name


def _declare_context(context, config, locals_, statements) -> tuple[str, str]:
    """Declare a string local holding one context's payload; return the local
    and the delivery mode.

    File-based contexts keep their path and are always delivered as files;
    everything else is rendered inline per the configured format.
    """
    if isinstance(context.body, FileBody):
        payload, delivery = context.body.path, "file"
    else:
        from .runtime import render_context  # only a suite with inline contexts loads it

        payload = render_context(context.body, config.context_format)
        delivery = config.context_delivery
    local = locals_.claim(camel_case(context.name))
    statements.append(DeclareLocal(name=local, ir_type="string", init=StringLit(
        value=payload, multiline="\n" in payload)))
    return local, delivery


def _lower_scenario(linked_scenario, widgets, name_map, config, fixture,
                    command_home, actions, checks) -> IRTest:
    statements: list[IRStatement] = []
    locals_ = _LocalNames(fixture, config.target)
    context_locals: dict[str, str] = {}

    for context in linked_scenario.contexts:
        local, delivery = _declare_context(context, config, locals_, statements)
        context_locals[context.name] = local
        statements.append(CallSetup(context_name=context.name,
                                    payload=LocalRef(local),
                                    delivery=delivery))

    for action in linked_scenario.actions:
        lowered = actions.get(id(action))
        if lowered is None:
            lowered = _lower_action(action, name_map, config, locals_,
                                    context_locals, command_home, actions)
        statements.extend(lowered)

    for check in linked_scenario.checks:
        exp = check.expectation
        if isinstance(exp, RowsExpectation):
            statements.append(_lower_rows_check(check, widgets, name_map))
            continue
        key = (check.widget, check.feature, type(exp), exp)
        lowered_check = checks.get(key)
        if lowered_check is None:
            lowered_check = checks[key] = _lower_check(check, name_map)
        statements.append(lowered_check)

    return IRTest(name=linked_scenario.test_name, statements=tuple(statements))


def _lower_action(action, name_map, config, locals_, context_locals,
                  command_home, actions):
    """The statements of one action. They go into ``actions`` under the
    action's id unless they claim a local, which differs per scenario."""
    statements: list[IRStatement] = []
    args: list[IRExpr] = []
    shared = True
    for arg in action.args:
        if isinstance(arg, ResolvedContext):
            shared = False
            local = context_locals.get(arg.name)
            if local is None:
                local, _ = _declare_context(arg, config, locals_, statements)
                context_locals[arg.name] = local
            args.append(LocalRef(local))
        else:
            args.append(_literal_expr(arg))
    form = action.decl.form
    names = name_map.commands[action.decl.name]
    if isinstance(form, WidgetCommand):
        effect = COMMAND_EFFECT[form.kind]
        if effect is not None:
            setter = name_map.properties[(form.target, effect)].setter
            statements.append(Comment(
                f"the view applies {setter}({_literal_text(action.args[0])}) "
                f"before the command runs"))
    elif config.parameter_object and form.params:
        shared = False
        local = locals_.claim(camel_case(names.param_object))
        statements.append(DeclareParams(
            name=local, owner=command_home, type_name=names.param_object,
            fields=tuple(zip((p.name for p in form.params), args))))
        args = [LocalRef(local)]
    statements.append(InvokeCommand(method=names.method, args=tuple(args)))
    if shared:
        actions[id(action)] = statements
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


def _lower_rows_check(check, widgets, name_map) -> AssertRows:
    exp = check.expectation
    selected = name_map.properties.get((check.widget, _SELECTED_ROW))
    return AssertRows(
        widget=check.widget,
        rows_getter=name_map.properties[(check.widget, _ROWS)].getter,
        selected_getter=None if selected is None else selected.getter,
        columns=widgets[check.widget].column_indexes(exp.header),
        expectation=exp)


def _lower_check(check, name_map) -> AssertEqual:
    names = name_map.properties[(check.widget, check.feature)]
    return AssertEqual(expected=_literal_expr(check.expectation),
                       actual=PropertyGet(names.getter),
                       message=check_label(check.widget, FEATURE_NAME[check.feature], "value"))
