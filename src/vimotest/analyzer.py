"""Semantic analysis: links suites to descriptions and derives target names.

``link`` is the one link stage: it validates each description once with
``validate_description``, which enforces the catalog rules, and binds every
widget, command, and context reference of each suite against its
description with ``resolve``. ``compute_name_map`` derives the default
target names, applies explicit name bindings subject by subject and rejects
names that are keywords of the target.
"""

from __future__ import annotations

import re

from .diagnostics import (
    Diagnostic,
    E_ARITY_MISMATCH,
    E_CONTEXT_CYCLE,
    E_DUPLICATE_NAME,
    E_RAGGED_TABLE,
    E_SYNTAX,
    E_TYPE_MISMATCH,
    E_UNKNOWN_COLUMN,
    E_UNKNOWN_COMMAND,
    E_UNKNOWN_WIDGET,
    E_UNRESOLVED_CONTEXT,
    E_UNSUPPORTED_FEATURE,
    Record,
    error,
)
from .model import (
    ArgContextRef,
    ArgLiteral,
    BOOL_FEATURES,
    FEATURE_NAME,
    FEATURE_TYPE,
    PARAM_TYPE,
    CheckValue,
    CommandDecl,
    COMMAND_EFFECT,
    COMMAND_PARAM,
    ContextBody,
    ContextDefinition,
    CustomAction,
    CustomCommand,
    FeatureKind,
    ParamType,
    ReferenceBody,
    RowsExpectation,
    TestScenario,
    TestSuite,
    ViewModelDescription,
    WidgetAction,
    WidgetCommand,
    WidgetDecl,
    catalog_lookup,
    is_identifier,
)
from .names import KEYWORDS, camel_case, pascal_case, snake_case

# Bound once: reading an enum member costs a class attribute lookup on each use.
_TEXT = FeatureKind.TEXT

# ---------------------------------------------------------------------------
# Linked suite
# ---------------------------------------------------------------------------


class ResolvedContext(Record):
    """A given-part entry or a context-typed command argument, with its
    reference chain fully chased. As an argument it delivers the rendered
    body string."""

    name: str
    body: ContextBody


class LinkedAction(Record):
    decl: CommandDecl
    args: tuple = ()


class LinkedScenario(Record):
    scenario: TestScenario
    test_name: str
    contexts: tuple[ResolvedContext, ...] = ()
    actions: tuple[LinkedAction, ...] = ()
    checks: tuple[CheckValue, ...] = ()


class LinkedSuite(Record):
    suite: TestSuite
    description: ViewModelDescription
    scenarios: tuple[LinkedScenario, ...] = ()


# ---------------------------------------------------------------------------
# Description validation
# ---------------------------------------------------------------------------

# The Python type of a literal of each IR type; rows have no literal.
_LITERAL_TYPES = {"bool": bool, "string": str, "int": int, "optIndex": int}


def validate_description(desc: ViewModelDescription) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    widgets: dict[str, WidgetDecl] = {}
    for widget in desc.widgets:
        if widget.name in widgets:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate widget name '{widget.name}'", widget.span))
            continue
        widgets[widget.name] = widget
        _validate_widget(widget, diags)
    seen_commands: set[str] = set()
    for command in desc.commands:
        if command.name in seen_commands:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate command name '{command.name}'", command.span))
            continue
        seen_commands.add(command.name)
        _validate_command(command, widgets, diags)
    _validate_bindings(desc, widgets, diags)
    return diags


def _validate_widget(widget: WidgetDecl, diags: list[Diagnostic]) -> None:
    entry = catalog_lookup(widget.kind)
    for feature in sorted(widget.enabled_optional, key=lambda f: f.value):
        if feature not in entry.optional:
            diags.append(error(
                E_UNSUPPORTED_FEATURE,
                f"{widget.kind.value} widgets do not support "
                f"an optional '{feature.value}' feature",
                widget.span))
    if (widget.kind.value == "table") != bool(widget.columns):
        diags.append(error(
            E_SYNTAX,
            "table widgets declare columns; other widget kinds must not",
            widget.span))
    titles: set[str] = set()
    for column in widget.columns:
        trimmed = column.title.strip()
        if trimmed in titles:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate column title '{trimmed}'", column.span))
        titles.add(trimmed)
    features = widget.features()
    for feature, value in widget.examples:
        if feature not in features:
            diags.append(error(
                E_UNSUPPORTED_FEATURE,
                f"example for feature '{feature.value}' which widget "
                f"'{widget.name}' does not have",
                widget.span))
            continue
        expected = _LITERAL_TYPES.get(FEATURE_TYPE[feature])
        if expected is None:
            diags.append(error(E_TYPE_MISMATCH,
                               "example values for rows are not supported", widget.span))
        elif not _is_instance(value, expected):
            diags.append(error(
                E_TYPE_MISMATCH,
                f"example for '{feature.value}' must be {expected.__name__}, "
                f"got {value!r}",
                widget.span))


def _is_instance(value, expected: type) -> bool:
    """``isinstance``, except that a bool is not an int."""
    return isinstance(value, expected) and (expected is bool or not isinstance(value, bool))


# Both targets write an int literal as an ``int``: javac rejects a wider one
# and g++ truncates it.
INT_MIN, INT_MAX = -2**31, 2**31 - 1


def _out_of_int_range(value: int, what: str, span, diags: list[Diagnostic]) -> bool:
    """Report E105 and return True when ``value`` does not fit a 32-bit int."""
    if INT_MIN <= value <= INT_MAX:
        return False
    diags.append(error(E_TYPE_MISMATCH, f"{what} does not fit a 32-bit int "
                                        f"({INT_MIN} to {INT_MAX}): {value}", span))
    return True


def _bad_row_index(value: int, what: str, span, diags: list[Diagnostic]) -> bool:
    """Report E105 and return True when ``value`` cannot be a row index: a
    generated one is a 32-bit int, and no table row has a negative one."""
    if _out_of_int_range(value, what, span, diags):
        return True
    if value >= 0:
        return False
    diags.append(error(E_TYPE_MISMATCH, f"{what} is a row index and cannot be "
                                        f"negative: {value}", span))
    return True


def _validate_command(command: CommandDecl, widgets: dict[str, WidgetDecl],
                      diags: list[Diagnostic]) -> None:
    form = command.form
    if isinstance(form, WidgetCommand):
        widget = widgets.get(form.target)
        if widget is None:
            diags.append(error(E_UNKNOWN_WIDGET,
                               f"unknown widget '{form.target}'", command.span))
            return
        if form.kind not in catalog_lookup(widget.kind).widget_commands:
            diags.append(error(
                E_UNKNOWN_COMMAND,
                f"{widget.kind.value} widgets do not support "
                f"the {form.kind.value} command",
                command.span))
            return
        effect = COMMAND_EFFECT[form.kind]
        if effect is not None and effect not in widget.features():
            diags.append(error(
                E_UNSUPPORTED_FEATURE,
                f"the {form.kind.value} command updates '{effect.value}', "
                f"which widget '{widget.name}' does not have",
                command.span))
        return
    assert isinstance(form, CustomCommand)
    seen: set[str] = set()
    for param in form.params:
        if param.name in seen:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate parameter name '{param.name}'", command.span))
        seen.add(param.name)


def _validate_bindings(desc: ViewModelDescription, widgets: dict[str, WidgetDecl],
                       diags: list[Diagnostic]) -> None:
    seen: set[tuple] = set()
    for binding in desc.bindings:
        key = (binding.subject, binding.widget, binding.feature)
        if key in seen:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate binding for {binding.subject}", binding.span))
            continue
        seen.add(key)
        if binding.subject in ("propertyName", "getterName"):
            widget = widgets.get(binding.widget or "")
            if widget is None:
                diags.append(error(E_UNKNOWN_WIDGET,
                                   f"binding names unknown widget '{binding.widget}'",
                                   binding.span))
                continue
            if binding.feature not in widget.features():
                diags.append(error(
                    E_UNSUPPORTED_FEATURE,
                    f"binding names feature '{binding.feature.value}' which widget "
                    f"'{widget.name}' does not have",
                    binding.span))
        if binding.subject != "fileName" and not is_identifier(binding.bound_name):
            diags.append(error(E_SYNTAX,
                               f"bound name is not a valid identifier: "
                               f"{binding.bound_name!r}",
                               binding.span))


# ---------------------------------------------------------------------------
# Context resolution
# ---------------------------------------------------------------------------


def build_context_registry(
    suite: TestSuite, diags: list[Diagnostic]
) -> dict[str, ContextDefinition]:
    """Suite-wide name -> definition map. Pure ``use X`` entries are references,
    not definitions, and never enter the registry."""
    registry: dict[str, ContextDefinition] = {}
    for scenario in suite.scenarios:
        for definition in scenario.given:
            if definition.is_pure_use():
                continue
            if definition.name in registry:
                diags.append(error(
                    E_DUPLICATE_NAME,
                    f"duplicate context definition '{definition.name}'",
                    definition.span))
                continue
            registry[definition.name] = definition
    return registry


def chase_context(
    start: str,
    registry: dict[str, ContextDefinition],
    diags: list[Diagnostic],
    span,
) -> ContextBody | None:
    """Follow reference bodies from ``start`` until a concrete body is found.

    Reports E107 when a name has no definition and E109 when the chain
    revisits a name.
    """
    visited: set[str] = set()
    current = start
    while True:
        if current in visited:
            diags.append(error(E_CONTEXT_CYCLE,
                               f"context reference cycle involving '{current}'", span))
            return None
        visited.add(current)
        definition = registry.get(current)
        if definition is None:
            diags.append(error(E_UNRESOLVED_CONTEXT,
                               f"unresolved context reference '{current}'", span))
            return None
        if isinstance(definition.body, ReferenceBody):
            current = definition.body.target
            continue
        return definition.body


# ---------------------------------------------------------------------------
# Suite resolution
# ---------------------------------------------------------------------------


def resolve(
    suite: TestSuite, desc: ViewModelDescription
) -> tuple[LinkedSuite | None, list[Diagnostic]]:
    if suite.target_view_model != desc.name:
        raise ValueError(
            f"suite '{suite.name}' targets '{suite.target_view_model}', "
            f"not '{desc.name}'")
    diags: list[Diagnostic] = []
    widgets = {w.name: w for w in desc.widgets}
    commands = {c.name: c for c in desc.commands}
    widget_commands = {
        (c.form.kind, c.form.target): c
        for c in desc.commands
        if isinstance(c.form, WidgetCommand)
    }
    registry = build_context_registry(suite, diags)
    # Equal widget actions of the suite share the LinkedAction of the first.
    widget_actions: dict[tuple, LinkedAction] = {}

    linked: list[LinkedScenario] = []
    descriptions_seen: set[str] = set()
    test_names_seen: dict[str, str] = {}
    for scenario in suite.scenarios:
        if scenario.description in descriptions_seen:
            diags.append(error(E_DUPLICATE_NAME,
                               f"duplicate scenario description "
                               f"{scenario.description!r}",
                               scenario.span))
        descriptions_seen.add(scenario.description)
        test_name = sanitize_test_name(scenario.description)
        if test_name in test_names_seen:
            diags.append(error(
                E_DUPLICATE_NAME,
                f"scenario {scenario.description!r} and "
                f"{test_names_seen[test_name]!r} map to the same "
                f"test name '{test_name}'",
                scenario.span))
        else:
            test_names_seen[test_name] = scenario.description

        contexts = _resolve_contexts(scenario, registry, diags)
        actions = _resolve_actions(scenario, widgets, commands, widget_commands,
                                   registry, widget_actions, diags)
        checks = _resolve_checks(scenario, widgets, diags)
        linked.append(LinkedScenario(scenario=scenario, test_name=test_name,
                                     contexts=contexts, actions=actions,
                                     checks=checks))
    # The helpers report what is wrong and collect the rest; with any
    # diagnostic there is no linked suite.
    if diags:
        return None, diags
    return LinkedSuite(suite=suite, description=desc, scenarios=tuple(linked)), diags


def _resolve_contexts(scenario, registry, diags) -> tuple[ResolvedContext, ...]:
    out: list[ResolvedContext] = []
    for definition in scenario.given:
        if isinstance(definition.body, ReferenceBody):
            body = chase_context(definition.body.target, registry, diags,
                                 definition.span)
            if body is None:
                continue
        else:
            body = definition.body
        out.append(ResolvedContext(name=definition.name, body=body))
    return tuple(out)


def _resolve_actions(scenario, widgets, commands, widget_commands, registry,
                     widget_actions, diags) -> tuple[LinkedAction, ...]:
    """The linked ``scenario.when``, in its order. ``widget_actions`` maps
    ``(kind, widget, type(arg), arg)`` to the LinkedAction of a widget action
    that linked; the type keeps ``1`` and ``True`` apart. An action that
    fails is resolved again at each occurrence, so each reports at its span."""
    out: list[LinkedAction] = []
    for action in scenario.when:
        if isinstance(action, WidgetAction):
            arg = action.arg
            key = (action.kind, action.widget, type(arg), arg)
            linked = widget_actions.get(key)
            if linked is None:
                linked = _resolve_widget_action(action, widgets, widget_commands, diags)
                if linked is not None:
                    widget_actions[key] = linked
        else:
            linked = _resolve_custom_action(action, commands, registry, diags)
        if linked is not None:
            out.append(linked)
    return tuple(out)


def _resolve_widget_action(action: WidgetAction, widgets, widget_commands,
                           diags) -> LinkedAction | None:
    if action.widget not in widgets:
        diags.append(error(E_UNKNOWN_WIDGET,
                           f"unknown widget '{action.widget}'", action.span))
        return None
    decl = widget_commands.get((action.kind, action.widget))
    if decl is None:
        diags.append(error(
            E_UNKNOWN_COMMAND,
            f"no {action.kind.value} command is declared on widget "
            f"'{action.widget}'",
            action.span))
        return None
    expected = COMMAND_PARAM[action.kind]
    if expected is None:
        if action.arg is not None:
            diags.append(error(E_ARITY_MISMATCH,
                               f"{action.kind.value} takes no argument", action.span))
            return None
        return LinkedAction(decl=decl)
    if not _is_instance(action.arg, _LITERAL_TYPES[PARAM_TYPE[expected]]):
        diags.append(error(
            E_TYPE_MISMATCH,
            f"{action.kind.value} expects a {expected.value} argument, "
            f"got {action.arg!r}",
            action.span))
        return None
    if expected is ParamType.INT and _bad_row_index(
            action.arg, f"{action.kind.value} argument", action.span, diags):
        return None
    return LinkedAction(decl=decl, args=(action.arg,))


def _resolve_custom_action(action: CustomAction, commands, registry,
                           diags) -> LinkedAction | None:
    decl = commands.get(action.name)
    if decl is None or not isinstance(decl.form, CustomCommand):
        diags.append(error(E_UNKNOWN_COMMAND,
                           f"unknown command '{action.name}'", action.span))
        return None
    params = decl.form.params
    if len(action.args) != len(params):
        diags.append(error(
            E_ARITY_MISMATCH,
            f"command '{action.name}' expects {len(params)} argument(s), "
            f"got {len(action.args)}",
            action.span))
        return None
    resolved: list = []
    for param, arg in zip(params, action.args):
        if param.type is ParamType.CONTEXT:
            if not isinstance(arg, ArgContextRef):
                diags.append(error(
                    E_TYPE_MISMATCH,
                    f"parameter '{param.name}' of '{action.name}' takes a "
                    f"context reference",
                    action.span))
                continue
            body = chase_context(arg.name, registry, diags, action.span)
            if body is not None:
                resolved.append(ResolvedContext(name=arg.name, body=body))
            continue
        if isinstance(arg, ArgContextRef):
            diags.append(error(
                E_TYPE_MISMATCH,
                f"parameter '{param.name}' of '{action.name}' takes a "
                f"{param.type.value} literal, got a context reference",
                action.span))
            continue
        assert isinstance(arg, ArgLiteral)
        if not _is_instance(arg.value, _LITERAL_TYPES[PARAM_TYPE[param.type]]):
            diags.append(error(
                E_TYPE_MISMATCH,
                f"parameter '{param.name}' of '{action.name}' takes "
                f"{param.type.value}, got {arg.value!r}",
                action.span))
            continue
        if param.type is ParamType.INT and _out_of_int_range(
                arg.value, f"argument '{param.name}' of '{action.name}'", action.span, diags):
            continue
        resolved.append(arg.value)
    return LinkedAction(decl=decl, args=tuple(resolved))


def _resolve_checks(scenario, widgets, diags) -> tuple[CheckValue, ...]:
    out: list[CheckValue] = []
    seen: set[tuple[str, FeatureKind]] = set()
    for check in scenario.then:
        widget = widgets.get(check.widget)
        if widget is None:
            diags.append(error(E_UNKNOWN_WIDGET,
                               f"unknown widget '{check.widget}'", check.span))
            continue
        if widget.kind is not check.widget_kind:
            diags.append(error(
                E_UNKNOWN_WIDGET,
                f"widget '{check.widget}' is not a {check.widget_kind.value} "
                f"(declared {widget.kind.value})",
                check.span))
            continue
        if not widget.has_feature(check.feature):
            diags.append(error(
                E_UNSUPPORTED_FEATURE,
                f"widget '{check.widget}' does not have the "
                f"'{check.feature.value}' feature",
                check.span))
            continue
        key = (check.widget, check.feature)
        if key in seen:
            diags.append(error(
                E_DUPLICATE_NAME,
                f"duplicate check for {check.widget}.{check.feature.value} "
                f"in one scenario",
                check.span))
            continue
        seen.add(key)
        if isinstance(check.expectation, RowsExpectation):
            _check_rows_expectation(check, widget, diags)
        elif check.feature in BOOL_FEATURES and not isinstance(check.expectation, bool):
            diags.append(error(E_TYPE_MISMATCH,
                               f"'{check.feature.value}' expects a bool", check.span))
        elif check.feature is _TEXT and not isinstance(check.expectation, str):
            diags.append(error(E_TYPE_MISMATCH, "'text' expects a string", check.span))
        out.append(check)
    return tuple(out)


def _check_rows_expectation(check: CheckValue, widget: WidgetDecl,
                            diags: list[Diagnostic]) -> None:
    exp = check.expectation
    assert isinstance(exp, RowsExpectation)
    declared = [c.title for c in widget.columns]
    declared_set = set(declared)
    for title in exp.ignored_columns:
        if title not in declared_set:
            diags.append(error(
                E_UNKNOWN_COLUMN,
                f"ignored column '{title}' is not a column of "
                f"'{widget.name}'",
                check.span))
    header_seen: set[str] = set()
    for title in exp.header:
        if title not in declared_set:
            diags.append(error(
                E_UNKNOWN_COLUMN,
                f"column '{title}' is not a column of '{widget.name}'",
                check.span))
            continue
        if title in header_seen:
            diags.append(error(E_UNKNOWN_COLUMN,
                               f"duplicate column '{title}' in expectation header",
                               check.span))
        header_seen.add(title)
        if title in exp.ignored_columns:
            diags.append(error(
                E_UNKNOWN_COLUMN,
                f"column '{title}' is both asserted and ignored",
                check.span))
    for title in declared:
        if title not in header_seen and title not in exp.ignored_columns:
            diags.append(error(
                E_UNKNOWN_COLUMN,
                f"column '{title}' of '{widget.name}' is neither asserted "
                f"nor ignored",
                check.span))
    for row in exp.rows:
        if len(row.cells) != len(exp.header):
            diags.append(error(
                E_RAGGED_TABLE,
                f"expectation row has {len(row.cells)} cells but the header "
                f"has {len(exp.header)}",
                check.span))
    if isinstance(exp.selected_row_check, int):
        _bad_row_index(exp.selected_row_check, "selectedRow index", check.span, diags)
    asserts_selection = (exp.selected_row_check is not None
                         or any(r.selected for r in exp.rows))
    if asserts_selection and not widget.has_feature(FeatureKind.SELECTED_ROW):
        diags.append(error(
            E_UNSUPPORTED_FEATURE,
            f"widget '{widget.name}' does not have the 'selectedRow' feature",
            check.span))


# ---------------------------------------------------------------------------
# Link stage
# ---------------------------------------------------------------------------


class Project(Record):
    """The first description of each ViewModel name, the linked suites, and
    the suites whose target has no description."""

    descriptions: tuple[ViewModelDescription, ...] = ()
    suites: tuple[LinkedSuite, ...] = ()
    orphans: tuple[TestSuite, ...] = ()


def link(descriptions, suites) -> tuple[Project, list[Diagnostic]]:
    """Validate every description once, then resolve every suite, each in
    the order given. A second ViewModel or suite of one name gets E106; it
    and any suite whose description has errors are left out."""
    diags: list[Diagnostic] = []
    first_desc: dict[str, ViewModelDescription] = {}
    clean: set[str] = set()
    for desc in descriptions:
        first = _first(first_desc, desc, "ViewModel", diags)
        found = validate_description(desc)
        diags.extend(found)
        if first and not found:
            clean.add(desc.name)
    first_suite: dict[str, TestSuite] = {}
    linked: list[LinkedSuite] = []
    orphans: list[TestSuite] = []
    for suite in suites:
        first = _first(first_suite, suite, "test suite", diags)
        desc = first_desc.get(suite.target_view_model)
        if desc is None:
            orphans.append(suite)
            continue
        result, found = resolve(suite, desc)
        diags.extend(found)
        if result is not None and first and desc.name in clean:
            linked.append(result)
    return Project(tuple(first_desc.values()), tuple(linked), tuple(orphans)), diags


def _first(seen: dict, node, kind: str, diags: list[Diagnostic]) -> bool:
    """Record ``node`` under its name; report E106 if another came first."""
    first = seen.get(node.name)
    if first is None:
        seen[node.name] = node
        return True
    diags.append(error(E_DUPLICATE_NAME, f"duplicate {kind} name '{node.name}'; "
                       f"the first is at {first.span}", node.span))
    return False


# ---------------------------------------------------------------------------
# Name map
# ---------------------------------------------------------------------------


class PropertyNames(Record):
    property_name: str
    getter: str
    setter: str


class CommandNames(Record):
    method: str
    param_object: str


class NameMap(Record):
    type_name: str
    file_name: str
    properties: dict  # (widget, feature) -> PropertyNames
    commands: dict  # command name -> CommandNames


_ANY_KEYWORD = KEYWORDS["java"] | KEYWORDS["cpp"]

# A property's default name is its widget's camel-case name plus the pascal-case
# feature word, so a widget name is split once for all its features. Pascal-casing
# the joined name moves no word boundary across the joint, because every feature
# word starts with a capital and a lowercase letter; the getter and setter are
# therefore the widget's pascal-cased camel name plus the same tail.
_FEATURE_TAIL = {f: pascal_case(name) for f, name in FEATURE_NAME.items()}
_GETTER_PREFIX = {f: "is" if f in BOOL_FEATURES else "get" for f in FeatureKind}
# A widget's properties are listed alphabetically by feature word.
_FEATURE_ORDER = {f: rank for rank, f in enumerate(sorted(FeatureKind, key=FEATURE_NAME.get))}


def sanitize_test_name(description: str) -> str:
    """Turn a free-text scenario description into a target method name; one
    that starts with a digit or is a keyword of either target gets the
    prefix ``scenario``."""
    words = re.findall(r"[A-Za-z0-9]+", description)
    if not words:
        return "scenario"
    name = camel_case(*words)
    if name[0].isdigit() or name in _ANY_KEYWORD:
        name = "scenario" + pascal_case(*words)
    return name


def compute_name_map(
    desc: ViewModelDescription, config=None
) -> tuple[NameMap | None, list[Diagnostic]]:
    """Derive the target-name map; explicit bindings override subject by subject."""
    diags: list[Diagnostic] = []
    overrides: dict[tuple, str] = {}
    type_name, type_span = desc.name, desc.span
    file_name_bound = False
    file_name = snake_case(desc.name)
    for binding in desc.bindings:
        if binding.subject == "typeName":
            type_name, type_span = binding.bound_name, binding.span
        elif binding.subject == "fileName":
            file_name, file_span = binding.bound_name, binding.span
            file_name_bound = True
        else:  # an override of an unknown widget or feature is never looked up
            overrides[(binding.subject, binding.widget, binding.feature)] = \
                binding.bound_name

    properties: dict[tuple[str, FeatureKind], PropertyNames] = {}
    for widget in desc.widgets:
        name = widget.name
        head = camel_case(name)
        pascal_head = pascal_case(head)
        for feature in sorted(widget.features(), key=_FEATURE_ORDER.__getitem__):
            tail = _FEATURE_TAIL[feature]
            properties[(name, feature)] = PropertyNames(
                property_name=overrides.get(("propertyName", name, feature), head + tail),
                getter=overrides.get(("getterName", name, feature),
                                     _GETTER_PREFIX[feature] + pascal_head + tail),
                setter="set" + pascal_head + tail)

    commands: dict[str, CommandNames] = {}
    for command in desc.commands:
        pascal = pascal_case(command.name)
        commands[command.name] = CommandNames(method="on" + pascal,
                                              param_object=pascal + "Params")

    _report_collisions(desc, properties, commands, diags)
    if config is not None:
        _report_keywords(desc, type_name, type_span, config.target, diags)
        if config.target == "java" and file_name_bound and file_name != type_name:
            diags.append(error(
                E_DUPLICATE_NAME,
                f"fileName '{file_name}' differs from the type name '{type_name}', "
                "but javac needs a public class in the file named after it",
                file_span))
    if diags:
        return None, diags
    return NameMap(type_name=type_name, file_name=file_name, properties=properties,
                   commands=commands), diags


def _report_collisions(desc, properties, commands, diags) -> None:
    # A key is labelled, as ``widget.feature`` for a property, only on a collision.
    def check(kind: str, pairs, label=lambda key: f"{key[0]}.{key[1].value}") -> None:
        seen: dict[str, object] = {}
        for key, name in pairs:
            if name in seen:
                diags.append(error(
                    E_DUPLICATE_NAME,
                    f"{kind} '{name}' is produced by both {label(seen[name])} and {label(key)}",
                    desc.span))
            else:
                seen[name] = key

    check("property name", ((key, p.property_name) for key, p in properties.items()))
    check("getter name", ((key, p.getter) for key, p in properties.items()))
    check("setter name", ((key, p.setter) for key, p in properties.items()))
    check("command method", ((name, c.method) for name, c in commands.items()), str)


def _report_keywords(desc, type_name, type_span, target: str, diags) -> None:
    """E001 for each name that the target's code uses as written and that is
    one of its keywords. C++ writes a property ``<name>_``, so only Java
    uses a bound property name as written."""
    bound = ("propertyName", "getterName") if target == "java" else ("getterName",)
    names = [(f"type name '{type_name}'", type_name, type_span)]
    names += [(f"bound {b.subject} '{b.bound_name}'", b.bound_name, b.span)
              for b in desc.bindings if b.subject in bound]
    names += [(f"parameter '{p.name}' of command '{c.name}'", p.name, c.span)
              for c in desc.commands if isinstance(c.form, CustomCommand)
              for p in c.form.params]
    diags.extend(error(E_SYNTAX, f"{what} is a {target} keyword", span)
                 for what, name, span in names if name in KEYWORDS[target])
