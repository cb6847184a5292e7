import random
import string
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astgen import random_description, random_suite, with_edge_ints
from vimotest.analyzer import (
    INT_MAX,
    INT_MIN,
    CommandNames,
    NameMap,
    PropertyNames,
    build_context_registry,
    chase_context,
    compute_name_map,
    link,
    resolve,
    sanitize_test_name,
    validate_description,
)
from vimotest.diagnostics import E_DUPLICATE_NAME, error
from vimotest.genconfig import GenConfig
from vimotest.model import (
    BOOL_FEATURES,
    CommandKind,
    ContextDefinition,
    DataTableBody,
    FeatureKind,
    NameBinding,
    ReferenceBody,
    TestScenario,
    TestSuite,
    ViewModelDescription,
    WidgetAction,
    WidgetDecl,
    WidgetKind,
    catalog_lookup,
)
from vimotest.names import camel_case, pascal_case, snake_case
from vimotest.parser import parse_test_suite, parse_view_model
from vimotest.printer import pretty_print

from conftest import VMDSL_PATH
from test_codegen import BOUNDS_VMDSL, bounds_vmtest


def codes(diags):
    return sorted(d.code for d in diags)


def suite_for(body: str, target: str = "TaskListViewModel") -> str:
    return (f"testsuite S for {target} {{ "
            f'scenario "case" {{ {body} }} }}')


def resolve_source(corpus_desc, body: str):
    suite, diags = parse_test_suite(suite_for(body))
    assert suite is not None, [d.render() for d in diags]
    return resolve(suite, corpus_desc)


class TestResolve:
    def test_corpus_is_clean(self, corpus_suite, corpus_desc):
        linked, diags = resolve(corpus_suite, corpus_desc)
        assert linked is not None and diags == []

    def test_soundness_resolving_twice_stays_clean(self, corpus_linked):
        linked, diags = resolve(corpus_linked.suite, corpus_linked.description)
        assert linked is not None and diags == []

    def test_check_command_on_button_is_unknown(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { } when { check AddNewTask true } then { }")
        assert linked is None
        assert codes(diags) == ["E103"]

    def test_unknown_widget_in_action(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { } when { click Nonexistent } then { }")
        assert linked is None
        assert codes(diags) == ["E101"]

    def test_unresolved_context_reference(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { use missingCtx } when { } then { }")
        assert linked is None
        assert codes(diags) == ["E107"]

    def test_custom_command_arity(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, 'given { } when { LoadView() } then { }')
        assert linked is None
        assert codes(diags) == ["E104"]

    def test_custom_command_type_mismatch(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, 'given { } when { LoadView("inline") } then { }')
        assert linked is None
        assert codes(diags) == ["E105"]

    def test_unknown_command(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { } when { Reload() } then { }")
        assert linked is None
        assert codes(diags) == ["E103"]

    def test_unsupported_feature_in_check(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { } when { } then { button AddNewTask visible true }")
        assert linked is None
        assert codes(diags) == ["E102"]

    def test_widget_kind_mismatch_in_check(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, 'given { } when { } then { label AddNewTask text "x" }')
        assert linked is None
        assert codes(diags) == ["E101"]

    def test_duplicate_check_for_same_widget_feature(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc,
            "given { } when { } then { button AddNewTask enabled true "
            "enabled false }")
        assert linked is None
        assert codes(diags) == ["E106"]

    def test_unknown_ignored_column(self, corpus_desc):
        body = """given { } when { } then {
          table Tasks {
            ignore "Missing Column"
            rows {
              | Priority | Task Name | Due Date |
            }
          }
        }"""
        linked, diags = resolve_source(corpus_desc, body)
        assert linked is None
        assert codes(diags) == ["E110"]

    def test_header_must_cover_unignored_columns(self, corpus_desc):
        body = """given { } when { } then {
          table Tasks {
            rows {
              | Priority | Task Name |
            }
          }
        }"""
        linked, diags = resolve_source(corpus_desc, body)
        assert linked is None
        assert codes(diags) == ["E110"]

    def test_header_may_permute_columns(self, corpus_desc):
        body = """given { } when { } then {
          table Tasks {
            rows {
              | Due Date | Priority | Task Name |
            }
          }
        }"""
        linked, diags = resolve_source(corpus_desc, body)
        assert linked is not None and not diags

    def test_target_mismatch_raises(self, corpus_desc):
        suite, _ = parse_test_suite("testsuite S for Other { }")
        with pytest.raises(ValueError):
            resolve(suite, corpus_desc)

    def test_generated_suites_resolve_cleanly(self):
        rng = random.Random(4040)
        for _ in range(40):
            desc = random_description(rng)
            suite = random_suite(rng, desc)
            linked, diags = resolve(suite, desc)
            assert linked is not None, [d.render() for d in diags]
            widgets = {w.name: w for w in desc.widgets}
            for scenario in linked.scenarios:
                for check in scenario.checks:
                    assert check.feature in widgets[check.widget].features()


class TestIntRange:
    """An int literal that reaches generated code fits a 32-bit int, or it
    is an E105: javac rejects a wider literal and g++ truncates it."""

    @staticmethod
    def resolve_bounds(*values):
        desc, _ = parse_view_model(BOUNDS_VMDSL)
        suite, diags = parse_test_suite(bounds_vmtest(*values), "b.vmtest")
        assert suite is not None, [d.render() for d in diags]
        return resolve(suite, desc)

    def test_both_bounds_resolve(self):
        """A command argument takes either end of the 32-bit range; a row
        index takes 0 to its maximum."""
        linked, diags = self.resolve_bounds((INT_MIN, INT_MAX, 0), (INT_MAX, 0, INT_MAX))
        assert linked is not None and diags == []
        assert [a.args for s in linked.scenarios for a in s.actions] == [
            (INT_MIN,), (INT_MAX,), (INT_MAX,), (0,)]

    def test_a_negative_row_index_is_e105(self):
        """No table row has a negative index; an int command argument may be
        negative."""
        linked, diags = self.resolve_bounds((-1, -1, -1), (INT_MIN, INT_MIN, INT_MIN))
        assert linked is None
        negative = "is a row index and cannot be negative"
        assert [d.render() for d in diags] == [
            f"b.vmtest:7:7: E105: selectRow argument {negative}: -1",
            f"b.vmtest:10:7: E105: selectedRow index {negative}: -1",
            f"b.vmtest:23:7: E105: selectRow argument {negative}: -2147483648",
            f"b.vmtest:26:7: E105: selectedRow index {negative}: -2147483648",
        ]

    def test_negative_row_indexes_in_the_corpus_suite(self, corpus_desc):
        """Each occurrence of a bad row index reports at its own span."""
        linked, diags = resolve_source(
            corpus_desc, "given { } when {\n selectRow Tasks -1\n selectRow Tasks -1\n } "
            "then { table Tasks { rows { | Priority | Task Name | Due Date |\n } "
            "selectedRow -1 } }")
        assert linked is None
        assert [(d.code, d.span.line) for d in diags] == [("E105", 2), ("E105", 3), ("E105", 4)]

    def test_a_literal_past_either_bound_is_e105(self):
        linked, diags = self.resolve_bounds((99999999999999999999, 3000000000, 4000000000),
                                            (INT_MIN - 1, INT_MIN - 1, INT_MIN - 1))
        assert linked is None
        span = "does not fit a 32-bit int (-2147483648 to 2147483647)"
        assert [d.render() for d in diags] == [
            f"b.vmtest:6:7: E105: argument 'n' of 'Load' {span}: 99999999999999999999",
            f"b.vmtest:7:7: E105: selectRow argument {span}: 3000000000",
            f"b.vmtest:10:7: E105: selectedRow index {span}: 4000000000",
            f"b.vmtest:22:7: E105: argument 'n' of 'Load' {span}: -2147483649",
            f"b.vmtest:23:7: E105: selectRow argument {span}: -2147483649",
            f"b.vmtest:26:7: E105: selectedRow index {span}: -2147483649",
        ]

    def test_generated_edge_ints_are_e105_only_past_the_range(self):
        rng = random.Random(3131)
        replaced = rejected = 0
        for _ in range(150):
            desc = random_description(rng)
            plain = random_suite(rng, desc)
            suite, past = with_edge_ints(rng, plain)
            # Through the printer and parser, as a user would write it.
            suite, diags = parse_test_suite(pretty_print(suite))
            assert suite is not None, [d.render() for d in diags]
            linked, diags = resolve(suite, desc)
            assert codes(diags) == ["E105"] * past
            assert (linked is None) == (past > 0)
            replaced += suite != plain
            rejected += past > 0
        assert 0 < rejected < replaced


class TestSharedWidgetActions:
    """Equal widget actions of a suite share one LinkedAction; sharing must
    not change what ``resolve`` reports or where."""

    def test_a_failing_action_reports_at_each_occurrence(self, corpus_desc):
        linked, diags = resolve_source(
            corpus_desc, "given { } when {\n click Nope\n click Nope\n"
                         " click AddNewTask\n click Nope\n } then { }")
        assert linked is None
        assert [(d.code, d.span.line, d.span.column) for d in diags] == [
            ("E101", 2, 2), ("E101", 3, 2), ("E101", 5, 2)]

    def test_an_int_then_a_bool_argument(self, corpus_desc):
        """``1`` and ``True`` are equal in Python; the second is still E105.
        The parser takes only an int, so the suite is built directly."""
        when = (WidgetAction(CommandKind.SELECT_ROW, "Tasks", 1),
                WidgetAction(CommandKind.SELECT_ROW, "Tasks", True))
        suite = TestSuite(name="S", target_view_model="TaskListViewModel",
                          scenarios=(TestScenario(description="case", when=when),))
        linked, diags = resolve(suite, corpus_desc)
        assert linked is None
        assert [(d.code, d.message) for d in diags] == [
            ("E105", "selectRow expects an int argument, got True")]

    def test_equal_actions_share_one_linked_action(self, corpus_desc):
        suite, _ = parse_test_suite(
            'testsuite S for TaskListViewModel {\n'
            ' scenario "a" { given { } when { selectRow Tasks 1 click AddNewTask } then { } }\n'
            ' scenario "b" { given { } when { click AddNewTask selectRow Tasks 1'
            ' selectRow Tasks 2 } then { } } }')
        linked, diags = resolve(suite, corpus_desc)
        assert diags == []
        (select1, add), (add2, select1b, select2) = (s.actions for s in linked.scenarios)
        assert add2 is add and select1b is select1 and select2 is not select1
        assert (select1.args, select2.args) == ((1,), (2,))

    def test_each_step_links_to_its_action(self):
        """``actions[k]`` is the link of ``scenario.when[k]``."""
        rng = random.Random(2020)
        for _ in range(60):
            desc = random_description(rng)
            linked, diags = resolve(random_suite(rng, desc), desc)
            assert linked is not None, [d.render() for d in diags]
            for scenario in linked.scenarios:
                when = scenario.scenario.when
                assert len(scenario.actions) == len(when)
                for action, step in zip(scenario.actions, when):
                    form = action.decl.form
                    if isinstance(step, WidgetAction):
                        assert (form.kind, form.target) == (step.kind, step.widget)
                        assert action.args == (() if step.arg is None else (step.arg,))
                    else:
                        assert action.decl.name == step.name


class TestValidateDescription:
    def test_unsupported_optional_feature(self):
        desc = ViewModelDescription(name="V", widgets=(
            WidgetDecl(name="B", kind=WidgetKind.BUTTON,
                       enabled_optional=frozenset({FeatureKind.CHECKED})),))
        assert codes(validate_description(desc)) == ["E102"]

    def test_widget_command_on_wrong_kind(self):
        desc, _ = parse_view_model(
            "viewmodel V { widgets { button B } commands { check on B } }")
        assert desc is not None
        assert codes(validate_description(desc)) == ["E103"]

    def test_widget_command_on_unknown_widget(self):
        desc, _ = parse_view_model(
            "viewmodel V { widgets { } commands { click on Ghost } }")
        assert codes(validate_description(desc)) == ["E101"]

    def test_binding_unknown_widget(self):
        desc, _ = parse_view_model(
            'viewmodel V bind { property Ghost.enabled name = "x" } '
            "{ widgets { } commands { } }")
        assert codes(validate_description(desc)) == ["E101"]


class TestContextGraph:
    def _suite_with(self, definitions):
        return TestSuite(name="S", target_view_model="V", scenarios=(
            TestScenario(description="d", given=tuple(definitions)),))

    def test_alias_cycle_detected(self):
        defs = [
            ContextDefinition(name="a", body=ReferenceBody(target="b")),
            ContextDefinition(name="b", body=ReferenceBody(target="a")),
        ]
        diags = []
        registry = build_context_registry(self._suite_with(defs), diags)
        body = chase_context("a", registry, diags, defs[0].span)
        assert body is None
        assert codes(diags) == ["E109"]

    def test_alias_chain_resolves(self):
        defs = [
            ContextDefinition(name="a", body=ReferenceBody(target="b")),
            ContextDefinition(name="b", body=ReferenceBody(target="c")),
            ContextDefinition(name="c", body=DataTableBody(header=("H",))),
        ]
        diags = []
        registry = build_context_registry(self._suite_with(defs), diags)
        body = chase_context("a", registry, diags, defs[0].span)
        assert body == DataTableBody(header=("H",)) and not diags

    def test_random_graphs_reject_exactly_the_cyclic_chains(self):
        # oracle: walk the unique-successor graph with a step limit
        rng = random.Random(777)
        for _ in range(300):
            n = rng.randint(1, 8)
            names = [f"n{i}" for i in range(n)]
            defs = []
            succ = {}
            for name in names:
                if rng.random() < 0.45:
                    defs.append(ContextDefinition(
                        name=name, body=DataTableBody(header=("H",))))
                else:
                    target = rng.choice(names)
                    if target == name:
                        continue  # a self-alias is a pure use, not a definition
                    succ[name] = target
                    defs.append(ContextDefinition(
                        name=name, body=ReferenceBody(target=target)))
            diags = []
            registry = build_context_registry(self._suite_with(defs), diags)
            assert not diags
            for start in list(succ):
                expected = self._oracle(start, succ,
                                        {d.name for d in defs if
                                         isinstance(d.body, DataTableBody)},
                                        len(names))
                chase_diags = []
                body = chase_context(succ[start], registry, chase_diags,
                                     defs[0].span)
                if expected == "resolved":
                    assert body is not None and not chase_diags
                else:
                    assert body is None
                    assert [d.code for d in chase_diags] == [expected]

    @staticmethod
    def _oracle(start, succ, concrete, limit):
        current = start
        for _ in range(limit + 1):
            nxt = succ.get(current)
            if nxt is None:
                return "resolved" if current in concrete else "E107"
            current = nxt
        return "E109"


class TestNameMap:
    def test_defaults(self, corpus_desc):
        name_map, diags = compute_name_map(corpus_desc)
        assert not diags
        assert name_map.type_name == "TaskListViewModel"
        assert name_map.file_name == "task_list_view_model"
        prop = name_map.properties[("AddNewTask", FeatureKind.ENABLED)]
        assert prop.property_name == "addNewTaskEnabled"
        assert prop.getter == "isAddNewTaskEnabled"
        assert prop.setter == "setAddNewTaskEnabled"
        rows = name_map.properties[("Tasks", FeatureKind.ROWS)]
        assert rows.getter == "getTasksRows"
        assert name_map.commands["addNewTaskClick"].method == "onAddNewTaskClick"
        assert name_map.commands["LoadView"].method == "onLoadView"
        assert name_map.commands["LoadView"].param_object == "LoadViewParams"

    def test_type_name_binding_leaves_other_entries_alone(self, corpus_desc):
        bound = ViewModelDescription(
            name=corpus_desc.name, widgets=corpus_desc.widgets,
            commands=corpus_desc.commands,
            bindings=(NameBinding(subject="typeName", bound_name="TaskListVM"),))
        base, _ = compute_name_map(corpus_desc)
        overridden, diags = compute_name_map(bound)
        assert not diags
        assert overridden.type_name == "TaskListVM"
        assert overridden.file_name == base.file_name
        assert overridden.properties == base.properties
        assert overridden.commands == base.commands

    def test_java_file_name_must_be_the_type_name(self, corpus_desc):
        def bound(*pairs):
            return ViewModelDescription(
                name=corpus_desc.name, widgets=corpus_desc.widgets,
                commands=corpus_desc.commands,
                bindings=tuple(NameBinding(subject=s, bound_name=n) for s, n in pairs))

        java, cpp = GenConfig(target="java"), GenConfig(target="cpp")
        name_map, diags = compute_name_map(bound(("fileName", "tasks")), java)
        assert name_map is None and [d.code for d in diags] == [E_DUPLICATE_NAME]
        assert diags[0].message == (
            "fileName 'tasks' differs from the type name 'TaskListViewModel', "
            "but javac needs a public class in the file named after it")
        # The type name counts after its binding, in either order.
        for pairs in ((("fileName", "Tasks"), ("typeName", "Tasks")),
                      (("typeName", "Tasks"), ("fileName", "Tasks"))):
            name_map, diags = compute_name_map(bound(*pairs), java)
            assert not diags and name_map.file_name == name_map.type_name == "Tasks"
        name_map, diags = compute_name_map(bound(("typeName", "Tasks"), ("fileName", "tasks")),
                                           java)
        assert "the type name 'Tasks'" in diags[0].message
        # C++ and a map without a target take any file name.
        for config in (cpp, None):
            name_map, diags = compute_name_map(bound(("fileName", "tasks")), config)
            assert not diags and name_map.file_name == "tasks"

    def test_getter_binding_is_local(self, corpus_desc):
        bound = ViewModelDescription(
            name=corpus_desc.name, widgets=corpus_desc.widgets,
            commands=corpus_desc.commands,
            bindings=(NameBinding(subject="getterName", bound_name="taskRows",
                                  widget="Tasks", feature=FeatureKind.ROWS),))
        base, _ = compute_name_map(corpus_desc)
        overridden, _ = compute_name_map(bound)
        assert overridden.properties[("Tasks", FeatureKind.ROWS)].getter == "taskRows"
        unchanged = {k: v for k, v in overridden.properties.items()
                     if k != ("Tasks", FeatureKind.ROWS)}
        assert unchanged == {k: v for k, v in base.properties.items()
                             if k != ("Tasks", FeatureKind.ROWS)}

    def test_binding_induced_collision_is_e106(self, corpus_desc):
        bound = ViewModelDescription(
            name=corpus_desc.name, widgets=corpus_desc.widgets,
            commands=corpus_desc.commands,
            bindings=(NameBinding(subject="propertyName",
                                  bound_name="deleteTaskEnabled",
                                  widget="AddNewTask",
                                  feature=FeatureKind.ENABLED),))
        name_map, diags = compute_name_map(bound)
        assert name_map is None
        assert "E106" in codes(diags)

    def test_camel_case_collision_is_e106(self):
        desc = ViewModelDescription(name="V", widgets=(
            WidgetDecl(name="a_b", kind=WidgetKind.BUTTON,
                       enabled_optional=frozenset({FeatureKind.ENABLED})),
            WidgetDecl(name="aB", kind=WidgetKind.BUTTON,
                       enabled_optional=frozenset({FeatureKind.ENABLED})),
        ))
        name_map, diags = compute_name_map(desc)
        assert name_map is None
        assert "E106" in codes(diags)

    def test_totality_over_generated_descriptions(self):
        rng = random.Random(9090)
        for _ in range(60):
            desc = random_description(rng)
            name_map, diags = compute_name_map(desc)
            assert name_map is not None, [d.render() for d in diags]
            for widget in desc.widgets:
                for feature in widget.features():
                    assert (widget.name, feature) in name_map.properties
            for command in desc.commands:
                assert command.name in name_map.commands


def name_map_oracle(desc, config=None):
    """The name map as first written: every (widget, feature) pair is
    camel-cased from the words of both, then pascal-cased again for the
    getter and setter; collision labels are built for every property."""
    diags = []
    overrides = {}
    type_name, type_span = desc.name, desc.span
    file_name = snake_case(desc.name)
    for binding in desc.bindings:
        if binding.subject == "typeName":
            type_name, type_span = binding.bound_name, binding.span
        elif binding.subject == "fileName":
            file_name = binding.bound_name
        else:
            overrides[(binding.subject, binding.widget, binding.feature)] = binding.bound_name
    properties = {}
    for widget in desc.widgets:
        for feature in sorted(widget.features(), key=lambda f: f.value):
            default = camel_case(widget.name, feature.value)
            prop = overrides.get(("propertyName", widget.name, feature), default)
            prefix = "is" if feature in BOOL_FEATURES else "get"
            getter = overrides.get(("getterName", widget.name, feature),
                                   prefix + pascal_case(default))
            properties[(widget.name, feature)] = PropertyNames(
                property_name=prop, getter=getter, setter="set" + pascal_case(default))
    commands = {}
    for command in desc.commands:
        commands[command.name] = CommandNames(
            method="on" + pascal_case(command.name),
            param_object=pascal_case(command.name) + "Params")

    def check(kind, pairs):
        seen = {}
        for key, name in pairs:
            if name in seen:
                diags.append(error(E_DUPLICATE_NAME,
                                   f"{kind} '{name}' is produced by both {seen[name]} and {key}",
                                   desc.span))
            else:
                seen[name] = key

    for kind, attr in (("property name", "property_name"), ("getter name", "getter"),
                       ("setter name", "setter")):
        check(kind, ((f"{w}.{f.value}", getattr(p, attr)) for (w, f), p in properties.items()))
    check("command method", ((name, c.method) for name, c in commands.items()))
    if diags:
        return None, diags
    return NameMap(type_name=type_name, file_name=file_name, properties=properties,
                   commands=commands), diags


# Identifiers from lowercase, uppercase and mixed runs, digit runs and
# underscores, starting with a letter as the lexer requires.
IDENTIFIERS = st.builds(
    lambda first, rest: first + "".join(rest),
    st.sampled_from(string.ascii_letters),
    st.lists(st.one_of(st.text(string.ascii_lowercase, min_size=1, max_size=4),
                       st.text(string.ascii_uppercase, min_size=1, max_size=4),
                       st.text(string.ascii_letters, min_size=1, max_size=4),
                       st.text(string.digits, min_size=1, max_size=3),
                       st.just("_")), max_size=6))


def every_feature_widgets(name: str) -> tuple[WidgetDecl, ...]:
    """One widget of each kind named ``name``, with every optional feature."""
    return tuple(WidgetDecl(name=name, kind=kind,
                            enabled_optional=catalog_lookup(kind).optional)
                 for kind in WidgetKind)


class TestNameMapDerivation:
    @settings(max_examples=300, deadline=None)
    @given(IDENTIFIERS)
    def test_widget_words_are_split_once(self, name):
        head = camel_case(name)
        for feature in FeatureKind:
            tail = pascal_case(feature.value)
            default = camel_case(name, feature.value)
            assert head + tail == default
            assert pascal_case(head) + tail == pascal_case(default)
        for widget in every_feature_widgets(name):
            desc = ViewModelDescription(name="V", widgets=(widget,))
            assert compute_name_map(desc) == name_map_oracle(desc)

    def test_raw_words_would_change_the_names(self):
        desc = ViewModelDescription(name="V", widgets=every_feature_widgets("a_B_Z19B")[:1])
        name_map, _ = compute_name_map(desc)
        names = name_map.properties[("a_B_Z19B", FeatureKind.ENABLED)]
        assert names == PropertyNames(property_name="aBZ19BEnabled",
                                      getter="isABz19BEnabled", setter="setABz19BEnabled")
        raw = "".join(w.capitalize() for w in ("a", "B", "Z", "19", "B"))
        assert names.setter != "set" + raw + "Enabled"

    def test_matches_the_oracle_on_the_corpus_and_generated_descriptions(self, corpus_desc):
        rng = random.Random(1414)
        for desc in [corpus_desc] + [random_description(rng) for _ in range(40)]:
            got, want = compute_name_map(desc), name_map_oracle(desc)
            assert got == want
            assert list(got[0].properties) == list(want[0].properties)
            assert list(got[0].commands) == list(want[0].commands)

    def test_collisions_match_the_oracle(self):
        desc = ViewModelDescription(name="V", widgets=(
            every_feature_widgets("a_b")[:2] + every_feature_widgets("aB")[:2]))
        name_map, diags = compute_name_map(desc)
        assert name_map is None and len(diags) == 9
        assert [d.render() for d in diags] == [d.render() for d in name_map_oracle(desc)[1]]


class TestKeywordNames:
    SOURCE = ('viewmodel V bind { typeName = "int" property B.enabled name = "class" '
              'property B.enabled getter = "new" } '
              "{ widgets { button B { supports enabled } } "
              "commands { command Go(delete: string) } }")

    @pytest.mark.parametrize("target,names", [
        ("java", ["type name 'int'", "bound propertyName 'class'",
                  "bound getterName 'new'"]),
        # C++ writes a property as ``class_``.
        ("cpp", ["type name 'int'", "bound getterName 'new'",
                 "parameter 'delete' of command 'Go'"]),
    ])
    def test_names_used_as_written_are_e001(self, target, names):
        desc, diags = parse_view_model(self.SOURCE)
        assert desc is not None and not validate_description(desc), diags
        name_map, diags = compute_name_map(desc, GenConfig(target=target))
        assert name_map is None
        assert [d.message for d in diags] == [f"{n} is a {target} keyword" for n in names]
        assert codes(diags) == ["E001"] * len(names)

    def test_no_config_no_keyword_check(self):
        desc, _ = parse_view_model(self.SOURCE)
        name_map, diags = compute_name_map(desc)
        assert name_map is not None and not diags


class TestLink:
    def test_matches_validate_then_resolve_per_suite(self):
        """On projects of one suite per description, ``link`` gives exactly the
        diagnostics of validating each description and resolving its suite,
        the description diagnostics first, and links the suites that gave
        none."""
        rng = random.Random(6060)
        for _ in range(80):
            descs, suites = [], []
            for i in range(rng.randint(1, 3)):
                drawn = random_description(rng)
                desc = ViewModelDescription(f"Vm{i}", drawn.widgets, drawn.commands,
                                            drawn.bindings, drawn.span)
                # A suite written for another description, or a description
                # that lost a widget, gives diagnostics.
                suite = random_suite(rng, random_description(rng)
                                     if rng.random() < 0.3 else desc)
                if desc.widgets and rng.random() < 0.3:
                    desc = ViewModelDescription(desc.name, desc.widgets[1:], desc.commands,
                                                desc.bindings, desc.span)
                descs.append(desc)
                suites.append(TestSuite(f"S{i}", desc.name, suite.scenarios, suite.span))
            project, diags = link(descs, suites)

            reference, description_diags, linked = [], [], []
            for desc, suite in zip(descs, suites):
                found = validate_description(desc)
                result, more = resolve(suite, desc)
                reference += found + more
                description_diags += found
                if not found and result is not None:
                    linked.append(result)
            assert Counter(diags) == Counter(reference)
            assert diags[:len(description_diags)] == description_diags
            assert project.suites == tuple(linked)
            assert project.descriptions == tuple(descs) and project.orphans == ()

    def test_duplicates_are_left_out_and_orphans_returned(self, corpus_desc, corpus_suite):
        orphan = TestSuite("Orphan", "Missing", corpus_suite.scenarios, corpus_suite.span)
        project, diags = link([corpus_desc, corpus_desc],
                              [corpus_suite, corpus_suite, orphan])
        assert codes(diags) == ["E106", "E106"]
        assert project.descriptions == (corpus_desc,)
        assert [s.suite.name for s in project.suites] == ["TaskListTests"]
        assert project.orphans == (orphan,)

    def test_keeps_no_suite_alive_once_linked(self, corpus_desc, corpus_suite):
        """Suites drawn from a generator, none of which links: each is gone
        by the time the one after the next is drawn. A record takes no weak
        reference, so each suite's scenarios are a list of its own, which
        does."""
        bare = ViewModelDescription(corpus_desc.name, (), (), (), corpus_desc.span)
        refs = []

        def suites():
            for k in range(6):
                assert [ref() is None for ref in refs[:-1]] == [True] * len(refs[:-1])
                scenarios = ScenarioList(corpus_suite.scenarios)
                refs.append(weakref.ref(scenarios))
                yield TestSuite(f"S{k}", corpus_desc.name, scenarios, corpus_suite.span)

        project, diags = link([bare], suites())
        assert project.suites == () and diags and len(refs) == 6


class ScenarioList(list):
    pass


# A table of two columns without selectedRow, a button, and a command taking
# a string, for the suite cases below.
PINNED_VIEW_MODEL = ('viewmodel V { widgets { table T { columns { label "A" label "B" } } '
                     'button B { supports enabled } } commands { command Put(s: string) } }')


def pinned_scenario(given: str = "", when: str = "", then: str = "", name: str = "one") -> str:
    return f'scenario "{name}" {{ given {{ {given} }} when {{ {when} }} then {{ {then} }} }}'


@pytest.mark.parametrize("view_model, scenarios, rendered", [
    ('viewmodel V { widgets { button B { example enabled = true } } commands { } }', "",
     "v.vmdsl:1:25: E102: example for feature 'enabled' which widget 'B' does not have"),
    ('viewmodel V { widgets { button B { supports enabled example enabled = "yes" } } '
     'commands { } }', "",
     "v.vmdsl:1:25: E105: example for 'enabled' must be bool, got 'yes'"),
    ('viewmodel V { widgets { table T { columns { label "A" } } } commands { selectRow on T } }',
     "", "v.vmdsl:1:72: E102: the selectRow command updates 'selectedRow', which widget 'T' "
         "does not have"),
    ('viewmodel V bind { property B.visible name = "shown" } '
     '{ widgets { button B { supports enabled } } commands { } }', "",
     "v.vmdsl:1:20: E102: binding names feature 'visible' which widget 'B' does not have"),
    (PINNED_VIEW_MODEL, pinned_scenario('text ctx """a"""')
     + pinned_scenario('text ctx """b"""', name="two"),
     "s.vmtest:1:111: E106: duplicate context definition 'ctx'"),
    (PINNED_VIEW_MODEL, pinned_scenario('text ctx """a"""', "Put(ctx)"),
     "s.vmtest:1:72: E105: parameter 's' of 'Put' takes a string literal, "
     "got a context reference"),
    (PINNED_VIEW_MODEL, pinned_scenario(when="Put(3)"),
     "s.vmtest:1:56: E105: parameter 's' of 'Put' takes string, got 3"),
    (PINNED_VIEW_MODEL, pinned_scenario(then="table T { rows {\n| A | B | C |\n} }"),
     "s.vmtest:1:66: E110: column 'C' is not a column of 'T'"),
    (PINNED_VIEW_MODEL, pinned_scenario(then="table T { rows {\n| A | B | A |\n} }"),
     "s.vmtest:1:66: E110: duplicate column 'A' in expectation header"),
    (PINNED_VIEW_MODEL, pinned_scenario(then='table T { ignore "A"\nrows {\n| A | B |\n} }'),
     "s.vmtest:1:66: E110: column 'A' is both asserted and ignored"),
    (PINNED_VIEW_MODEL,
     pinned_scenario(then="table T { rows {\n| A | B |\n| x | y | [selected]\n} }"),
     "s.vmtest:1:66: E102: widget 'T' does not have the 'selectedRow' feature"),
], ids=["example-feature-missing", "example-wrong-type", "selectRow-without-selectedRow",
        "binding-feature-missing", "context-defined-twice", "context-ref-to-string",
        "int-to-string", "header-column-undeclared", "header-column-repeated",
        "column-asserted-and-ignored", "selected-without-selectedRow"])
def test_link_diagnostic_is_pinned(view_model, scenarios, rendered):
    """Diagnostics that parsed input reaches only through these branches."""
    desc, diags = parse_view_model(view_model, "v.vmdsl")
    suite, more = parse_test_suite(f"testsuite S for V {{ {scenarios} }}", "s.vmtest")
    assert desc is not None and suite is not None, diags + more
    _, diags = link([desc], [suite] if scenarios else [])
    assert [d.render() for d in diags] == [rendered]


class TestSanitizeTestName:
    def test_example_description(self):
        assert sanitize_test_name("Load Tasks and Add New") == "loadTasksAndAddNew"

    def test_strips_punctuation(self):
        assert sanitize_test_name("adds, then deletes!") == "addsThenDeletes"

    def test_leading_digit_gets_prefix(self):
        name = sanitize_test_name("2nd attempt")
        assert not name[0].isdigit()
        assert name == "scenario2ndAttempt"

    def test_empty_description(self):
        assert sanitize_test_name("???") == "scenario"

    @pytest.mark.parametrize("description,name", [
        ("class", "scenarioClass"),  # both targets
        ("New", "scenarioNew"),
        ("instanceof", "scenarioInstanceof"),  # Java only
        ("delete!", "scenarioDelete"),  # C++ only
        ("class list", "classList"),
    ])
    def test_keyword_gets_prefix(self, description, name):
        assert sanitize_test_name(description) == name

    def test_keyword_prefix_collision_is_e106(self, corpus_desc):
        suite, _ = parse_test_suite(
            "testsuite S for TaskListViewModel { "
            'scenario "class" { given { } when { } then { } } '
            'scenario "Scenario class" { given { } when { } then { } } }')
        linked, diags = resolve(suite, corpus_desc)
        assert linked is None and codes(diags) == ["E106"]
        assert "map to the same test name 'scenarioClass'" in diags[0].message

    @given(st.text(max_size=40))
    def test_always_a_valid_identifier(self, text):
        from vimotest.model import is_identifier

        assert is_identifier(sanitize_test_name(text))
