import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from astgen import random_description, random_suite
from vimotest.analyzer import (
    build_context_registry,
    chase_context,
    compute_name_map,
    link,
    resolve,
    sanitize_test_name,
    validate_description,
)
from vimotest.genconfig import GenConfig
from vimotest.model import (
    ContextDefinition,
    DataTableBody,
    FeatureKind,
    NameBinding,
    ReferenceBody,
    TestScenario,
    TestSuite,
    ViewModelDescription,
    WidgetDecl,
    WidgetKind,
)
from vimotest.parser import parse_test_suite, parse_view_model


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
                desc = replace(random_description(rng), name=f"Vm{i}")
                # A suite written for another description, or a description
                # that lost a widget, gives diagnostics.
                suite = random_suite(rng, random_description(rng)
                                     if rng.random() < 0.3 else desc)
                if desc.widgets and rng.random() < 0.3:
                    desc = replace(desc, widgets=desc.widgets[1:])
                descs.append(desc)
                suites.append(replace(suite, name=f"S{i}", target_view_model=desc.name))
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
        orphan = replace(corpus_suite, name="Orphan", target_view_model="Missing")
        project, diags = link([corpus_desc, corpus_desc],
                              [corpus_suite, corpus_suite, orphan])
        assert codes(diags) == ["E106", "E106"]
        assert project.descriptions == (corpus_desc,)
        assert [s.suite.name for s in project.suites] == ["TaskListTests"]
        assert project.orphans == (orphan,)


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
