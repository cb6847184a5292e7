import copy
import hashlib
import itertools
import json
import random
import re
import shutil
import subprocess
from collections import Counter

import pytest

from astgen import (
    column_title,
    random_description,
    random_state_pair,
    random_suite,
    string_value,
    with_random_ignores,
)
from conftest import GOLDENS, VMDSL_PATH, VMTEST_PATH
from test_literals import JAVA_UNICODE_ESCAPE
from vimotest import cpp_emitter, java_emitter
from vimotest.analyzer import LinkedScenario, LinkedSuite, compute_name_map, resolve
from vimotest.cpp_emitter import emit_cpp
from vimotest.diagnostics import E_DUPLICATE_NAME
from vimotest.genconfig import GenConfig, GenConfigError, load_genconfig, parse_genconfig
from vimotest.ir import (
    AssertRows,
    Comment,
    DeclareParams,
    IRClass,
    IRTest,
    IRUnit,
    InvokeCommand,
    ir_to_dict,
    lower_to_ir,
)
from vimotest.java_emitter import emit_java
from vimotest.literals import quote
from vimotest.model import (
    CellKind,
    ColumnSpec,
    CommandDecl,
    CustomCommand,
    FeatureKind,
    NameBinding,
    Param,
    ParamType,
    RowsExpectation,
    ViewModelDescription,
    WidgetDecl,
    WidgetKind,
    check_label,
    row_checks,
)
from vimotest.names import snake_case
from vimotest.parser import parse_test_suite, parse_view_model
from vimotest.printer import expectation_grid
from vimotest.testbody import write_test_body
from vimotest.runtime import evaluate_rows_check, run_suite
from vimotest.taskmanager import REGISTRY


# Goldens of the shipped corpus under a non-default config, kept with the
# genconfig.json that made them.
OPTION_GOLDENS = ("java_options", "cpp_options")

# A description and suite that use every aspect of an expected table, and
# their goldens under each target's default config.
ROWS_VMDSL = (GOLDENS / "rows" / "rows.vmdsl").read_text(encoding="utf-8")
ROWS_VMTEST = (GOLDENS / "rows" / "rows.vmtest").read_text(encoding="utf-8")
ROWS_GOLDENS = ("rows_java", "rows_cpp")


def option_config(golden: str) -> GenConfig:
    return load_genconfig(str(GOLDENS / golden / "genconfig.json"))


def assert_matches_golden(files: dict[str, str], golden: str) -> None:
    root = GOLDENS / golden
    goldens = {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
               for p in root.rglob("*") if p.is_file() and p.name != "genconfig.json"}
    assert sorted(files) == sorted(goldens)
    for name, text in files.items():
        assert text == goldens[name], f"{name} deviates from goldens/{golden}"


def name_map_for(desc, config=None):
    name_map, diags = compute_name_map(desc, config)
    assert name_map is not None, [d.render() for d in diags]
    return name_map


def generated_name_map(desc, config):
    """The name map of an astgen description, or None where Java rejects it:
    astgen binds a ``fileName`` of ``bound_file_<n>``, never the type name,
    and javac needs a public class in the file named after it."""
    name_map, diags = compute_name_map(desc, config)
    bound = [b.bound_name for b in desc.bindings if b.subject == "fileName"]
    if config.target == "java" and bound:
        assert name_map is None and [d.code for d in diags] == [E_DUPLICATE_NAME], diags
        assert diags[0].message.startswith(f"fileName '{bound[0]}' differs from the type name")
        return None
    assert name_map is not None, [d.render() for d in diags]
    return name_map


def corpus_unit(corpus_desc, corpus_linked, **config_kwargs) -> tuple:
    config = GenConfig(**config_kwargs)
    name_map = name_map_for(corpus_desc, config)
    unit = lower_to_ir(corpus_desc, corpus_linked, name_map, config)
    return unit, name_map, config


class TestLowerToIR:
    def test_corpus_defaults(self, corpus_desc, corpus_linked):
        unit, _, _ = corpus_unit(corpus_desc, corpus_linked, target="java")
        vm = unit.view_model
        assert vm.name == "TaskListViewModel" and vm.abstract
        assert unit.controller is None
        assert len(vm.operations) == 4
        assert len(unit.tests) == 1
        assert unit.tests[0].name == "loadTasksAndAddNew"

    def test_controller_split_moves_commands(self, corpus_desc, corpus_linked):
        unit, _, _ = corpus_unit(corpus_desc, corpus_linked, target="java",
                                 commands_on_view_model=False,
                                 generate_view_controller=True)
        assert unit.view_model.operations == ()
        assert unit.controller is not None
        assert unit.controller.name == "TaskListViewModelController"
        assert len(unit.controller.operations) == 4
        assert len(unit.view_model.properties) == 4

    def test_empty_suite_has_no_tests(self, corpus_desc):
        config = GenConfig(target="java")
        unit = lower_to_ir(corpus_desc, None, name_map_for(corpus_desc), config)
        assert unit.tests == () and unit.suite_name is None

    def test_ir_is_target_agnostic(self, corpus_desc, corpus_linked):
        unit, _, _ = corpus_unit(corpus_desc, corpus_linked, target="java")
        blob = json.dumps(ir_to_dict(unit))
        for token in ("public ", "private ", "std::", "#include", "package ",
                      "namespace", "virtual", "assertEquals", "@Test",
                      "ArrayList", "JUnit", ".java", ".hpp", ".cpp"):
            assert token not in blob, token

    def test_every_ir_name_comes_from_the_name_map(self, corpus_desc,
                                                   corpus_linked):
        unit, name_map, _ = corpus_unit(corpus_desc, corpus_linked, target="java")
        known = {p.getter for p in name_map.properties.values()}
        known |= {p.setter for p in name_map.properties.values()}
        known |= {p.property_name for p in name_map.properties.values()}
        for prop in unit.view_model.properties:
            assert {prop.getter, prop.setter, prop.name} <= known
        methods = {c.method for c in name_map.commands.values()}
        for op in unit.view_model.operations:
            assert op.name in methods


def count_expected_assertions(linked) -> int:
    """Independent aspect count straight from the suite AST."""
    n = 0
    for scenario in linked.scenarios:
        for check in scenario.checks:
            exp = check.expectation
            if not isinstance(exp, RowsExpectation):
                n += 1
                continue
            n += 1  # row count
            for row in exp.rows:
                for cell in row.cells:
                    if cell.ignored:
                        continue
                    n += 1
                    n += cell.tooltip is not None
                    n += cell.color is not None
                n += row.color is not None
                n += row.selected
            n += exp.selected_row_check is not None
    return n


class TestEmitJava:
    def test_matches_goldens(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java")
        files = dict(emit_java(unit, name_map, config))
        assert set(files) == {"TaskListViewModel.java", "TaskListTestsTest.java"}
        for name, text in files.items():
            golden = (GOLDENS / "java" / name).read_text()
            assert text == golden, f"{name} deviates from its golden file"

    def test_double_emission_is_byte_identical(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java")
        first = emit_java(unit, name_map, config)
        second = emit_java(unit, name_map, config)
        assert first == second

    def test_empty_suite_emits_view_model_only(self, corpus_desc):
        config = GenConfig(target="java")
        name_map = name_map_for(corpus_desc)
        unit = lower_to_ir(corpus_desc, None, name_map, config)
        files = dict(emit_java(unit, name_map, config))
        assert set(files) == {"TaskListViewModel.java"}

    def test_type_name_binding_passes_through(self, corpus_desc, corpus_linked):
        desc = ViewModelDescription(
            name=corpus_desc.name, widgets=corpus_desc.widgets,
            commands=corpus_desc.commands,
            bindings=(NameBinding(subject="typeName", bound_name="TaskListVM"),))
        linked, _ = resolve(corpus_linked.suite, desc)
        config = GenConfig(target="java")
        name_map = name_map_for(desc, config)
        files = dict(emit_java(lower_to_ir(desc, linked, name_map, config),
                               name_map, config))
        assert "TaskListVM.java" in files
        for name, text in files.items():
            assert "TaskListViewModel" not in name
            assert "TaskListViewModel" not in text
        assert "TaskListVM" in files["TaskListVM.java"]

    def test_parameter_object(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java", parameter_object=True)
        files = dict(emit_java(unit, name_map, config))
        vm = files["TaskListViewModel.java"]
        assert "public static class LoadViewParams {" in vm
        assert "public abstract void onLoadView(LoadViewParams params);" in vm
        test = files["TaskListTestsTest.java"]
        assert "TaskListViewModel.LoadViewParams loadViewParams =" in test
        assert "loadViewParams.tasks = sampleTasks;" in test
        assert "vm.onLoadView(loadViewParams);" in test

    def test_non_abstract_mode_emits_empty_bodies(self, corpus_desc,
                                                  corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java",
                                             abstract_view_model=False)
        files = dict(emit_java(unit, name_map, config))
        vm = files["TaskListViewModel.java"]
        assert "abstract" not in vm
        assert "public void onLoadView(String tasks) {" in vm
        test = files["TaskListTestsTest.java"]
        assert "new TaskListViewModel()" in test  # no Impl subclass needed

    def test_controller_mode_file_split(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java",
                                             commands_on_view_model=False,
                                             generate_view_controller=True)
        files = dict(emit_java(unit, name_map, config))
        assert "TaskListViewModelController.java" in files
        vm = files["TaskListViewModel.java"]
        controller = files["TaskListViewModelController.java"]
        methods = ("onLoadView", "onTasksSelectRow", "onAddNewTaskClick",
                   "onDeleteTaskClick")
        assert all(m not in vm for m in methods)
        assert all(m in controller for m in methods)
        test = files["TaskListTestsTest.java"]
        assert "controller.onLoadView(sampleTasks);" in test
        assert "controller.onAddNewTaskClick();" in test

    def test_java_package_prefixes_paths(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java",
                                             java_package="com.example.tasks")
        files = dict(emit_java(unit, name_map, config))
        assert "com/example/tasks/TaskListViewModel.java" in files
        assert all(text.startswith("package com.example.tasks;")
                   for text in files.values())

    def test_structural_parity_on_corpus(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="java")
        files = dict(emit_java(unit, name_map, config))
        emitted = files["TaskListTestsTest.java"].count("assertEquals(")
        assert emitted == count_expected_assertions(corpus_linked)

    def test_structural_parity_on_generated_suites(self):
        rng = random.Random(60606)
        config = GenConfig(target="java")
        checked = rejected = 0
        for _ in range(40):
            desc = random_description(rng)
            suite = random_suite(rng, desc)
            linked, diags = resolve(suite, desc)
            assert linked is not None, [d.render() for d in diags]
            name_map = generated_name_map(desc, config)
            if name_map is None:
                rejected += 1
                continue
            unit = lower_to_ir(desc, linked, name_map, config)
            files = dict(emit_java(unit, name_map, config))
            test_file = files.get(f"{suite.name}Test.java", "")
            assert test_file.count("assertEquals(") == \
                count_expected_assertions(linked)
            checked += 1
        assert checked + rejected == 40 and checked >= 35


class TestEmitCpp:
    def test_matches_goldens(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="cpp")
        files = dict(emit_cpp(unit, name_map, config))
        assert set(files) == {"task_list_view_model.hpp",
                              "task_list_tests_test.cpp", "vimotest_assert.hpp"}
        for name, text in files.items():
            golden = (GOLDENS / "cpp" / name).read_text()
            assert text == golden, f"{name} deviates from its golden file"

    def test_double_emission_is_byte_identical(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="cpp")
        assert emit_cpp(unit, name_map, config) == emit_cpp(unit, name_map, config)

    def test_non_abstract_drops_pure_virtual(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="cpp",
                                             abstract_view_model=False)
        files = dict(emit_cpp(unit, name_map, config))
        header = files["task_list_view_model.hpp"]
        assert "= 0;" not in header
        assert "virtual void onLoadView(const std::string& tasks) {}" in header

    def test_two_scenarios_give_two_test_functions(self, corpus_desc):
        from vimotest.parser import parse_test_suite

        src = """testsuite Pair for TaskListViewModel {
          scenario "first" { given { } when { } then { } }
          scenario "second" { given { } when { } then { } }
        }"""
        suite, _ = parse_test_suite(src)
        linked, _ = resolve(suite, corpus_desc)
        config = GenConfig(target="cpp")
        name_map = name_map_for(corpus_desc, config)
        files = dict(emit_cpp(lower_to_ir(corpus_desc, linked, name_map, config),
                              name_map, config))
        test = files["pair_test.cpp"]
        assert test.index("static void test_first()") < \
            test.index("static void test_second()")
        assert test.count("static void test_") == 2

    def test_namespace_wraps_everything(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="cpp", cpp_namespace="app")
        files = dict(emit_cpp(unit, name_map, config))
        header = files["task_list_view_model.hpp"]
        assert "namespace app {" in header and "}  // namespace app" in header
        test = files["task_list_tests_test.cpp"]
        assert "app::TaskListViewModelImpl vm;" in test

    def test_structural_parity_on_corpus(self, corpus_desc, corpus_linked):
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked,
                                             target="cpp")
        files = dict(emit_cpp(unit, name_map, config))
        emitted = files["task_list_tests_test.cpp"].count("VT_ASSERT_EQ(")
        assert emitted == count_expected_assertions(corpus_linked)

    def test_type_name_binding_passes_through(self, corpus_desc, corpus_linked):
        desc = ViewModelDescription(
            name=corpus_desc.name, widgets=corpus_desc.widgets,
            commands=corpus_desc.commands,
            bindings=(NameBinding(subject="typeName", bound_name="TaskListVM"),))
        linked, _ = resolve(corpus_linked.suite, desc)
        config = GenConfig(target="cpp")
        name_map = name_map_for(desc, config)
        files = dict(emit_cpp(lower_to_ir(desc, linked, name_map, config),
                              name_map, config))
        for name, text in files.items():
            assert "TaskListViewModel" not in text, name
        assert "class TaskListVM {" in files["task_list_view_model.hpp"]


class TestOptionGoldens:
    """Parameter objects, a View Controller, non-abstract classes, a package
    or namespace and the json/xml context formats, pinned byte for byte."""

    @pytest.mark.parametrize("golden", OPTION_GOLDENS)
    def test_matches_goldens(self, golden, corpus_desc, corpus_linked):
        config = option_config(golden)
        name_map = name_map_for(corpus_desc, config)
        emit = emit_java if config.target == "java" else emit_cpp
        files = dict(emit(lower_to_ir(corpus_desc, corpus_linked, name_map, config),
                          name_map, config))
        assert_matches_golden(files, golden)


class TestRowsGoldens:
    """A reordered header, an ignored column, '*' cells, cell and row
    colours (also 'none'), tooltips, a [selected] mark and both forms of
    selectedRow, pinned byte for byte in both targets."""

    @pytest.mark.parametrize("golden", ROWS_GOLDENS)
    def test_matches_goldens(self, golden):
        files, _, _ = emit_sources(option_config(golden), ROWS_VMDSL, ROWS_VMTEST)
        assert_matches_golden(files, golden)


class TestParameterObjectCounting:
    def _desc_with_commands(self):
        return ViewModelDescription(name="Multi", commands=(
            CommandDecl(name="Assign", form=CustomCommand(params=(
                Param(name="user", type=ParamType.STRING),
                Param(name="count", type=ParamType.INT)))),
            CommandDecl(name="Touch", form=CustomCommand(params=(
                Param(name="flag", type=ParamType.BOOL),))),
            CommandDecl(name="Ping", form=CustomCommand()),
        ))

    def test_exactly_one_params_type_per_parameterized_command(self):
        desc = self._desc_with_commands()
        config = GenConfig(target="java", parameter_object=True)
        name_map = name_map_for(desc, config)
        unit = lower_to_ir(desc, None, name_map, config)
        names = [op.param_object for op in unit.view_model.operations
                 if op.param_object]
        assert names == ["AssignParams", "TouchParams"]
        files = dict(emit_java(unit, name_map, config))
        text = files["Multi.java"]
        assert text.count("Params {") == 2
        assert "void onPing();" in text.replace("abstract ", "")

    def test_no_params_types_without_the_flag(self):
        desc = self._desc_with_commands()
        config = GenConfig(target="java")
        name_map = name_map_for(desc, config)
        unit = lower_to_ir(desc, None, name_map, config)
        assert not any(op.param_object for op in unit.view_model.operations)
        files = dict(emit_java(unit, name_map, config))
        assert "Params" not in files["Multi.java"]


class TestGenConfig:
    def test_defaults(self):
        config = parse_genconfig({"target": "cpp"})
        assert config.commands_on_view_model is True
        assert config.generate_view_controller is False
        assert config.abstract_view_model is True
        assert config.parameter_object is False
        assert config.context_format == "multiline"
        assert config.context_delivery == "inline"

    def test_single_command_home_key_derives_the_other(self):
        config = parse_genconfig({"target": "java",
                                  "generateViewController": True})
        assert config.commands_on_view_model is False

    def test_both_command_homes_rejected(self):
        with pytest.raises(GenConfigError, match="exactly one"):
            parse_genconfig({"target": "java", "commandsOnViewModel": True,
                             "generateViewController": True})
        with pytest.raises(GenConfigError, match="exactly one"):
            parse_genconfig({"target": "java", "commandsOnViewModel": False,
                             "generateViewController": False})

    def test_unknown_key_rejected(self):
        with pytest.raises(GenConfigError, match="unknown genconfig key"):
            parse_genconfig({"target": "java", "emitComments": True})

    def test_wrong_type_rejected(self):
        with pytest.raises(GenConfigError, match="must be bool"):
            parse_genconfig({"target": "java", "parameterObject": "yes"})

    @pytest.mark.parametrize("package", [
        "../escaped", "/abs", "a..b", "com.", ".com", "com/example", "com.class.x",
        "com.example.int", "1com", "com.ex-ample", "com.exämple"])
    def test_java_package_must_be_identifiers_and_no_keyword(self, package):
        # Checked without gen, so no value here can write outside a test directory.
        with pytest.raises(GenConfigError, match="javaPackage"):
            parse_genconfig({"target": "java", "javaPackage": package})

    @pytest.mark.parametrize("namespace", [
        "../escaped", "a:b", "::a", "a::", "a:::b", "a.b", "std::delete", "class", "x y"])
    def test_cpp_namespace_must_be_identifiers_and_no_keyword(self, namespace):
        with pytest.raises(GenConfigError, match="cppNamespace"):
            parse_genconfig({"target": "cpp", "cppNamespace": namespace})

    def test_valid_and_empty_package_and_namespace_are_kept(self, corpus_desc, corpus_linked):
        assert parse_genconfig({"javaPackage": "com.example.tasks_2"}).java_package == \
            "com.example.tasks_2"
        assert parse_genconfig({"target": "cpp", "cppNamespace": "app::v2"}).cpp_namespace == \
            "app::v2"
        # The empty package is the default package.
        assert parse_genconfig({"javaPackage": "", "cppNamespace": ""}).java_package == ""
        unit, name_map, config = corpus_unit(corpus_desc, corpus_linked, java_package="")
        files = dict(emit_java(unit, name_map, config))
        assert "TaskListViewModel.java" in files
        assert not any("package" in text.split("\n", 1)[0] for text in files.values())

    def test_unknown_enum_values_rejected(self):
        with pytest.raises(GenConfigError):
            parse_genconfig({"target": "rust"})
        with pytest.raises(GenConfigError):
            parse_genconfig({"target": "java", "contextFormat": "yaml"})


class TestLineSafety:
    def test_generated_suites_give_one_line_per_comment(self):
        """Whatever strings a generated suite carries, each comment stays on
        its line and no Java line spells a unicode escape."""
        rng = random.Random(8086)
        for _ in range(60):
            desc = random_description(rng)
            suite = random_suite(rng, desc)
            linked, diags = resolve(suite, desc)
            assert linked is not None, [d.render() for d in diags]
            for target, emit in (("java", emit_java), ("cpp", emit_cpp)):
                config = GenConfig(target=target)
                name_map = generated_name_map(desc, config)
                if name_map is None:
                    continue
                unit = lower_to_ir(desc, linked, name_map, config)
                for test in unit.tests:
                    for stmt in test.statements:
                        if isinstance(stmt, Comment):
                            assert "\n" not in stmt.text, stmt
                        elif isinstance(stmt, AssertRows):
                            grid, _ = expectation_grid(stmt.expectation)
                            assert not any("\n" in cell for row in grid
                                           for cell in row), stmt
                for name, text in emit(unit, name_map, config):
                    for line in text.split("\n"):
                        assert "\r" not in line, (name, line)
                        if line.lstrip().startswith("//"):
                            assert not line.endswith("\\"), (name, line)
                        if target == "java":
                            assert JAVA_UNICODE_ESCAPE.search(line) is None, (name, line)


# Strings the DSL accepts that are hazards in Java/C++ sources: escapes that
# decode to newlines, tabs, quotes and backslashes, text that spells a Java
# unicode escape, a raw tab and a raw carriage return inside pipe rows, and
# non-ASCII letters. <TAB> and <CR> stand for the raw characters.
HOSTILE_VMDSL = r"""viewmodel HostileViewModel {
  widgets {
    textfield Search {
      supports enabled
    }
    table Items {
      columns {
        label "Name"
        label "C:\\u000a \"é²\""
      }
    }
  }
  commands {
    fillText on Search
    command Note(text: string, data: context)
  }
}
"""

HOSTILE_VMTEST = r"""testsuite HostileTests for HostileViewModel {
  scenario "hostile \"strings\" \\ é²" {
    given {
      datatable data {
        | Name     | Note                    |
        | Ex\u000a | tab<TAB>here \ é ² "q" |
      }
    }
    when {
      fillText Search "a\nb \"q\" c:\\u000a"
      fillText Search "ends with \\"
      Note("tab\there \\ é ² \"q\" \\u000a", data)
    }
    then {
      textfield Search text "x\\u000a\t\"y\" é ² \\"
      table Items {
        rows {
          | Name     | C:\u000a "é²" |
          | Ex\u000a | é² \ back [tooltip "t\\u000a\"\t é ² \\"] |
          | a<CR>b\  | "q"<TAB>² [color red] |
        }
      }
    }
  }
}
""".replace("<TAB>", "\t").replace("<CR>", "\r")


def emit_sources(config: GenConfig, vmdsl: str, vmtest: str):
    desc, diags = parse_view_model(vmdsl)
    assert desc is not None, [d.render() for d in diags]
    suite, diags = parse_test_suite(vmtest)
    assert suite is not None, [d.render() for d in diags]
    linked, diags = resolve(suite, desc)
    assert linked is not None, [d.render() for d in diags]
    name_map = name_map_for(desc, config)
    emit = emit_java if config.target == "java" else emit_cpp
    files = dict(emit(lower_to_ir(desc, linked, name_map, config), name_map, config))
    return files, name_map, suite.name


# Contexts named like the locals every test declares (vm, controller, setup)
# and like the parameter-object locals of the command they are passed to;
# the second scenario also passes a context of the first one.
CLASH_VMDSL = """viewmodel ClashViewModel {
  widgets {
    button Go {
      supports enabled
    }
  }
  commands {
    command LoadView(tasks: context, note: string)
    click on Go
  }
}
"""

CLASH_VMTEST = """testsuite ClashTests for ClashViewModel {
  scenario "fixture names" {
    given {
      text setup \"\"\"s\"\"\"
      text vm \"\"\"v\"\"\"
      text controller \"\"\"c\"\"\"
      text loadViewParams \"\"\"p\"\"\"
    }
    when {
      LoadView(setup, "one")
      LoadView(loadViewParams, "two")
      click Go
    }
    then {
      button Go enabled true
    }
  }
  scenario "later names" {
    given {
      text loadViewParams2 \"\"\"q\"\"\"
    }
    when {
      LoadView(loadViewParams2, "one")
      LoadView(vm, "two")
    }
    then {
      button Go enabled true
    }
  }
}
"""

# Contexts named like keywords of both targets, of Java only and of C++
# only: each target renames its own keywords and keeps the other names. A
# scenario named like a keyword gives a prefixed test name.
KEYWORD_CONTEXTS = ("class", "int", "new", "this", "package", "instanceof",
                    "delete", "namespace", "auto", "and", "template")
KEYWORD_VMDSL = CLASH_VMDSL.replace("ClashViewModel", "KeywordViewModel")
KEYWORD_VMTEST = (
    "testsuite KeywordTests for KeywordViewModel {\n"
    '  scenario "keyword contexts" {\n'
    "    given {\n"
    + "".join(f'      text {n} """{n}"""\n' for n in KEYWORD_CONTEXTS)
    + "    }\n    when {\n"
    + "".join(f'      LoadView({n}, "{n}")\n' for n in KEYWORD_CONTEXTS)
    + "    }\n    then {\n      button Go enabled true\n    }\n  }\n"
    # A scenario named like a keyword of both targets.
    '  scenario "class" {\n    given {\n    }\n    when {\n      click Go\n    }\n'
    "    then {\n      button Go enabled true\n    }\n  }\n}\n")

# Every kind of int literal that reaches generated code: a selectRow
# argument, an int command argument and a selectedRow index.
BOUNDS_VMDSL = """viewmodel BoundsViewModel {
  widgets {
    table Tasks {
      columns {
        label "Name"
      }
      supports selectedRow
    }
  }
  commands {
    selectRow on Tasks
    command Load(n: int)
  }
}
"""


def bounds_vmtest(*values: tuple[int, int, int]) -> str:
    """One scenario per (Load argument, selectRow argument, selectedRow index)."""
    return "testsuite BoundsTests for BoundsViewModel {\n" + "".join(
        f'  scenario "case {k}" {{\n    given {{\n    }}\n'
        f"    when {{\n      Load({load})\n      selectRow Tasks {select}\n    }}\n"
        f"    then {{\n      table Tasks {{\n        rows {{\n          | Name |\n"
        f"        }}\n        selectedRow {selected}\n      }}\n    }}\n  }}\n"
        for k, (load, select, selected) in enumerate(values)) + "}\n"


# The two ends of the range of each place: a 32-bit int for the command
# argument, 0 to the 32-bit maximum for a row index. javac and g++ take them.
BOUNDS_VMTEST = bounds_vmtest((-2**31, 2**31 - 1, 0), (2**31 - 1, 0, 2**31 - 1))

# The words that cannot name a Java type (JLS 17 §3.8), used as every other
# kind of name: a property, its getter, a command parameter, a local and a
# test method.
RESTRICTED_WORDS = ("var", "yield", "record", "sealed", "permits")
RESTRICTED_VMDSL = (
    "viewmodel RestrictedViewModel bind {\n"
    + "".join(f'  property B{k}.enabled name = "{w}"\n  property B{k}.enabled getter = "{w}"\n'
              for k, w in enumerate(RESTRICTED_WORDS))
    + "} {\n  widgets {\n"
    + "".join(f"    button B{k} {{\n      supports enabled\n    }}\n"
              for k in range(len(RESTRICTED_WORDS)))
    + "  }\n  commands {\n"
    + f"    command LoadView({', '.join(f'{w}: context' for w in RESTRICTED_WORDS)})\n"
    + "    click on B0\n  }\n}\n")
RESTRICTED_VMTEST = (
    "testsuite RestrictedTests for RestrictedViewModel {\n"
    + "".join(
        f'  scenario "{w}" {{\n    given {{\n'
        + ("".join(f'      text {c} """{c}"""\n' for c in RESTRICTED_WORDS) if k == 0 else "")
        + "    }\n    when {\n"
        + (f"      LoadView({', '.join(RESTRICTED_WORDS)})\n" if k == 0 else "")
        + f"      click B0\n    }}\n    then {{\n      button B{k} enabled true\n"
        "    }\n  }\n"
        for k, w in enumerate(RESTRICTED_WORDS))
    + "}\n")

SOURCES = ((VMDSL_PATH.read_text(), VMTEST_PATH.read_text()),
           (HOSTILE_VMDSL, HOSTILE_VMTEST),
           (CLASH_VMDSL, CLASH_VMTEST),
           (KEYWORD_VMDSL, KEYWORD_VMTEST),
           (ROWS_VMDSL, ROWS_VMTEST),
           (BOUNDS_VMDSL, BOUNDS_VMTEST))

# Per target: the default config and the non-default one of its goldens.
COMPILE_CONFIGS = {target: (GenConfig(target=target), option_config(f"{target}_options"))
                   for target in ("java", "cpp")}

JAVA_STUBS = {
    "org/junit/jupiter/api/Test.java":
        "package org.junit.jupiter.api;\n\npublic @interface Test {\n}\n",
    "org/junit/jupiter/api/Assertions.java":
        "package org.junit.jupiter.api;\n\npublic final class Assertions {\n"
        "    public static void assertEquals(Object expected, Object actual, "
        "String message) {\n    }\n}\n",
}


def java_companions(files, name_map, suite_name, config) -> dict[str, str]:
    """``<Class>Impl`` for each abstract class (a constructor passing the
    ViewModel on, an override of every abstract method), and ``<Suite>Setup``,
    all in the configured package."""
    package = config.java_package
    prefix = package.replace(".", "/") + "/" if package else ""
    head = f"package {package};\n\n" if package else ""
    out = {}
    for text in files.values():
        abstract = re.search(r"^public abstract class (\w+) \{", text, re.M)
        if abstract is None:
            continue
        cls = abstract.group(1)
        body = "".join(f"    @Override\n    public void {m}({p}) {{\n    }}\n"
                       for m, p in re.findall(r"public abstract void (\w+)\((.*)\);", text))
        ctor = re.search(rf"protected {cls}\((\w+) viewModel\)", text)
        if ctor is not None:
            body = (f"    {cls}Impl({ctor.group(1)} viewModel) {{\n"
                    "        super(viewModel);\n    }\n") + body
        out[f"{prefix}{cls}Impl.java"] = f"{head}class {cls}Impl extends {cls} {{\n{body}}}\n"
    out[f"{prefix}{suite_name}Setup.java"] = (
        f"{head}class {suite_name}Setup {{\n"
        f"    {suite_name}Setup({name_map.type_name} vm) {{\n    }}\n\n"
        "    void provideContext(String name, String payload, String delivery) {\n"
        "    }\n}\n")
    return out


def cpp_companions(files, name_map, suite_name, config) -> dict[str, str]:
    """``<header>_impl.hpp`` defining ``<Class>Impl`` for each class header in
    abstract mode, and ``<suite>_setup.hpp``, all in the configured namespace."""
    ns = config.cpp_namespace
    open_ns, close_ns = (f"namespace {ns} {{\n\n", f"\n}}  // namespace {ns}\n") if ns else ("", "")
    out = {}
    for name, text in files.items():
        cls = re.search(r"^class (\w+) \{", text, re.M)
        if cls is None or not config.abstract_view_model:
            continue
        cls = cls.group(1)
        # Unnamed parameters: -Wextra warns about unused named ones.
        body = "".join(
            f"    void {m}({', '.join(p.rsplit(' ', 1)[0] for p in params.split(', ') if p)})"
            " override {}\n"
            for m, params in re.findall(r"virtual void (\w+)\((.*)\) = 0;", text))
        ctor = re.search(rf"explicit {cls}\((\w+)& viewModel\)", text)
        if ctor is not None:
            body = (f"    explicit {cls}Impl({ctor.group(1)}& viewModel) "
                    f": {cls}(viewModel) {{}}\n") + body
        out[name[:-len(".hpp")] + "_impl.hpp"] = (
            f'#pragma once\n\n#include "{name}"\n\n#include <string>\n\n{open_ns}'
            f"class {cls}Impl : public {cls} {{\npublic:\n{body}}};\n{close_ns}")
    vm = name_map.type_name
    out[f"{snake_case(suite_name)}_setup.hpp"] = (
        f"#pragma once\n\n#include <string>\n\n{open_ns}class {vm};\n\n"
        f"struct {suite_name}Setup {{\n    explicit {suite_name}Setup({vm}&) {{}}\n"
        "    void provideContext(const std::string&, const std::string&, "
        f"const std::string&) {{}}\n}};\n{close_ns}")
    return out


def write_tree(root, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def expected_rows_comment(text: str, widget: str) -> list[str]:
    """The ``// | ... |`` lines under ``// expected <widget> rows:``."""
    lines = [line.lstrip() for line in text.split("\n")]
    start = lines.index(f"// expected {widget} rows:") + 1
    rows = []
    for line in lines[start:]:
        if not line.startswith("// |"):
            break
        rows.append(line)
    return rows


class TestExpectedRowsComment:
    @pytest.mark.parametrize("target,test_file", [("java", "HostileTestsTest.java"),
                                                  ("cpp", "hostile_tests_test.cpp")])
    def test_columns_line_up_after_escaping(self, target, test_file):
        """Cells the comment widens (a doubled backslash before 'u', a CR
        spelled as \\r) are escaped before the columns are padded."""
        files, _, _ = emit_sources(GenConfig(target=target), HOSTILE_VMDSL, HOSTILE_VMTEST)
        rows = expected_rows_comment(files[test_file], "Items")
        assert len(rows) == 3
        assert (r"\\u000a" if target == "java" else r"a\rb") in "".join(rows)
        pipes = [[i for i, ch in enumerate(row) if ch == "|"] for row in rows]
        assert all(p == pipes[0] for p in pipes), rows


# A local declaration in a generated test body: a type, the local, then
# ` = ` (Java, C++ strings), `;` or `(` (C++ objects).
DECLARATION = re.compile(r"^ +[\w.:<>]+ (\w+)(?: = |;|\()", re.M)


class TestLocalNames:
    """No generated test declares one local twice, whatever its contexts
    are called."""

    @pytest.mark.parametrize("config", [GenConfig(target="java"), GenConfig(target="cpp"),
                                        *(option_config(g) for g in OPTION_GOLDENS)],
                             ids=["java", "cpp", *OPTION_GOLDENS])
    def test_each_local_is_declared_once(self, config):
        files, _, _ = emit_sources(config, CLASH_VMDSL, CLASH_VMTEST)
        test_file = next(text for name, text in files.items()
                         if name.endswith(("Test.java", "_test.cpp")))
        bodies = re.split(r"^ *(?:static )?void \w+\(\) \{$", test_file, flags=re.M)[1:]
        assert len(bodies) == 2
        for body in bodies:
            declared = DECLARATION.findall(body)
            assert len(declared) == len(set(declared)), declared
        # The setup still receives each context under its own name.
        assert 'setup.provideContext("setup", setup2, ' in bodies[0]
        assert 'setup.provideContext("vm", vm2, ' in bodies[0]

    def test_generated_suites_declare_each_local_once(self):
        rng = random.Random(5150)
        configs = [GenConfig(target="java"), *(option_config(g) for g in OPTION_GOLDENS)]
        for _ in range(60):
            desc = random_description(rng)
            linked, diags = resolve(random_suite(rng, desc), desc)
            assert linked is not None, [d.render() for d in diags]
            for config in configs:
                name_map = generated_name_map(desc, config)
                if name_map is None:
                    continue
                emit = emit_java if config.target == "java" else emit_cpp
                for name, text in emit(lower_to_ir(desc, linked, name_map, config),
                                       name_map, config):
                    for body in re.split(r"^ *(?:static )?void \w+\(\) \{$", text,
                                         flags=re.M)[1:]:
                        declared = DECLARATION.findall(body)
                        assert len(declared) == len(set(declared)), (name, declared)


class TestGeneratedSourcesCompile:
    """The emitted sources of the shipped corpus, of a suite full of hostile
    strings, of a suite whose context names clash with other locals, of a
    suite whose names are keywords and of the rows goldens compile against
    minimal hand-written companions, under the default config and the
    non-default config of each target's goldens; so do those of a suite
    whose names are Java's restricted type names, under the default Java
    config."""

    @pytest.mark.skipif(shutil.which("javac") is None, reason="javac not on PATH")
    def test_java_compiles(self, tmp_path):
        write_tree(tmp_path, JAVA_STUBS)
        restricted = ((RESTRICTED_VMDSL, RESTRICTED_VMTEST),)
        for config, more in zip(COMPILE_CONFIGS["java"], (restricted, ())):
            for vmdsl, vmtest in SOURCES + more:
                files, name_map, suite_name = emit_sources(config, vmdsl, vmtest)
                write_tree(tmp_path, files)
                write_tree(tmp_path, java_companions(files, name_map, suite_name, config))
        sources = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.java"))
        result = subprocess.run(
            ["javac", "-encoding", "UTF-8", "-d", "classes", *sources],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stdout + result.stderr
        for config in COMPILE_CONFIGS["java"]:
            package = (config.java_package or "").split(".")
            assert (tmp_path.joinpath("classes", *package) / "ClashTestsTest.class").exists()
        assert (tmp_path / "classes" / "RestrictedTestsTest.class").exists()

    @pytest.mark.skipif(shutil.which("g++") is None, reason="g++ not on PATH")
    def test_cpp_compiles(self, tmp_path):
        tests = []
        # Both configs give the same file names, so each gets a directory.
        for i, config in enumerate(COMPILE_CONFIGS["cpp"]):
            root = tmp_path / f"config{i}"
            for vmdsl, vmtest in SOURCES:
                files, name_map, suite_name = emit_sources(config, vmdsl, vmtest)
                write_tree(root, files)
                write_tree(root, cpp_companions(files, name_map, suite_name, config))
                tests += [f"config{i}/{name}" for name in files if name.endswith("_test.cpp")]
        assert len(tests) == 2 * len(SOURCES)
        result = subprocess.run(
            ["g++", "-std=c++17", "-Wall", "-Wextra", "-fsyntax-only", *tests],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stderr == ""


# The message of each assert in a generated test file, as its source literal.
ASSERT_MESSAGE = re.compile(r'^ *(?:assertEquals|VT_ASSERT_EQ)\(.*, ("(?:[^"\\]|\\.)*")\);$', re.M)


def failure_label(failure) -> str:
    return check_label(failure.widget, failure.feature, failure.aspect,
                       failure.row_index, failure.column_title)


class TestFailureLabels:
    """A run failure carries the message of the generated assert that makes
    the same check, in Java and in C++, and each assert has at most one."""

    def test_runtime_labels_are_generated_assert_messages(self):
        rng = random.Random(1616)
        pick = random.Random(1617)  # leaves rng's stream as it was
        unit = IRUnit(classes=(IRClass("V", abstract=False),), suite_name="S")
        aspects = set()
        for _ in range(150):
            widget = WidgetDecl(
                name="T", kind=WidgetKind.TABLE,
                enabled_optional=frozenset({FeatureKind.SELECTED_ROW}),
                # Titles carry quotes, backslashes and control characters.
                columns=tuple(ColumnSpec(cell_kind=CellKind.LABEL,
                                         title=column_title(rng, i) + string_value(rng, 3))
                              for i in range(rng.randint(1, 5))))
            exp, rows, selected = random_state_pair(rng, widget)
            # Also a selection on a row other than the marked one.
            unmarked = [i for i, row in enumerate(exp.rows) if not row.selected]
            selections = [selected]
            if len(unmarked) < len(exp.rows) and unmarked:
                selections.append(pick.choice(unmarked))
            for expectation in (exp, with_random_ignores(rng, exp)[0]):
                stmt = AssertRows(widget="T", rows_getter="getTRows",
                                  selected_getter="getTSelectedRow",
                                  columns=widget.column_indexes(expectation.header),
                                  expectation=expectation)
                messages = []
                for spec in (java_emitter._SPEC, cpp_emitter._SPEC):
                    lines: list[str] = []
                    write_test_body(lines, unit, IRTest("t", (stmt,)), spec, {})
                    messages.append(Counter(ASSERT_MESSAGE.findall("\n".join(lines))))
                # A table one row short fails on its row count alone.
                for actual, chosen in itertools.product((rows, rows[:-1]), selections):
                    failures = evaluate_rows_check(widget, expectation, actual, chosen)
                    aspects.update(failure.aspect for failure in failures)
                    labels = Counter(quote(failure_label(failure)) for failure in failures)
                    for target in messages:
                        assert not labels - target, (labels - target, failures)
        assert aspects == {"rowCount", "value", "tooltip", "color", "selected"}

    def test_each_assert_message_is_the_label_of_its_check(self):
        """Over astgen projects, a test's assert messages are, in order, the
        ``check_label`` of each check of its scenario: each scalar check,
        and each entry of ``row_checks``."""
        rng = random.Random(4711)
        tables = 0
        for _ in range(80):
            desc = random_description(rng)
            linked, diags = resolve(random_suite(rng, desc), desc)
            assert linked is not None, [d.render() for d in diags]
            widgets = {w.name: w for w in desc.widgets}
            labels = []
            for scenario in linked.scenarios:
                labels.append([])
                for check in scenario.checks:
                    exp = check.expectation
                    if not isinstance(exp, RowsExpectation):
                        labels[-1].append(check_label(check.widget, check.feature.value, "value"))
                        continue
                    tables += 1
                    columns = widgets[check.widget].column_indexes(exp.header)
                    labels[-1] += [check_label(check.widget, "rows", aspect, i, title)
                                   for aspect, i, _, title, _ in row_checks(exp, columns)]
            for config, spec in ((GenConfig(target="java"), java_emitter._SPEC),
                                 (GenConfig(target="cpp"), cpp_emitter._SPEC)):
                name_map = generated_name_map(desc, config)
                if name_map is None:
                    continue
                unit = lower_to_ir(desc, linked, name_map, config)
                written: dict[int, str] = {}
                for test, expected in zip(unit.tests, labels, strict=True):
                    lines: list[str] = []
                    write_test_body(lines, unit, test, spec, written)
                    assert ASSERT_MESSAGE.findall("\n".join(lines)) == list(map(quote, expected))
        assert tables >= 20


# The taskmanager-noappend logic in C++: LoadView loads the two sample rows,
# and a click on AddNewTask appends nothing.
NOAPPEND_IMPL = """#pragma once

#include "task_list_view_model.hpp"

#include <string>

class TaskListViewModelImpl : public TaskListViewModel {
public:
    void onLoadView(const std::string&) override {
        setTasksRows({
            Row{{{"prioLow", "", ""}, {"Exercise", "", ""},
                 {"2024-01-04", "4th January 2024", ""}}, ""},
            Row{{{"prioHigh", "", ""}, {"Taxes", "", ""},
                 {"2024-02-01", "1st February 2024", ""}}, "red"},
        });
        setAddNewTaskEnabled(true);
        setDeleteTaskEnabled(true);
    }
    void onTasksSelectRow(int) override {}
    void onAddNewTaskClick() override {}
    void onDeleteTaskClick() override {}
};
"""


class TestGeneratedCppRuns:
    @pytest.mark.skipif(shutil.which("g++") is None, reason="g++ not on PATH")
    def test_failed_row_count_skips_the_table_asserts(self, tmp_path, corpus_linked):
        """With a row missing, the corpus test reports the row count, the one
        failure the runtime reports too, and reads no row past the end: the
        checked standard library would abort on that."""
        config = GenConfig(target="cpp")
        files, name_map, suite_name = emit_sources(
            config, VMDSL_PATH.read_text(), VMTEST_PATH.read_text())
        write_tree(tmp_path, files)
        write_tree(tmp_path, cpp_companions(files, name_map, suite_name, config))
        write_tree(tmp_path, {"task_list_view_model_impl.hpp": NOAPPEND_IMPL})
        build = subprocess.run(
            ["g++", "-std=c++17", "-D_GLIBCXX_ASSERTIONS", "-o", "noappend",
             "task_list_tests_test.cpp"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert build.returncode == 0, build.stderr
        result = subprocess.run([str(tmp_path / "noappend")], cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 1, result.stderr
        assert result.stderr.endswith("\n1 assertion(s) failed\n"), result.stderr
        (fail,) = re.findall(r": FAIL (.*): expected 3, actual 2$", result.stderr, re.M)
        registration = REGISTRY["taskmanager-noappend"]
        (scenario,) = run_suite(corpus_linked, registration.logic_factory,
                                registration.setup_factory)
        assert [failure_label(f) for f in scenario.failures] == [fail]


def digest_projects() -> list:
    """20 seeded astgen projects, then the hostile-strings and rows suites,
    as (description, linked suite) pairs."""
    rng = random.Random(1818)
    pairs = []
    for _ in range(20):
        desc = random_description(rng)
        pairs.append((desc, random_suite(rng, desc)))
    for vmdsl, vmtest in ((HOSTILE_VMDSL, HOSTILE_VMTEST), (ROWS_VMDSL, ROWS_VMTEST)):
        pairs.append((parse_view_model(vmdsl)[0], parse_test_suite(vmtest)[0]))
    projects = []
    for desc, suite in pairs:
        linked, diags = resolve(suite, desc)
        assert linked is not None, [d.render() for d in diags]
        projects.append((desc, linked))
    return projects


def emitted_digest(config: GenConfig, projects) -> str:
    """SHA-256 of the sorted (path, text) pairs emitted for ``projects``.
    Java leaves out the projects with a ``fileName`` binding."""
    emit = emit_java if config.target == "java" else emit_cpp
    pairs = []
    for desc, linked in projects:
        name_map = generated_name_map(desc, config)
        if name_map is not None:
            pairs += emit(lower_to_ir(desc, linked, name_map, config), name_map, config)
    return hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


# emitted_digest of digest_projects() under each target's default config and
# the config of its option goldens, recorded before the test-body writer
# built its text per table and per column. "cpp_options" was recorded again
# when XML payloads began to write a tab as "&#9;": its one change is the tab
# cell of the hostile-strings suite. All four were recorded again when
# astgen's cell alphabet gained tab, which changes every generated project;
# the emitters of that time gave the same four before and after the
# control-character check of source files.
EMIT_DIGESTS = {
    "java": "195ca2da7f57ac13262a5336cb0b3b724192e246fe617a72699be62f631382b8",
    "java_options": "970849b890289a03cba9004c7e4c458ec489a0860b44da332525e2359812600c",
    "cpp": "0eb13745f44fd6ebafc709a5e1980837c902022d266e2bbe639d83a90d976f39",
    "cpp_options": "987b3782ec274e789318b7bb49c55be2c594170ee7fee189fd9d7a1f37bdae48",
}


class TestEmitDigests:
    @pytest.fixture(scope="class")
    def projects(self):
        return digest_projects()

    @pytest.mark.parametrize("name", sorted(EMIT_DIGESTS))
    def test_emitted_files_are_unchanged(self, name, projects):
        target, _, options = name.partition("_")
        config = COMPILE_CONFIGS[target][1 if options else 0]
        assert emitted_digest(config, projects) == EMIT_DIGESTS[name]


class TestSharedSteps:
    """Lowering shares the statements of equal steps of a unit, and each
    test file the lines of those statements. A copy of every LinkedAction,
    which no such sharing can find, lowers and emits alike."""

    @staticmethod
    def with_actions(linked, each):
        """``linked`` with the actions of its first scenario appended to those
        of each scenario, all through ``each``."""
        first = linked.scenarios[0].actions if linked.scenarios else ()
        return LinkedSuite(suite=linked.suite, description=linked.description, scenarios=tuple(
            LinkedScenario(scenario=s.scenario, test_name=s.test_name, contexts=s.contexts,
                           actions=tuple(map(each, s.actions + first)), checks=s.checks)
            for s in linked.scenarios))

    def test_copied_actions_lower_and_emit_alike(self):
        rng = random.Random(2121)
        configs = (*COMPILE_CONFIGS["java"], *COMPILE_CONFIGS["cpp"])
        shared = params = 0
        for _ in range(30):
            desc = random_description(rng)
            linked, diags = resolve(random_suite(rng, desc), desc)
            assert linked is not None, [d.render() for d in diags]
            # The same objects within a scenario and across scenarios, so
            # custom commands with parameters and contexts repeat too.
            twice = self.with_actions(linked, lambda action: action)
            copied = self.with_actions(linked, copy.copy)
            for config in configs:
                name_map = generated_name_map(desc, config)
                if name_map is None:
                    continue
                emit = emit_java if config.target == "java" else emit_cpp
                unit, unit_of_copies = (lower_to_ir(desc, l, name_map, config)
                                        for l in (twice, copied))
                assert ir_to_dict(unit) == ir_to_dict(unit_of_copies)
                assert emit(unit, name_map, config) == emit(unit_of_copies, name_map, config)
                invokes = [st for test in unit.tests for st in test.statements
                           if type(st) is InvokeCommand]
                shared += len(invokes) - len(set(map(id, invokes)))
                params += sum(type(st) is DeclareParams
                              for test in unit.tests for st in test.statements)
        assert shared > 100 and params > 10, (shared, params)
