"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with plain ``pytest``; the PASS lines bypass output capture so every
criterion reports its verdict even on quiet runs.
"""

import json
import random
import time

import pytest

from astgen import (
    failure_keys,
    random_description,
    random_grid,
    random_state_pair,
    random_suite,
    with_random_ignores,
)
from conftest import CORPUS, GOLDENS
from test_codegen import ASSERT_MESSAGE, count_expected_assertions
from test_runtime import reparse_json, reparse_multiline, reparse_xml
from vimotest.analyzer import compute_name_map, resolve
from vimotest.cli import main
from vimotest.cpp_emitter import emit_cpp
from vimotest.genconfig import GenConfig
from vimotest.ir import lower_to_ir
from vimotest.java_emitter import emit_java
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
    WidgetCommand,
    WidgetDecl,
    WidgetKind,
)
from vimotest.parser import parse_test_suite, parse_view_model
from vimotest.printer import pretty_print
from vimotest.runtime import evaluate_rows_check, render_context


@pytest.fixture
def verdict(capsys):
    def announce(number: int, label: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} PASS: {label}")

    return announce


def test_criterion_1_corpus_fidelity(corpus_desc, verdict):
    started = time.perf_counter()
    tasks = corpus_desc.widget("Tasks")
    assert tasks.kind is WidgetKind.TABLE
    assert [(c.title, c.cell_kind) for c in tasks.columns] == [
        ("Priority", CellKind.IMAGE),
        ("Task Name", CellKind.LABEL),
        ("Due Date", CellKind.LABEL),
    ]
    assert FeatureKind.SELECTED_ROW in tasks.enabled_optional
    for button in ("AddNewTask", "DeleteTask"):
        widget = corpus_desc.widget(button)
        assert widget.kind is WidgetKind.BUTTON
        assert FeatureKind.ENABLED in widget.enabled_optional
    forms = [c.form for c in corpus_desc.commands]
    assert len(forms) == 4
    customs = [f for f in forms if isinstance(f, CustomCommand)]
    assert len(customs) == 1  # the load-view command
    widget_forms = [f for f in forms if isinstance(f, WidgetCommand)]
    assert sorted((f.kind.value, f.target) for f in widget_forms) == [
        ("click", "AddNewTask"), ("click", "DeleteTask"),
        ("selectRow", "Tasks"),
    ]
    assert main(["check", str(CORPUS)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"check took {elapsed:.3f}s"
    verdict(1, "corpus encodes the task-manager example and checks clean "
               f"in {elapsed * 1000:.0f} ms")


def test_criterion_2_scenario_execution(corpus_linked, capsys, verdict):
    (scenario,) = corpus_linked.scenarios
    rows_check = next(c for c in scenario.checks
                      if isinstance(c.expectation, RowsExpectation))
    exp = rows_check.expectation
    name_col = exp.header.index("Task Name")
    due_col = exp.header.index("Due Date")
    assert len(exp.rows) == 3
    assert [r.cells[name_col].value for r in exp.rows] == \
        ["Exercise", "Taxes", "New Task"]
    assert exp.rows[0].cells[due_col].tooltip == "4th January 2024"
    assert exp.rows[1].color == "red"
    assert exp.rows[2].selected and exp.rows[2].cells[due_col].value == ""

    started = time.perf_counter()
    code = main(["run", str(CORPUS), "--setup", "taskmanager",
                 "--format", "json"])
    elapsed = time.perf_counter() - started
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    (result,) = report["suites"][0]["scenarios"]
    assert result["description"] == "Load Tasks and Add New"
    assert result["status"] == "passed" and result["failures"] == []
    assert elapsed < 1.0, f"run took {elapsed:.3f}s"
    verdict(2, "reference logic passes 'Load Tasks and Add New' with zero "
               f"failures in {elapsed * 1000:.0f} ms")


EXPECTED_MUTANT_FAILURES = {
    "taskmanager-buggy": {"widget": "Tasks", "aspect": "selected",
                          "rowIndex": 2, "label": "Tasks: selected row"},
    "taskmanager-keepdue": {"widget": "Tasks", "aspect": "value",
                            "rowIndex": 2, "columnTitle": "Due Date",
                            "label": "Tasks[2][Due Date]: value"},
    "taskmanager-nocolor": {"widget": "Tasks", "aspect": "color",
                            "rowIndex": 1, "label": "Tasks[1]: color"},
    "taskmanager-noappend": {"widget": "Tasks", "aspect": "rowCount",
                             "label": "Tasks: row count"},
}


def test_criterion_3_mutation_sensitivity(capsys, verdict, corpus_desc, corpus_linked):
    # Each failure's label is the message of a generated assert in both targets.
    messages = []
    for target, emit in (("java", emit_java), ("cpp", emit_cpp)):
        config = GenConfig(target=target)
        name_map, _ = compute_name_map(corpus_desc, config)
        files = emit(lower_to_ir(corpus_desc, corpus_linked, name_map, config),
                     name_map, config)
        messages.append({json.loads(m) for _, text in files
                         for m in ASSERT_MESSAGE.findall(text)})
    for setup_id, expected in EXPECTED_MUTANT_FAILURES.items():
        code = main(["run", str(CORPUS), "--setup", setup_id,
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1, setup_id
        (result,) = report["suites"][0]["scenarios"]
        assert result["status"] == "failed", setup_id
        assert len(result["failures"]) == 1, (setup_id, result["failures"])
        (failure,) = result["failures"]
        for key, value in expected.items():
            assert failure[key] == value, (setup_id, key, failure)
        for target in messages:
            assert failure["label"] in target, (setup_id, failure)
    verdict(3, "each of the 4 logic mutants produces exactly one failure "
               "naming the right widget and aspect, labelled as a generated assert")


def test_criterion_4_parser_properties(verdict):
    rng = random.Random(424242)
    round_tripped = 0
    for _ in range(500):
        desc = random_description(rng)
        text = pretty_print(desc)
        parsed, diags = parse_view_model(text)
        assert parsed == desc, text
        assert pretty_print(parsed) == text
        round_tripped += 1
    for _ in range(500):
        desc = random_description(rng)
        suite = random_suite(rng, desc)
        text = pretty_print(suite)
        parsed, diags = parse_test_suite(text)
        assert parsed == suite, text
        assert pretty_print(parsed) == text
        round_tripped += 1
    assert round_tripped == 1000

    fuzzed = 0
    for i in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
        parse = parse_view_model if i % 2 == 0 else parse_test_suite
        ast, diags = parse(blob)  # must never raise
        if ast is None:
            assert diags, "failures must carry diagnostics"
        fuzzed += 1
    assert fuzzed == 10_000
    verdict(4, "round-trip and idempotence hold on 1,000 generated ASTs; "
               "10,000 fuzzed inputs produce diagnostics, never crashes")


def test_criterion_5_rendering_oracle(verdict):
    rng = random.Random(55555)
    escaping_seen = 0
    for _ in range(200):
        body = random_grid(rng, max_cols=6, max_rows=6)
        if any(ch in cell for row in body.rows for cell in row
               for ch in "&<>\""):
            escaping_seen += 1
        assert reparse_multiline(render_context(body, "multiline")) == body
        assert reparse_json(render_context(body, "json"), body.header) == body
        assert reparse_xml(render_context(body, "xml"), body.header) == body
    assert escaping_seen > 10, "generator must exercise XML escaping"
    verdict(5, f"3-way rendering equivalence on 200 random tables "
               f"({escaping_seen} needed XML escaping)")


def test_criterion_6_ignore_monotonicity(verdict):
    rng = random.Random(66666)
    checked = 0
    for _ in range(200):
        columns = rng.randint(1, 5)
        widget = WidgetDecl(
            name="T", kind=WidgetKind.TABLE,
            enabled_optional=frozenset({FeatureKind.SELECTED_ROW}),
            columns=tuple(ColumnSpec(cell_kind=CellKind.LABEL, title=f"Col{i}")
                          for i in range(columns)))
        exp, rows, selected = random_state_pair(rng, widget)
        base = failure_keys(evaluate_rows_check(widget, exp, rows, selected))
        ignored_exp, positions = with_random_ignores(rng, exp)
        after = failure_keys(
            evaluate_rows_check(widget, ignored_exp, rows, selected))
        assert len(after) <= len(base)
        assert set(after) <= set(base)
        for removed in set(base) - set(after):
            assert (removed[1], removed[2]) in positions, removed
        checked += 1
    assert checked == 200
    verdict(6, "200 random expectation/state pairs: ignores never add "
               "failures and only remove their own")


def test_criterion_7_codegen_determinism_and_bindings(corpus_desc,
                                                      corpus_linked, verdict):
    for target, emit, golden_dir in (("java", emit_java, "java"),
                                     ("cpp", emit_cpp, "cpp")):
        config = GenConfig(target=target)
        name_map, _ = compute_name_map(corpus_desc, config)
        unit = lower_to_ir(corpus_desc, corpus_linked, name_map, config)
        first = emit(unit, name_map, config)
        second = emit(unit, name_map, config)
        assert first == second, f"{target} emission is not deterministic"
        for name, text in first:
            golden = (GOLDENS / golden_dir / name).read_text()
            assert text == golden, f"{name} deviates from its golden"

    bound_desc = ViewModelDescription(
        name=corpus_desc.name, widgets=corpus_desc.widgets,
        commands=corpus_desc.commands,
        bindings=(NameBinding(subject="typeName", bound_name="TaskListVM"),))
    bound_linked, _ = resolve(corpus_linked.suite, bound_desc)
    for target, emit in (("java", emit_java), ("cpp", emit_cpp)):
        config = GenConfig(target=target)
        name_map, _ = compute_name_map(bound_desc, config)
        files = emit(lower_to_ir(bound_desc, bound_linked, name_map, config),
                     name_map, config)
        joined = "\n".join(name + "\n" + text for name, text in files)
        assert "TaskListVM" in joined
        assert "TaskListViewModel" not in joined, target

    config = GenConfig(target="java", commands_on_view_model=False,
                       generate_view_controller=True)
    name_map, _ = compute_name_map(corpus_desc, config)
    files = dict(emit_java(lower_to_ir(corpus_desc, corpus_linked, name_map,
                                       config), name_map, config))
    methods = [c.method for c in name_map.commands.values()]
    assert len(methods) == 4
    vm_text = files["TaskListViewModel.java"]
    controller_text = files["TaskListViewModelController.java"]
    assert sum(controller_text.count(f"void {m}(") for m in methods) == 4
    assert sum(vm_text.count(f"void {m}(") for m in methods) == 0
    verdict(7, "emission is byte-stable, matches goldens, honors the "
               "TaskListVM binding, and the controller flip moves all "
               "4 commands")


def test_criterion_8_config_contract(tmp_path, capsys, verdict):
    config_path = tmp_path / "genconfig.json"
    config_path.write_text(json.dumps({
        "target": "java",
        "commandsOnViewModel": True,
        "generateViewController": True,
    }))
    code = main(["gen", str(CORPUS), "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 3

    desc = ViewModelDescription(name="Board", widgets=(), commands=(
        CommandDecl(name="Assign", form=CustomCommand(params=(
            Param(name="user", type=ParamType.STRING),
            Param(name="count", type=ParamType.INT)))),
        CommandDecl(name="Move", form=CustomCommand(params=(
            Param(name="fromLane", type=ParamType.STRING),
            Param(name="toLane", type=ParamType.STRING)))),
        CommandDecl(name="Refresh", form=CustomCommand()),
    ))
    for target, emit in (("java", emit_java), ("cpp", emit_cpp)):
        config = GenConfig(target=target, parameter_object=True)
        name_map, _ = compute_name_map(desc, config)
        files = emit(lower_to_ir(desc, None, name_map, config),
                     name_map, config)
        text = "\n".join(t for _, t in files)
        for multi in ("AssignParams", "MoveParams"):
            keyword = "class" if target == "java" else "struct"
            assert text.count(f"{keyword} {multi} {{") == 1, (target, multi)
        assert "RefreshParams" not in text
    verdict(8, "double command homes exit 3; parameterObject emits exactly "
               "one Params type per parameterized custom command")


def test_structural_parity_holds_alongside_acceptance(corpus_desc,
                                                      corpus_linked):
    # The emitted assertion count equals the AST-derived aspect count.
    config = GenConfig(target="java")
    name_map, _ = compute_name_map(corpus_desc, config)
    files = dict(emit_java(lower_to_ir(corpus_desc, corpus_linked, name_map,
                                       config), name_map, config))
    emitted = files["TaskListTestsTest.java"].count("assertEquals(")
    assert emitted == count_expected_assertions(corpus_linked) == 15
