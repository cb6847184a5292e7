import json
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from astgen import random_package
from conftest import CORPUS, GOLDENS, VMDSL_PATH, VMTEST_PATH, bench_corpus, child_env
from test_parser import CONTROL_VMDSL, control_suite
from vimotest.cli import EXIT_USAGE, main
from vimotest.taskmanager import REGISTRY


def write_config(tmp_path, **entries):
    path = tmp_path / "genconfig.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestCheck:
    def test_corpus_is_clean(self, capsys):
        assert main(["check", str(CORPUS)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_unknown_widget_reports_e101_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.vmtest"
        bad.write_text(
            "testsuite Bad for TaskListViewModel {\n"
            '  scenario "broken" {\n'
            "    given { } when { click Ghost } then { }\n"
            "  }\n"
            "}\n")
        assert main(["check", str(VMDSL_PATH), str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"{bad}:3:22: E101: unknown widget 'Ghost'" in captured.err

    def test_nonexistent_path_is_usage_error(self, capsys):
        assert main(["check", "/no/such/place.vmdsl"]) == 3
        assert "no such file" in capsys.readouterr().err

    def test_suite_without_target_is_usage_error(self, tmp_path, capsys):
        orphan = tmp_path / "orphan.vmtest"
        orphan.write_text("testsuite S for MissingViewModel { }\n")
        assert main(["check", str(orphan)]) == 3
        assert "MissingViewModel" in capsys.readouterr().err

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.vmdsl"
        broken.write_text("viewmodel { widgets }")
        assert main(["check", str(broken)]) == 2
        assert "E001" in capsys.readouterr().err

    def test_directory_named_like_a_source_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "weird.vmdsl").mkdir()
        assert main(["check", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            f"error: cannot read {tmp_path / 'weird.vmdsl'}: Is a directory\n"

    def test_dangling_symlink_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "broken.vmtest").symlink_to(tmp_path / "missing.vmtest")
        assert main(["check", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            f"error: cannot read {tmp_path / 'broken.vmtest'}: No such file or directory\n"

    def test_nul_in_a_cell_and_a_string_is_e001_and_gen_writes_nothing(self, tmp_path, capsys):
        """A NUL that C++ would cut its literal at is rejected by every command."""
        (tmp_path / "v.vmdsl").write_text(CONTROL_VMDSL)
        suite = tmp_path / "s.vmtest"
        suite.write_text(control_suite("\0", "\0"))
        error = f"{suite}:6:12: E001: control character U+0000 is not allowed\n"
        assert main(["check", str(tmp_path)]) == 2
        assert capsys.readouterr().err == error
        out = tmp_path / "out"
        for target in ("cpp", "java"):
            config = write_config(tmp_path, target=target, contextFormat="xml")
            assert main(["gen", str(tmp_path), "--config", config, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", error)
            assert not out.exists()


class TestRun:
    def run_corpus(self, capsys, *extra):
        code = main(["run", str(CORPUS), *extra])
        captured = capsys.readouterr()
        return code, captured

    def test_help_lists_each_setup_with_its_summary(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for setup_id, registration in REGISTRY.items():
            assert registration.summary
            assert any(line.split() == [setup_id, *registration.summary.split()]
                       for line in lines), (setup_id, lines)

    def test_reference_logic_passes(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager")
        assert code == 0
        assert "PASS Load Tasks and Add New" in captured.out

    def test_buggy_logic_fails_naming_the_widget(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager-buggy")
        assert code == 1
        assert "FAIL Load Tasks and Add New" in captured.out
        assert "Tasks" in captured.out and "selected" in captured.out

    def test_json_report(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager",
                                         "--format", "json")
        assert code == 0
        report = json.loads(captured.out)
        assert report["totals"] == {"passed": 1, "failed": 0, "errored": 0}
        assert report["suites"][0]["name"] == "TaskListTests"
        (scenario,) = report["suites"][0]["scenarios"]
        assert scenario["status"] == "passed" and scenario["failures"] == []
        assert scenario["durationMillis"] < 1000

    def test_json_report_duration_micros(self, capsys):
        _, captured = self.run_corpus(capsys, "--setup", "taskmanager",
                                      "--format", "json")
        (scenario,) = json.loads(captured.out)["suites"][0]["scenarios"]
        assert scenario["durationMicros"] > 0
        assert scenario["durationMicros"] >= 1000 * scenario["durationMillis"]
        assert scenario["durationMillis"] == scenario["durationMicros"] // 1000

    def test_json_report_round_trips(self, capsys):
        for setup in ("taskmanager", "taskmanager-nocolor"):  # no failure, one failure
            _, captured = self.run_corpus(capsys, "--setup", setup, "--format", "json")
            report = json.loads(captured.out)
            assert json.loads(json.dumps(report)) == report

    def test_mutant_report_names_widget_and_aspect(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager-noappend",
                                         "--format", "json")
        assert code == 1
        report = json.loads(captured.out)
        (scenario,) = report["suites"][0]["scenarios"]
        (failure,) = scenario["failures"]
        assert failure["widget"] == "Tasks" and failure["aspect"] == "rowCount"
        assert failure["label"] == "Tasks: row count"

    @pytest.mark.parametrize("mutant", ("buggy", "keepdue", "nocolor", "noappend"))
    def test_human_failure_line_is_the_json_label(self, capsys, mutant):
        setup = f"taskmanager-{mutant}"
        _, captured = self.run_corpus(capsys, "--setup", setup, "--format", "json")
        (failure,) = json.loads(captured.out)["suites"][0]["scenarios"][0]["failures"]
        code, captured = self.run_corpus(capsys, "--setup", setup)
        assert code == 1
        (line,) = [line for line in captured.out.splitlines() if line.startswith("  ")]
        assert line == (f"  {failure['label']}: expected {failure['expected']!r}, "
                        f"actual {failure['actual']!r}")

    def test_unknown_setup_id(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "warehouse")
        assert code == 3
        assert "unknown setup id" in captured.err

    def test_unknown_suite_name(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager",
                                         "--suite", "Nope")
        assert code == 3

    def test_named_suite_runs(self, capsys):
        code, captured = self.run_corpus(capsys, "--setup", "taskmanager",
                                         "--suite", "TaskListTests")
        assert code == 0

    def test_a_negative_row_index_is_a_diagnostic_not_a_run_error(self, tmp_path, capsys):
        suite = tmp_path / "neg.vmtest"
        suite.write_text(VMTEST_PATH.read_text()
                         .replace("click AddNewTask", "selectRow Tasks -1")
                         .replace("        }\n      }\n      button AddNewTask",
                                  "        }\n        selectedRow -1\n      }\n"
                                  "      button AddNewTask"))
        for argv in (["check"], ["run", "--setup", "taskmanager"]):
            assert main([*argv, str(VMDSL_PATH), str(suite)]) == 2
            assert capsys.readouterr().err == (
                f"{suite}:13:7: E105: selectRow argument is a row index and cannot be "
                f"negative: -1\n"
                f"{suite}:16:7: E105: selectedRow index is a row index and cannot be "
                f"negative: -1\n")


HELP_TEXT = {
    (): """\
usage: vimotest [-h] [--version] {check,run,gen} ...

Check, run, and generate code from ViewModel test DSL files.

positional arguments:
  {check,run,gen}
    check          parse and analyze DSL files
    run            execute test suites in-process
    gen            generate target sources

options:
  -h, --help       show this help message and exit
  --version        show program's version number and exit
""",
    ("check",): """\
usage: vimotest check [-h] paths [paths ...]

positional arguments:
  paths

options:
  -h, --help  show this help message and exit
""",
    ("run",): """\
usage: vimotest run [-h] [--suite SUITE] --setup SETUP [--format {human,json}]
                    paths [paths ...]

positional arguments:
  paths

options:
  -h, --help            show this help message and exit
  --suite SUITE         run only the suite with this name
  --setup SETUP         registered logic/setup id (listed below)
  --format {human,json}

registered setup ids:
  taskmanager           reference task-manager logic
  taskmanager-buggy     mutant: new row is not selected
  taskmanager-keepdue   mutant: new row keeps a due date
  taskmanager-noappend  mutant: add click appends nothing
  taskmanager-nocolor   mutant: urgent rows lose their color
""",
}


class TestHelp:
    """The help texts stay byte for byte what they were before the
    subcommands imported their modules lazily."""

    @pytest.mark.parametrize("command", list(HELP_TEXT), ids=" ".join)
    def test_help_text_is_unchanged(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (HELP_TEXT[command], "")


class TestGen:
    def test_java_generation_matches_goldens(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        code = main(["gen", str(CORPUS), "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        written = sorted(p.name for p in out.iterdir())
        assert written == ["TaskListTestsTest.java", "TaskListViewModel.java"]
        for name in written:
            assert (out / name).read_text() == \
                (GOLDENS / "java" / name).read_text()
        assert str(out / "TaskListViewModel.java") in captured.out

    def test_cpp_generation_includes_assert_header(self, tmp_path, capsys):
        config = write_config(tmp_path, target="cpp")
        out = tmp_path / "out"
        assert main(["gen", str(CORPUS), "--config", config,
                     "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert written == ["task_list_tests_test.cpp", "task_list_view_model.hpp",
                           "vimotest_assert.hpp"]
        for name in written:
            assert (out / name).read_text() == \
                (GOLDENS / "cpp" / name).read_text()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        assert main(["gen", str(CORPUS), "--config", config,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["gen", str(CORPUS), "--config", config,
                     "--out", str(out)]) == 3
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out),
                     "--force"]) == 0

    def test_invalid_command_home_config_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java", commandsOnViewModel=True,
                              generateViewController=True)
        code = main(["gen", str(CORPUS), "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java", banner=True)
        assert main(["gen", str(CORPUS), "--config", config,
                     "--out", str(tmp_path / "out")]) == 3

    def test_analyzer_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vmtest"
        bad.write_text(
            "testsuite Bad for TaskListViewModel {\n"
            '  scenario "broken" { given { use ghost } when { } then { } }\n'
            "}\n")
        config = write_config(tmp_path, target="java")
        code = main(["gen", str(VMDSL_PATH), str(bad), "--config", config,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "E107" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ("var", "yield", "record", "sealed", "permits"))
    @pytest.mark.parametrize("place", ("name", "typeName"))
    def test_a_restricted_java_type_name_is_e001(self, tmp_path, capsys, word, place):
        """Java bars these words from naming a type (JLS 17 §3.8), though
        they are no keywords; C++ takes them."""
        header = (f"viewmodel {word}" if place == "name"
                  else f'viewmodel V bind {{ typeName = "{word}" }}')
        (tmp_path / "v.vmdsl").write_text(
            header + " { widgets { button Go { supports enabled } } commands { click on Go } }")
        (tmp_path / "s.vmtest").write_text(
            f'testsuite S for {word if place == "name" else "V"} {{ scenario "s" {{ given {{ }} '
            "when { click Go } then { button Go enabled true } } }")
        for target, code in (("java", 2), ("cpp", 0)):
            out = tmp_path / f"out_{target}"
            config = write_config(tmp_path, target=target)
            assert main(["gen", str(tmp_path / "v.vmdsl"), str(tmp_path / "s.vmtest"),
                         "--config", config, "--out", str(out)]) == code
            err = capsys.readouterr().err
            if target == "java":
                column = 1 if place == "name" else 20
                assert err == (f"{tmp_path / 'v.vmdsl'}:1:{column}: E001: type name "
                               f"'{word}' cannot name a java type\n")
                assert not out.exists()
            else:
                assert err == "" and out.is_dir()

    def test_output_below_a_file_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java")
        out = tmp_path / "file" / "sub"
        (tmp_path / "file").write_text("")
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"

    def test_output_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java")
        out = tmp_path / "file"
        out.write_text("")
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out), "--force"]) == 3
        assert capsys.readouterr().err == f"error: cannot write {out}: File exists\n"

    def test_unreadable_config_names_only_the_cause(self, tmp_path, capsys):
        assert main(["gen", str(CORPUS), "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_description_only_generation(self, tmp_path, capsys):
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        assert main(["gen", str(VMDSL_PATH), "--config", config,
                     "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["TaskListViewModel.java"]


def bad_description(tmp_path):
    """The shipped description plus a selectRow command on a button (E103)."""
    bad = tmp_path / "bad.vmdsl"
    bad.write_text(VMDSL_PATH.read_text().replace(
        "    click on DeleteTask\n", "    click on DeleteTask\n    selectRow on AddNewTask\n"))
    return bad, f"{bad}:25:5: E103: button widgets do not support the selectRow command"


def renamed_suite(tmp_path, name):
    path = tmp_path / f"{name}.vmtest"
    path.write_text(VMTEST_PATH.read_text().replace("testsuite TaskListTests", f"testsuite {name}"))
    return path


def colliding_descriptions(tmp_path):
    """Two descriptions whose C++ class files are both 'shared.hpp', and the
    E106 line that gen prints for them."""
    first, second = tmp_path / "a.vmdsl", tmp_path / "b.vmdsl"
    for path, name, widget in ((first, "A", "X"), (second, "B", "Y")):
        path.write_text(f'viewmodel {name} bind {{ fileName = "shared" }} '
                        f"{{ widgets {{ button {widget} }} commands {{ }} }}\n")
    return first, second, (
        f"{second}:1:1: E106: generated file 'shared.hpp' of ViewModel 'B' "
        f"differs from the one of ViewModel 'A' at {first}:1:1\n")


class TestLinkStage:
    """Every description is validated once, whether or not a suite targets
    it, and a second declaration of one name is an error."""

    def test_lone_bad_description_fails_check_and_gen(self, tmp_path, capsys):
        bad, line = bad_description(tmp_path)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == line + "\n"
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        assert main(["gen", str(bad), "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_description_diagnostic_printed_once_for_two_suites(self, tmp_path, capsys):
        bad, line = bad_description(tmp_path)
        assert main(["check", str(bad), str(VMTEST_PATH),
                     str(renamed_suite(tmp_path, "OtherTests"))]) == 2
        assert capsys.readouterr().err == line + "\n"

    def test_duplicate_view_model_is_e106(self, tmp_path, capsys):
        copy = tmp_path / "copy.vmdsl"
        copy.write_text(VMDSL_PATH.read_text())
        assert main(["check", str(VMDSL_PATH), str(copy), str(VMTEST_PATH)]) == 2
        assert capsys.readouterr().err == (
            f"{copy}:2:1: E106: duplicate ViewModel name 'TaskListViewModel'; "
            f"the first is at {VMDSL_PATH}:2:1\n")

    def test_duplicate_suite_name_is_e106(self, tmp_path, capsys):
        copy = renamed_suite(tmp_path, "TaskListTests")
        assert main(["check", str(VMDSL_PATH), str(VMTEST_PATH), str(copy)]) == 2
        assert capsys.readouterr().err == (
            f"{copy}:2:1: E106: duplicate test suite name 'TaskListTests'; "
            f"the first is at {VMTEST_PATH}:2:1\n")

    def test_a_file_named_twice_is_read_once(self, capsys):
        assert main(["run", str(CORPUS), str(VMTEST_PATH), str(VMDSL_PATH),
                     "--setup", "taskmanager"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.count("PASS") == 1

    def test_gen_path_collision_is_e106(self, tmp_path, capsys):
        first, second, line = colliding_descriptions(tmp_path)
        config = write_config(tmp_path, target="cpp")
        out = tmp_path / "out"
        assert main(["check", str(first), str(second)]) == 0
        assert main(["gen", str(first), str(second), "--config", config,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_gen_rejects_a_java_file_name_other_than_the_type_name(self, tmp_path, capsys):
        """javac wants a public class in the file named after it, so Java
        takes a fileName binding only when it is the type name."""
        desc = tmp_path / "mike.vmdsl"
        for bound, code in (("bound_file_1", 2), ("Mike", 0)):
            desc.write_text(f'viewmodel Mike bind {{ fileName = "{bound}" }} '
                            "{ widgets { button Go } commands { } }\n")
            out = tmp_path / f"out_{bound}"
            assert main(["gen", str(desc), "--config", write_config(tmp_path, target="java"),
                         "--out", str(out)]) == code
            captured = capsys.readouterr()
            if code:
                assert captured.err == (
                    f"{desc}:1:23: E106: fileName 'bound_file_1' differs from the type "
                    "name 'Mike', but javac needs a public class in the file named after it\n")
                assert not out.exists()
            else:
                assert captured.err == ""
                assert sorted(p.name for p in out.iterdir()) == ["Mike.java"]
        # C++ names its files freely.
        assert main(["gen", str(desc), "--config", write_config(tmp_path, target="cpp"),
                     "--out", str(tmp_path / "out_cpp")]) == 0
        assert (tmp_path / "out_cpp" / "Mike.hpp").exists()

    def test_gen_rejects_a_keyword_parameter_name(self, tmp_path, capsys):
        desc = tmp_path / "keyword.vmdsl"
        desc.write_text(VMDSL_PATH.read_text().replace("LoadView(tasks: context)",
                                                       "LoadView(class: context)"))
        assert main(["check", str(desc)]) == 0
        for target in ("java", "cpp"):
            config = write_config(tmp_path, target=target)
            assert main(["gen", str(desc), "--config", config,
                         "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                f"{desc}:21:5: E001: parameter 'class' of command 'LoadView' "
                f"is a {target} keyword\n")


def snapshot(root):
    """Every path below ``root``, with its inode and, for a file, its bytes."""
    return {path.relative_to(root).as_posix():
            (path.lstat().st_ino, path.read_bytes() if path.is_file() else None)
            for path in root.rglob("*")}


class TestGenAllOrNothing:
    """gen writes each file as it is generated, yet on any diagnostic, clash
    or write error it leaves the output directory as it found it."""

    def test_diagnostic_under_force_changes_nothing(self, tmp_path, capsys):
        first, second, line = colliding_descriptions(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "shared.hpp").write_text("old\n")
        (out / "notes.txt").write_text("kept\n")
        before = snapshot(out)
        # The first description's shared.hpp and vimotest_assert.hpp are
        # written before the second one's shared.hpp differs.
        assert main(["gen", str(first), str(second), "--config",
                     write_config(tmp_path, target="cpp"), "--out", str(out),
                     "--force"]) == 2
        assert capsys.readouterr() == ("", line)
        assert snapshot(out) == before

    def test_diagnostic_after_written_files_removes_made_directories(self, tmp_path, capsys):
        good = tmp_path / "good.vmdsl"
        good.write_text(VMDSL_PATH.read_text())
        bad = tmp_path / "bad.vmdsl"
        bad.write_text('viewmodel Mike bind { fileName = "bound_file_1" } '
                       "{ widgets { button Go } commands { } }\n")
        config = write_config(tmp_path, target="java", javaPackage="org.demo")
        out = tmp_path / "out"
        assert main(["gen", str(good), str(bad), "--config", config,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_clash_lists_every_clash_and_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path, target="cpp")
        out = tmp_path / "out"
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "task_list_tests_test.cpp").unlink()
        (out / "vimotest_assert.hpp").write_text("edited\n")
        before = snapshot(out)
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", (
            "error: refusing to overwrite existing files (use --force): "
            f"{out / 'task_list_view_model.hpp'}, {out / 'vimotest_assert.hpp'}\n"))
        assert snapshot(out) == before

    def test_diagnostic_outranks_a_clash(self, tmp_path, capsys):
        first, second, line = colliding_descriptions(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "shared.hpp").write_text("old\n")
        before = snapshot(out)
        assert main(["gen", str(first), str(second), "--config",
                     write_config(tmp_path, target="cpp"), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", line)
        assert snapshot(out) == before

    def test_clash_outranks_a_write_error(self, tmp_path, capsys):
        name = "V" + "x" * 300  # too long for a file name
        (tmp_path / "v.vmdsl").write_text(
            f"viewmodel {name} {{ widgets {{ button Go }} commands {{ }} }}\n")
        (tmp_path / "s.vmtest").write_text(f"testsuite S for {name} {{ }}\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "STest.java").write_text("old\n")
        before = snapshot(out)
        config = write_config(tmp_path, target="java")
        args = ["gen", str(tmp_path / "v.vmdsl"), str(tmp_path / "s.vmtest"),
                "--config", config, "--out", str(out)]
        assert main(args) == 3
        assert capsys.readouterr() == ("", (
            "error: refusing to overwrite existing files (use --force): "
            f"{out / 'STest.java'}\n"))
        assert main([*args, "--force"]) == 3
        assert capsys.readouterr() == ("", (
            f"error: cannot write {out / (name + '.java')}: File name too long\n"))
        assert snapshot(out) == before

    @pytest.mark.parametrize("blocked, existing", [
        # The second file in sorted order, after the first was written.
        ("TaskListViewModel.java", None),
        # The file generated second, after the first was due for a rename.
        ("TaskListTestsTest.java", "TaskListViewModel.java"),
    ])
    def test_write_error_leaves_no_new_file(self, blocked, existing, tmp_path, capsys):
        """A directory sits where an output goes."""
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if existing:
            (out / existing).write_text("old\n")
        before = snapshot(out)
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out),
                     "--force"]) == 3
        assert capsys.readouterr() == ("", f"error: cannot write {out / blocked}: Is a directory\n")
        assert snapshot(out) == before

    @pytest.mark.parametrize("force", [False, True])
    def test_a_write_that_fails_part_way_leaves_no_new_file(self, force, tmp_path):
        """A file-size limit stops a test file's write after its first
        pieces: the same write error, and nothing left behind."""
        src = tmp_path / "src"
        src.mkdir()
        for rel, text in bench_corpus("tables", 7, 0.1).files.items():
            (src / rel).write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        blocked = out / "Tables01TestsTest.java"
        if force:
            blocked.write_text("old\n")
        before = snapshot(out)
        limit = 100_000  # below the test file's some 430 KB, above the rest
        code = ("import resource, signal, sys\n"
                "from vimotest.cli import main\n"
                "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                "sys.exit(main(sys.argv[1:]))\n")
        result = subprocess.run(
            [sys.executable, "-c", code, "gen", str(src), "--config",
             write_config(tmp_path, target="java"), "--out", str(out), *["--force"][:force]],
            capture_output=True, text=True, env=child_env())
        assert (result.returncode, result.stdout, result.stderr) == (
            3, "", f"error: cannot write {blocked}: File too large\n")
        assert snapshot(out) == before

    def test_force_replaces_existing_files(self, tmp_path, capsys):
        config = write_config(tmp_path, target="cpp")
        out = tmp_path / "out"
        out.mkdir()
        (out / "vimotest_assert.hpp").write_text("old\n")
        (out / "vimotest_assert.hpp").chmod(0o640)
        (out / "notes.txt").write_text("kept\n")
        assert main(["gen", str(CORPUS), "--config", config, "--out", str(out),
                     "--force"]) == 0
        assert (out / "vimotest_assert.hpp").stat().st_mode & 0o777 == 0o640
        names = ["task_list_tests_test.cpp", "task_list_view_model.hpp", "vimotest_assert.hpp"]
        assert capsys.readouterr() == ("".join(f"{out / n}\n" for n in names), "")
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", *names]
        for name in names:
            assert (out / name).read_bytes() == (GOLDENS / "cpp" / name).read_bytes()


class TestGenMemory:
    COPIES = 80

    def test_gen_holds_one_suite_output_not_all(self, tmp_path, capsys):
        """gen over many suites needs memory for about one suite's output:
        its traced peak exceeds that of check on the same files by less than
        half the bytes it writes."""
        src = tmp_path / "src"
        src.mkdir()
        (src / "rows.vmdsl").write_bytes((GOLDENS / "rows" / "rows.vmdsl").read_bytes())
        suite = (GOLDENS / "rows" / "rows.vmtest").read_text()
        for k in range(self.COPIES):
            (src / f"s{k}.vmtest").write_text(
                suite.replace("testsuite OrderBoardTests", f"testsuite OrderBoardTests{k}"))
        config = write_config(tmp_path, target="java")
        out = tmp_path / "out"
        # Untraced, so that the first import of the IR and the emitter, which
        # an earlier test may or may not have made, is no part of the peak.
        assert main(["gen", str(src), "--config", config, "--out", str(tmp_path / "warm")]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["check", str(src)]) == 0
            check_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(["gen", str(src), "--config", config, "--out", str(out)]) == 0
            gen_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sum(path.stat().st_size for path in out.iterdir())
        assert len(capsys.readouterr().out.splitlines()) == self.COPIES + 1
        assert gen_peak - check_peak < written / 2, (gen_peak, check_peak, written)

    @pytest.mark.parametrize("target", ["java", "cpp"])
    def test_gen_holds_one_test_method_not_a_whole_file(self, tmp_path, capsys, target):
        """gen writes a test file one test method at a time: on one suite
        file of twelve long-table scenarios, whose test file is some 430
        KB, its traced peak exceeds that of check on the same files by less
        than a quarter of the bytes it writes."""
        src = tmp_path / "src"
        src.mkdir()
        for rel, text in bench_corpus("tables", 7, 0.1).files.items():
            (src / rel).write_text(text)
        assert len(list(src.glob("*.vmtest"))) == 1
        config = write_config(tmp_path, target=target)
        out = tmp_path / "out"
        # Untraced, as above.
        assert main(["gen", str(src), "--config", config, "--out", str(tmp_path / "warm")]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["check", str(src)]) == 0
            check_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(["gen", str(src), "--config", config, "--out", str(out)]) == 0
            gen_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sum(path.stat().st_size for path in out.iterdir())
        assert gen_peak - check_peak < written / 4, (gen_peak, check_peak, written)


class TestPackageValues:
    def test_gen_accepts_exactly_the_valid_ones(self, tmp_path, capsys):
        """Over drawn javaPackage and cppNamespace values, gen exits 3 and
        writes nothing exactly where the value is not identifiers joined by
        its target's separator or holds a keyword; otherwise it writes the
        Java files under the package path, and declares the C++ namespace."""
        rng = random.Random(2828)
        drawn = [0, 0]
        for k in range(60):
            target = rng.choice(("java", "cpp"))
            value, valid = random_package(rng, target)
            drawn[valid] += 1
            key = "javaPackage" if target == "java" else "cppNamespace"
            out = tmp_path / f"out{k}"
            code = main(["gen", str(CORPUS), "--config",
                         write_config(tmp_path, target=target, **{key: value}), "--out", str(out)])
            printed = capsys.readouterr()
            if not valid:
                assert (code, printed.out, out.exists()) == (EXIT_USAGE, "", False), value
                assert f"error: {key} {value!r}" in printed.err
                continue
            assert code == 0, value
            written = sorted(path.relative_to(out).as_posix()
                             for path in out.rglob("*") if path.is_file())
            assert printed.out.splitlines() == [str(out / rel) for rel in written]
            if target == "java":
                package = value.replace(".", "/") + "/" if value else ""
                assert [rel[:len(package)] for rel in written] == [package] * len(written)
                assert all("/" not in rel[len(package):] for rel in written)
            else:
                assert all("/" not in rel for rel in written)
                header = (out / "task_list_view_model.hpp").read_text()
                assert (f"namespace {value} {{\n" in header) == bool(value)
        assert min(drawn) >= 20, drawn


class TestSuiteMemory:
    COPIES = 40

    @pytest.mark.parametrize("split", (False, True), ids=("serial", "split"))
    @pytest.mark.parametrize("command", ("check", "run"))
    def test_holds_one_suite_file_at_a_time(self, tmp_path, capsys, monkeypatch, command,
                                            split):
        """check and run parse, link and work on one suite file at a time:
        over many copies of one steps suite file, their traced peak stays
        under twice that over one copy, in one process or, with the split
        forced, in this process of two."""
        from vimotest import cli

        files = bench_corpus("steps", 7, 0.1).files
        (desc,) = (rel for rel in files if rel.endswith(".vmdsl"))
        (suite,) = (rel for rel in files if rel.endswith(".vmtest"))
        one, many = tmp_path / "one", tmp_path / "many"
        for root, copies in ((one, 1), (many, self.COPIES)):
            root.mkdir()
            (root / desc).write_text(files[desc])
            for k in range(copies):
                (root / f"s{k:02d}.vmtest").write_text(
                    re.sub(r"testsuite (\w+)", rf"testsuite \g<1>{k}", files[suite], count=1))
        argv = ["run", "--setup", "taskmanager"] if command == "run" else ["check"]
        # Untraced, so that the first import of the runtime is no part of the peak.
        assert main([argv[0], str(one), *argv[1:]]) == 0
        if split:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
            monkeypatch.setattr(cli, "SPLIT_MIN_BYTES", 0)
            assert cli._cut(sorted(many.glob("*.vmtest")))
        peaks = []
        for root in (one, many):
            tracemalloc.start()
            try:
                assert main([argv[0], str(root), *argv[1:]]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[1] < 2 * peaks[0], peaks


class TestEntryPoint:
    def _run(self, *args, env_extra=None):
        return subprocess.run(
            [sys.executable, "-m", "vimotest", *args],
            capture_output=True, text=True, env=child_env(**(env_extra or {})))

    def test_module_invocation(self):
        result = self._run("check", str(CORPUS))
        assert result.returncode == 0
        assert result.stdout == "" and result.stderr == ""

    def test_color_disabled_by_env(self):
        result = self._run("run", str(CORPUS), "--setup", "taskmanager",
                           env_extra={"VIMOTEST_COLOR": "0"})
        assert result.returncode == 0
        assert "PASS Load Tasks and Add New\n" in result.stdout
        assert "\x1b[" not in result.stdout

    def test_version_flag(self):
        result = self._run("--version")
        assert result.returncode == 0
        assert result.stdout.strip() == "0.1.0"

    def test_closed_stdout_exits_1_without_a_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "vimotest", "run", str(CORPUS), "--setup", "taskmanager"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
