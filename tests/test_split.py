"""Calls whose suite files are split across two processes print, write and
exit exactly as the serial path does, and leave no process behind.

Each test makes the same call twice: once with one usable CPU, which keeps
it serial, and once with two and no size floor, which splits every call of
two or more suite files. The first suite file is always in this process's
half and the last always in the worker's.
"""

import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys

import pytest

from astgen import random_description, random_suite
from conftest import CORPUS, GOLDENS, VMDSL_PATH, VMTEST_PATH, child_env
from vimotest import cli, runtime
from vimotest.printer import pretty_print

DURATIONS = re.compile(r'"duration(Millis|Micros)": \d+')
SPLIT_MIN_BYTES = cli.SPLIT_MIN_BYTES  # the shipped floor, which ``call`` lifts


def renamed(record, **changes):
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def write_project(root, seed=2222, descriptions=3, suites_each=3):
    """A seeded astgen project: ``descriptions`` descriptions with
    ``suites_each`` suites each, plus one description no suite targets.
    Suite files are ordered so that each half holds suites of several
    descriptions."""
    root.mkdir()
    rng = random.Random(seed)
    for d in range(descriptions + 1):
        desc = random_description(rng)
        # A Java fileName binding is a diagnostic; leave it to the other tests.
        # The description no suite targets keeps no typeName either, so that
        # its generated files are named after it.
        dropped = ("fileName",) if d < descriptions else ("fileName", "typeName")
        desc = renamed(desc, name=f"Vm{d}", bindings=tuple(
            b for b in desc.bindings if b.subject not in dropped))
        (root / f"d{d}.vmdsl").write_text(pretty_print(desc), encoding="utf-8")
        for k in range(suites_each if d < descriptions else 0):
            suite = renamed(random_suite(rng, desc), name=f"Suite{k}{d}")
            (root / f"s{k}{d}.vmtest").write_text(pretty_print(suite), encoding="utf-8")
    return root


def clashing_project(root):
    """Two ViewModels bound to one C++ fileName, one suite each."""
    root.mkdir()
    for vm, button in (("A", "X"), ("B", "Y")):
        (root / f"{vm}.vmdsl").write_text(
            f'viewmodel {vm} bind {{ fileName = "shared" }} '
            f'{{ widgets {{ button {button} }} commands {{ }} }}', encoding="utf-8")
        (root / f"{vm.lower()}.vmtest").write_text(
            f'testsuite {vm}Tests for {vm} {{ scenario "s" {{ given {{ }} when {{ }} '
            f'then {{ }} }} }}', encoding="utf-8")
    return root


def interleaved_project(root, clean=False):
    """The shipped description as Alone, which no suite targets, then as
    Bvm, Cvm and Dvm, and five copies of the shipped suite, whose targets
    alternate in file order: Dvm, Bvm, Dvm, Bvm, Cvm. Unless ``clean``,
    Alone and Bvm are bound to one fileName, and a parameter of Cvm is
    named ``class``, a keyword of both targets."""
    root.mkdir()
    shared = "" if clean else 'bind { fileName = "shared" } '
    for name, bind in (("Alone", shared), ("Bvm", shared), ("Cvm", ""), ("Dvm", "")):
        text = VMDSL_PATH.read_text(encoding="utf-8").replace(
            "viewmodel TaskListViewModel ", f"viewmodel {name} {bind}")
        if name == "Cvm" and not clean:
            text = text.replace("LoadView(tasks: context)", "LoadView(class: context)")
        (root / f"{name.lower()}.vmdsl").write_text(text, encoding="utf-8")
    for k, target in enumerate(("Dvm", "Bvm", "Dvm", "Bvm", "Cvm")):
        (root / f"s{k}.vmtest").write_text(VMTEST_PATH.read_text(encoding="utf-8").replace(
            "TaskListTests for TaskListViewModel", f"Suite{k} for {target}"), encoding="utf-8")
    return root


def suite_files(root):
    return sorted(root.glob("*.vmtest"))


def rename_suite(path, name):
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"testsuite \w+", f"testsuite {name}", text, count=1),
                    encoding="utf-8")


def suite_name(path):
    return re.search(r"testsuite (\w+)", path.read_text(encoding="utf-8")).group(1)


def desc_files(root):
    return sorted(root.glob("*.vmdsl"))


def desc_cut(root):
    """The number of description files in this process's half."""
    return cli._middle(cli._ends(desc_files(root)), 0)


def view_model_name(path):
    return re.search(r"viewmodel (\w+)", path.read_text(encoding="utf-8")).group(1)


def rename_view_model(path, name):
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"viewmodel \w+", f"viewmodel {name}", text, count=1),
                    encoding="utf-8")


def arrange(root, crossed=False):
    """Rename the suite files so that those targeting a description of this
    process's half come first, or last if ``crossed``, and pad both groups
    with a comment to equal bytes, so that the suite files split exactly
    between the groups."""
    ours = {view_model_name(path) for path in desc_files(root)[:desc_cut(root)]}
    groups = ([], [])
    for path in suite_files(root):
        target = re.search(r"testsuite \w+ for (\w+)", path.read_text(encoding="utf-8"))[1]
        groups[(target in ours) == crossed].append(path)
    sizes = [sum(path.stat().st_size for path in group) for group in groups]
    for prefix, group, size in zip("az", groups, sizes):
        with open(group[-1], "a", encoding="utf-8") as file:  # 100 bytes more than the larger
            file.write("\n//" + "x" * (97 + max(sizes) - size))
        for k, path in enumerate(group):
            path.rename(root / f"{prefix}{k:02d}.vmtest")
    assert cli._middle(cli._ends(suite_files(root)), 1) == len(groups[0])


def snapshot(root):
    """Every path below ``root``, with the bytes of each file."""
    if not root.exists():
        return None
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


@pytest.fixture
def call(monkeypatch, capsys):
    """``call(cpus, *argv)`` runs the CLI in this process with ``cpus``
    usable CPUs and returns (exit code, stdout, stderr, forks made)."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "SPLIT_MIN_BYTES", 0)

    def run(cpus, *argv):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        code = cli.main([str(arg) for arg in argv])
        out, err = capsys.readouterr()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)
        return code, out, err, len(forks)

    return run


def assert_same(call, *argv, out=None, forks=1, before=None):
    """Make the call serially and split; both must give the same exit code,
    stdout (durations aside), stderr and output tree. Returns the outcome."""
    outcomes = []
    for cpus in (1, 2):
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
            if before is not None:
                before(out)
        code, stdout, stderr, made = call(cpus, *argv)
        outcomes.append((code, DURATIONS.sub("", stdout), stderr, snapshot(out) if out else None))
        assert made == (forks if cpus == 2 else 0)
    assert outcomes[1] == outcomes[0]
    return outcomes[0]


def commands(tmp_path):
    """Each command under test, by name: check, run in both formats, and gen
    for both targets."""
    java = tmp_path / "java.json"
    java.write_text('{"target": "java", "javaPackage": "org.split"}')
    cpp = tmp_path / "cpp.json"
    cpp.write_text('{"target": "cpp", "parameterObject": true, '
                   '"generateViewController": true, "contextFormat": "xml"}')
    out = tmp_path / "out"
    return {
        "check": (("check",), None),
        "run_json": (("run", "--setup", "taskmanager", "--format", "json"), None),
        "run_human": (("run", "--setup", "taskmanager"), None),
        "gen_java": (("gen", "--config", java, "--out", out), out),
        "gen_cpp": (("gen", "--config", cpp, "--out", out), out),
    }


COMMANDS = ("check", "run_json", "run_human", "gen_java", "gen_cpp")


def assert_command_same(call, tmp_path, command, project, forks=1):
    (name, *options), out = commands(tmp_path)[command]
    return assert_same(call, name, project, *options, out=out, forks=forks)


class TestCleanProjects:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("seed", [2222, 3333])
    def test_split_equals_serial(self, call, tmp_path, command, seed):
        project = write_project(tmp_path / "p", seed=seed)
        code, stdout, stderr, tree = assert_command_same(call, tmp_path, command, project)
        assert stderr == ""
        if command == "check":
            assert code == 0
        elif command.startswith("run"):
            # Every suite reports, in file order.
            names = re.findall(r'"name": "(\w+)"', stdout)
            if command == "run_json":
                assert names == [suite_name(p) for p in suite_files(project)]
        else:
            assert code == 0
            # Every unit, the suite-less description's too, was written.
            assert len(stdout.splitlines()) == sum(text is not None for text in tree.values())
            assert any("vm3" in rel.lower() for rel in tree)

    def test_shipped_goldens_split_across_two_copies(self, call, tmp_path):
        """Two copies of the shipped suite, one per half, generate the goldens."""
        project = tmp_path / "p"
        shutil.copytree(CORPUS, project)
        source = project / "task_list_tests.vmtest"
        copy = project / "task_list_tests_2.vmtest"
        copy.write_bytes(source.read_bytes())
        rename_suite(copy, "TaskListTestsCopy")
        config = tmp_path / "java.json"
        config.write_text('{"target": "java"}')
        out = tmp_path / "out"
        code, _, _, tree = assert_same(call, "gen", project, "--config", config, "--out", out,
                                       out=out)
        assert code == 0
        for golden in (GOLDENS / "java").iterdir():
            assert tree[golden.name] == golden.read_bytes()


class TestCrossedTargets:
    """Each process parses its half of the description files; one whose
    suites target a description of the other half parses that half too."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_split_equals_serial(self, call, tmp_path, command):
        project = write_project(tmp_path / "p")
        arrange(project, crossed=True)
        code, _, stderr, _ = assert_command_same(call, tmp_path, command, project)
        assert stderr == "" and code in (0, 1)

    @pytest.mark.parametrize("command,crossed", (("check", False), ("check", True),
                                                 ("gen_java", False)),
                             ids=("aligned", "crossed", "aligned_gen"))
    def test_which_descriptions_each_process_parses(self, call, tmp_path, monkeypatch, command,
                                                    crossed):
        project = write_project(tmp_path / "p")
        arrange(project, crossed)
        (name, *options), _ = commands(tmp_path)[command]
        log = tmp_path / "parses.log"
        real = cli.parse_view_model

        def logging(data, file):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()} {file}\n")
            return real(data, file)

        monkeypatch.setattr(cli, "parse_view_model", logging)
        links = []  # this process's link stages only: no serial rerun
        real_linker = cli.Linker
        monkeypatch.setattr(cli, "Linker", lambda: links.append(1) or real_linker())
        code, _, _, forks = call(2, name, project, *options)
        assert code == 0 and forks == 1 and len(links) == 1
        here, worker = [], []
        for line in log.read_text().splitlines():
            pid, file = line.split(" ", 1)
            (here if pid == str(os.getpid()) else worker).append(file)
        files = [str(path) for path in desc_files(project)]
        mid = desc_cut(project)
        if crossed:
            assert sorted(here) == sorted(worker) == files
        elif name == "check":  # not Vm3's file, which no suite targets: only gen needs it
            assert (here, worker) == (files[:mid], files[mid:])
        else:  # of the worker's half, only Vm3's file, which no suite targets
            assert files[-1].endswith("d3.vmdsl") and mid < len(files) - 1
            assert (here, worker) == (files[:mid] + files[-1:], files[mid:])


class TestErrorsRerunSerially:
    """Wherever an error is, the split call stops its worker and reruns
    serially, so error output and exit codes are the serial ones."""

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_cpp"))
    @pytest.mark.parametrize("where", (0, -1))
    def test_a_diagnostic_in_either_half(self, call, tmp_path, command, where):
        project = write_project(tmp_path / "p")
        path = suite_files(project)[where]
        path.write_text(path.read_text(encoding="utf-8") + "\nscenario }\n", encoding="utf-8")
        code, _, stderr, tree = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_DIAGNOSTICS and ": E001: " in stderr
        assert tree is None  # gen left nothing behind

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_java"))
    @pytest.mark.parametrize("pair", ((0, -1), (0, 1), (-2, -1)),
                             ids=("across", "first_half", "second_half"))
    def test_a_duplicate_suite_name(self, call, tmp_path, command, pair):
        project = write_project(tmp_path / "p")
        files = suite_files(project)
        rename_suite(files[pair[1]], suite_name(files[pair[0]]))
        code, _, stderr, _ = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_DIAGNOSTICS and "E106: duplicate test suite name" in stderr

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_java"))
    @pytest.mark.parametrize("where", (0, -1))
    def test_an_orphan_suite_in_either_half(self, call, tmp_path, command, where):
        project = write_project(tmp_path / "p")
        path = suite_files(project)[where]
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r" for \w+", " for Nowhere", text, count=1), encoding="utf-8")
        code, _, stderr, _ = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_USAGE and "no ViewModel description named 'Nowhere'" in stderr

    @pytest.mark.parametrize("command", ("gen_java", "gen_cpp"))
    @pytest.mark.parametrize("where", ("a", "z", None), ids=("first_half", "second_half", "none"))
    def test_a_generation_diagnostic_in_either_half(self, call, tmp_path, command, where):
        """A name-map diagnostic, which only gen finds: in this process's
        half, in the worker's, or in the pass over the descriptions no suite
        targets."""
        project = write_project(tmp_path / "p")
        (project / "keyword.vmdsl").write_text(VMDSL_PATH.read_text().replace(
            "LoadView(tasks: context)", "LoadView(class: context)"))
        if where is not None:
            shutil.copy(VMTEST_PATH, project / f"{where}.vmtest")
        code, _, stderr, tree = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_DIAGNOSTICS and "E001: parameter 'class'" in stderr
        assert tree is None

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_java"))
    @pytest.mark.parametrize("kind", ("parse", "validation"))
    @pytest.mark.parametrize("where", (0, -1), ids=("first_half", "second_half"))
    def test_a_description_diagnostic_in_either_half(self, call, tmp_path, command, kind,
                                                     where):
        """Each process parses and validates its half of the descriptions,
        so the call forks, finds the diagnostic and reruns."""
        project = write_project(tmp_path / "p")
        assert 0 < desc_cut(project) < len(desc_files(project))
        path = desc_files(project)[where]
        text = path.read_text(encoding="utf-8")
        if kind == "parse":
            text += "\nviewmodel {\n"
        else:
            text = text.replace("widgets {", "widgets {\n    button Twice\n    button Twice", 1)
        path.write_text(text, encoding="utf-8")
        code, _, stderr, tree = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_DIAGNOSTICS and tree is None
        assert (": E001: " if kind == "parse" else "E106: duplicate widget name 'Twice'") in stderr

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_java"))
    @pytest.mark.parametrize("pair", ((0, -1), (0, 1), (-2, -1)),
                             ids=("across", "first_half", "second_half"))
    def test_a_duplicate_view_model_name(self, call, tmp_path, command, pair):
        """Where neither process parses the other's descriptions, a name in
        both halves is found from the worker's list of its names."""
        project = write_project(tmp_path / "p")
        arrange(project)
        files = desc_files(project)
        assert desc_cut(project) == 2
        rename_view_model(files[pair[1]], view_model_name(files[pair[0]]))
        code, _, stderr, _ = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_DIAGNOSTICS and "E106: duplicate ViewModel name" in stderr

    @pytest.mark.parametrize("command", ("check", "gen_cpp"))
    def test_unreadable_files_in_both_halves(self, call, tmp_path, command):
        """A description the worker cannot read and a suite file this
        process cannot read: the serial call reads descriptions first, so
        its error names the description, and so does the split call's."""
        project = write_project(tmp_path / "p")
        (project / "zz.vmdsl").mkdir()
        (project / "a.vmtest").mkdir()
        assert desc_cut(project) < len(desc_files(project))
        code, _, stderr, _ = assert_command_same(call, tmp_path, command, project)
        assert code == cli.EXIT_USAGE and stderr == f"error: cannot read {project / 'zz.vmdsl'}: " \
                                                   "Is a directory\n"

    def test_a_generated_file_clash_across_the_halves(self, call, tmp_path):
        """Two ViewModels bound to one C++ fileName, one suite each: the E106
        of the second unit's file, found while merging, is the serial one."""
        project = clashing_project(tmp_path / "p")
        code, _, stderr, tree = assert_command_same(call, tmp_path, "gen_cpp", project)
        assert code == cli.EXIT_DIAGNOSTICS and "E106: generated file 'shared.hpp'" in stderr
        assert tree is None

    def test_a_generated_file_clash_with_a_description_alone(self, call, tmp_path):
        """The same clash where A has no suite: the split call generates A's
        unit last, the serial call first, so the E106 is found on B's."""
        project = tmp_path / "p"
        project.mkdir()
        shared = 'bind { fileName = "shared" }'
        for vm, button, bind in (("A", "X", shared), ("B", "Y", shared), ("C", "Z", "")):
            (project / f"{vm}.vmdsl").write_text(
                f'viewmodel {vm} {bind} {{ widgets {{ button {button} }} commands {{ }} }}',
                encoding="utf-8")
            if vm != "A":
                (project / f"{vm.lower()}.vmtest").write_text(
                    f'testsuite {vm}Tests for {vm} {{ scenario "s" {{ given {{ }} when {{ }} '
                    f'then {{ }} }} }}', encoding="utf-8")
        code, _, stderr, tree = assert_command_same(call, tmp_path, "gen_cpp", project)
        assert code == cli.EXIT_DIAGNOSTICS and tree is None
        assert "E106: generated file 'shared.hpp' of suite 'BTests' differs from the one " \
               "of ViewModel 'A'" in stderr

    @pytest.mark.parametrize("force", (False, True))
    def test_gen_over_existing_files(self, call, tmp_path, force):
        project = write_project(tmp_path / "p")
        config = tmp_path / "java.json"
        config.write_text('{"target": "java"}')
        out = tmp_path / "out"

        def existing(out):
            (out / "Vm1.java").parent.mkdir(parents=True)
            (out / "Vm1.java").write_text("old")
            (out / "Suite02Test.java").write_text("old")

        code, _, stderr, tree = assert_same(
            call, "gen", project, "--config", config, "--out", out,
            *(["--force"] if force else []), out=out, before=existing)
        if force:
            assert code == 0 and tree["Vm1.java"] != b"old"
        else:
            assert code == cli.EXIT_USAGE and "refusing to overwrite" in stderr
            assert tree == {"Vm1.java": b"old", "Suite02Test.java": b"old"}


class TestTheRerun:
    """The rerun reuses this process's parses of its description files and
    parses only the rest: each description file once here. Suite files are
    parsed again, since no process keeps a suite's AST past its work; but a
    half halts at its first diagnostic, so this process parses only the
    suite files of its half up to that one before the rerun."""

    @staticmethod
    def parsed_here(call, monkeypatch, *argv):
        parsed = []
        for name in ("parse_view_model", "parse_test_suite"):
            def counting(data, file, real=getattr(cli, name)):
                parsed.append(file)
                return real(data, file)

            monkeypatch.setattr(cli, name, counting)
        code, _, stderr, forks = call(2, *argv)
        assert code == cli.EXIT_DIAGNOSTICS and forks == 1
        return stderr, sorted(parsed)

    @staticmethod
    def assert_parsed_once(call, monkeypatch, project, path, before):
        """Break ``path``; this process parses ``before`` of its suite files
        before the rerun parses them all."""
        path.write_text(path.read_text(encoding="utf-8") + "\n}\n", encoding="utf-8")
        stderr, parsed = TestTheRerun.parsed_here(call, monkeypatch, "check", project)
        assert ": E001: " in stderr
        suites = suite_files(project)
        assert parsed == sorted(map(str, desc_files(project) + suites + suites[:before]))

    @pytest.mark.parametrize("where", (0, -1))
    def test_parses_this_halfs_suite_files_again(self, call, tmp_path, monkeypatch, where):
        """A broken first suite file halts this process's half at once; the
        last is the worker's, so this process parses its whole half."""
        project = write_project(tmp_path / "p")
        suites = suite_files(project)
        before = 1 if where == 0 else cli._cut(suites)
        self.assert_parsed_once(call, monkeypatch, project, suites[where], before)

    @pytest.mark.parametrize("where", (0, -1))
    def test_parses_each_description_file_once_here(self, call, tmp_path, monkeypatch, where):
        """A broken first description halts this process's half before any
        suite file. The last, which no suite targets, is the worker's: this
        process parses it, and halts, with its first suite file whose target
        is among the worker's descriptions (``sKD`` targets ``VmD``)."""
        project = write_project(tmp_path / "p")
        descs, suites = desc_files(project), suite_files(project)
        mid = cli._middle(cli._ends(descs), 0)
        before = 0 if where == 0 else 1 + next(
            k for k, path in enumerate(suites) if int(path.stem[2]) >= mid)
        assert before <= cli._cut(suites)
        self.assert_parsed_once(call, monkeypatch, project, descs[where], before)

    def test_a_clash_found_while_merging(self, call, tmp_path, monkeypatch):
        """The E106 of a generated file, found after the worker's units are
        written, reruns with this process's description parses kept."""
        project = clashing_project(tmp_path / "p")
        (_, *options), _ = commands(tmp_path)["gen_cpp"]
        stderr, parsed = self.parsed_here(call, monkeypatch, "gen", project, *options)
        assert "E106: generated file 'shared.hpp'" in stderr
        assert parsed == sorted(map(str, [project / "A.vmdsl", project / "B.vmdsl",
                                          project / "a.vmtest", project / "a.vmtest",
                                          project / "b.vmtest"]))


class TestInterleaved:
    """gen takes its units in suite file order, then the descriptions no
    suite targets, but prints, writes and exits as when it took them
    description by description, split or serial: with the outcomes
    recorded here, of a project whose suite files alternate between
    descriptions (see ``interleaved_project``)."""

    # (clean, command) -> exit code, digest of stdout (durations removed),
    # stderr, digest of the output tree; "T" for the test's directory.
    RECORDED = {
        (False, "check"): (0, "e3b0c44298fc1c14", "", None),
        (False, "run_json"): (0, "c9ebaa1f13d71211", "", None),
        (False, "gen_java"): (2, "e3b0c44298fc1c14", (
            "T/p/alone.vmdsl:2:24: E106: fileName 'shared' differs from the type name "
            "'Alone', but javac needs a public class in the file named after it\n"
            "T/p/bvm.vmdsl:2:22: E106: fileName 'shared' differs from the type name "
            "'Bvm', but javac needs a public class in the file named after it\n"
            "T/p/cvm.vmdsl:21:5: E001: parameter 'class' of command 'LoadView' is a java "
            "keyword\n"), None),
        (False, "gen_cpp"): (2, "e3b0c44298fc1c14", (
            "T/p/s1.vmtest:2:1: E106: generated file 'shared.hpp' of suite 'Suite1' "
            "differs from the one of ViewModel 'Alone' at T/p/alone.vmdsl:2:1\n"
            "T/p/s1.vmtest:2:1: E106: generated file 'shared_controller.hpp' of suite "
            "'Suite1' differs from the one of ViewModel 'Alone' at T/p/alone.vmdsl:2:1\n"
            "T/p/s3.vmtest:2:1: E106: generated file 'shared.hpp' of suite 'Suite3' "
            "differs from the one of ViewModel 'Alone' at T/p/alone.vmdsl:2:1\n"
            "T/p/s3.vmtest:2:1: E106: generated file 'shared_controller.hpp' of suite "
            "'Suite3' differs from the one of ViewModel 'Alone' at T/p/alone.vmdsl:2:1\n"
            "T/p/cvm.vmdsl:21:5: E001: parameter 'class' of command 'LoadView' is a cpp "
            "keyword\n"), None),
        (True, "check"): (0, "e3b0c44298fc1c14", "", None),
        (True, "run_json"): (0, "c9ebaa1f13d71211", "", None),
        (True, "gen_java"): (0, "8dc57c07b645f788", "", "aa6c8efd0927392a"),
        (True, "gen_cpp"): (0, "e8cfbaf8970146df", "", "8411159393d585e7"),
    }

    @pytest.mark.parametrize("command", ("check", "run_json", "gen_java", "gen_cpp"))
    @pytest.mark.parametrize("clean", (False, True), ids=("clashes", "clean"))
    def test_the_recorded_outcome(self, call, tmp_path, command, clean):
        project = interleaved_project(tmp_path / "p", clean)
        code, stdout, stderr, tree = assert_command_same(call, tmp_path, command, project)

        def digest(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

        assert (code, digest(stdout.replace(str(tmp_path), "T")),
                stderr.replace(str(tmp_path), "T"),
                tree and hashlib.sha256(repr(tree).encode()).hexdigest()[:16]) == self.RECORDED[clean, command]


class TestGenUnits:
    @pytest.mark.parametrize("command", ("gen_java", "gen_cpp"))
    def test_each_unit_is_generated_once(self, call, tmp_path, monkeypatch, command):
        """Each suite's unit and the suite-less Vm3's are lowered once over
        both processes, though Vm0's suites are all in this process's half
        and Vm2's all in the worker's."""
        from vimotest import ir

        project = write_project(tmp_path / "p", seed=3333)
        for path in suite_files(project):  # s<k><d> to t<d><k>: suites by description
            path.rename(project / f"t{path.stem[2]}{path.stem[1]}.vmtest")
        log = tmp_path / "units.log"
        real = ir.lower_to_ir

        def logging(desc, suite, *args):
            with open(log, "a", encoding="utf-8") as file:
                file.write(f"{os.getpid()} {desc.name} {suite and suite.suite.name}\n")
            return real(desc, suite, *args)

        monkeypatch.setattr(ir, "lower_to_ir", logging)
        (name, *options), out = commands(tmp_path)[command]
        code, _, _, forks = call(2, name, project, *options)
        assert code == 0 and forks == 1
        pids, units = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
        assert len(set(pids)) == 2
        assert sorted(units) == sorted([f"Vm{d} Suite{k}{d}" for d in range(3) for k in range(3)]
                                       + ["Vm3 None"])
        # Vm3, which no suite targets, is in the worker's half of the
        # descriptions, but this process generates it after the merge.
        assert desc_cut(project) < 4 and pids[-1] == str(os.getpid()) and units[-1] == "Vm3 None"
        files = suite_files(project)
        cut = cli._cut(files)
        assert "2" not in {suite_name(p)[-1] for p in files[:cut]}
        assert "0" not in {suite_name(p)[-1] for p in files[cut:]}


class TestSuiteOption:
    @pytest.mark.parametrize("where", (0, -1, None), ids=("first_half", "second_half", "none"))
    def test_run_one_suite(self, call, tmp_path, where):
        project = write_project(tmp_path / "p")
        name = "Missing" if where is None else suite_name(suite_files(project)[where])
        code, stdout, stderr, _ = assert_same(
            call, "run", project, "--setup", "taskmanager", "--format", "json", "--suite", name)
        if where is None:
            assert code == cli.EXIT_USAGE and "no suite named 'Missing'" in stderr
        else:
            assert re.findall(r'"name": "(\w+)"', stdout) == [name]


class TestHumanReport:
    """The human report prints the records of the JSON report: each
    scenario's status and description, its error where set, then each
    failure's label, expected and actual value."""

    STATUS = {"passed": "PASS", "failed": "FAIL", "error": "ERROR"}

    @staticmethod
    def project(root):
        """The shipped corpus, plus a copy of its suite with two scenarios:
        one whose expected table has two wrong cells, and one that selects
        a row before any load."""
        shutil.copytree(CORPUS, root)
        head, then = VMTEST_PATH.read_text(encoding="utf-8").split("    then {", 1)
        then = then.replace("| Exercise  |", "| Exercize  |").replace("| Taxes     |",
                                                                      "| Taxis     |")
        text = (head + "    then {" + then).rstrip()[:-1].replace(
            "testsuite TaskListTests ", "testsuite TaskListTestsCopy ")
        text += ('  scenario "Select before load" {\n    given {\n    }\n'
                 "    when {\n      selectRow Tasks 9\n    }\n    then {\n    }\n  }\n}\n")
        (root / "task_list_tests_2.vmtest").write_text(text, encoding="utf-8")
        return root

    @pytest.mark.parametrize("cpus", (1, 2), ids=("serial", "split"))
    def test_is_the_json_records_line_for_line(self, call, tmp_path, cpus):
        project = self.project(tmp_path / "p")
        code, human, stderr, forks = call(cpus, "run", project, "--setup", "taskmanager")
        assert (code, stderr, forks) == (1, "", cpus - 1)
        _, out, _, _ = call(cpus, "run", project, "--setup", "taskmanager", "--format", "json")
        lines = []
        scenarios = [scenario for suite in json.loads(out)["suites"]
                     for scenario in suite["scenarios"]]
        for scenario in scenarios:
            lines.append(f"{self.STATUS[scenario['status']]} {scenario['description']}")
            if scenario["error"] is not None:
                lines.append(f"  error: {scenario['error']}")
            lines += [f"  {failure['label']}: expected {failure['expected']!r}, "
                      f"actual {failure['actual']!r}" for failure in scenario["failures"]]
        assert human.splitlines() == lines
        assert [(s["status"], len(s["failures"])) for s in scenarios] == [
            ("passed", 0), ("failed", 2), ("error", 0)]


def in_worker(monkeypatch, module, name, action):
    """Make ``module.name`` call ``action`` first when it runs in a worker."""
    parent = os.getpid()
    real = getattr(module, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def fail():
    raise RuntimeError("worker failure")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerFailure:
    """A worker that raises or dies, before or during its half's work, is
    reaped and the call reruns serially."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("action", (fail, killed))
    def test_failure_while_linking(self, call, tmp_path, monkeypatch, command, action):
        project = write_project(tmp_path / "p")
        in_worker(monkeypatch, cli.Linker, "link", action)
        assert_command_same(call, tmp_path, command, project)

    def test_failure_while_running(self, call, tmp_path, monkeypatch):
        project = write_project(tmp_path / "p")
        in_worker(monkeypatch, runtime, "run_suite", fail)
        assert_command_same(call, tmp_path, "run_json", project)

    @pytest.mark.parametrize("command", ("gen_java", "gen_cpp"))
    def test_failure_while_generating(self, call, tmp_path, monkeypatch, command):
        project = write_project(tmp_path / "p")
        in_worker(monkeypatch, cli, "compute_name_map", fail)
        code, _, _, _ = assert_command_same(call, tmp_path, command, project)
        assert code == 0

    def test_interrupt_leaves_no_process(self, call, tmp_path, monkeypatch):
        """A KeyboardInterrupt in this process's half stops the worker too."""
        project = write_project(tmp_path / "p")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runtime, "run_suite", interrupted)
        with pytest.raises(KeyboardInterrupt):
            call(2, "run", project, "--setup", "taskmanager")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestWhenItSplits:
    def test_split_point_halves_the_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "SPLIT_MIN_BYTES", 150_000)
        paths = []
        for k, size in enumerate((10, 10, 10, 70_000, 60_000, 10, 70_000)):
            path = tmp_path / f"s{k}.vmtest"
            path.write_bytes(b"x" * size)
            paths.append(path)
        assert cli._cut(paths) == 4
        assert cli._cut(paths[:1]) == 0  # one file
        assert cli._cut(paths[:3]) == 0  # below SPLIT_MIN_BYTES
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert cli._cut(paths) == 0

    def test_small_inputs_never_fork(self, call, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SPLIT_MIN_BYTES", SPLIT_MIN_BYTES)
        project = write_project(tmp_path / "p")
        assert call(2, "check", project)[3] == 0
        assert call(2, "check", CORPUS)[3] == 0

    def test_one_suite_file_never_forks(self, call, tmp_path):
        project = tmp_path / "p"
        shutil.copytree(CORPUS, project)
        assert call(2, "check", project)[3] == 0

    def test_a_second_thread_keeps_the_call_serial(self, call, tmp_path):
        import threading

        project = write_project(tmp_path / "p")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert call(2, "check", project)[3] == 0
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert call(2, "check", project)[3] == 1


# Runs `python -m vimotest ARGS...` through the real entry point, with no
# size floor and two usable CPUs, and logs the pid of each worker it forks to
# the file named first.
SPLIT_LAUNCH = """
import os, runpy, sys
from vimotest import cli
log = sys.argv.pop(1)
fork = os.fork

def logged_fork():
    pid = fork()
    if pid:
        with open(log, "a") as file:
            file.write(f"{pid}\\n")
    return pid

os.fork = logged_fork
cli.SPLIT_MIN_BYTES = 0
cli._usable_cpus = lambda: 2
runpy.run_module("vimotest", run_name="__main__", alter_sys=True)
"""


def launch(tmp_path, *argv, stdout=subprocess.PIPE):
    """Make a split call in a child process; returns the completed process
    and the number of workers it forked."""
    log = tmp_path / "forks.log"
    log.unlink(missing_ok=True)
    result = subprocess.run([sys.executable, "-c", SPLIT_LAUNCH, log, *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=child_env())
    return result, len(log.read_text().splitlines()) if log.exists() else 0


def many_scenarios(root, action="click AddNewTask", copies=80):
    """The shipped description and two suite files of ``copies`` copies of
    its scenario each, with ``action`` for the scenario's click."""
    root.mkdir()
    shutil.copy(VMDSL_PATH, root)
    text = VMTEST_PATH.read_text(encoding="utf-8").replace("click AddNewTask", action)
    scenario = re.search(r"^  scenario .*?^  }\n", text, re.M | re.S).group(0)
    for k in range(2):
        (root / f"s{k}.vmtest").write_text(
            f"testsuite Suite{k} for TaskListViewModel {{\n"
            + "".join(scenario.replace("Add New", f"Add New {j}")
                      .replace("sampleTasks", f"sampleTasks{j}") for j in range(copies))
            + "}\n", encoding="utf-8")
    return root


class TestNothingLostAtExit:
    """The entry point ends the process with os._exit once its output is
    flushed, so everything a split call prints arrives whole."""

    def test_a_large_json_report_through_a_pipe_and_a_file(self, tmp_path, capsys):
        project = many_scenarios(tmp_path / "p")
        argv = ("run", project, "--setup", "taskmanager-buggy", "--format", "json")
        assert cli.main([str(arg) for arg in argv]) == cli.EXIT_FAILURES
        expected = DURATIONS.sub("", capsys.readouterr().out)
        assert len(expected) > 64 * 1024
        piped, forks = launch(tmp_path, *argv)
        assert (piped.returncode, piped.stderr, forks) == (cli.EXIT_FAILURES, b"", 1)
        with open(tmp_path / "report.json", "wb") as file:
            written, forks = launch(tmp_path, *argv, stdout=file)
        assert (written.returncode, written.stderr, forks) == (cli.EXIT_FAILURES, b"", 1)
        for report in (piped.stdout, (tmp_path / "report.json").read_bytes()):
            assert json.loads(report)["totals"] == {"passed": 0, "failed": 160, "errored": 0}
            assert DURATIONS.sub("", report.decode("utf-8")) == expected

    def test_a_large_diagnostic_list_in_order(self, tmp_path, capsys):
        project = many_scenarios(tmp_path / "p", "\n      ".join(["click Ghost"] * 10))
        assert cli.main(["check", str(project)]) == cli.EXIT_DIAGNOSTICS
        expected = capsys.readouterr().err
        assert len(expected) > 64 * 1024 and expected.count(": E101: ") == 1600
        result, forks = launch(tmp_path, "check", project)
        assert (result.returncode, result.stdout, forks) == (cli.EXIT_DIAGNOSTICS, b"", 1)
        assert result.stderr.decode("utf-8") == expected

    def test_the_path_list_of_gen(self, tmp_path):
        project = many_scenarios(tmp_path / "p")
        out = tmp_path / "out"
        result, forks = launch(tmp_path, "gen", project, "--config",
                               GOLDENS / "java_options" / "genconfig.json", "--out", out)
        assert (result.returncode, result.stderr, forks) == (0, b"", 1)
        written = sorted(str(path) for path in out.rglob("*") if path.is_file())
        assert len(written) > 2 and result.stdout.decode("utf-8").splitlines() == written


class TestOutputPaths:
    """gen writes no file outside its output directory."""

    @pytest.mark.parametrize("rel", ("../escaped/X.java", "a/../../X.java", "ABS"))
    def test_a_path_outside_is_a_write_error(self, tmp_path, rel):
        out = tmp_path / "out"
        if rel == "ABS":
            rel = str(tmp_path / "abs" / "X.java")
        output = cli._Output(out, force=False)
        try:
            output.write(rel, "text", (), ("suite 'S'", None))
            with pytest.raises(cli._UsageError, match="is not below"):
                output.commit()
        finally:
            output.discard()
        assert sorted(p.name for p in tmp_path.iterdir()) == []
