"""Calls whose suite files are split across two processes print, write and
exit exactly as the serial path does, and leave no process behind.

Each test makes the same call twice: once with one usable CPU, which keeps
it serial, and once with two and no size floor, which splits every call of
two or more suite files. The first suite file is always in this process's
half and the last always in the worker's.
"""

import os
import random
import re
import shutil
import signal

import pytest

from astgen import random_description, random_suite
from conftest import CORPUS, GOLDENS, VMDSL_PATH, VMTEST_PATH
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
        desc = renamed(desc, name=f"Vm{d}", bindings=tuple(
            b for b in desc.bindings if b.subject != "fileName"))
        (root / f"d{d}.vmdsl").write_text(pretty_print(desc), encoding="utf-8")
        for k in range(suites_each if d < descriptions else 0):
            suite = renamed(random_suite(rng, desc), name=f"Suite{k}{d}")
            (root / f"s{k}{d}.vmtest").write_text(pretty_print(suite), encoding="utf-8")
    return root


def suite_files(root):
    return sorted(root.glob("*.vmtest"))


def rename_suite(path, name):
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"testsuite \w+", f"testsuite {name}", text, count=1),
                    encoding="utf-8")


def suite_name(path):
    return re.search(r"testsuite (\w+)", path.read_text(encoding="utf-8")).group(1)


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

    def test_a_description_diagnostic_never_forks(self, call, tmp_path):
        project = write_project(tmp_path / "p")
        (project / "bad.vmdsl").write_text("viewmodel {", encoding="utf-8")
        code, _, _, _ = assert_command_same(call, tmp_path, "check", project, forks=0)
        assert code == cli.EXIT_DIAGNOSTICS

    def test_a_generated_file_clash_across_the_halves(self, call, tmp_path):
        """Two ViewModels bound to one C++ fileName, one suite each: the E106
        of the second unit's file, found while merging, is the serial one."""
        project = tmp_path / "p"
        project.mkdir()
        for vm, button in (("A", "X"), ("B", "Y")):
            (project / f"{vm}.vmdsl").write_text(
                f'viewmodel {vm} bind {{ fileName = "shared" }} '
                f'{{ widgets {{ button {button} }} commands {{ }} }}', encoding="utf-8")
            (project / f"{vm.lower()}.vmtest").write_text(
                f'testsuite {vm}Tests for {vm} {{ scenario "s" {{ given {{ }} when {{ }} '
                f'then {{ }} }} }}', encoding="utf-8")
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
    @pytest.mark.parametrize("where", (0, -1))
    def test_parses_each_suite_file_once_here(self, call, tmp_path, monkeypatch, where):
        """The rerun reuses this process's parses of its half and parses
        only the worker's half."""
        project = write_project(tmp_path / "p")
        path = suite_files(project)[where]
        path.write_text(path.read_text(encoding="utf-8") + "\nscenario }\n", encoding="utf-8")
        parsed = []
        real = cli.parse_test_suite

        def counting(data, file):
            parsed.append(file)
            return real(data, file)

        monkeypatch.setattr(cli, "parse_test_suite", counting)
        code, _, stderr, forks = call(2, "check", project)
        assert code == cli.EXIT_DIAGNOSTICS and ": E001: " in stderr and forks == 1
        assert sorted(parsed) == [str(path) for path in suite_files(project)]


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
        in_worker(monkeypatch, cli, "link", action)
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


class TestOutputPaths:
    """gen writes no file outside its output directory."""

    @pytest.mark.parametrize("rel", ("../escaped/X.java", "a/../../X.java", "ABS"))
    def test_a_path_outside_is_a_write_error(self, tmp_path, rel):
        out = tmp_path / "out"
        if rel == "ABS":
            rel = str(tmp_path / "abs" / "X.java")
        output = cli._Output(out, force=False)
        try:
            assert output.write(rel, "text", ("suite 'S'", None)) is None
            with pytest.raises(cli._UsageError, match="is not below"):
                output.commit()
        finally:
            output.discard()
        assert sorted(p.name for p in tmp_path.iterdir()) == []
