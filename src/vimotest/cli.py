"""Batch command-line front-end: check sources, run suites, generate code.

Exit codes: 0 success (all scenarios passed for ``run``), 1 scenario
failures or errors, 2 diagnostics from parsing or analysis, 3 usage or
configuration errors. Diagnostics go to stderr; reports go to stdout so the
JSON output stays machine-consumable.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from . import __version__
from .analyzer import Project, compute_name_map, link
from .diagnostics import E_DUPLICATE_NAME, Diagnostic, error
from .model import check_label
from .parser import parse_test_suite, parse_view_model

# Only the front end above is imported with this module. Each subcommand
# imports the rest of what it uses, so `check` loads no runtime, IR or
# emitter, `run` no IR or emitter, and `gen` only its target's emitter.

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_DIAGNOSTICS = 2
EXIT_USAGE = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vimotest",
        description="Check, run, and generate code from ViewModel test DSL files.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_LazyEpilogParser)

    check = sub.add_parser("check", help="parse and analyze DSL files")
    check.add_argument("paths", nargs="+")

    run = sub.add_parser(
        "run", help="execute test suites in-process",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=_setup_list)
    run.add_argument("paths", nargs="+")
    run.add_argument("--suite", help="run only the suite with this name")
    run.add_argument("--setup", required=True,
                     help="registered logic/setup id (listed below)")
    run.add_argument("--format", choices=("human", "json"), default="human")

    gen = sub.add_parser("gen", help="generate target sources")
    gen.add_argument("paths", nargs="+")
    gen.add_argument("--config", required=True, help="path to genconfig.json")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--force", action="store_true",
                     help="overwrite existing output files")
    return parser


class _LazyEpilogParser(argparse.ArgumentParser):
    """A parser whose epilog may be a function, called when help is printed."""

    def format_help(self) -> str:
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


def _setup_list() -> str:
    from .taskmanager import REGISTRY

    width = max(map(len, REGISTRY)) + 2
    return "registered setup ids:\n" + "\n".join(
        f"  {name:<{width}}{REGISTRY[name].summary}" for name in sorted(REGISTRY))


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _collect_files(paths: list[str]) -> tuple[list[Path], list[Path]]:
    descriptions: list[Path] = []
    suites: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            descriptions.extend(sorted(path.rglob("*.vmdsl")))
            suites.extend(sorted(path.rglob("*.vmtest")))
        elif path.is_file():
            if path.suffix == ".vmdsl":
                descriptions.append(path)
            elif path.suffix == ".vmtest":
                suites.append(path)
            else:
                raise _UsageError(f"unsupported file type: {path}")
        else:
            raise _UsageError(f"no such file or directory: {path}")
    # A file named twice, say by a directory and by itself, is read once.
    return list(dict.fromkeys(descriptions)), list(dict.fromkeys(suites))


def _parse_each(parse, files: list[Path], diags: list[Diagnostic], parses: dict) -> list:
    """Parse each file, or take its (AST, diagnostics) from ``parses``,
    which keeps each parse made here."""
    asts = []
    for path in files:
        parsed = parses.get(path)
        if parsed is None:
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
            parsed = parses[path] = parse(data, str(path))
        ast, d = parsed
        diags.extend(d)
        if ast is not None:
            asts.append(ast)
    return asts


class _Sources:
    """The input files of one call: its descriptions, parsed once, and its
    suite files, which ``load`` parses and links."""

    def __init__(self, paths: list[str]) -> None:
        desc_paths, self.suite_paths = _collect_files(paths)
        self.diags: list[Diagnostic] = []
        self.descriptions = _parse_each(parse_view_model, desc_paths, self.diags, {})

    def load(self, suite_paths: list[Path], diags: list[Diagnostic], parses: dict) -> Project:
        """Parse ``suite_paths`` (see ``_parse_each``), then link them against
        every description, adding each diagnostic to ``diags``."""
        diags.extend(self.diags)
        project, d = link(self.descriptions,
                          _parse_each(parse_test_suite, suite_paths, diags, parses))
        diags.extend(d)
        return project


def _each_suite(sources: _Sources, work, take, diags: list[Diagnostic], restart) -> None:
    """Parse and link the call's suite files and, if that finds no
    diagnostic, call ``work(project, put)``, which puts picklable results in
    suite order. ``take`` gets each result. ``work`` and ``take`` add what
    they find wrong to ``diags``, the one list of the call's diagnostics.

    A large enough call runs in two processes (see ``_in_two``). Where that
    finds anything wrong, ``restart()`` undoes what ``take`` got, and the
    call runs again in this process, reusing the parses made here: the one
    path whose error output is the reference.
    """
    parses: dict = {}
    cut = 0 if sources.diags else _cut(sources.suite_paths)
    if cut:
        if _in_two(sources, cut, work, take, diags, parses):
            return
        restart()
        diags.clear()
    project = sources.load(sources.suite_paths, diags, parses)
    del sources, parses  # a long work, such as gen, needs no path or parse
    if project.orphans and not diags:
        raise _UsageError("; ".join(
            f"{suite.span.file}: no ViewModel description named "
            f"'{suite.target_view_model}' for suite '{suite.name}'"
            for suite in project.orphans))
    if not diags:
        work(project, take)


def _print_diags(diags: list[Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


# ---------------------------------------------------------------------------
# Two processes
# ---------------------------------------------------------------------------

# Less suite text than this stays in one process. A split call pays mostly
# in page faults: after the fork, each process's first write to a page of
# the heap they share faults, in this process until it exits. `check`, the
# command with the least work per suite, earns that back at about 150 KB of
# suite text (measured in CHANGES.md); this is twice that.
SPLIT_MIN_BYTES = 300_000


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _cut(paths: list[Path]) -> int:
    """The number of suite files, from the first, that hold about half the
    suite bytes; 0 to keep the call in one process."""
    import threading

    if (len(paths) < 2 or not hasattr(os, "fork") or _usable_cpus() < 2
            or threading.active_count() > 1):
        return 0
    try:
        ends = list(itertools.accumulate(path.stat().st_size for path in paths))
    except OSError:  # the serial path reports it
        return 0
    if ends[-1] < SPLIT_MIN_BYTES:
        return 0
    return min(range(1, len(paths)), key=lambda k: abs(2 * ends[k - 1] - ends[-1]))


def _half(sources: _Sources, paths: list[Path], diags: list[Diagnostic], parses: dict):
    """The project of one half's suite files, holding only the descriptions
    they target; None on a diagnostic or an orphan."""
    project = sources.load(paths, diags, parses)
    if diags or project.orphans:
        return None
    targets = {linked.description.name for linked in project.suites}
    return Project(tuple(d for d in project.descriptions if d.name in targets),
                   project.suites)


def _in_two(sources: _Sources, cut: int, work, take, diags: list[Diagnostic],
            parses: dict) -> bool:
    """Do ``_each_suite``'s work in two processes.

    This process parses and links the first ``cut`` suite files against
    every description, a forked worker the rest. Each calls ``work`` on its
    half; the worker's ``put`` pickles to an unlinked file, from which
    ``take`` gets the worker's results once this process's are done. Last,
    this process calls ``work`` on the descriptions no suite targets.
    Returns True when done. Returns False, with the worker reaped, where the
    call stays in one process or must run again there: on a diagnostic or
    orphan in either half, a suite name in both halves or a failed worker.
    The worker exits non-zero when its ``diags`` are not empty.
    """
    import pickle
    import tempfile

    try:
        spool = tempfile.TemporaryFile()
    except OSError:
        return False
    with spool:
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            code = 1
            try:  # never print, never return: this is the worker
                project = _half(sources, sources.suite_paths[cut:], diags, parses)
                if project is not None:
                    pickle.dump(([linked.suite.name for linked in project.suites],
                                 [desc.name for desc in project.descriptions]), spool)
                    work(project, lambda result: pickle.dump(result, spool))
                    spool.flush()
                    code = 1 if diags else 0
            finally:
                os._exit(code)
        try:
            project = _half(sources, sources.suite_paths[:cut], diags, parses)
            if project is None:
                return False
            names = {linked.suite.name for linked in project.suites}
            targets = {desc.name for desc in project.descriptions}
            work(project, take)
            del project  # the worker's results need the room
            if diags:
                return False
            _, status = os.waitpid(pid, 0)
            pid = 0
            if status:
                return False
            end = spool.seek(0, os.SEEK_END)
            spool.seek(0)
            worker_names, worker_targets = pickle.load(spool)
            if not names.isdisjoint(worker_names):
                return False
            parses.clear()  # kept for a rerun only
            while spool.tell() < end:
                take(pickle.load(spool))
                if diags:
                    return False
            targets.update(worker_targets)
            work(Project(tuple(d for d in sources.descriptions if d.name not in targets)), take)
            return not diags
        finally:
            if pid:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    diags: list[Diagnostic] = []
    _each_suite(_Sources(args.paths), lambda project, put: None, None, diags, lambda: None)
    _print_diags(diags)
    return EXIT_DIAGNOSTICS if diags else EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _styled(text: str, code: str) -> str:
    if os.environ.get("VIMOTEST_COLOR") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


_STATUS_STYLE = {"passed": ("PASS", "32"), "failed": ("FAIL", "31"),
                 "error": ("ERROR", "31")}


def _cmd_run(args) -> int:
    import json

    from .runtime import RunConfig, run_suite
    from .taskmanager import REGISTRY

    registration = REGISTRY.get(args.setup)
    if registration is None:
        raise _UsageError(
            f"unknown setup id '{args.setup}'; registered: "
            f"{', '.join(sorted(REGISTRY))}")

    def run_each(project: Project, put) -> None:
        for suite in project.suites:
            if args.suite is None or suite.suite.name == args.suite:
                put((suite.suite.name, run_suite(suite, registration.logic_factory,
                                                 registration.setup_factory, RunConfig())))

    report_suites: list = []
    diags: list[Diagnostic] = []
    _each_suite(_Sources(args.paths), run_each, report_suites.append, diags,
                report_suites.clear)
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS
    if args.suite is not None and not report_suites:
        raise _UsageError(f"no suite named '{args.suite}'")
    all_passed = all(r.status == "passed" for _, results in report_suites for r in results)
    if args.format == "json":
        print(json.dumps(_report_dict(report_suites), indent=2))
    else:
        _print_human(report_suites)
    return EXIT_OK if all_passed else EXIT_FAILURES


def _print_human(report_suites) -> None:
    for _suite_name, results in report_suites:
        for result in results:
            label, color = _STATUS_STYLE[result.status]
            print(f"{_styled(label, color)} {result.description}")
            if result.error is not None:
                print(f"  error: {result.error}")
            for failure in result.failures:
                print(f"  {_failure_label(failure)}: expected {failure.expected!r}, "
                      f"actual {failure.actual!r}")


def _failure_label(failure) -> str:
    return check_label(failure.widget, failure.feature, failure.aspect,
                       failure.row_index, failure.column_title)


def _failure_dict(failure) -> dict:
    return {
        "widget": failure.widget,
        "feature": failure.feature,
        "aspect": failure.aspect,
        "rowIndex": failure.row_index,
        "columnTitle": failure.column_title,
        "expected": failure.expected,
        "actual": failure.actual,
        "label": _failure_label(failure),
    }


def _scenario_dict(result) -> dict:
    return {
        "description": result.description,
        "status": result.status,
        "durationMillis": result.duration_millis,
        "durationMicros": result.duration_micros,
        "error": result.error,
        "failures": [_failure_dict(f) for f in result.failures],
    }


def _report_dict(report_suites) -> dict:
    totals = {"passed": 0, "failed": 0, "errored": 0}
    suites = []
    for suite_name, results in report_suites:
        for result in results:
            key = {"passed": "passed", "failed": "failed", "error": "errored"}
            totals[key[result.status]] += 1
        suites.append({
            "name": suite_name,
            "scenarios": [_scenario_dict(r) for r in results],
        })
    return {"toolVersion": __version__, "suites": suites, "totals": totals}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    from .genconfig import GenConfigError, load_genconfig

    try:
        config = load_genconfig(args.config)
    except GenConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.target == "java":
        from .java_emitter import emit_java as emit
    else:
        from .cpp_emitter import emit_cpp as emit
    out_dir = Path(args.out)
    output = _Output(out_dir, args.force)
    diags: list[Diagnostic] = []

    def restart() -> None:
        nonlocal output
        output.discard()
        output = _Output(out_dir, args.force)

    try:
        _each_suite(_Sources(args.paths),
                    lambda project, put: _gen_units(project, config, emit, diags, put),
                    lambda unit: _write_unit(output, unit, diags), diags, restart)
        _print_diags(diags)
        if diags:
            return EXIT_DIAGNOSTICS
        output.commit()
    finally:
        output.discard()
    for rel in sorted(output.first):
        print(str(output.out_dir / rel))
    return EXIT_OK


def _gen_units(project: Project, config, emit, diags: list[Diagnostic], put) -> None:
    """Put each generation unit of ``project`` as (owner, files):
    description by description, one per suite that targets it, in
    suite order, or one for the description alone if none does."""
    from .ir import lower_to_ir

    for desc in project.descriptions:
        name_map, d = compute_name_map(desc, config)
        diags.extend(d)
        if name_map is None:
            continue
        for suite in [s for s in project.suites if s.description is desc] or [None]:
            node = desc if suite is None else suite.suite
            owner = (f"{'ViewModel' if suite is None else 'suite'} '{node.name}'", node.span)
            put((owner, emit(lower_to_ir(desc, suite, name_map, config), name_map, config)))


def _write_unit(output: _Output, unit: tuple, diags: list[Diagnostic]) -> None:
    owner, files = unit
    for rel, text in files:
        first = output.write(rel, text, owner)
        if first is not None:
            diags.append(error(
                E_DUPLICATE_NAME, f"generated file '{rel}' of {owner[0]} "
                f"differs from the one of {first[0]} at {first[1]}", owner[1]))


class _Output:
    """The files of one ``gen`` call, written as they are generated.

    A new file is created exclusively, which also finds a clash with an
    existing one. With ``force``, an existing file is written to a temporary
    beside it, which ``commit`` renames over it. Until ``commit`` succeeds,
    ``discard`` removes every file, temporary and directory the call made,
    so on any error the output directory ends as it began. No text of a
    path generated once stays in memory. A path that is absolute or holds a
    ``..`` part is a write error, so nothing is written outside the
    directory.
    """

    def __init__(self, out_dir: Path, force: bool) -> None:
        self.out_dir = out_dir
        self.force = force
        self.first: dict[str, tuple] = {}  # relative path -> (first writer, its span)
        # Relative path -> its first text, for a path generated again (read
        # back once) or not written.
        self.texts: dict[str, str] = {}
        self.temps: dict[str, str] = {}  # relative path -> temporary beside its target
        self.made: list[tuple] = []  # (os.unlink or os.rmdir, path), in the order made
        self.dirs: set[Path] = set()  # directories known to exist
        self.clashes: list[str] = []
        self.errors: dict[str, str] = {}  # relative path -> write error

    def write(self, rel: str, text: str, owner: tuple) -> tuple | None:
        """Write ``rel``, or compare it with its first text if it was
        generated before. Returns the first owner if the texts differ."""
        first = self.first.get(rel)
        if first is None:
            self.first[rel] = owner
            if not self._create(rel, text):
                self.texts[rel] = text
            return None
        first_text = self.texts.get(rel)
        if first_text is None:
            path = self.temps.get(rel) or self.out_dir / rel
            with open(path, "rb") as file:
                first_text = self.texts[rel] = file.read().decode("utf-8")
        return None if first_text == text else first

    def _create(self, rel: str, text: str) -> bool:
        """Write a new file, or a temporary beside an existing one under
        ``force``; record a clash or write error and return False if not."""
        path = Path(rel)
        if path.is_absolute() or ".." in path.parts:
            self.errors[rel] = f"refusing to write {rel}: it is not below {self.out_dir}"
            return False
        target = self.out_dir / path
        try:
            self._make_dir(target.parent)
        except OSError as exc:
            self.errors[rel] = f"cannot write {exc.filename}: {exc.strerror}"
            return False
        data = text.encode("utf-8")
        try:
            try:
                file = open(target, "xb")
            except FileExistsError:
                if not self.force:
                    self.clashes.append(str(target))
                    return False
                self.temps[rel] = self._write_beside(target, data)
                return True
            self.made.append((os.unlink, str(target)))
            with file:
                file.write(data)
        except OSError as exc:
            self.errors[rel] = f"cannot write {target}: {exc.strerror}"
            return False
        return True

    def _write_beside(self, target: Path, data: bytes) -> str:
        """Write ``data`` to a new temporary beside the existing file
        ``target``, for ``commit`` to rename over it; return its path."""
        import errno
        import stat
        import tempfile

        mode = os.stat(target).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
        self.made.append((os.unlink, temp))
        with open(fd, "wb") as file:
            os.fchmod(fd, stat.S_IMODE(mode))  # keep the target's permissions
            file.write(data)
        return temp

    def _make_dir(self, path: Path, parents: bool = True) -> None:
        """``path.mkdir(parents=True, exist_ok=True)``, recording what it makes."""
        if path in self.dirs:
            return
        try:
            os.mkdir(path)
        except FileNotFoundError:
            if not parents or path.parent == path:
                raise
            self._make_dir(path.parent)
            self._make_dir(path, parents=False)
            return
        except OSError:
            if not path.is_dir():
                raise
        else:
            self.made.append((os.rmdir, path))
        self.dirs.add(path)

    def commit(self) -> None:
        """Report clashes, else write errors, else put the temporaries in place."""
        if self.clashes:
            raise _UsageError("refusing to overwrite existing files (use --force): "
                              + ", ".join(sorted(self.clashes)))
        if self.errors:
            raise _UsageError(self.errors[min(self.errors)])
        # Every file is written by now; only a rename could still fail, and
        # it cannot undo the renames before it.
        for rel, temp in self.temps.items():
            try:
                os.replace(temp, self.out_dir / rel)
            except OSError as exc:
                raise _UsageError(f"cannot write {self.out_dir / rel}: {exc.strerror}") from exc
        self.made.clear()

    def discard(self) -> None:
        """Remove what the call made, newest first, unless it was committed."""
        for remove, path in reversed(self.made):
            try:
                remove(path)
            except OSError:
                pass
