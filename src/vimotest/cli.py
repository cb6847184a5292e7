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
from typing import BinaryIO, Iterable, Iterator

from . import __version__
from .analyzer import Linker, compute_name_map
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
    command = {"check": _cmd_check, "run": _cmd_run, "gen": _cmd_gen}.get(args.command)
    if command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        try:
            return command(args)
        except _Rerun as rerun:
            return command(args, rerun.parses)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
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


class _Rerun(Exception):
    """A split call found something wrong, having printed nothing: ``main``
    runs the command again in one process with these description parses."""

    def __init__(self, parses: dict) -> None:
        self.parses = parses


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


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc


# A call's diagnostics go on one list as (key, diagnostic) and print in key
# order (see ``_print_diags``). A key starts with its phase: the description
# files' parse, the suite files' parse, the link stage, then the work. A
# work diagnostic's key goes on with its place in description order, where
# the work of ``gen`` takes its units in suite order.
_DESCRIPTIONS, _SUITES, _LINK, _WORK = range(4)


class _Stream:
    """One process's parse and link, a suite file at a time.

    ``load`` parses and validates description files, taking the (AST,
    diagnostics) of a file already parsed from ``parses``, which keeps each
    description parse made in this process. ``each`` then takes each suite
    file in turn: it parses the file, links the suite and, while nothing is
    wrong, calls ``work(key, linked, put)``, where ``key`` is the
    (description file, suite file) index pair. Then it drops the suite, so
    the process holds one suite file's AST at a time. A suite whose target
    is not among the loaded descriptions loads the call's other description
    files too. Of the suites worked on, only the names of their targets are
    kept, for the descriptions no suite targets.
    """

    def __init__(self, desc_paths: list[Path], suite_paths: list[Path], diags: list,
                 parses: dict) -> None:
        self.desc_paths = desc_paths
        self.suite_paths = suite_paths
        self.diags = diags
        self.parses = parses
        self.linker = Linker()
        self.loaded: set[int] = set()  # indexes of the description files loaded
        self.index: dict[str, int] = {}  # ViewModel name -> index of its first file
        self.found = False  # a parse or link diagnostic
        self.orphans: list[str] = []  # a message for each suite whose target has no description
        self.targets: set[str] = set()

    def load(self, indexes: Iterable[int]) -> None:
        for i in indexes:
            if i in self.loaded:
                continue
            self.loaded.add(i)
            path = self.desc_paths[i]
            parsed = self.parses.get(path)
            if parsed is None:
                parsed = self.parses[path] = parse_view_model(_read(path), str(path))
            desc, found = parsed
            self._add(_DESCRIPTIONS, found)
            if desc is not None:
                self.index.setdefault(desc.name, i)
                self._add(_LINK, self.linker.add(desc))

    def each(self, indexes: Iterable[int], work, put, halt: bool = False) -> None:
        """With ``halt``, stop at the first diagnostic or orphan, as a half of
        a split call does, which then runs again in one process."""
        for i in indexes:
            if halt and (self.diags or self.orphans):
                return
            self._one(i, work, put)

    def _one(self, i: int, work, put) -> None:
        path = self.suite_paths[i]
        suite, found = parse_test_suite(_read(path), str(path))
        self._add(_SUITES, found)
        if suite is None:
            return
        target = suite.target_view_model
        if target not in self.linker.descriptions:
            self.load(range(len(self.desc_paths)))
        linked, found = self.linker.link(suite)
        self._add(_LINK, found)
        if target not in self.linker.descriptions:
            self.orphans.append(f"{suite.span.file}: no ViewModel description named "
                                f"'{target}' for suite '{suite.name}'")
        elif linked is not None and self.clean:
            self.targets.add(target)
            work((self.index[target], i), linked, put)

    def _add(self, phase: int, found: list[Diagnostic]) -> None:
        if found:
            self.found = True
            self.diags.extend([((phase,), diag) for diag in found])

    @property
    def clean(self) -> bool:
        return not (self.found or self.orphans)

    def untargeted(self) -> list[tuple]:
        """(index, description) of each loaded description no suite targets."""
        return [(i, self.linker.descriptions[name]) for name, i in self.index.items()
                if name not in self.targets]


def _each_suite(paths: list[str], work, take, diags: list, last=None,
                parses: dict | None = None) -> None:
    """Parse and link the files of ``paths`` (see ``_Stream``) and call
    ``work(key, linked, put)`` on each linked suite while nothing is wrong.
    ``put`` takes results in suite order: each picklable, save that a
    generator in one goes as the list of what it yields. ``take`` gets each
    result. ``work`` and ``take`` add what they find wrong to ``diags``, the
    one list of the call's diagnostics (see ``_DESCRIPTIONS``). Where all
    is clean, ``last(alone, take)`` ends the call's work in this process,
    with the (index, description) of each description no suite targets.

    A large enough call runs in two processes (see ``_in_two``), each
    taking its half of the description and suite files. Where that finds
    anything wrong, it raises ``_Rerun``, and the command runs again in this
    process with the description parses made here (a ``parses`` that is
    not None keeps the call in one process): the one path whose error
    output is the reference.
    """
    desc_paths, suite_paths = _collect_files(paths)
    if parses is None:
        parses = {}
        cut = _cut(suite_paths)
        if cut:
            _in_two(desc_paths, suite_paths, cut, work, take, diags, parses, last)
            return
    stream = _Stream(desc_paths, suite_paths, diags, parses)
    stream.load(range(len(desc_paths)))
    stream.each(range(len(suite_paths)), work, take)
    if stream.orphans and not stream.found:
        raise _UsageError("; ".join(stream.orphans))
    if last is not None and stream.clean:
        last(stream.untargeted(), take)


def _print_diags(diags: list) -> None:
    """Print the parse and link diagnostics, or, where there are none, the
    work's, in key order."""
    shown = [item for item in diags if item[0][0] < _WORK] or diags
    for _, diag in sorted(shown, key=lambda item: item[0]):
        print(diag.render(), file=sys.stderr)


# ---------------------------------------------------------------------------
# Two processes
# ---------------------------------------------------------------------------

# Less suite text than this stays in one process. A split call pays mostly
# in page faults: after the fork, each process's first write to a page of
# the heap they share faults. The entry point ends the process with
# os._exit, so finalization adds none. `check`, the command with the least
# work per suite, breaks even at about 125 KB of suite text: split over
# serial calls, 48 alternating pairs each, read x0.97-1.01 at 55-110 KB of
# `models` text and x1.03 at 139 KB, x0.98-1.01 at 126 KB of `steps` text
# and x1.03 at 189 KB (CHANGES.md). This is twice that.
SPLIT_MIN_BYTES = 250_000


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
        ends = _ends(paths)
    except OSError:  # the serial path reports it
        return 0
    if ends[-1] < SPLIT_MIN_BYTES:
        return 0
    return _middle(ends, 1)


def _ends(paths: list[Path]) -> list[int]:
    """0, then the bytes of the first 1, 2, ... files of ``paths``."""
    return [0, *itertools.accumulate(path.stat().st_size for path in paths)]


def _middle(ends: list[int], least: int) -> int:
    """The number of files, at least ``least`` from either end, whose
    ``_ends`` come nearest half the bytes."""
    return min(range(least, len(ends) - least), key=lambda k: abs(2 * ends[k] - ends[-1]))


def _in_two(desc_paths: list[Path], suite_paths: list[Path], cut: int, work, take,
            diags: list, parses: dict, last) -> None:
    """Do ``_each_suite``'s work in two processes.

    This process takes the first ``cut`` suite files and the first half of
    the description files (by bytes), a forked worker the rest of each (see
    ``_Stream``). The worker's ``put`` pickles to an unlinked file its
    results, then the names of its suites, of their targets and of its own
    descriptions; ``take`` gets the worker's results once this process's
    are done. Last, with ``last``, this process loads those of the
    worker's descriptions that no suite of either half targets and calls
    ``last`` on every such description, in file order. Raises ``_Rerun``,
    with the worker reaped, where the call must run again in one process:
    where it cannot fork, on a diagnostic, an unreadable file or an orphan
    in either half, a suite or ViewModel name in both halves or a failed
    worker. The worker exits non-zero when its ``diags`` are not empty.
    """
    import copyreg
    import pickle
    import tempfile
    import types

    try:
        mid = _middle(_ends(desc_paths), 0)
        spool = tempfile.TemporaryFile()
    except OSError:
        raise _Rerun(parses) from None

    def own(indexes: range) -> list[str]:
        return [parses[desc_paths[i]][0].name for i in indexes]

    with spool:
        try:
            pid = os.fork()
        except OSError:
            raise _Rerun(parses) from None
        if pid == 0:
            code = 1
            try:  # never print, never return: this is the worker
                half = _Stream(desc_paths, suite_paths, diags, parses)
                half.load(range(mid, len(desc_paths)))
                # A generator, such as a generated file's pieces, goes as a
                # list, appended to as it yields.
                table = {**copyreg.dispatch_table,
                         types.GeneratorType: lambda items: (list, (), None, items)}

                def put(result) -> None:
                    pickler = pickle.Pickler(spool)
                    pickler.dispatch_table = table
                    pickler.dump(result)

                half.each(range(cut, len(suite_paths)), work, put, halt=True)
                if not (diags or half.orphans):
                    pickle.dump((list(half.linker.suite_spans), half.targets,
                                 own(range(mid, len(desc_paths)))), spool)
                    spool.flush()
                    code = 0
            finally:
                os._exit(code)
        try:
            half = _Stream(desc_paths, suite_paths, diags, parses)
            try:
                half.load(range(mid))
                half.each(range(cut), work, take, halt=True)
            except _UsageError:  # the serial path reports the first unreadable file
                raise _Rerun(parses) from None
            if diags or half.orphans:
                raise _Rerun(parses)
            _, status = os.waitpid(pid, 0)
            pid = 0
            if status:
                raise _Rerun(parses)
            end = spool.seek(0, os.SEEK_END)
            spool.seek(0)
            while True:
                result = pickle.load(spool)
                if spool.tell() == end:  # the worker's names
                    break
                take(result)
                if diags:
                    raise _Rerun(parses)
            worker_suites, worker_targets, worker_own = result
            if not (half.linker.suite_spans.keys().isdisjoint(worker_suites)
                    and set(own(range(mid))).isdisjoint(worker_own)):
                raise _Rerun(parses)
            if last is not None:
                half.targets |= worker_targets
                half.load(i for i, name in enumerate(worker_own, mid)
                          if name not in half.targets)
                last(half.untargeted(), take)
                if diags:
                    raise _Rerun(parses)
        finally:
            if pid:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args, parses: dict | None = None) -> int:
    diags: list = []
    _each_suite(args.paths, lambda key, linked, put: None, None, diags, parses=parses)
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


def _cmd_run(args, parses: dict | None = None) -> int:
    import json

    from .runtime import RunConfig, run_suite
    from .taskmanager import REGISTRY

    registration = REGISTRY.get(args.setup)
    if registration is None:
        raise _UsageError(
            f"unknown setup id '{args.setup}'; registered: "
            f"{', '.join(sorted(REGISTRY))}")

    def run_one(key, linked, put) -> None:
        if args.suite is None or linked.suite.name == args.suite:
            put((linked.suite.name, run_suite(linked, registration.logic_factory,
                                              registration.setup_factory, RunConfig())))

    report_suites: list = []
    diags: list = []
    _each_suite(args.paths, run_one, report_suites.append, diags, parses=parses)
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS
    if args.suite is not None and not report_suites:
        raise _UsageError(f"no suite named '{args.suite}'")
    all_passed = all(r.status == "passed" for _, results in report_suites for r in results)
    report = _report_dict(report_suites)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_human(report)
    return EXIT_OK if all_passed else EXIT_FAILURES


def _print_human(report: dict) -> None:
    for suite in report["suites"]:
        for scenario in suite["scenarios"]:
            status, color = _STATUS_STYLE[scenario["status"]]
            print(f"{_styled(status, color)} {scenario['description']}")
            if scenario["error"] is not None:
                print(f"  error: {scenario['error']}")
            for failure in scenario["failures"]:
                print(f"  {failure['label']}: expected {failure['expected']!r}, "
                      f"actual {failure['actual']!r}")


def _failure_dict(failure) -> dict:
    return {
        "widget": failure.widget,
        "feature": failure.feature,
        "aspect": failure.aspect,
        "rowIndex": failure.row_index,
        "columnTitle": failure.column_title,
        "expected": failure.expected,
        "actual": failure.actual,
        "label": check_label(failure.widget, failure.feature, failure.aspect,
                             failure.row_index, failure.column_title),
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


def _cmd_gen(args, parses: dict | None = None) -> int:
    from .genconfig import GenConfigError, load_genconfig

    try:
        config = load_genconfig(args.config)
    except GenConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.target == "java":
        from .java_emitter import emit_pieces as emit
    else:
        from .cpp_emitter import emit_pieces as emit
    from .ir import lower_to_ir

    output = _Output(Path(args.out), args.force)
    name_maps: dict = {}  # description index -> its name map, or None
    diags: list = []

    def put_unit(key: tuple, desc, suite, put) -> None:
        """Put the generation unit of ``desc`` with ``suite``, or alone if
        None, as (key, owner, files). ``key`` is (description index, suite
        index or -1). Each file is its relative path and its text's pieces,
        which are made as they are written."""
        if key[0] not in name_maps:
            name_maps[key[0]], found = compute_name_map(desc, config)
            diags.extend([((_WORK, key[0], -1), diag) for diag in found])
        name_map = name_maps[key[0]]
        if name_map is not None:
            node = desc if suite is None else suite.suite
            owner = (f"{'ViewModel' if suite is None else 'suite'} '{node.name}'", node.span)
            put((key, owner, emit(lower_to_ir(desc, suite, name_map, config), name_map, config)))

    def last(alone: list, put) -> None:
        for i, desc in alone:
            put_unit((i, -1), desc, None, put)
        diags.extend(output.collisions())

    try:
        _each_suite(args.paths,
                    lambda key, linked, put: put_unit(key, linked.description, linked, put),
                    lambda unit: _write_unit(output, unit), diags, last, parses)
        _print_diags(diags)
        if diags:
            return EXIT_DIAGNOSTICS
        output.commit()
    finally:
        output.discard()
    for rel in sorted(output.writers):
        print(str(output.out_dir / rel))
    return EXIT_OK


def _write_unit(output: _Output, unit: tuple) -> None:
    key, owner, files = unit
    for j, (rel, pieces) in enumerate(files):
        output.write(rel, pieces, (_WORK, *key, j), owner)


class _Output:
    """The files of one ``gen`` call, written as they are generated.

    A new file is created exclusively, which also finds a clash with an
    existing one. With ``force``, an existing file is written to a temporary
    beside it, which ``commit`` renames over it. Until ``commit`` succeeds,
    ``discard`` removes every file, temporary and directory the call made,
    so on any error the output directory ends as it began. A file is
    written piece by piece as its pieces come, so no whole text is built
    of a path generated once. A path that is absolute or holds a ``..``
    part is a write error, so nothing is written outside the directory.
    """

    def __init__(self, out_dir: Path, force: bool) -> None:
        self.out_dir = out_dir
        self.force = force
        # Relative path -> (key, owner, text) of each writer, in the order
        # written, where owner is (its name, its span) and text is None if
        # it is the first writer's text.
        self.writers: dict[str, list[tuple]] = {}
        # Relative path -> its first text, for a path generated again (read
        # back once) or not written. A path whose write failed part way has
        # none, and a later generation of it is compared with nothing.
        self.texts: dict[str, str] = {}
        self.temps: dict[str, str] = {}  # relative path -> temporary beside its target
        self.made: list[tuple] = []  # (os.unlink or os.rmdir, path), in the order made
        self.dirs: set[Path] = set()  # directories known to exist
        self.clashes: list[str] = []
        self.errors: dict[str, str] = {}  # relative path -> write error

    def write(self, rel: str, pieces: Iterable[str], key: tuple, owner: tuple) -> None:
        """Write ``rel`` piece by piece, or, if it was generated before,
        keep the text its pieces join where it differs from the first."""
        writers = self.writers.get(rel)
        if writers is None:
            self.writers[rel] = [(key, owner, None)]
            pieces = iter(pieces)
            if not self._create(rel, pieces):
                self.texts[rel] = "".join(pieces)
            return
        text = "".join(pieces)
        first_text = self.texts.get(rel)
        if first_text is None and rel not in self.errors:  # else its write failed part way
            path = self.temps.get(rel) or self.out_dir / rel
            with open(path, "rb") as file:
                first_text = self.texts[rel] = file.read().decode("utf-8")
        writers.append((key, owner, None if text == first_text else text))

    def collisions(self) -> list[tuple]:
        """(key, E106) for each writer of a path whose text differs from
        that of the path's writer with the lowest key."""
        found = []
        for rel, writers in self.writers.items():
            if len(writers) < 2 or rel not in self.texts:
                continue
            _, first, first_text = min(writers, key=lambda writer: writer[0])
            found += [(key, error(E_DUPLICATE_NAME, f"generated file '{rel}' of {owner[0]} "
                                  f"differs from the one of {first[0]} at {first[1]}", owner[1]))
                      for key, owner, text in writers if text != first_text]
        return found

    def _create(self, rel: str, pieces: Iterator[str]) -> bool:
        """Write a new file, or a temporary beside an existing one under
        ``force``, one piece at a time; record a clash or write error.
        Returns False, with no piece taken, if the file was not begun."""
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
        try:
            try:
                file = open(target, "xb")
            except FileExistsError:
                if not self.force:
                    self.clashes.append(str(target))
                    return False
                file = self._open_beside(rel, target)
            else:
                self.made.append((os.unlink, str(target)))
        except OSError as exc:
            self.errors[rel] = f"cannot write {target}: {exc.strerror}"
            return False
        try:
            with file:
                for piece in pieces:
                    file.write(piece.encode("utf-8"))
        except OSError as exc:
            self.errors[rel] = f"cannot write {target}: {exc.strerror}"
        return True

    def _open_beside(self, rel: str, target: Path) -> BinaryIO:
        """Open a new temporary beside the existing file ``target``, with
        its permissions, for ``commit`` to rename over it."""
        import errno
        import stat
        import tempfile

        mode = os.stat(target).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
        self.made.append((os.unlink, temp))
        self.temps[rel] = temp
        try:
            os.fchmod(fd, stat.S_IMODE(mode))
        except OSError:
            os.close(fd)
            raise
        return open(fd, "wb")

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
