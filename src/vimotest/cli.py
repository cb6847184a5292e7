"""Batch command-line front-end: check sources, run suites, generate code.

Exit codes: 0 success (all scenarios passed for ``run``), 1 scenario
failures or errors, 2 diagnostics from parsing or analysis, 3 usage or
configuration errors. Diagnostics go to stderr; reports go to stdout so the
JSON output stays machine-consumable.
"""

from __future__ import annotations

import argparse
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


def _load_project(paths: list[str]) -> tuple[Project, list[Diagnostic]]:
    """Parse every file, then link the sources that parsed."""
    desc_paths, suite_paths = _collect_files(paths)
    diags: list[Diagnostic] = []

    def parse_each(parse, files: list[Path]) -> list:
        asts = []
        for path in files:
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
            ast, d = parse(data, str(path))
            diags.extend(d)
            if ast is not None:
                asts.append(ast)
        return asts

    project, d = link(parse_each(parse_view_model, desc_paths),
                      parse_each(parse_test_suite, suite_paths))
    diags.extend(d)
    if project.orphans and not diags:
        raise _UsageError("; ".join(
            f"{suite.span.file}: no ViewModel description named "
            f"'{suite.target_view_model}' for suite '{suite.name}'"
            for suite in project.orphans))
    return project, diags


def _print_diags(diags: list[Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    _, diags = _load_project(args.paths)
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
    project, diags = _load_project(args.paths)
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS
    linked = project.suites
    if args.suite is not None:
        linked = [l for l in linked if l.suite.name == args.suite]
        if not linked:
            raise _UsageError(f"no suite named '{args.suite}'")
    report_suites = []
    all_passed = True
    for suite in linked:
        results = run_suite(suite, registration.logic_factory,
                            registration.setup_factory, RunConfig())
        report_suites.append((suite.suite.name, results))
        all_passed &= all(r.status == "passed" for r in results)
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
                where = ""
                if failure.row_index is not None:
                    where += f" row {failure.row_index}"
                if failure.column_title is not None:
                    where += f" column '{failure.column_title}'"
                print(f"  {failure.widget}.{failure.feature}{where} "
                      f"{failure.aspect}: expected {failure.expected!r}, "
                      f"actual {failure.actual!r}")


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


def _cmd_gen(args) -> int:
    from .genconfig import GenConfigError, load_genconfig

    try:
        config = load_genconfig(args.config)
    except GenConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    project, diags = _load_project(args.paths)
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS

    from .ir import lower_to_ir

    if config.target == "java":
        from .java_emitter import emit_java as emit
    else:
        from .cpp_emitter import emit_cpp as emit
    output = _Output(Path(args.out), args.force)
    try:
        for desc in project.descriptions:
            name_map, d = compute_name_map(desc, config)
            diags.extend(d)
            if name_map is None:
                continue
            for suite in [s for s in project.suites if s.description is desc] or [None]:
                node = desc if suite is None else suite.suite
                writer = f"{'ViewModel' if suite is None else 'suite'} '{node.name}'"
                owner = (writer, node.span)
                for rel, text in emit(lower_to_ir(desc, suite, name_map, config),
                                      name_map, config):
                    first = output.write(rel, text, owner)
                    if first is not None:
                        diags.append(error(
                            E_DUPLICATE_NAME, f"generated file '{rel}' of {writer} "
                            f"differs from the one of {first[0]} at {first[1]}", node.span))
        _print_diags(diags)
        if diags:
            return EXIT_DIAGNOSTICS
        output.commit()
    finally:
        output.discard()
    for rel in sorted(output.first):
        print(str(output.out_dir / rel))
    return EXIT_OK


class _Output:
    """The files of one ``gen`` call, written as they are generated.

    A new file is created exclusively, which also finds a clash with an
    existing one. With ``force``, an existing file is written to a temporary
    beside it, which ``commit`` renames over it. Until ``commit`` succeeds,
    ``discard`` removes every file, temporary and directory the call made,
    so on any error the output directory ends as it began. No text of a
    path generated once stays in memory.
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
        target = self.out_dir / rel
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
