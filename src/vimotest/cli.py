"""Batch command-line front-end: check sources, run suites, generate code.

Exit codes: 0 success (all scenarios passed for ``run``), 1 scenario
failures or errors, 2 diagnostics from parsing or analysis, 3 usage or
configuration errors. Diagnostics go to stderr; reports go to stdout so the
JSON output stays machine-consumable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analyzer import Project, compute_name_map, link
from .diagnostics import E_DUPLICATE_NAME, Diagnostic, error
from .genconfig import GenConfigError, load_genconfig
from .ir import lower_to_ir
from .java_emitter import emit_java
from .cpp_emitter import emit_cpp
from .parser import parse_test_suite, parse_view_model
from .runtime import RunConfig, ScenarioResult, run_suite
from .taskmanager import REGISTRY

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
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="parse and analyze DSL files")
    check.add_argument("paths", nargs="+")

    width = max(map(len, REGISTRY)) + 2
    run = sub.add_parser(
        "run", help="execute test suites in-process",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="registered setup ids:\n" + "\n".join(
            f"  {name:<{width}}{REGISTRY[name].summary}" for name in sorted(REGISTRY)))
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
            ast, d = parse(path.read_bytes(), str(path))
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
    }


def _scenario_dict(result: ScenarioResult) -> dict:
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
    try:
        config = load_genconfig(args.config)
    except GenConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    project, diags = _load_project(args.paths)
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS

    emit = emit_java if config.target == "java" else emit_cpp
    emitted: dict[str, tuple] = {}  # path -> (text, first writer, its span)
    for desc in project.descriptions:
        name_map, d = compute_name_map(desc, config)
        diags.extend(d)
        if name_map is None:
            continue
        for suite in [s for s in project.suites if s.description is desc] or [None]:
            node = desc if suite is None else suite.suite
            writer = f"{'ViewModel' if suite is None else 'suite'} '{node.name}'"
            for rel, text in emit(lower_to_ir(desc, suite, name_map, config), name_map, config):
                first_text, first, at = emitted.setdefault(rel, (text, writer, node.span))
                if first_text != text:
                    diags.append(error(E_DUPLICATE_NAME, f"generated file '{rel}' of {writer} "
                                       f"differs from the one of {first} at {at}", node.span))
    _print_diags(diags)
    if diags:
        return EXIT_DIAGNOSTICS

    out_dir = Path(args.out)
    if not args.force:
        clashes = [str(out_dir / rel) for rel in emitted if (out_dir / rel).exists()]
        if clashes:
            raise _UsageError(
                "refusing to overwrite existing files (use --force): "
                + ", ".join(sorted(clashes)))
    for rel in sorted(emitted):
        target = out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(emitted[rel][0], encoding="utf-8", newline="\n")
        print(str(target))
    return EXIT_OK

