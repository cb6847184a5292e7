"""Start-up cost guards: which modules each subcommand loads, the lazy
package re-exports, and the collector settings of the process entry point."""

import gc
import importlib
import json
import re
import subprocess
import sys

import pytest

import vimotest
import vimotest.__main__
from conftest import CORPUS, ROOT, VMDSL_PATH, VMTEST_PATH, child_env
from vimotest.cli import main

FRONT_END = {"analyzer", "cli", "diagnostics", "lexer", "model", "names", "parser"}

# The package's public names by home module.
PUBLIC = {
    "analyzer": ("LinkedSuite", "NameMap", "Project", "compute_name_map", "link", "resolve",
                 "sanitize_test_name", "validate_description"),
    "cpp_emitter": ("emit_cpp",),
    "genconfig": ("GenConfig", "GenConfigError", "load_genconfig", "parse_genconfig"),
    "ir": ("IRUnit", "ir_to_dict", "lower_to_ir"),
    "java_emitter": ("emit_java",),
    "model": ("CATALOG", "CommandKind", "FeatureKind", "TestSuite", "ViewModelDescription",
              "WidgetKind", "catalog_lookup", "validate_identifier"),
    "parser": ("parse_test_suite", "parse_view_model"),
    "printer": ("pretty_print",),
    "runtime": ("CellValue", "CheckFailure", "RowValue", "RunConfig", "ScenarioResult",
                "StoreError", "WidgetStateStore", "evaluate_rows_check", "execute_scenario",
                "render_context", "run_suite"),
}

# Standard modules no subcommand may load: the record classes replace
# dataclasses, and with them the `inspect` import chain.
NEVER_LOADED = ("dataclasses", "inspect")

# The entry point ends the process with ``os._exit``. A probe child swaps it
# for this stub, which records the code and raises ``SystemExit`` instead, so
# that the probe can report on the process after the call.
EXIT_STUB = """
import os
exits = []

def _exit(code):
    exits.append(code)
    raise SystemExit(code)

os._exit = _exit
"""

# Runs `python -m vimotest ARGS...` inside the child, then prints its exit
# code, the vimotest submodules it loaded and the NEVER_LOADED modules it
# loaded as the last line of stderr.
MODULES_PROBE = EXIT_STUB + f"""
import json, runpy, sys
sys.argv = ["vimotest", *sys.argv[1:]]
try:
    runpy.run_module("vimotest", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m.removeprefix("vimotest.") for m in sys.modules
                               if m.startswith("vimotest.")),
                  [m for m in {NEVER_LOADED!r} if m in sys.modules]]), file=sys.stderr)
"""


def child(*argv: str) -> subprocess.CompletedProcess:
    """A Python child that finds the package through ``src``."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=child_env())


def loaded_by(*args: str) -> set[str]:
    result = child("-c", MODULES_PROBE, *args)
    code, modules, never = json.loads(result.stderr.splitlines()[-1])
    assert code == 0, result.stderr
    assert never == [], f"{args[0]} loaded {never}"
    return set(modules)


def write_config(tmp_path, target: str) -> str:
    path = tmp_path / f"genconfig-{target}.json"
    path.write_text(json.dumps({"target": target}))
    return str(path)


class TestSubcommandImports:
    @pytest.mark.parametrize("args", [("check", str(CORPUS)), ("--version",), ("--help",)],
                             ids=lambda args: args[0])
    def test_front_end_only(self, args):
        assert loaded_by(*args) == FRONT_END

    def test_run_loads_no_ir_or_emitter(self):
        loaded = loaded_by("run", str(CORPUS), "--setup", "taskmanager")
        assert {"runtime", "taskmanager"} <= loaded
        assert not loaded & {"ir", "testbody", "printer", "genconfig",
                             "java_emitter", "cpp_emitter"}

    @pytest.mark.parametrize("target, other", [("java", "cpp"), ("cpp", "java")])
    def test_gen_loads_only_its_target(self, tmp_path, target, other):
        loaded = loaded_by("gen", str(CORPUS), "--config", write_config(tmp_path, target),
                           "--out", str(tmp_path / "out"))
        assert {"genconfig", "ir", f"{target}_emitter"} <= loaded
        assert not loaded & {f"{other}_emitter", "taskmanager"}


class TestLazyPackage:
    def test_all_lists_the_public_names(self):
        assert sorted(vimotest.__all__) == sorted(n for names in PUBLIC.values() for n in names)

    @pytest.mark.parametrize("home", list(PUBLIC))
    def test_each_name_is_its_home_module_object(self, home):
        module = importlib.import_module(f"vimotest.{home}")
        for name in PUBLIC[home]:
            assert getattr(vimotest, name) is getattr(module, name), name

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from vimotest import *", namespace)
        assert set(vimotest.__all__) <= set(namespace)
        assert set(vimotest.__all__) <= set(dir(vimotest))

    def test_unknown_name_is_named_in_the_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            vimotest.no_such_name  # noqa: B018

    def test_bare_import_loads_no_submodule(self):
        result = child("-c", "import sys, vimotest; "
                             "print(sorted(m for m in sys.modules if m.startswith('vimotest.')))")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_readme_library_example(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (example,) = [block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                      if "from vimotest import" in block]
        namespace = {"vmdsl_text": VMDSL_PATH.read_text(encoding="utf-8"),
                     "vmtest_text": VMTEST_PATH.read_text(encoding="utf-8")}
        exec(example, namespace)
        assert namespace["diagnostics"] == []
        assert [s.suite.name for s in namespace["project"].suites] == ["TaskListTests"]


# Calls the entry point the way `python -m vimotest` does, or the
# `module:function` target the way a console script does, with the given
# arguments, then prints the exit code, the collector state and the codes
# passed to ``os._exit``.
GC_PROBE = EXIT_STUB + """
import gc, importlib, json, runpy, sys
launcher, target, *args = sys.argv[1:]
sys.argv = ["vimotest", *args]
try:
    if launcher == "-m":
        runpy.run_module("vimotest", run_name="__main__", alter_sys=True)
    else:
        module, function = target.split(":")
        sys.exit(getattr(importlib.import_module(module), function)())
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_threshold(), gc.get_freeze_count() > 0,
                  exits]))
"""


def script_target() -> str:
    # A regex, not tomllib, which Python 3.10 lacks.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^vimotest\s*=\s*"([\w.]+:\w+)"\s*$', pyproject, re.M)
    return target


class TestCollectorState:
    def test_in_process_main_keeps_the_callers_settings(self, capsys):
        before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
        assert main(["check", str(CORPUS)]) == 0
        assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before

    def test_console_script_is_the_module_entry_point(self):
        module, function = script_target().split(":")
        assert getattr(importlib.import_module(module), function) is vimotest.__main__.main

    def test_both_launchers_freeze_and_raise_the_threshold(self):
        states = [json.loads(child("-c", GC_PROBE, launcher, script_target(),
                                   "check", str(CORPUS)).stdout)
                  for launcher in ("-m", "script")]
        # Each launcher ends the process through os._exit, with the exit code.
        assert [exits for *_, exits in states] == [[0], [0]]
        assert states[0] == states[1]
        code, enabled, threshold, frozen, _ = states[0]
        assert (code, enabled, frozen) == (0, True, True)
        assert threshold[0] == vimotest.__main__.GEN0_THRESHOLD
