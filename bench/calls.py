"""Timed ``vimotest`` CLI calls in a pinned child environment, and the
correctness gate each call must pass.

Children run one at a time. Each gets the same environment: the checkout's
``src`` on ``PYTHONPATH``, a bench-owned bytecode cache (so calls after the
first do not recompile the package), a fixed hash seed and no colour. A
small helper process (``spawner.py``) starts them: the wall time of a call
runs from just before the child is started until ``os.wait4`` reaps it, and
``ru_maxrss`` comes from the same ``wait4``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

CALL_TIMEOUT_S = 120.0

JAVA_CONFIG = {"target": "java"}
CPP_CONFIG = {"target": "cpp", "parameterObject": True, "generateViewController": True,
              "contextFormat": "xml", "cppNamespace": "vmbench"}


@dataclass(frozen=True)
class CallResult:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float


class Runner:
    """Starts CLI children from ``root`` with scratch space under ``work``.

    Create it before the benchmark process grows (see ``spawner.py``), and
    close it to stop the helper process.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONPYCACHEPREFIX=str(work / "pycache"),
            PYTHONHASHSEED="0",
            PYTHONIOENCODING="utf-8",
            VIMOTEST_COLOR="0",
        )
        self.configs = {}
        for name, config in (("java", JAVA_CONFIG), ("cpp", CPP_CONFIG),
                             ("golden_cpp", {"target": "cpp"})):
            path = work / f"genconfig-{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs[name] = str(path)
        self._outs = 0
        self._spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def call(self, *args: str, python_flags: tuple[str, ...] = ()) -> CallResult:
        """One ``vimotest`` CLI process."""
        return self._spawn([sys.executable, *python_flags, "-m", "vimotest", *args])

    def probe(self) -> CallResult:
        """One machine-speed probe process (``probe.py``)."""
        return self._spawn([sys.executable, str(Path(__file__).with_name("probe.py"))])

    def _spawn(self, argv: list[str]) -> CallResult:
        out_path = self.tmp / "stdout"
        err_path = self.tmp / "stderr"
        request = {"argv": argv, "cwd": str(self.root), "out": str(out_path),
                   "err": str(err_path), "timeout": CALL_TIMEOUT_S}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        code, seconds, max_rss_kib = json.loads(self._spawner.stdout.readline())
        return CallResult(code=code,
                          stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                          stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                          seconds=seconds, max_rss_mb=max_rss_kib / 1024.0)

    def gen(self, corpus_dir: Path, config: str) -> tuple[CallResult, list[str], dict[str, str]]:
        """Run ``gen`` into a fresh directory that is removed afterwards.

        Returns the call, the printed file list and the files written, both
        relative to the output directory.
        """
        self._outs += 1
        out_dir = self.tmp / f"gen-{self._outs}"
        try:
            result = self.call("gen", str(corpus_dir), "--config", self.configs[config],
                               "--out", str(out_dir))
            printed = [os.path.relpath(line, out_dir).replace(os.sep, "/")
                       for line in result.stdout.splitlines()]
            written = {}
            if out_dir.is_dir():
                for path in sorted(out_dir.rglob("*")):
                    if path.is_file():
                        written[path.relative_to(out_dir).as_posix()] = \
                            path.read_text(encoding="utf-8")
            return result, printed, written
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_ok(result: CallResult) -> str | None:
    """None when the call passed, else why it failed."""
    if result.code != 0:
        return f"check exited {result.code}: {result.stderr[-500:]}"
    if result.stderr:
        return f"check wrote to stderr: {result.stderr[-500:]}"
    return None


def run_ok(result: CallResult, scenarios: int) -> str | None:
    if result.code != 0:
        return f"run exited {result.code}: {result.stderr[-500:]}"
    try:
        totals = json.loads(result.stdout)["totals"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"run printed no JSON report totals: {exc}"
    expected = {"passed": scenarios, "failed": 0, "errored": 0}
    if totals != expected:
        return f"run totals {totals}, expected {expected}"
    return None


def _test_count(name: str, text: str) -> int:
    if name.endswith(".java"):
        return sum(1 for line in text.splitlines() if line.strip() == "@Test")
    return sum(1 for line in text.splitlines() if line.startswith("static void test_"))


def gen_ok(result: CallResult, printed: list[str], written: dict[str, str],
           expected: dict[str, int]) -> str | None:
    """``expected`` maps each output file to the tests it must hold."""
    if result.code != 0:
        return f"gen exited {result.code}: {result.stderr[-500:]}"
    if sorted(printed) != sorted(expected):
        return f"gen printed {len(printed)} files, expected {len(expected)}"
    if set(written) != set(expected):
        missing = sorted(set(expected) - set(written))[:5]
        extra = sorted(set(written) - set(expected))[:5]
        return f"gen wrote the wrong files: missing {missing}, unexpected {extra}"
    for name, tests in expected.items():
        if tests and _test_count(name, written[name]) != tests:
            return f"{name} holds {_test_count(name, written[name])} tests, expected {tests}"
    return None


def golden_ok(runner: Runner, root: Path) -> str | None:
    """``gen`` on the shipped corpus must match ``goldens/`` byte for byte."""
    for config, golden_dir in (("java", "java"), ("golden_cpp", "cpp")):
        result, printed, written = runner.gen(root / "corpus" / "taskmanager", config)
        if result.code != 0:
            return f"golden gen ({golden_dir}) exited {result.code}: {result.stderr[-500:]}"
        goldens = {p.name: p.read_text(encoding="utf-8")
                   for p in (root / "goldens" / golden_dir).iterdir() if p.is_file()}
        if sorted(printed) != sorted(goldens):
            return f"golden gen ({golden_dir}) printed {printed}"
        if written != goldens:
            differ = sorted(n for n in set(written) | set(goldens)
                            if written.get(n) != goldens.get(n))
            return f"gen output differs from goldens/{golden_dir}: {differ}"
    return None
