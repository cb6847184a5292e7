"""Smoke self-test of the benchmark at a tiny corpus size.

    python3 bench/selftest.py

For every workload it runs the benchmark once untraced and once traced, and
checks that the generated corpora pass the correctness gate and that each
run emits exactly the metrics ``BENCHMARK.json`` names, with their units.
It also checks that the gate is not vacuous: a mutant setup must fail it.
Takes about a minute; it is not part of the unit-test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import calls
import corpora
import run

SCALE = "0.1"


def expected_units(trace: int) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def bench_once(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_mutant_fails() -> None:
    corpus = corpora.generate("steps", 1, float(SCALE))
    where = run.WORK / "corpus" / "selftest-mutant"
    run.write_corpus(corpus, where)
    runner = calls.Runner(run.ROOT, run.WORK)
    try:
        result = runner.call("run", str(where), "--setup", "taskmanager-noappend",
                             "--format", "json")
        assert calls.run_ok(result, corpus.scenarios) is not None, \
            "the run gate passed a mutant that appends no rows"
    finally:
        runner.close()
        shutil.rmtree(where, ignore_errors=True)


def main() -> int:
    for workload in corpora.WORKLOADS:
        for trace in (0, 1):
            result = bench_once(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected_units(trace), (workload, trace, units)
            print(f"ok {workload} trace={trace}: {result['attempted']} gated calls, "
                  f"{len(units)} metrics")
    check_mutant_fails()
    print("ok mutant setup fails the run gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
