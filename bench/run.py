"""Benchmark: ``vimotest`` check, run and gen throughput on generated corpora.

    python3 bench/run.py --workload tables|steps|models --seed N \\
        --seconds S --trace 0|1 [--scale F]

Run it from anywhere; it works on the checkout that holds this file and
writes only under ``.bench_build/`` there.

``--trace 0`` times whole CLI processes, one at a time, in rounds of
``--version``, ``check``, ``run``, ``gen`` (Java) and ``gen`` (C++) until
``--seconds`` have passed, and reports the end-to-end metrics. ``--trace 1``
follows each such round with two in-process pipeline passes, one with spans
around each layer's public calls and one without, and reports the per-layer
metrics. Every CLI call passes through a correctness gate, and the
shipped corpus is generated once and compared with ``goldens/``.

End-to-end metrics: ``<command>.scenarios_per_s`` is the corpus's scenario
count times the number of calls, over the summed wall time of those calls;
``setup_s`` is the median ``--version`` process (interpreter start plus
package import, which every call pays); ``peak_rss_mb`` is the largest
``ru_maxrss`` of any child; ``ok_ratio`` is one minus the error rate, the
share of gated calls that failed (the rate itself is printed).

The timed metrics are calibrated to a reference host speed. The speed of
Python on a shared host drifts by tens of percent over seconds to minutes,
more than runs of an affordable length average out. So every round also
runs ``probe.py``, fixed work that does not use vimotest, twice; the rates
are scaled by (mean probe time / ``PROBE_S``) and ``setup_s`` by its inverse.
On a host where the probe takes ``PROBE_S`` they are the plain measurements,
which the detail lines always show. A change to vimotest cannot move the
probe, so it moves the calibrated metrics as much as the plain ones.

Human-readable detail lines (per-command call time medians, sample counts
and tails, failures) come first; the last line of standard output is the
JSON result. A detailed report and, for ``--trace 1``, the spans go to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import calls
import corpora
import probe
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
REQUIRED = ("src/vimotest/__init__.py", "corpus/taskmanager", "goldens/java", "goldens/cpp")

COMMANDS = ("check", "run", "gen_java", "gen_cpp")
MODULES = ("vimotest", "analyzer", "cli", "cpp_emitter", "diagnostics", "genconfig", "ir",
           "java_emitter", "lexer", "model", "names", "parser", "printer", "runtime",
           "taskmanager")
IMPORTTIME_CALLS = 5
MIN_ROUNDS = 3
# A typical probe time on the host the bounds were set on (Python 3.11.7, 2 CPUs).
PROBE_S = 0.36

# Summed span names that make up each command's in-process work.
COMMAND_SPANS = {
    "check": ("parser.parse", "analyzer.resolve"),
    "run": ("parser.parse", "analyzer.resolve", "runtime.run_suite"),
    "gen_java": ("parser.parse", "analyzer.resolve", "analyzer.name_map.java",
                 "ir.lower.java", "java_emitter.emit"),
    "gen_cpp": ("parser.parse", "analyzer.resolve", "analyzer.name_map.cpp",
                "ir.lower.cpp", "cpp_emitter.emit"),
}


def tail(samples: list[float]) -> str:
    """Median and sample count; past ten samples, also the highest
    percentile that has at least ten samples above it."""
    text = f"median {statistics.median(samples):.4f} s over n={len(samples)}"
    n = len(samples)
    if n > 10:
        text += f", p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4f} s"
    return text


class Bench:
    def __init__(self, runner: calls.Runner, corpus: corpora.Corpus, corpus_dir: Path):
        self.runner = runner
        self.corpus = corpus
        self.corpus_dir = corpus_dir
        self.samples: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.setup: list[float] = []
        self.probes: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.details: list[str] = []

    def gate(self, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failures.append(why)

    # -- CLI calls -----------------------------------------------------------

    def command(self, name: str) -> float:
        corpus, where = self.corpus, str(self.corpus_dir)
        if name == "check":
            result = self.runner.call("check", where)
            why = calls.check_ok(result)
        elif name == "run":
            result = self.runner.call("run", where, "--setup", "taskmanager", "--format", "json")
            why = calls.run_ok(result, corpus.scenarios)
        else:
            target = name.removeprefix("gen_")
            result, printed, written = self.runner.gen(self.corpus_dir, target)
            expected = corpus.java_outputs() if target == "java" else corpus.cpp_outputs()
            why = calls.gen_ok(result, printed, written, expected)
        self.peak_rss_mb = max(self.peak_rss_mb, result.max_rss_mb)
        self.gate(why)
        return result.seconds

    def probe(self) -> None:
        result = self.runner.probe()
        self.gate(None if result.code == 0 and result.stdout.strip() == probe.EXPECTED
                  else f"probe exited {result.code}: {result.stdout[-300:]}")
        self.probes.append(result.seconds)

    def version(self) -> float:
        result = self.runner.call("--version")
        self.peak_rss_mb = max(self.peak_rss_mb, result.max_rss_mb)
        self.gate(None if result.code == 0 and result.stdout.strip()
                  else f"--version exited {result.code}: {result.stderr[-300:]}")
        return result.seconds

    def warm_up(self) -> None:
        """Fill the bytecode cache and check the shipped corpus once."""
        self.version()
        for name in COMMANDS:
            self.command(name)
        self.gate(calls.golden_ok(self.runner, ROOT))

    def rounds(self, seconds: float, extra=None) -> None:
        """Rounds of every command, each followed by ``extra()`` if given,
        until the next round would overrun ``seconds``."""
        start = last = time.perf_counter()
        rounds, longest = 0, 0.0
        while rounds < MIN_ROUNDS or last + longest - start < seconds:
            self.probe()
            self.setup.append(self.version())
            for name in COMMANDS:
                self.samples[name].append(self.command(name))
            self.setup.append(self.version())
            self.probe()
            if extra is not None:
                extra()
            rounds += 1
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
        self.details.append(f"probe: {tail(self.probes)}, mean {statistics.mean(self.probes):.4f} s")
        self.details.append(f"setup: {tail(self.setup)}")
        for name in COMMANDS:
            self.details.append(f"{name}: {tail(self.samples[name])}")

    def end_to_end(self, seconds: float) -> dict:
        self.warm_up()
        self.rounds(seconds)
        slowdown = statistics.mean(self.probes) / PROBE_S
        metrics = {}
        for name in COMMANDS:
            rate = self.corpus.scenarios * len(self.samples[name]) / sum(self.samples[name])
            self.details.append(f"{name}: {rate:.4f} scenarios/s before calibration")
            metrics[f"{name}.scenarios_per_s"] = (rate * slowdown, "scenarios/s")
        metrics["setup_s"] = (statistics.median(self.setup) / slowdown, "s")
        self.details.append(f"calibration: host {slowdown:.4f} times slower than reference")
        metrics["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        error_rate = len(self.failures) / self.attempted
        self.details.append(f"error_rate: {error_rate} ({len(self.failures)} of "
                            f"{self.attempted} calls)")
        metrics["ok_ratio"] = (1.0 - error_rate, "ratio")
        return metrics

    # -- traced run ----------------------------------------------------------

    def import_times(self) -> dict[str, float]:
        """Median self import time per module of ``python -X importtime``."""
        per_module: dict[str, list[float]] = {m: [] for m in MODULES}
        for _ in range(IMPORTTIME_CALLS):
            result = self.runner.call("--version", python_flags=("-X", "importtime"))
            self.gate(None if result.code == 0 else f"importtime call exited {result.code}")
            for line in result.stderr.splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) != 3 or not parts[0].strip().isdigit():
                    continue
                name = parts[2].strip()
                short = "vimotest" if name == "vimotest" else name.removeprefix("vimotest.")
                if short in per_module and name.startswith("vimotest"):
                    per_module[short].append(int(parts[0]) / 1e6)
        return {m: statistics.median(v) if v else 0.0 for m, v in per_module.items()}

    def traced(self, seconds: float, spans_path: Path) -> dict:
        """CLI rounds interleaved with one traced and one untraced in-process
        pass each, so both see the same machine conditions."""
        self.warm_up()
        imports = self.import_times()
        sys.path.insert(0, str(ROOT / "src"))
        pipeline = tracing.Pipeline(calls.JAVA_CONFIG, calls.CPP_CONFIG)
        tracer, null = tracing.Tracer(), tracing.NullTracer()
        traced_walls: list[float] = []
        plain_walls: list[float] = []
        counts = None

        def run_passes() -> None:
            nonlocal counts
            tracer.trace = len(traced_walls)
            for mode, walls in ((tracer, traced_walls), (null, plain_walls)):
                t0 = time.perf_counter()
                counts = pipeline.run_pass(self.corpus_dir, mode)
                walls.append(time.perf_counter() - t0)
                clean = counts.diagnostics == counts.analysis_diagnostics == 0
                self.gate(None if clean and counts.passed == counts.scenarios
                          == self.corpus.scenarios
                          else f"in-process pass: {counts.diagnostics} + "
                               f"{counts.analysis_diagnostics} diagnostics, "
                               f"{counts.passed}/{counts.scenarios} passed")

        self.rounds(seconds, run_passes)
        tracer.write(spans_path)
        self.details.append(f"traced passes: {tail(traced_walls)}; "
                            f"untraced: {tail(plain_walls)}")

        per_pass = [tracer.totals(i) for i in range(len(traced_walls))]

        def med(*names: str) -> float:
            return statistics.median(sum(p.get(n, 0.0) for n in names) for p in per_pass)

        setup = statistics.median(self.setup)
        lexer_s = med("lexer.tokenize")
        metrics = {
            "lexer.busy_s": (lexer_s, "s"),
            "lexer.tokens": (counts.tokens, "count"),
            "lexer.mb_per_s": (counts.bytes / 1e6 / lexer_s, "MB/s"),
            "parser.busy_s": (med("parser.parse"), "s"),
            "parser.self_s": (statistics.median(
                p["parser.parse"] - p["lexer.tokenize"] for p in per_pass), "s"),
            "parser.nodes": (counts.nodes, "count"),
            "parser.diagnostics": (counts.diagnostics, "count"),
            "analyzer.validate_s": (med("analyzer.validate"), "s"),
            "analyzer.resolve_s": (med("analyzer.resolve"), "s"),
            "analyzer.resolve_calls": (counts.resolve_calls, "count"),
            "analyzer.name_map_s": (med("analyzer.name_map.java", "analyzer.name_map.cpp"), "s"),
            "runtime.run_s": (med("runtime.run_suite"), "s"),
            "runtime.actions": (counts.actions, "count"),
            "runtime.checks": (counts.checks, "count"),
            "runtime.pass_ratio": (counts.passed / max(counts.scenarios, 1), "ratio"),
            "runtime.render_s": (med("runtime.render_context"), "s"),
            "ir.lower_s": (med("ir.lower.java", "ir.lower.cpp"), "s"),
            "ir.statements": (counts.statements, "count"),
            "java_emitter.emit_s": (med("java_emitter.emit"), "s"),
            "java_emitter.bytes": (counts.emitted["java"], "bytes"),
            "cpp_emitter.emit_s": (med("cpp_emitter.emit"), "s"),
            "cpp_emitter.bytes": (counts.emitted["cpp"], "bytes"),
            "printer.print_s": (med("printer.print"), "s"),
            "printer.bytes": (counts.printed, "bytes"),
        }
        for module, value in imports.items():
            metrics[f"import.{module}_s"] = (value, "s")
        for name in COMMANDS:
            residual = statistics.median(self.samples[name]) - setup - med(*COMMAND_SPANS[name])
            metrics[f"cli.{name}.residual_s"] = (residual, "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
        return metrics


def write_corpus(corpus: corpora.Corpus, where: Path) -> None:
    shutil.rmtree(where, ignore_errors=True)
    for rel, text in corpus.files.items():
        path = where / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor (the self-test uses a tiny one)")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a vimotest checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    corpus_dir = WORK / "corpus" / tag
    runner = calls.Runner(ROOT, WORK)
    try:
        corpus = corpora.generate(args.workload, args.seed, args.scale)
        write_corpus(corpus, corpus_dir)
        bench = Bench(runner, corpus, corpus_dir)
        if args.trace:
            metrics = bench.traced(args.seconds, results / f"{tag}-spans.jsonl")
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        runner.close()
        shutil.rmtree(corpus_dir, ignore_errors=True)
        shutil.rmtree(runner.tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(corpus.files)} files, "
          f"{corpus.bytes} bytes, {corpus.scenarios} scenarios")
    for line in bench.details:
        print(line)
    for why in bench.failures[:10]:
        print(f"FAILED: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:.6g} {unit}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  scale=args.scale, python=sys.version.split()[0],
                  corpus={"files": len(corpus.files), "bytes": corpus.bytes,
                          "scenarios": corpus.scenarios},
                  samples=dict(bench.samples, setup=bench.setup, probe=bench.probes),
                  details=bench.details, failures=bench.failures)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
