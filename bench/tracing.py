"""In-process pipeline passes with spans around each layer's public calls.

One pass walks a corpus the way the CLI does: parse every file, validate
every description, resolve every suite, run every suite, and lower and emit
every suite for both generation configs. It also makes the calls no CLI
subcommand makes: a separate ``tokenize`` of each input, so the parser's
self time can be taken as its span minus the lexer span on the same input;
``render_context`` of every context in all three formats; and
``pretty_print`` of every parsed file. Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

CONTEXT_FORMATS = ("multiline", "json", "xml")


@dataclass
class Span:
    trace: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; all spans of one pass share the pass's trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(self.trace, span_id, parent, name, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span_id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def totals(self, trace: int) -> dict[str, float]:
        """Summed span seconds per name within one pass."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span.trace == trace:
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, with its self time."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds  # children never overlap
        with open(path, "w", encoding="utf-8") as handle:
            for span, child in zip(self.spans, covered):
                record = asdict(span)
                record["self"] = span.seconds - child
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class PassCounts:
    bytes: int = 0
    tokens: int = 0
    nodes: int = 0
    diagnostics: int = 0  # from the parser
    analysis_diagnostics: int = 0
    resolve_calls: int = 0
    actions: int = 0
    checks: int = 0
    scenarios: int = 0
    passed: int = 0
    statements: int = 0
    emitted: dict = field(default_factory=lambda: {"java": 0, "cpp": 0})
    printed: int = 0


class Pipeline:
    """Calls into the ``vimotest`` modules found on ``sys.path``."""

    def __init__(self, java_config: dict, cpp_config: dict):
        m = {name: importlib.import_module(f"vimotest.{name}") for name in (
            "lexer", "parser", "analyzer", "runtime", "ir", "java_emitter",
            "cpp_emitter", "printer", "genconfig", "taskmanager")}
        self.m = m
        self.targets = (
            ("java", m["genconfig"].parse_genconfig(java_config), m["java_emitter"].emit_java),
            ("cpp", m["genconfig"].parse_genconfig(cpp_config), m["cpp_emitter"].emit_cpp),
        )
        self.registration = m["taskmanager"].REGISTRY["taskmanager"]

    def run_pass(self, corpus_dir: Path, tracer) -> PassCounts:
        m = self.m
        counts = PassCounts()
        desc_paths = sorted(corpus_dir.rglob("*.vmdsl"))
        suite_paths = sorted(corpus_dir.rglob("*.vmtest"))
        with tracer.span("pass"):
            descriptions, suites = {}, []
            for path, parse in ([(p, m["parser"].parse_view_model) for p in desc_paths]
                                + [(p, m["parser"].parse_test_suite) for p in suite_paths]):
                data = path.read_bytes()
                text = data.decode("utf-8")
                with tracer.span("lexer.tokenize"):
                    tokens, _ = m["lexer"].tokenize(text, str(path))
                with tracer.span("parser.parse"):
                    ast, diags = parse(data, str(path))
                counts.bytes += len(data)
                counts.tokens += len(tokens)
                counts.diagnostics += len(diags)
                if ast is None:
                    continue
                counts.nodes += count_nodes(ast)
                if parse is m["parser"].parse_view_model:
                    descriptions[ast.name] = ast
                else:
                    suites.append(ast)

            for desc in descriptions.values():
                with tracer.span("analyzer.validate"):
                    diags = m["analyzer"].validate_description(desc)
                counts.analysis_diagnostics += len(diags)
            linked = []
            for suite in suites:
                with tracer.span("analyzer.resolve"):
                    link, diags = m["analyzer"].resolve(
                        suite, descriptions[suite.target_view_model])
                counts.resolve_calls += 1
                counts.analysis_diagnostics += len(diags)
                if link is not None:
                    linked.append(link)

            reg = self.registration
            for link in linked:
                with tracer.span("runtime.run_suite"):
                    results = m["runtime"].run_suite(link, reg.logic_factory, reg.setup_factory)
                counts.scenarios += len(results)
                counts.passed += sum(r.status == "passed" for r in results)
                for scenario in link.scenarios:
                    counts.actions += len(scenario.actions)
                    counts.checks += len(scenario.checks)
                    for context in scenario.contexts:
                        for fmt in CONTEXT_FORMATS:
                            with tracer.span("runtime.render_context"):
                                m["runtime"].render_context(context.body, fmt)

            covered = {link.description.name for link in linked}
            units = [(link.description, link) for link in linked]
            units += [(d, None) for name, d in descriptions.items() if name not in covered]
            for target, config, emit in self.targets:
                for desc, link in units:
                    with tracer.span(f"analyzer.name_map.{target}"):
                        name_map, _ = m["analyzer"].compute_name_map(desc, config)
                    with tracer.span(f"ir.lower.{target}"):
                        unit = m["ir"].lower_to_ir(desc, link, name_map, config)
                    with tracer.span(f"{target}_emitter.emit"):
                        files = emit(unit, name_map, config)
                    counts.statements += sum(len(t.statements) for t in unit.tests)
                    counts.emitted[target] += sum(len(text.encode("utf-8"))
                                                  for _, text in files)

            for ast in list(descriptions.values()) + suites:
                with tracer.span("printer.print"):
                    text = m["printer"].pretty_print(ast)
                counts.printed += len(text.encode("utf-8"))
        return counts


def count_nodes(ast) -> int:
    """Scenarios, contexts, actions, checks and table rows of a suite, or
    widgets and commands of a description."""
    if hasattr(ast, "widgets"):
        return len(ast.widgets) + len(ast.commands)
    total = 0
    for scenario in ast.scenarios:
        total += 1 + len(scenario.given) + len(scenario.when) + len(scenario.then)
        for context in scenario.given:
            total += len(getattr(context.body, "rows", ()))
        for check in scenario.then:
            total += len(getattr(check.expectation, "rows", ()))
    return total
