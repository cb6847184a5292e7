"""Seeded corpus generators for the benchmark workloads.

Each generator writes DSL text directly (no AST, no pretty-printer), so the
inputs do not change when the program's own printer or test generators
change. Alongside the text it records what a correct toolchain must produce:
the scenario count of every suite and the file names ``gen`` writes. For the
task-manager scenarios it works out the final table, selection and button
state from its own model of the reference ``taskmanager`` logic.

``scale`` multiplies the number of suites (``tables``, ``steps``) or models
(``models``); the shape of each file stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("tables", "steps", "models")

TASK_COLUMNS = ("Priority", "Task Name", "Due Date")
CONTEXT_HEADER = ("Priority", "Task Name", "Due Date", "Due Date Long")
PRIORITIES = ("prioLow", "prioMedium", "prioHigh")
URGENT = "prioHigh"
NEW_TASK = ("prioNone", "New Task", "", None)

MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")

# Words for long cell text. Some need escaping in Java, C++, XML or JSON.
WORDS = (
    "review", "quarterly", "budget", "draft", "send", "invoice", "call",
    "the", "team", "about", "release", "notes", "update", "server", "backup",
    "plan", "sprint", "retro", "fix", "login", "bug", "write", "report",
    "client", "meeting", "prepare", "slides", "for", "board", "check",
    "R&D", "<urgent>", "it's", "50%", "a/b", "(draft)", "\"final\"",
    "C:\\temp", "café", "naïve", "x>y", "#42", "e-mail", "follow-up",
)
PLAIN_WORDS = tuple(w for w in WORDS if w.isalpha())

TASK_MANAGER_VMDSL = """\
// Task manager: a task table plus buttons for creating and deleting tasks.
viewmodel TaskListViewModel {
  widgets {
    table Tasks {
      columns {
        image "Priority"
        label "Task Name"
        label "Due Date"
      }
      supports selectedRow
    }
    button AddNewTask {
      supports enabled
      example enabled = true
    }
    button DeleteTask {
      supports enabled
    }
  }
  commands {
    command LoadView(tasks: context)
    selectRow on Tasks
    click on AddNewTask
    click on DeleteTask
  }
}
"""


@dataclass
class Corpus:
    """Generated sources plus the outputs a correct toolchain produces."""

    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    suites: dict[str, int] = field(default_factory=dict)  # suite -> scenarios
    suite_snake: dict[str, str] = field(default_factory=dict)
    # ViewModel type name -> snake-case file stem
    view_models: dict[str, str] = field(default_factory=dict)

    @property
    def scenarios(self) -> int:
        return sum(self.suites.values())

    @property
    def bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.files.values())

    def java_outputs(self) -> dict[str, int]:
        """Files ``gen`` writes with the default Java config, mapped to the
        number of tests each holds (0 for class files)."""
        out = {f"{vm}.java": 0 for vm in self.view_models}
        out.update({f"{s}Test.java": n for s, n in self.suites.items()})
        return out

    def cpp_outputs(self) -> dict[str, int]:
        """Files ``gen`` writes with the benchmark's C++ config (view
        controller on), mapped to the number of tests each holds."""
        out: dict[str, int] = {}
        for stem in self.view_models.values():
            out[f"{stem}.hpp"] = 0
            out[f"{stem}_controller.hpp"] = 0
        for suite, n in self.suites.items():
            out[f"{self.suite_snake[suite]}_test.cpp"] = n
        if self.suites:
            out["vimotest_assert.hpp"] = 0
        return out


def generate(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, scale)


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# ---------------------------------------------------------------------------
# DSL text helpers
# ---------------------------------------------------------------------------


def dsl_string(value: str) -> str:
    """A double-quoted DSL string literal."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _pipe_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _long_text(rng: random.Random, low: int, high: int) -> str:
    target = rng.randint(low, high)
    words = [rng.choice(PLAIN_WORDS).capitalize()]
    while len(" ".join(words)) < target:
        words.append(rng.choice(WORDS))
    return " ".join(words)


def _due(rng: random.Random) -> tuple[str, str]:
    month = rng.randrange(12)
    day = rng.randint(1, 28)
    suffix = {1: "st", 2: "nd", 3: "rd", 21: "st", 22: "nd", 23: "rd"}.get(day, "th")
    return f"2024-{month + 1:02d}-{day:02d}", f"{day}{suffix} {MONTHS[month]} 2024"


# ---------------------------------------------------------------------------
# Task-manager oracle
# ---------------------------------------------------------------------------


class TaskBoard:
    """Model of the reference ``taskmanager`` logic on TaskListViewModel.

    A row is ``(priority, name, due, tooltip)``; urgent rows are red.
    """

    def __init__(self, rows):
        self.rows = [(p, n, d, long or None) for p, n, d, long in rows]
        self.selected: int | None = None
        self.delete_enabled = bool(self.rows)

    def add(self) -> None:
        self.rows.append(NEW_TASK)
        self.selected = len(self.rows) - 1
        self.delete_enabled = True

    def select(self, index: int) -> None:
        self.selected = index

    def delete(self) -> None:
        if self.selected is None:
            return
        del self.rows[self.selected]
        self.selected = None
        self.delete_enabled = bool(self.rows)

    def then_part(self, indent: str) -> list[str]:
        """Checks of every row, the selection and both buttons."""
        out = [f"{indent}table Tasks {{", f"{indent}  rows {{",
               f"{indent}    {_pipe_row(TASK_COLUMNS)}"]
        for i, (priority, name, due, tooltip) in enumerate(self.rows):
            due_cell = due if tooltip is None else f"{due} [tooltip {dsl_string(tooltip)}]"
            marks = " [selected]" if i == self.selected else ""
            marks += " [color red]" if priority == URGENT else " [color none]"
            out.append(f"{indent}    {_pipe_row((priority, name, due_cell))}{marks}")
        out.append(f"{indent}  }}")
        if self.selected is None:
            out.append(f"{indent}  selectedRow none")
        out.append(f"{indent}}}")
        out.append(f"{indent}button AddNewTask enabled true")
        out.append(f"{indent}button DeleteTask enabled "
                   f"{'true' if self.delete_enabled else 'false'}")
        return out


def _context_table(name: str, rows, indent: str) -> list[str]:
    out = [f"{indent}datatable {name} {{", f"{indent}  {_pipe_row(CONTEXT_HEADER)}"]
    out.extend(f"{indent}  {_pipe_row(row)}" for row in rows)
    out.append(f"{indent}}}")
    return out


def _scenario(title: str, given: list[str], when: list[str], then: list[str]) -> list[str]:
    return ([f"  scenario {dsl_string(title)} {{", "    given {"] + given
            + ["    }", "    when {"] + when + ["    }", "    then {"] + then
            + ["    }", "  }"])


def _suite_text(name: str, target: str, scenarios: list[list[str]], comment: str) -> str:
    lines = [f"// {comment}", f"testsuite {name} for {target} {{"]
    for scenario in scenarios:
        lines.extend(scenario)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tables: few suites, tens of long text rows, 1-2 actions
# ---------------------------------------------------------------------------


def _tables(rng: random.Random, scale: float) -> Corpus:
    corpus = Corpus()
    corpus.files["task_list.vmdsl"] = TASK_MANAGER_VMDSL
    corpus.view_models["TaskListViewModel"] = "task_list_view_model"
    for s in range(1, _count(6, scale) + 1):
        suite = f"Tables{s:02d}Tests"
        scenarios = []
        for k in range(1, 13):
            rows = []
            for _ in range(rng.randint(30, 40)):
                due, due_long = _due(rng)
                long = "" if rng.random() < 0.15 else f"{due_long}, {_long_text(rng, 20, 40)}"
                rows.append((rng.choice(PRIORITIES), _long_text(rng, 50, 90), due, long))
            board = TaskBoard(rows)
            context = f"tasks{k:02d}"
            when = [f"      LoadView({context})"]
            action = rng.randrange(3)
            if action == 1:
                board.add()
                when.append("      click AddNewTask")
            elif action == 2:
                index = rng.randrange(len(board.rows))
                board.select(index)
                when.append(f"      selectRow Tasks {index}")
            scenarios.append(_scenario(
                f"Table scenario {s:02d}-{k:02d} with {len(rows)} tasks",
                _context_table(context, rows, "      "), when,
                board.then_part("      ")))
        corpus.suites[suite] = len(scenarios)
        corpus.suite_snake[suite] = f"tables{s:02d}_tests"
        corpus.files[f"tables{s:02d}.vmtest"] = _suite_text(
            suite, "TaskListViewModel", scenarios,
            "Text-dense scenarios: long cells, tooltips and colours.")
    return corpus


# ---------------------------------------------------------------------------
# steps: many suites on one description, hundreds of actions per scenario
# ---------------------------------------------------------------------------


def _steps(rng: random.Random, scale: float) -> Corpus:
    corpus = Corpus()
    corpus.files["task_list.vmdsl"] = TASK_MANAGER_VMDSL
    corpus.view_models["TaskListViewModel"] = "task_list_view_model"
    for s in range(1, _count(10, scale) + 1):
        suite = f"Steps{s:02d}Tests"
        scenarios = []
        for k in range(1, 3):
            rows = []
            for i in range(150):
                due, due_long = _due(rng)
                name = f"{rng.choice(PLAIN_WORDS).capitalize()} {rng.choice(PLAIN_WORDS)} {i}"
                rows.append((rng.choice(PRIORITIES), name, due,
                             "" if rng.random() < 0.2 else due_long))
            board = TaskBoard(rows)
            context = f"tasks{k}"
            when = [f"      LoadView({context})"]
            for _ in range(400):
                when.append(_step(rng, board))
            scenarios.append(_scenario(
                f"Step scenario {s:02d}-{k} with {len(when)} actions",
                _context_table(context, rows, "      "), when,
                board.then_part("      ")))
        corpus.suites[suite] = len(scenarios)
        corpus.suite_snake[suite] = f"steps{s:02d}_tests"
        corpus.files[f"steps{s:02d}.vmtest"] = _suite_text(
            suite, "TaskListViewModel", scenarios,
            "Action-heavy scenarios: long select/add/delete sequences.")
    return corpus


def _step(rng: random.Random, board: TaskBoard) -> str:
    """One random action, applied to the oracle; keeps about 150 rows."""
    count = len(board.rows)
    roll = rng.random()
    grow = 0.3 + (150 - count) * 0.02
    if roll < 0.4:
        index = rng.randrange(count)
        board.select(index)
        return f"      selectRow Tasks {index}"
    if roll < 0.4 + 0.6 * min(max(grow, 0.05), 0.95):
        board.add()
        return "      click AddNewTask"
    board.delete()
    return "      click DeleteTask"


# ---------------------------------------------------------------------------
# models: many declaration-dense descriptions, read-heavy checks
# ---------------------------------------------------------------------------

_COLUMN_KINDS = ("label", "image", "checkbox")
_COLUMN_TITLES = ("Name", "Owner", "State", "Icon", "Done", "Notes", "Size")


@dataclass
class _Widget:
    kind: str
    name: str
    supports: list[str]
    examples: dict[str, object]
    columns: list[tuple[str, str]] = field(default_factory=list)

    def value(self, feature: str):
        default = "" if feature == "text" else False
        return self.examples.get(feature, default)


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return dsl_string(value)


def _extra_widgets(rng: random.Random) -> list[_Widget]:
    widgets = []
    for n in range(1, 9):
        for kind, prefix, inherent in (("button", "Btn", None), ("label", "Lbl", "text"),
                                       ("checkbox", "Chk", "checked"),
                                       ("textfield", "Txt", "text"),
                                       ("table", "Tbl", None)):
            name = f"{prefix}{n:02d}"
            if kind == "table":
                supports = [f for f in ("selectedRow", "visible", "enabled")
                            if rng.random() < 0.5]
                titles = rng.sample(_COLUMN_TITLES, rng.randint(2, 4))
                columns = [(rng.choice(_COLUMN_KINDS), t) for t in titles]
                widgets.append(_Widget(kind, name, supports, {}, columns))
                continue
            supports = [f for f in ("enabled", "visible") if rng.random() < 0.6]
            examples: dict[str, object] = {}
            for feature in supports:
                if rng.random() < 0.5:
                    examples[feature] = rng.random() < 0.5
            if inherent == "checked" and rng.random() < 0.5:
                examples["checked"] = True
            if inherent == "text" and rng.random() < 0.7:
                examples["text"] = _long_text(rng, 8, 30)
            widgets.append(_Widget(kind, name, supports, examples))
    return widgets


def _model_vmdsl(view_model: str, widgets: list[_Widget], rng: random.Random) -> str:
    lines = TASK_MANAGER_VMDSL.splitlines()[1:-2]  # up to the last command
    lines[0] = f"viewmodel {view_model} {{"
    widget_end = lines.index("  }")
    extra: list[str] = []
    for w in widgets:
        if w.kind == "table":
            extra.append(f"    table {w.name} {{")
            extra.append("      columns {")
            extra.extend(f"        {kind} {dsl_string(title)}" for kind, title in w.columns)
            extra.append("      }")
            if w.supports:
                extra.append(f"      supports {', '.join(w.supports)}")
            extra.append("    }")
            continue
        body = []
        if w.supports:
            body.append(f"      supports {', '.join(w.supports)}")
        for feature, value in w.examples.items():
            body.append(f"      example {feature} = {_literal(value)}")
        if body:
            extra.extend([f"    {w.kind} {w.name} {{"] + body + ["    }"])
        else:
            extra.append(f"    {w.kind} {w.name}")
    lines[widget_end:widget_end] = extra
    for w in widgets:
        if w.kind == "button":
            lines.append(f"    click on {w.name}")
        elif w.kind == "checkbox":
            lines.append(f"    check on {w.name}")
        elif w.kind == "textfield":
            lines.append(f"    fillText on {w.name}")
        elif w.kind == "table" and "selectedRow" in w.supports:
            lines.append(f"    selectRow on {w.name}")
    for n in range(1, 7):
        params = rng.choice(("", "message: string", "count: int, urgent: bool",
                             "message: string, count: int, urgent: bool, payload: context"))
        lines.append(f"    command Notify{n:02d}({params})")
    lines.extend(["  }", "}"])
    return "// Declaration-dense model: every widget kind and command form.\n" + \
        "\n".join(lines) + "\n"


def _model_then(widgets: list[_Widget], board: TaskBoard) -> list[str]:
    then = board.then_part("      ")
    for w in widgets:
        if w.kind == "table":
            then.append(f"      table {w.name} {{")
            then.append("        rows {")
            then.append(f"          {_pipe_row(t for _, t in w.columns)}")
            then.append("        }")
            if "selectedRow" in w.supports:
                then.append("        selectedRow none")
            then.append("      }")
            continue
        features = []
        inherent = {"label": "text", "checkbox": "checked", "textfield": "text"}.get(w.kind)
        for feature in ([inherent] if inherent else []) + w.supports:
            features.append(f"{feature} {_literal(w.value(feature))}")
        if features:
            then.append(f"      {w.kind} {w.name} {' '.join(features)}")
    return then


def _models(rng: random.Random, scale: float) -> Corpus:
    corpus = Corpus()
    for m in range(1, _count(40, scale) + 1):
        view_model = f"Model{m:03d}ViewModel"
        suite = f"Model{m:03d}Tests"
        widgets = _extra_widgets(rng)
        corpus.files[f"model{m:03d}.vmdsl"] = _model_vmdsl(view_model, widgets, rng)
        corpus.view_models[view_model] = f"model{m:03d}_view_model"
        scenarios = []
        for k in range(1, 3):
            rows = []
            for _ in range(rng.randint(2, 4)):
                due, due_long = _due(rng)
                rows.append((rng.choice(PRIORITIES), _long_text(rng, 8, 20), due, due_long))
            board = TaskBoard(rows)
            context = f"tasks{k}"
            when = [f"      LoadView({context})"]
            if rng.random() < 0.5:
                board.add()
                when.append("      click AddNewTask")
            scenarios.append(_scenario(
                f"Model {m:03d} reads every feature, pass {k}",
                _context_table(context, rows, "      "), when,
                _model_then(widgets, board)))
        corpus.suites[suite] = len(scenarios)
        corpus.suite_snake[suite] = f"model{m:03d}_tests"
        corpus.files[f"model{m:03d}.vmtest"] = _suite_text(
            suite, view_model, scenarios, "Read-heavy checks of every feature.")
    return corpus


_GENERATORS = {"tables": _tables, "steps": _steps, "models": _models}
