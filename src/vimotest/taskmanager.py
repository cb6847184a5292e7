"""Reference task-manager presentation logic for the shipped corpus.

The logic implements the ViewModel behavior the corpus scenarios exercise:
loading tasks from a data-table context, appending a freshly selected
"New Task" row, and deleting the selected row. Four deliberately broken
variants are registered alongside it so mutation tests can verify that each
defect is caught by exactly one assertion.
"""

from __future__ import annotations

from typing import Callable

from .diagnostics import Record
from .runtime import CellValue, RowValue, WidgetStateStore

URGENT_PRIORITY = "prioHigh"
NEW_TASK_PRIORITY = "prioNone"


def parse_multiline_table(payload: str) -> tuple[list[str], list[list[str]]]:
    """Split a multiline-rendered data table back into header and rows."""
    lines = payload.split("\n")
    header = [cell.strip() for cell in lines[0].split("|")]
    rows = [[cell.strip() for cell in line.split("|")] for line in lines[1:]]
    return header, rows


class TaskManagerLogic:
    """Presentation logic behind the TaskListViewModel corpus description."""

    color_urgent_rows = True
    clear_new_due_date = True
    append_new_task = True
    select_new_task = True

    def handle(self, command: str, args: list, store: WidgetStateStore) -> None:
        if command == "LoadView":
            self._load(args[0], store)
        elif command == "addNewTaskClick":
            self._add_task(store)
        elif command == "deleteTaskClick":
            self._delete_task(store)
        elif command == "tasksSelectRow":
            pass  # selection already applied by the view
        else:
            raise ValueError(f"unhandled command {command!r}")

    def _load(self, payload: str, store: WidgetStateStore) -> None:
        _, data = parse_multiline_table(payload)
        rows = []
        for priority, name, due, due_long in data:
            color = None
            if self.color_urgent_rows and priority == URGENT_PRIORITY:
                color = "red"
            rows.append(RowValue(
                cells=(CellValue(text=priority),
                       CellValue(text=name),
                       CellValue(text=due, tooltip=due_long or None)),
                color=color))
        store.set_rows("Tasks", rows)
        store.set("AddNewTask", "enabled", True)
        store.set("DeleteTask", "enabled", len(rows) > 0)

    def _add_task(self, store: WidgetStateStore) -> None:
        rows = store.rows("Tasks")
        if self.append_new_task:
            due = "" if self.clear_new_due_date else "TBD"
            rows.append(RowValue(cells=(CellValue(text=NEW_TASK_PRIORITY),
                                        CellValue(text="New Task"),
                                        CellValue(text=due))))
            store.set_rows("Tasks", rows)
            if self.select_new_task:
                store.set("Tasks", "selectedRow", len(rows) - 1)
        store.set("DeleteTask", "enabled", len(rows) > 0)

    def _delete_task(self, store: WidgetStateStore) -> None:
        selected = store.selected_row("Tasks")
        if selected is None:
            return
        rows = store.rows("Tasks")
        store.set("Tasks", "selectedRow", None)
        del rows[selected]
        store.set_rows("Tasks", rows)
        store.set("DeleteTask", "enabled", len(rows) > 0)


class NewTaskNotSelectedLogic(TaskManagerLogic):
    select_new_task = False


class DueDateNotClearedLogic(TaskManagerLogic):
    clear_new_due_date = False


class RowColorDroppedLogic(TaskManagerLogic):
    color_urgent_rows = False


class RowNotAppendedLogic(TaskManagerLogic):
    append_new_task = False


class RecordingSetup:
    """Test setup that records every delivered context for inspection."""

    def __init__(self):
        self.contexts: dict[str, str] = {}
        self.deliveries: list[tuple[str, str, str]] = []

    def provide_context(self, name: str, payload: str, delivery: str) -> None:
        self.deliveries.append((name, payload, delivery))
        if delivery == "file":
            with open(payload, encoding="utf-8") as handle:
                self.contexts[name] = handle.read()
        else:
            self.contexts[name] = payload


class SetupRegistration(Record):
    logic_factory: Callable[[], object]
    setup_factory: Callable[[], object] = RecordingSetup
    summary: str = ""


REGISTRY: dict[str, SetupRegistration] = {
    "taskmanager": SetupRegistration(
        TaskManagerLogic, summary="reference task-manager logic"),
    "taskmanager-buggy": SetupRegistration(
        NewTaskNotSelectedLogic, summary="mutant: new row is not selected"),
    "taskmanager-keepdue": SetupRegistration(
        DueDateNotClearedLogic, summary="mutant: new row keeps a due date"),
    "taskmanager-nocolor": SetupRegistration(
        RowColorDroppedLogic, summary="mutant: urgent rows lose their color"),
    "taskmanager-noappend": SetupRegistration(
        RowNotAppendedLogic, summary="mutant: add click appends nothing"),
}
