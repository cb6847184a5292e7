import json
import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astgen import random_grid
from test_literals import HAZARD_TEXT
from vimotest import runtime
from vimotest.analyzer import resolve
from vimotest.model import (
    CellExpectation,
    ColumnSpec,
    CellKind,
    DataTableBody,
    FeatureKind,
    FileBody,
    RowExpectation,
    RowsExpectation,
    TextBody,
    ViewModelDescription,
    WidgetDecl,
    WidgetKind,
    xml_attribute_name,
)
from vimotest.parser import parse_test_suite
from vimotest.runtime import (
    CellValue,
    ExecutionError,
    RowValue,
    RunConfig,
    StoreError,
    WidgetStateStore,
    evaluate_rows_check,
    execute_scenario,
    render_context,
    run_suite,
)
from vimotest.taskmanager import REGISTRY, RecordingSetup, TaskManagerLogic


class TestRenderContext:
    def test_minimal_json(self):
        body = DataTableBody(header=("A",), rows=(("x",),))
        assert render_context(body, "json") == '[{"A":"x"}]'

    def test_minimal_xml(self):
        body = DataTableBody(header=("A",), rows=(("x",),))
        assert render_context(body, "xml") == '<rows><row A="x"/></rows>'

    def test_corpus_multiline_has_three_lines(self, corpus_linked):
        (scenario,) = corpus_linked.scenarios
        (context,) = scenario.contexts
        rendered = render_context(context.body, "multiline")
        assert rendered.count("\n") == 2
        assert rendered.splitlines()[0] == \
            "Priority | Task Name | Due Date | Due Date Long"

    def test_xml_escapes_attribute_values(self):
        body = DataTableBody(header=("A B",), rows=(('x < "y" & z',),))
        rendered = render_context(body, "xml")
        assert rendered == '<rows><row A_B="x &lt; &quot;y&quot; &amp; z"/></rows>'

    @given(HAZARD_TEXT)
    def test_xml_escape_matches_the_replace_chain(self, value):
        """The escape, which skips a value with nothing to escape, against
        one chain of replaces run on every value."""
        assert runtime._xml_escape(value) == (
            value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;"))

    def test_titles_that_are_not_xml_names_become_xml_names(self):
        body = DataTableBody(header=("", "1x", "a&b", "a:b c"), rows=(("1", "2", "3", "4"),))
        assert render_context(body, "xml") == \
            '<rows><row _="1" _1x="2" a_b="3" a_b_c="4"/></rows>'

    # U+0132, U+0221, U+F900 and U+10000 are names in the fifth edition of
    # XML 1.0 but not in the fourth, whose tables expat (and so ElementTree)
    # keeps.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    @example(["\u0132", "a\u0221", "\uf900x", "\U00010000"])
    def test_xml_is_well_formed_for_any_titles(self, titles):
        # The parser rejects titles that share an attribute name (E106).
        if len({xml_attribute_name(t) for t in titles}) < len(titles):
            return
        body = DataTableBody(header=tuple(titles), rows=(tuple("v" * len(titles)),))
        assert reparse_xml(render_context(body, "xml"), body.header) == body

    # Every character XML 1.0 allows: tab, LF, CR, and from U+0020 up all
    # but the surrogates, U+FFFE and U+FFFF.
    XML_CHARS = st.characters(min_codepoint=0x9, exclude_categories=("Cs",)).filter(
        lambda c: c in "\t\n\r" or " " <= c and c not in "￾￿")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(XML_CHARS, max_size=8), st.text(XML_CHARS, max_size=8)),
                    max_size=4))
    @example([("tab\there", "cr\rlf\n"), ("\r\n", " \t ")])
    def test_xml_gives_back_the_cells_exactly(self, rows):
        """A conforming parser keeps a tab, LF or CR in a cell, which a raw
        one in an attribute value would become a space."""
        body = DataTableBody(header=("A", "B c"), rows=tuple(rows))
        assert reparse_xml(render_context(body, "xml"), body.header) == body

    def test_non_table_bodies_pass_through_for_every_format(self):
        body = TextBody(text="raw\npayload")
        for fmt in ("multiline", "json", "xml"):
            assert render_context(body, fmt) == "raw\npayload"

    def test_missing_context_file_is_an_execution_error(self, tmp_path):
        with pytest.raises(ExecutionError, match="no_such_file"):
            render_context(FileBody(path=str(tmp_path / "no_such_file.txt")))

    def test_file_body_reads_content(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("from disk", encoding="utf-8")
        assert render_context(FileBody(path=str(path))) == "from disk"

    def test_three_way_equivalence_on_random_grids(self):
        rng = random.Random(3333)
        for _ in range(50):
            body = random_grid(rng)
            assert reparse_multiline(render_context(body, "multiline")) == body
            assert reparse_json(render_context(body, "json"), body.header) == body
            assert reparse_xml(render_context(body, "xml"), body.header) == body


def reparse_multiline(text: str) -> DataTableBody:
    lines = text.split("\n")
    header = tuple(c.strip() for c in lines[0].split("|"))
    rows = tuple(tuple(c.strip() for c in line.split("|")) for line in lines[1:])
    return DataTableBody(header=header, rows=rows)


def reparse_json(text: str, header) -> DataTableBody:
    records = json.loads(text)
    rows = tuple(tuple(record[title] for title in header) for record in records)
    return DataTableBody(header=tuple(header), rows=rows)


def reparse_xml(text: str, header) -> DataTableBody:
    root = ET.fromstring(text)
    names = [xml_attribute_name(t) for t in header]
    rows = tuple(tuple(el.attrib[name] for name in names) for el in root)
    return DataTableBody(header=tuple(header), rows=rows)


def table_description(columns=3, selectable=True) -> ViewModelDescription:
    titles = [f"Col{i}" for i in range(columns)]
    optional = frozenset({FeatureKind.SELECTED_ROW}) if selectable else frozenset()
    return ViewModelDescription(name="V", widgets=(
        WidgetDecl(name="T", kind=WidgetKind.TABLE, enabled_optional=optional,
                   columns=tuple(ColumnSpec(cell_kind=CellKind.LABEL, title=t)
                                 for t in titles)),))


class TestWidgetStateStore:
    def test_rejects_unknown_widget_and_undeclared_feature(self, corpus_desc):
        store = WidgetStateStore(corpus_desc)
        with pytest.raises(StoreError, match="unknown widget"):
            store.set("Ghost", "enabled", True)
        with pytest.raises(StoreError, match="does not have"):
            store.set("AddNewTask", "visible", True)

    def test_example_values_seed_initial_state(self, corpus_desc):
        store = WidgetStateStore(corpus_desc)
        assert store.get("AddNewTask", "enabled") is True
        assert store.get("DeleteTask", "enabled") is False

    def test_row_arity_enforced(self):
        store = WidgetStateStore(table_description(columns=2))
        with pytest.raises(StoreError, match="2 columns"):
            store.set_rows("T", [RowValue(cells=(CellValue("only"),))])

    def test_selected_row_bounds(self):
        store = WidgetStateStore(table_description())
        store.set_rows("T", [RowValue(cells=(CellValue(),) * 3)])
        store.set("T", "selectedRow", 0)
        with pytest.raises(StoreError, match="out of range"):
            store.set("T", "selectedRow", 1)

    def test_shrinking_rows_below_selection_rejected(self):
        store = WidgetStateStore(table_description())
        store.set_rows("T", [RowValue(cells=(CellValue(),) * 3)] * 2)
        store.set("T", "selectedRow", 1)
        with pytest.raises(StoreError, match="clear the selection"):
            store.set_rows("T", [RowValue(cells=(CellValue(),) * 3)])

    def test_invalid_color_rejected(self):
        store = WidgetStateStore(table_description())
        with pytest.raises(StoreError, match="color"):
            store.set_rows("T", [RowValue(cells=(CellValue(),) * 3,
                                          color="purple")])

    def test_type_validation(self, corpus_desc):
        store = WidgetStateStore(corpus_desc)
        with pytest.raises(StoreError, match="bool"):
            store.set("AddNewTask", "enabled", 1)

    def test_non_string_cell_text_and_tooltip_rejected(self):
        store = WidgetStateStore(table_description())
        with pytest.raises(StoreError) as caught:
            store.set_rows("T", [RowValue(cells=(CellValue(text=5),
                                                 CellValue(text=None, tooltip=7),
                                                 CellValue()))])
        assert str(caught.value) == "T cell text must be a string, got 5"
        with pytest.raises(StoreError) as caught:
            store.set_rows("T", [RowValue(cells=(CellValue(), CellValue(tooltip=7),
                                                 CellValue()))])
        assert str(caught.value) == "T cell tooltip must be a string or None, got 7"
        # An append to a trusted table checks the new row's cells too.
        row = RowValue(cells=(CellValue(text="a", tooltip="b"), CellValue(), CellValue()))
        store.set_rows("T", [row])
        with pytest.raises(StoreError, match="T cell text must be a string, got None"):
            store.set_rows("T", [row, RowValue(cells=(CellValue(),) * 2
                                               + (CellValue(text=None),))])
        assert store.rows("T") == [row]

    def test_rows_and_cells_of_the_wrong_type_rejected(self):
        """Each wrong type is a StoreError, never an AttributeError or a
        TypeError from reading it."""
        store = WidgetStateStore(table_description())
        for rows, message in (
                ([RowValue(cells=("a", "b", "c"))],
                 "T row cells must be CellValue items, got 'a'"),
                ([RowValue(cells=[CellValue(), CellValue(), None])],
                 "T row cells must be CellValue items, got None"),
                ([RowValue(cells=5)], "T row cells must be a tuple or list of CellValue, got 5"),
                (5, "T.rows takes RowValue items, got 5")):
            with pytest.raises(StoreError) as caught:
                store.set_rows("T", rows)
            assert str(caught.value) == message
        # An append to a trusted table checks the new row's cell types too.
        row = RowValue(cells=(CellValue(),) * 3)
        store.set_rows("T", [row])
        with pytest.raises(StoreError, match="T row cells must be CellValue items, got 'c'"):
            store.set_rows("T", [row, RowValue(cells=(CellValue(), CellValue(), "c"))])
        assert store.rows("T") == [row]


# ---------------------------------------------------------------------------
# The store's write contract against a reference that validates every row of
# every write. The store itself skips the rows a write keeps in place at the
# start and end of a trusted table; the answers (accept, or reject with a
# message) must be the same.
# ---------------------------------------------------------------------------

REFERENCE_COLORS = ("red", "green", "yellow", "blue", "gray")
ARITY = {"A": 3, "B": 2}


def two_table_description() -> ViewModelDescription:
    return ViewModelDescription(name="V", widgets=tuple(
        WidgetDecl(name=name, kind=WidgetKind.TABLE,
                   enabled_optional=frozenset({FeatureKind.SELECTED_ROW}),
                   columns=tuple(ColumnSpec(cell_kind=CellKind.LABEL, title=f"C{i}")
                                 for i in range(arity)))
        for name, arity in ARITY.items()))


class PaintedRow(RowValue):
    """A RowValue subclass; the store must not trust it across writes."""


def reference_rows_error(table, rows, selected):
    arity = ARITY[table]
    for row in rows:
        if not isinstance(row, RowValue):
            return f"{table}.rows takes RowValue items, got {row!r}"
        if not isinstance(row.cells, (tuple, list)):
            return f"{table} row cells must be a tuple or list of CellValue, got {row.cells!r}"
        if len(row.cells) != arity:
            return (f"{table} row has {len(row.cells)} cells; "
                    f"the table declares {arity} columns")
        if row.color is not None and row.color not in REFERENCE_COLORS:
            return (f"{table} row color must be one of {REFERENCE_COLORS}, "
                    f"got {row.color!r}")
        for c in row.cells:
            if not isinstance(c, CellValue):
                return f"{table} row cells must be CellValue items, got {c!r}"
            if c.color is not None and c.color not in REFERENCE_COLORS:
                return (f"{table} cell color must be one of {REFERENCE_COLORS}, "
                        f"got {c.color!r}")
            if not isinstance(c.text, str):
                return f"{table} cell text must be a string, got {c.text!r}"
            if c.tooltip is not None and not isinstance(c.tooltip, str):
                return f"{table} cell tooltip must be a string or None, got {c.tooltip!r}"
    if isinstance(selected, int) and selected >= len(rows):
        return (f"{table}.selectedRow = {selected} would exceed the new row "
                f"count {len(rows)}; clear the selection first")
    return None


def reference_selection_error(table, value, count):
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        return f"{table}.selectedRow takes an int or None, got {value!r}"
    if not 0 <= value < count:
        return f"{table}.selectedRow = {value} is out of range for {count} row(s)"
    return None


COLOR_CHOICES = st.sampled_from([None, None, "red", "gray", "purple"])
ROW_SPECS = st.tuples(
    st.sampled_from(["plain", "list", "subclass", "foreign"]),
    st.sampled_from([3, 2, 3, 2, 1]),
    COLOR_CHOICES,
    st.lists(COLOR_CHOICES, min_size=3, max_size=3),
)
TABLES = st.sampled_from(sorted(ARITY))
POOL = st.integers(0, 3)
STORE_OPS = st.one_of(
    st.tuples(st.just("write"), TABLES, st.lists(POOL, max_size=4)),
    st.tuples(st.just("append"), TABLES, POOL),
    st.tuples(st.just("delete"), TABLES, POOL),
    st.tuples(st.just("rewrite"), TABLES),
    st.tuples(st.just("insert"), TABLES, POOL, st.integers(0, 5)),
    st.tuples(st.just("move"), TABLES, st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("reverse"), TABLES),
    # One row object at both ends: a pool row, or the table's own first row.
    st.tuples(st.just("ends"), TABLES, st.one_of(POOL, st.none())),
    st.tuples(st.just("select"), TABLES,
              st.sampled_from([None, -1, 0, 1, 2, 4, True, "0"])),
    st.tuples(st.just("mutate"), POOL, st.sampled_from(["purple", "purple", None]),
              st.booleans()),
)


def build_row(spec):
    kind, arity, color, cell_colors = spec
    cells = [CellValue(text=f"t{i}", color=cell_colors[i]) for i in range(arity)]
    if kind == "plain":
        return RowValue(cells=tuple(cells), color=color)
    if kind == "list":
        return RowValue(cells=cells, color=color)
    if kind == "subclass":
        return PaintedRow(cells=tuple(cells), color=color)
    return ("not", "a", "row")


def mutate(row, color, resize):
    """Change a row the store may have accepted, where the type allows it."""
    if isinstance(row, RowValue) and type(row.cells) is list:
        if resize:
            row.cells.append(CellValue())
        else:
            row.cells[0] = CellValue(color=color)
    elif type(row) is PaintedRow:
        object.__setattr__(row, "color", color)


# Mostly plain rows, so the table is trusted and the store's shortcuts run.
EDIT_ROWS = st.sampled_from(["plain"] * 12 + [
    "list", "subclass", "row color", "cell color", "arity", "int text", "int tooltip",
    "foreign", "str cell", "int cells"])
INDEX = st.integers(0, 40)
EDITS = st.one_of(
    st.tuples(st.just("append"), EDIT_ROWS),
    st.tuples(st.just("insert"), INDEX, EDIT_ROWS),
    st.tuples(st.just("delete"), INDEX),
    st.tuples(st.just("delete many"), st.lists(INDEX, min_size=2, max_size=4)),
    st.tuples(st.just("move"), INDEX, INDEX),
    # Every row rebuilt equal (or one of them different), with a row appended or not.
    st.tuples(st.just("rebuild"), st.one_of(st.none(), INDEX), st.booleans()),
    # One row replaced by a new one or rebuilt equal, then maybe one of the
    # edits the store compares by ==.
    st.tuples(st.just("replace"), INDEX, st.one_of(st.just("equal"), EDIT_ROWS),
              st.sampled_from(["append", "delete", None]), INDEX),
)


def edit_row(kind, serial):
    """A row for table A (three columns); only the first six kinds are valid."""
    cells = [CellValue(text=f"r{serial}c{i}", tooltip=f"t{i}" if i else None)
             for i in range(3)]
    if kind == "cell color":
        cells[1] = CellValue(color="purple")
    elif kind == "arity":
        cells.pop()
    elif kind == "int text":
        cells[2] = CellValue(text=serial)
    elif kind == "int tooltip":
        cells[0] = CellValue(tooltip=serial)
    elif kind == "str cell":
        cells[1] = f"r{serial}c1"
    elif kind == "foreign":
        return ("not", "a", "row")
    elif kind == "int cells":
        return RowValue(cells=serial)
    if kind == "list":
        return RowValue(cells=cells)
    if kind == "subclass":
        return PaintedRow(cells=tuple(cells))
    return RowValue(cells=tuple(cells), color="purple" if kind == "row color" else "red")


def rebuilt(row, different=False):
    """A new row object equal to ``row``, or differing in its first cell's text."""
    cells = [CellValue(text=c.text, tooltip=c.tooltip, color=c.color) for c in row.cells]
    if different:
        cells[0] = CellValue(text=cells[0].text + "'")
    return type(row)(cells=type(row.cells)(cells), color=row.color)


def apply_edit(edit, rows, new_row):
    rows = list(rows)
    kind = edit[0]
    at = lambda i, extra=0: i % (len(rows) + extra) if rows or extra else 0
    if kind == "append":
        rows.append(new_row(edit[1]))
    elif kind == "insert":
        rows.insert(at(edit[1], 1), new_row(edit[2]))
    elif kind == "delete" and rows:
        del rows[at(edit[1])]
    elif kind == "delete many" and rows:
        for i in sorted({at(i) for i in edit[1]}, reverse=True):
            del rows[i]
    elif kind == "move" and rows:
        rows.insert(at(edit[2]), rows.pop(at(edit[1])))
    elif kind == "rebuild":
        rows = [rebuilt(r, edit[1] is not None and i == at(edit[1]))
                for i, r in enumerate(rows)]
        if edit[2]:
            rows.append(new_row("plain"))
    elif kind == "replace" and rows:
        i = at(edit[1])
        rows[i] = rebuilt(rows[i]) if edit[2] == "equal" else new_row(edit[2])
        if edit[3] == "append":
            rows.append(new_row("plain"))
        elif edit[3] == "delete":
            del rows[at(edit[4])]
    return rows


class TestStoreWriteContract:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.lists(EDITS, min_size=5, max_size=30))
    @example(6, [("replace", 2, "cell color", "delete", 4)])
    @example(6, [("replace", 2, "equal", "append", 0), ("replace", 3, "equal", "delete", 1)])
    def test_edit_sequences_match_a_full_validator(self, loaded, edits):
        serials = iter(range(10**6))
        new_row = lambda kind: edit_row(kind, next(serials))
        store = WidgetStateStore(two_table_description())
        rows = [new_row("plain") for _ in range(loaded)]
        store.set_rows("A", rows)
        for edit in edits:
            written = apply_edit(edit, rows, new_row)
            expected = reference_rows_error("A", written, None)
            try:
                store.set_rows("A", written)
                actual = None
            except StoreError as exc:
                actual = str(exc)
            assert actual == expected, edit
            if expected is None:
                rows = written
            assert [id(r) for r in store.rows("A")] == [id(r) for r in rows]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROW_SPECS, min_size=1, max_size=4),
           st.lists(STORE_OPS, min_size=20, max_size=50))
    def test_writes_match_a_full_validator(self, specs, ops):
        pool = [build_row(spec) for spec in specs]
        store = WidgetStateStore(two_table_description())
        rows = {table: [] for table in ARITY}
        selected = {table: None for table in ARITY}
        for op in ops:
            kind, target = op[0], op[1]
            if kind == "mutate":
                mutate(pool[target % len(pool)], op[2], op[3])
                continue
            table = target
            if kind == "select":
                expected = reference_selection_error(table, op[2], len(rows[table]))
                write = lambda: store.set(table, "selectedRow", op[2])
                new_value = op[2]
            else:
                if kind == "write":
                    new_value = [pool[i % len(pool)] for i in op[2]]
                elif kind == "append":
                    new_value = rows[table] + [pool[op[2] % len(pool)]]
                elif kind == "rewrite":
                    new_value = list(rows[table])
                elif kind == "insert":
                    new_value = list(rows[table])
                    new_value.insert(op[3] % (len(new_value) + 1), pool[op[2] % len(pool)])
                elif kind == "move":
                    new_value = list(rows[table])
                    if new_value:
                        i, j = op[2] % len(new_value), op[3] % len(new_value)
                        new_value[i], new_value[j] = new_value[j], new_value[i]
                elif kind == "reverse":
                    new_value = rows[table][::-1]
                elif kind == "ends":
                    own = op[2] is None and rows[table]
                    row = rows[table][0] if own else pool[(op[2] or 0) % len(pool)]
                    new_value = [row, *rows[table], row]
                else:
                    new_value = list(rows[table])
                    if new_value:
                        del new_value[op[2] % len(new_value)]
                expected = reference_rows_error(table, new_value, selected[table])
                write = lambda: store.set_rows(table, new_value)
            try:
                write()
                actual = None
            except StoreError as exc:
                actual = str(exc)
            assert actual == expected, op
            if expected is None:
                if kind == "select":
                    selected[table] = new_value
                else:
                    rows[table] = list(new_value)
            for name in ARITY:
                assert [id(r) for r in store.rows(name)] == [id(r) for r in rows[name]]
                assert store.selected_row(name) == selected[name]

    def test_list_cells_row_is_checked_again_after_it_changes(self):
        store = WidgetStateStore(two_table_description())
        row = RowValue(cells=[CellValue(), CellValue(), CellValue()])
        store.set_rows("A", [row])
        row.cells[1] = CellValue(color="purple")
        with pytest.raises(StoreError) as caught:
            store.set_rows("A", [row])
        assert str(caught.value) == (
            "A cell color must be one of ('red', 'green', 'yellow', 'blue', "
            "'gray'), got 'purple'")
        row.cells[1] = CellValue()
        row.cells.append(CellValue())
        with pytest.raises(StoreError, match="A row has 4 cells; the table "
                                             "declares 3 columns"):
            store.set_rows("A", [row])

    def test_subclass_row_is_checked_again_after_it_changes(self):
        store = WidgetStateStore(two_table_description())
        row = PaintedRow(cells=(CellValue(), CellValue(), CellValue()), color="red")
        store.set_rows("A", [row])
        object.__setattr__(row, "color", "purple")
        with pytest.raises(StoreError, match="A row color must be one of"):
            store.set_rows("A", [row])

    def test_row_accepted_by_one_table_is_checked_by_another(self):
        store = WidgetStateStore(two_table_description())
        row = RowValue(cells=(CellValue(), CellValue(), CellValue()))
        store.set_rows("A", [row])
        store.set_rows("A", [row, row])
        with pytest.raises(StoreError) as caught:
            store.set_rows("B", [row])
        assert str(caught.value) == "B row has 3 cells; the table declares 2 columns"
        assert store.rows("A") == [row, row] and store.rows("B") == []

    def test_first_bad_row_is_reported_among_accepted_rows(self):
        store = WidgetStateStore(two_table_description())
        good = RowValue(cells=(CellValue(), CellValue()))
        store.set_rows("B", [good])
        bad_arity = RowValue(cells=(CellValue(),))
        bad_color = RowValue(cells=(CellValue(), CellValue()), color="purple")
        with pytest.raises(StoreError, match="B row has 1 cells"):
            store.set_rows("B", [good, bad_arity, good, bad_color])
        with pytest.raises(StoreError, match="B row color"):
            store.set_rows("B", [good, bad_color, bad_arity])

    def test_written_rows_are_copied_out_of_the_caller_list(self):
        store = WidgetStateStore(two_table_description())
        row = RowValue(cells=(CellValue(), CellValue()))
        written = [row, row]
        store.set_rows("B", written)
        written.pop()
        store.rows("B").pop()
        assert store.rows("B") == [row, row]


class TestStoreWriteWork:
    """How many rows a write checks, counted by the row colour checks."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        real = runtime._validate_color

        def counting(color, what):
            if what.endswith(" row"):
                calls.append(what)
            real(color, what)

        monkeypatch.setattr(runtime, "_validate_color", counting)

        def count(write):
            calls.clear()
            write()
            return len(calls)

        return count

    @pytest.fixture
    def table(self, checked):
        store = WidgetStateStore(two_table_description())
        rows = [RowValue(cells=(CellValue(text=str(i)), CellValue())) for i in range(100)]
        assert checked(lambda: store.set_rows("B", rows)) == 100
        return store, rows

    def write_count(self, checked, store, rows):
        count = checked(lambda: store.set_rows("B", rows))
        assert store.rows("B") == rows
        return count

    def test_append_checks_the_new_row(self, checked, table):
        store, rows = table
        new = RowValue(cells=(CellValue(), CellValue()))
        assert self.write_count(checked, store, rows + [new]) == 1

    def test_delete_and_rewrite_check_nothing(self, checked, table):
        store, rows = table
        assert self.write_count(checked, store, rows) == 0
        assert self.write_count(checked, store, rows[:40] + rows[41:]) == 0
        assert self.write_count(checked, store, rows[1:40] + rows[41:]) == 0
        assert self.write_count(checked, store, rows[1:40] + rows[41:-1]) == 0
        assert self.write_count(checked, store, []) == 0

    def test_insert_checks_the_new_row(self, checked, table):
        store, rows = table
        new = RowValue(cells=(CellValue(), CellValue()))
        assert self.write_count(checked, store, rows[:50] + [new] + rows[50:]) == 1

    def test_moved_and_returning_rows_are_checked_again(self, checked, table):
        store, rows = table
        swapped = list(rows)
        swapped[10], swapped[20] = swapped[20], swapped[10]
        assert self.write_count(checked, store, swapped) == 11
        assert self.write_count(checked, store, rows) == 11
        assert self.write_count(checked, store, rows[::-1]) == 100
        assert self.write_count(checked, store, rows) == 100
        assert self.write_count(checked, store, rows[:5] + rows[6:]) == 0
        assert self.write_count(checked, store, rows) == 1
        # Dropping a row at each end shifts every kept row.
        assert self.write_count(checked, store, rows[1:-1]) == 98

    def test_one_row_at_both_ends_is_checked_once(self, checked, table):
        store, rows = table
        assert self.write_count(checked, store, rows + [rows[-1]]) == 1
        assert self.write_count(checked, store, rows) == 0
        assert self.write_count(checked, store, [rows[0]] + rows) == 1

    def test_untrusted_table_checks_every_row(self, checked, table):
        store, rows = table
        listed = RowValue(cells=[CellValue(), CellValue()])
        assert self.write_count(checked, store, rows + [listed]) == 1
        assert self.write_count(checked, store, rows + [listed]) == 101
        assert self.write_count(checked, store, rows) == 100
        assert self.write_count(checked, store, rows) == 0

    @pytest.mark.parametrize("edit, count", [
        # Rebuilt row by row: no row object is kept, so every row is checked.
        pytest.param(lambda rows, new: [rebuilt(r) for r in rows], 100,
                     id="rebuilt-equal"),
        pytest.param(lambda rows, new: [rebuilt(r) for r in rows] + [new], 101,
                     id="rebuilt-equal-plus-one"),
        pytest.param(lambda rows, new: [rebuilt(r, different=True) for r in rows], 100,
                     id="rebuilt-different"),
        pytest.param(lambda rows, new: [rebuilt(rows[0])] + rows[1:] + [new], 101,
                     id="first-rebuilt-plus-one"),
        pytest.param(lambda rows, new: [new] + rows[1:] + [new], 101,
                     id="first-replaced-plus-one"),
        pytest.param(lambda rows, new: rows[:40] + rows[41:] + [new], 60,
                     id="delete-plus-one"),
        pytest.param(lambda rows, new: rows[:50] + [rebuilt(rows[50], different=True)]
                     + rows[51:] + [new], 51, id="middle-changed-plus-one"),
        # An append or a single delete that keeps the first and last rows
        # compares by ==, so a row rebuilt equal at its place is kept.
        pytest.param(lambda rows, new: rows[:50] + [rebuilt(rows[50])] + rows[51:] + [new],
                     1, id="middle-rebuilt-plus-one"),
        pytest.param(lambda rows, new: rows[:10] + rows[11:50] + [rebuilt(rows[50])]
                     + rows[51:], 0, id="delete-then-middle-rebuilt"),
        # Every other write keeps only the same row objects.
        pytest.param(lambda rows, new: rows[:50] + [rebuilt(rows[50])] + rows[51:], 1,
                     id="middle-rebuilt"),
        pytest.param(lambda rows, new: rows[:10] + [rebuilt(rows[10])] + rows[11:50]
                     + rows[51:], 40, id="middle-rebuilt-then-delete"),
        pytest.param(lambda rows, new: rows[:-1] + [rebuilt(rows[-1]), new], 2,
                     id="last-rebuilt-plus-one"),
    ])
    def test_rows_checked_by_one_write(self, checked, table, edit, count):
        store, rows = table
        new = RowValue(cells=(CellValue(), CellValue()))
        assert self.write_count(checked, store, edit(rows, new)) == count

    def test_rejected_write_keeps_the_trust_of_the_stored_rows(self, checked, table):
        store, rows = table
        listed = RowValue(cells=[CellValue(), CellValue()])
        bad = RowValue(cells=(CellValue(),))
        with pytest.raises(StoreError, match="B row has 1 cells"):
            store.set_rows("B", [listed] + rows + [bad])
        assert self.write_count(checked, store, rows) == 0


def expectation_of(*rows, header=("Col0", "Col1", "Col2"), **kwargs):
    return RowsExpectation(header=header, rows=tuple(rows), **kwargs)


def cell(value="", **kwargs):
    return CellExpectation(value=value, **kwargs)


class TestEvaluateRowsCheck:
    def setup_method(self):
        self.widget = table_description().widgets[0]

    def test_row_count_mismatch_is_a_single_failure(self):
        exp = expectation_of(
            RowExpectation(cells=(cell("a"), cell("b"), cell("c"))),
            RowExpectation(cells=(cell("d"), cell("e"), cell("f"))),
            RowExpectation(cells=(cell("g"), cell("h"), cell("i"))),
        )
        rows = [RowValue(cells=(CellValue("a"), CellValue("b"), CellValue("c")))] * 2
        failures = evaluate_rows_check(self.widget, exp, rows, None)
        assert [f.aspect for f in failures] == ["rowCount"]
        assert (failures[0].expected, failures[0].actual) == ("3", "2")

    def test_corpus_then_part_matches_reference_state(self, corpus_linked):
        logic = TaskManagerLogic()
        reg = REGISTRY["taskmanager"]
        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(scenario, corpus_linked.description, logic,
                                  reg.setup_factory())
        assert result.status == "passed"
        assert result.failures == ()

    def test_ignored_cell_never_fails(self):
        exp = expectation_of(RowExpectation(cells=(
            CellExpectation(ignored=True), cell("b"), cell("c"))))
        rows = [RowValue(cells=(CellValue("anything"), CellValue("b"),
                                CellValue("c")))]
        assert evaluate_rows_check(self.widget, exp, rows, None) == []

    def test_tooltip_only_checked_when_stated(self):
        exp = expectation_of(RowExpectation(cells=(
            cell("a", tooltip="tip"), cell("b"), cell("c"))))
        rows = [RowValue(cells=(CellValue("a", tooltip="tip"),
                                CellValue("b", tooltip="surprise"),
                                CellValue("c")))]
        assert evaluate_rows_check(self.widget, exp, rows, None) == []

    def test_color_none_asserts_absence(self):
        exp = expectation_of(RowExpectation(
            cells=(cell("a", color="none"), cell("b"), cell("c"))))
        rows = [RowValue(cells=(CellValue("a", color="red"), CellValue("b"),
                                CellValue("c")))]
        failures = evaluate_rows_check(self.widget, exp, rows, None)
        assert [f.aspect for f in failures] == ["color"]

    def test_selected_mark_semantics(self):
        mk = lambda selected: RowExpectation(
            cells=(cell("a"), cell("b"), cell("c")), selected=selected)
        rows = [RowValue(cells=(CellValue("a"), CellValue("b"), CellValue("c")))] * 2
        exp = expectation_of(mk(False), mk(True))
        # selection on the marked row: clean
        assert evaluate_rows_check(self.widget, exp, rows, 1) == []
        # selection elsewhere: two failures, one per involved row
        failures = evaluate_rows_check(self.widget, exp, rows, 0)
        assert sorted((f.row_index, f.expected) for f in failures) == \
            [(0, "not selected"), (1, "selected")]
        # no selection at all: only the marked row complains
        failures = evaluate_rows_check(self.widget, exp, rows, None)
        assert [(f.row_index, f.aspect) for f in failures] == [(1, "selected")]

    def test_no_marks_means_selection_unchecked(self):
        exp = expectation_of(RowExpectation(cells=(cell("a"), cell("b"), cell("c"))))
        rows = [RowValue(cells=(CellValue("a"), CellValue("b"), CellValue("c")))]
        assert evaluate_rows_check(self.widget, exp, rows, 0) == []

    def test_selected_row_check_trailer(self):
        exp = expectation_of(
            RowExpectation(cells=(cell("a"), cell("b"), cell("c"))),
            selected_row_check="none")
        rows = [RowValue(cells=(CellValue("a"), CellValue("b"), CellValue("c")))]
        failures = evaluate_rows_check(self.widget, exp, rows, 0)
        assert [(f.aspect, f.expected, f.actual) for f in failures] == \
            [("selected", "none", "0")]

    def test_permuted_header_maps_cells_by_title(self):
        exp = RowsExpectation(
            header=("Col2", "Col0", "Col1"),
            rows=(RowExpectation(cells=(cell("c"), cell("a"), cell("b"))),))
        rows = [RowValue(cells=(CellValue("a"), CellValue("b"), CellValue("c")))]
        assert evaluate_rows_check(self.widget, exp, rows, None) == []


class TestIgnoreMonotonicity:
    def test_adding_ignores_never_adds_failures(self):
        rng = random.Random(2024)
        for _ in range(60):
            widget = table_description(columns=rng.randint(1, 4)).widgets[0]
            exp, rows, selected = _random_pair(rng, widget)
            base = _failure_keys(evaluate_rows_check(widget, exp, rows, selected))
            ignored_exp, ignored_positions = _with_random_ignores(rng, exp)
            after = _failure_keys(
                evaluate_rows_check(widget, ignored_exp, rows, selected))
            assert len(after) <= len(base)
            assert set(after) <= set(base)
            for removed in set(base) - set(after):
                aspect, row, column = removed[0], removed[1], removed[2]
                assert (row, column) in ignored_positions, removed


from astgen import failure_keys as _failure_keys
from astgen import random_state_pair as _random_pair
from astgen import with_random_ignores as _with_random_ignores


class TestExecuteScenario:
    def test_corpus_passes_with_reference_logic(self, corpus_linked):
        reg = REGISTRY["taskmanager"]
        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(scenario, corpus_linked.description,
                                  reg.logic_factory(), reg.setup_factory())
        assert result.status == "passed" and not result.failures
        assert result.duration_millis < 1000

    def test_mutated_logic_fails_on_selection(self, corpus_linked):
        reg = REGISTRY["taskmanager-buggy"]
        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(scenario, corpus_linked.description,
                                  reg.logic_factory(), reg.setup_factory())
        assert result.status == "failed"
        (failure,) = result.failures
        assert failure.widget == "Tasks" and failure.aspect == "selected"

    def test_empty_when_then_passes(self, corpus_desc):
        src = 'testsuite S for TaskListViewModel { scenario "empty" ' \
              "{ given { } when { } then { } } }"
        suite, _ = parse_test_suite(src)
        linked, _ = resolve(suite, corpus_desc)
        (scenario,) = linked.scenarios
        result = execute_scenario(scenario, corpus_desc, TaskManagerLogic(),
                                  RecordingSetup())
        assert result.status == "passed" and not result.failures

    def test_intrinsic_effects_apply_before_logic(self, corpus_desc):
        src = """testsuite S for TaskListViewModel {
          scenario "intrinsic" {
            given {
              datatable sampleTasks {
                | Priority | Task Name | Due Date | Due Date Long |
                | prioLow | A | d1 | long1 |
                | prioLow | B | d2 | long2 |
              }
            }
            when {
              LoadView(sampleTasks)
              selectRow Tasks 1
            }
            then {
              table Tasks {
                ignore "Priority", "Due Date"
                rows {
                  | Task Name |
                  | A |
                  | B |
                }
                selectedRow 1
              }
            }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is not None, [d.render() for d in diags]
        linked, diags = resolve(suite, corpus_desc)
        assert linked is not None, [d.render() for d in diags]
        (scenario,) = linked.scenarios
        result = execute_scenario(scenario, corpus_desc, TaskManagerLogic(),
                                  RecordingSetup())
        assert result.status == "passed", result

    def test_check_and_fill_text_intrinsics(self):
        from vimotest.model import (CommandDecl, CustomCommand, WidgetCommand,
                                    CommandKind)

        desc = ViewModelDescription(name="Form", widgets=(
            WidgetDecl(name="Agree", kind=WidgetKind.CHECKBOX),
            WidgetDecl(name="Search", kind=WidgetKind.TEXTFIELD),
        ), commands=(
            CommandDecl(name="agreeCheck",
                        form=WidgetCommand(kind=CommandKind.CHECK, target="Agree")),
            CommandDecl(name="searchFillText",
                        form=WidgetCommand(kind=CommandKind.FILL_TEXT,
                                           target="Search")),
        ))
        src = """testsuite S for Form {
          scenario "intrinsics" {
            given { }
            when {
              check Agree true
              fillText Search "query"
            }
            then {
              checkbox Agree checked true
              textfield Search text "query"
            }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is not None, [d.render() for d in diags]
        linked, diags = resolve(suite, desc)
        assert linked is not None, [d.render() for d in diags]

        class NoOpLogic:
            def handle(self, command, args, store):
                pass

        (scenario,) = linked.scenarios
        result = execute_scenario(scenario, desc, NoOpLogic(), RecordingSetup())
        assert result.status == "passed", result

    def test_logic_exception_becomes_error_status(self, corpus_linked):
        class Exploding:
            def handle(self, command, args, store):
                raise RuntimeError("boom")

        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(scenario, corpus_linked.description,
                                  Exploding(), RecordingSetup())
        assert result.status == "error"
        assert "boom" in result.error

    def test_store_violation_becomes_error_status(self, corpus_linked):
        class BadWriter:
            def handle(self, command, args, store):
                store.set("AddNewTask", "visible", True)

        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(scenario, corpus_linked.description,
                                  BadWriter(), RecordingSetup())
        assert result.status == "error"
        assert "visible" in result.error

    def test_file_delivery_writes_temp_file(self, corpus_linked):
        import os

        seen = {}

        class FileSetup(RecordingSetup):
            def provide_context(self, name, payload, delivery):
                super().provide_context(name, payload, delivery)
                seen[name] = (payload, delivery)

        (scenario,) = corpus_linked.scenarios
        result = execute_scenario(
            scenario, corpus_linked.description, TaskManagerLogic(), FileSetup(),
            RunConfig(context_delivery="file"))
        assert result.status == "passed"
        path, delivery = seen["sampleTasks"]
        assert delivery == "file" and os.path.isabs(path)


class TestRunSuite:
    def _two_scenario_suite(self, corpus_desc):
        src = """testsuite Two for TaskListViewModel {
          scenario "first passes" {
            given {
              datatable tasks {
                | Priority | Task Name | Due Date | Due Date Long |
                | prioLow | A | d | long |
              }
            }
            when { LoadView(tasks) }
            then {
              table Tasks {
                ignore "Priority", "Due Date"
                rows {
                  | Task Name |
                  | A |
                }
              }
            }
          }
          scenario "second fails" {
            given { use tasks }
            when { LoadView(tasks) }
            then {
              table Tasks {
                ignore "Priority", "Due Date"
                rows {
                  | Task Name |
                  | Wrong Name |
                }
              }
            }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is not None, [d.render() for d in diags]
        linked, diags = resolve(suite, corpus_desc)
        assert linked is not None, [d.render() for d in diags]
        return linked

    def test_results_in_declaration_order(self, corpus_desc):
        linked = self._two_scenario_suite(corpus_desc)
        results = run_suite(linked, TaskManagerLogic, RecordingSetup)
        assert [r.status for r in results] == ["passed", "failed"]

    def test_empty_suite(self, corpus_desc):
        suite, _ = parse_test_suite("testsuite Empty for TaskListViewModel { }")
        linked, _ = resolve(suite, corpus_desc)
        assert run_suite(linked, TaskManagerLogic, RecordingSetup) == []

    def test_factory_failure_reported_as_error_and_run_continues(self, corpus_desc):
        linked = self._two_scenario_suite(corpus_desc)
        calls = {"n": 0}

        def flaky_factory():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("cannot build logic")
            return TaskManagerLogic()

        results = run_suite(linked, flaky_factory, RecordingSetup)
        assert [r.status for r in results] == ["error", "failed"]

    def test_isolation_under_permutation(self, corpus_desc):
        from vimotest.analyzer import LinkedSuite

        linked = self._two_scenario_suite(corpus_desc)
        results = run_suite(linked, TaskManagerLogic, RecordingSetup)
        flipped = LinkedSuite(suite=linked.suite, description=linked.description,
                              scenarios=tuple(reversed(linked.scenarios)))
        flipped_results = run_suite(flipped, TaskManagerLogic, RecordingSetup)
        by_desc = {r.description: (r.status, r.failures) for r in results}
        for result in flipped_results:
            assert by_desc[result.description] == (result.status, result.failures)
