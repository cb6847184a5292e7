import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vimotest.diagnostics import Record
from vimotest.lexer import ESCAPES, tokenize
from vimotest.model import (
    COLOR_NAMES,
    CellExpectation,
    CommandKind,
    CustomCommand,
    DataTableBody,
    FeatureKind,
    ReferenceBody,
    RowExpectation,
    RowsExpectation,
    TextBody,
    WidgetKind,
)
from vimotest.parser import (_ParseError, _Parser, _scan_groups, parse_test_suite,
                             parse_view_model)
from vimotest.printer import pretty_print

from astgen import random_description, random_suite
from conftest import GOLDENS, VMDSL_PATH, VMTEST_PATH
from test_lexer import CASES as LEXER_CASES


def codes(diags):
    return [d.code for d in diags]


class TestParseViewModel:
    def test_corpus_description(self, corpus_desc):
        assert corpus_desc.name == "TaskListViewModel"
        assert [w.name for w in corpus_desc.widgets] == \
            ["Tasks", "AddNewTask", "DeleteTask"]
        assert len(corpus_desc.commands) == 4

    def test_corpus_table_columns(self, corpus_desc):
        tasks = corpus_desc.widget("Tasks")
        assert tasks.kind is WidgetKind.TABLE
        assert [c.title for c in tasks.columns] == \
            ["Priority", "Task Name", "Due Date"]
        assert [c.cell_kind.value for c in tasks.columns] == \
            ["image", "label", "label"]
        assert tasks.enabled_optional == {FeatureKind.SELECTED_ROW}

    def test_empty_blocks(self):
        desc, diags = parse_view_model("viewmodel V { widgets { } commands { } }")
        assert desc is not None and not diags
        assert desc.widgets == () and desc.commands == ()

    def test_duplicate_widget_names(self):
        src = """viewmodel V {
          widgets {
            button X
            button X
          }
          commands { }
        }"""
        desc, diags = parse_view_model(src)
        assert desc is None
        assert codes(diags) == ["E106"]
        assert diags[0].span.line == 4  # the second declaration

    def test_duplicate_command_names(self):
        src = ("viewmodel V { widgets { button X } "
               "commands { click on X click on X } }")
        desc, diags = parse_view_model(src)
        assert desc is None
        assert codes(diags) == ["E106"]

    def test_syntax_error_is_e001_with_span(self):
        desc, diags = parse_view_model("viewmodel V { widgets ( } }")
        assert desc is None
        assert diags and all(d.code == "E001" for d in diags)
        assert diags[0].span.line == 1

    def test_recovers_to_report_multiple_errors(self):
        src = """viewmodel V {
          widgets {
            button 42
            label 43
            checkbox Ok
          }
          commands { }
        }"""
        desc, diags = parse_view_model(src)
        assert desc is None
        assert len([d for d in diags if d.code == "E001"]) == 2

    def test_bindings(self):
        src = """viewmodel V bind {
          typeName = "Renamed"
          property Tasks.rows getter = "taskRows"
        } {
          widgets { table Tasks { columns { label "A" } } }
          commands { }
        }"""
        desc, diags = parse_view_model(src)
        assert desc is not None, [d.render() for d in diags]
        assert [(b.subject, b.bound_name) for b in desc.bindings] == \
            [("typeName", "Renamed"), ("getterName", "taskRows")]

    def test_invalid_bound_name(self):
        src = 'viewmodel V bind { typeName = "has space" } ' \
              "{ widgets { } commands { } }"
        desc, diags = parse_view_model(src)
        assert desc is None
        assert codes(diags) == ["E001"]

    def test_custom_command_params(self):
        src = ("viewmodel V { widgets { } commands "
               "{ command Load(a: string, b: int, c: bool, d: context) } }")
        desc, diags = parse_view_model(src)
        assert desc is not None
        (cmd,) = desc.commands
        assert isinstance(cmd.form, CustomCommand)
        assert [p.type.value for p in cmd.form.params] == \
            ["string", "int", "bool", "context"]

    def test_widget_command_gets_derived_name(self, corpus_desc):
        assert [c.name for c in corpus_desc.commands] == \
            ["LoadView", "tasksSelectRow", "addNewTaskClick", "deleteTaskClick"]

    def test_examples_are_parsed_and_canonically_ordered(self):
        src = """viewmodel V {
          widgets {
            checkbox C {
              supports enabled
              example checked = true
              example enabled = false
            }
          }
          commands { }
        }"""
        desc, diags = parse_view_model(src)
        assert desc is not None
        (widget,) = desc.widgets
        assert widget.examples == ((FeatureKind.ENABLED, False),
                                   (FeatureKind.CHECKED, True))

    def test_bytes_input_with_invalid_utf8(self):
        desc, diags = parse_view_model(b"viewmodel \xff{")
        assert desc is None
        assert codes(diags) == ["E001"]

    def test_unknown_widget_kind_is_syntax_error(self):
        desc, diags = parse_view_model(
            "viewmodel V { widgets { slider S } commands { } }")
        assert desc is None
        assert "E001" in codes(diags)


class TestParseTestSuite:
    def test_corpus_suite(self, corpus_suite):
        assert corpus_suite.name == "TaskListTests"
        assert corpus_suite.target_view_model == "TaskListViewModel"
        (scenario,) = corpus_suite.scenarios
        assert scenario.description == "Load Tasks and Add New"
        assert len(scenario.given) == 1
        assert len(scenario.when) == 2
        assert len(scenario.then) == 3

    def test_corpus_datatable(self, corpus_suite):
        (scenario,) = corpus_suite.scenarios
        body = scenario.given[0].body
        assert isinstance(body, DataTableBody)
        assert body.header == ("Priority", "Task Name", "Due Date", "Due Date Long")
        assert body.rows[0] == ("prioLow", "Exercise", "2024-01-04",
                                "4th January 2024")

    def test_empty_sections(self):
        src = 'testsuite S for V { scenario "Empty" { ' \
              "given { } when { } then { } } }"
        suite, diags = parse_test_suite(src)
        assert suite is not None and not diags
        (scenario,) = suite.scenarios
        assert scenario.given == () and scenario.when == () and scenario.then == ()

    def test_ragged_data_table(self):
        src = """testsuite S for V {
          scenario "Ragged" {
            given {
              datatable t {
                | a | b | c | d |
                | 1 | 2 | 3 |
              }
            }
            when { } then { }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is None
        assert codes(diags) == ["E108"]

    def test_duplicate_datatable_header_title_is_e106(self):
        src = ('testsuite S for V { scenario "D" { given { datatable t {\n'
               "| a | b | a  |\n| 1 | 2 | 3 |\n} } when { } then { } } }")
        suite, diags = parse_test_suite(src, "d")
        assert suite is None
        assert [(d.render(), d.span.length) for d in diags] == [
            ("d:2:1: E106: duplicate column title 'a'", 14)]

    def test_titles_sharing_an_xml_attribute_name_are_e106(self):
        src = ('testsuite S for V { scenario "D" { given { datatable t {\n'
               "| a b | a_b | a:b | a b |\n| 1 | 2 | 3 | 4 |\n} } when { } then { } } }")
        suite, diags = parse_test_suite(src, "d")
        assert suite is None
        assert [(d.render(), d.span.length) for d in diags] == [
            ("d:2:1: E106: column titles 'a b' and 'a_b' share the XML attribute name 'a_b'", 25),
            ("d:2:1: E106: column titles 'a b' and 'a:b' share the XML attribute name 'a_b'", 25),
            ("d:2:1: E106: duplicate column title 'a b'", 25)]

    def test_titles_that_are_not_xml_names_parse_clean(self):
        src = ('testsuite S for V { scenario "D" { given { datatable t {\n'
               "|  | 1x | a&b |\n| 1 | 2 | 3 |\n} } when { } then { } } }")
        suite, diags = parse_test_suite(src, "d")
        assert diags == []
        assert suite.scenarios[0].given[0].body.header == ("", "1x", "a&b")

    def test_duplicate_ignored_title_is_e106(self):
        src = ('testsuite S for V { scenario "D" { given { } when { } then {\n'
               'table T { ignore "A", "B", "A"\nrows {\n| C |\n| x |\n} } } } }')
        suite, diags = parse_test_suite(src, "d")
        assert suite is None
        assert [d.render() for d in diags] == ["d:2:28: E106: duplicate ignored column 'A'"]

    def test_cells_are_trimmed_and_empty_cells_parse_empty(self):
        src = """testsuite S for V {
          scenario "Trim" {
            given {
              datatable t {
                |  a  | b |
                | x   |   |
              }
            }
            when { } then { }
          }
        }"""
        suite, _ = parse_test_suite(src)
        body = suite.scenarios[0].given[0].body
        assert body.header == ("a", "b")
        assert body.rows == (("x", ""),)

    def test_star_cell_is_ignored_in_expectation_rows(self):
        src = """testsuite S for V {
          scenario "Star" {
            given { } when { }
            then {
              table T {
                rows {
                  | A | B |
                  | * | x |
                }
              }
            }
          }
        }"""
        suite, _ = parse_test_suite(src)
        (check,) = suite.scenarios[0].then
        exp = check.expectation
        assert isinstance(exp, RowsExpectation)
        assert exp.rows[0].cells == (CellExpectation(ignored=True),
                                     CellExpectation(value="x"))

    def test_cell_adornments_and_row_marks(self):
        src = """testsuite S for V {
          scenario "Marks" {
            given { } when { }
            then {
              table T {
                ignore "Skipped"
                rows {
                  | A |
                  | x [tooltip "tip"] [color blue] | [selected] [color red]
                }
                selectedRow 0
              }
            }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is not None, [d.render() for d in diags]
        exp = suite.scenarios[0].then[0].expectation
        cell = exp.rows[0].cells[0]
        assert (cell.value, cell.tooltip, cell.color) == ("x", "tip", "blue")
        assert exp.rows[0].selected and exp.rows[0].color == "red"
        assert exp.ignored_columns == ("Skipped",)
        assert exp.selected_row_check == 0

    def test_selected_row_none(self):
        src = ('testsuite S for V { scenario "N" { given { } when { } then { '
               "table T { rows {\n| A |\n} selectedRow none } } } }")
        suite, _ = parse_test_suite(src)
        assert suite.scenarios[0].then[0].expectation.selected_row_check == "none"

    def test_two_selected_marks_rejected(self):
        src = """testsuite S for V {
          scenario "Two" {
            given { } when { }
            then {
              table T {
                rows {
                  | A |
                  | x | [selected]
                  | y | [selected]
                }
              }
            }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is None
        assert "E001" in codes(diags)

    def test_unknown_color_rejected(self):
        src = ('testsuite S for V { scenario "C" { given { } when { } then { '
               "table T { rows { | A |\n | x | [color purple] } } } } }")
        suite, diags = parse_test_suite(src)
        assert suite is None
        assert "E001" in codes(diags)

    def _tooltip_suite(self, tooltip):
        return ('testsuite S for V { scenario "T" { given { } when { } then { '
                f'table T {{ rows {{ | A |\n | x [tooltip "{tooltip}"] |\n }} }} }} }} }}')

    def test_tooltip_escapes_follow_string_literal_rules(self):
        suite, diags = parse_test_suite(self._tooltip_suite(r'q\"b\\s\tt\nn'))
        assert suite is not None, [d.render() for d in diags]
        cell = suite.scenarios[0].then[0].expectation.rows[0].cells[0]
        assert cell.tooltip == 'q"b\\s\tt\nn'

    def test_unknown_tooltip_escape_is_e001(self):
        suite, diags = parse_test_suite(self._tooltip_suite(r"a\qb"))
        assert suite is None
        first = diags[0]
        assert (first.code, first.message, first.span.line) == (
            "E001", "unknown escape \\q in tooltip string", 2)

    def _corpus_with(self, old, new):
        text = VMTEST_PATH.read_text()
        assert old in text
        return parse_test_suite(text.replace(old, new), "t.vmtest")

    def test_bad_row_color_is_the_only_diagnostic(self):
        suite, diags = self._corpus_with("[color red]", "[color purple]")
        assert suite is None
        assert [d.render() for d in diags] == [
            "t.vmtest:20:11: E001: unknown color 'purple'; "
            "expected one of red, green, yellow, blue, gray, none"]

    def test_pipe_in_tooltip_is_the_only_diagnostic(self):
        suite, diags = self._corpus_with('[tooltip "4th January 2024"]',
                                         '[tooltip "a|b"]')
        assert suite is None
        assert [d.render() for d in diags] == [
            "t.vmtest:19:11: E001: a tooltip string cannot contain '|'"]

    def _tooltip_row_diagnostics(self, row):
        src = ('testsuite S for V { scenario "T" { given { } when { } then { '
               f"table T {{ rows {{ | A | B |\n {row}\n }} }} }} }} }}")
        suite, diags = parse_test_suite(src, "f")
        assert suite is None
        return [d.render() for d in diags]

    def test_pipe_in_tooltip_names_the_pipe(self):
        assert self._tooltip_row_diagnostics('| x [tooltip "4th|January"] | y |') == [
            "f:2:2: E001: a tooltip string cannot contain '|'"]
        # the rest of the row after the cut is the row trailer
        assert self._tooltip_row_diagnostics('| x | y [tooltip "4th|January"]') == [
            "f:2:2: E001: a tooltip string cannot contain '|'"]

    def test_tooltip_running_to_the_end_of_the_row_is_unterminated(self):
        assert self._tooltip_row_diagnostics('| x | y [tooltip "4th January |') == [
            "f:2:2: E001: unterminated tooltip string"]
        assert self._tooltip_row_diagnostics('| x | y | [tooltip "4th January') == [
            "f:2:2: E001: unterminated tooltip string"]

    def test_parsing_resumes_after_a_bad_row(self):
        src = ('testsuite S for V { scenario "C" { given { } when { } then { '
               "table T { rows { | A |\n | x | [color purple]\n | y | [colour]\n } } "
               "button B enabled true } } }")
        suite, diags = parse_test_suite(src)
        assert suite is None
        assert [(d.code, d.span.line, d.message) for d in diags] == [
            ("E001", 2, "unknown color 'purple'; "
                        "expected one of red, green, yellow, blue, gray, none"),
            ("E001", 3, "unknown adornment '[colour...'")]

    def test_actions(self):
        src = """testsuite S for V {
          scenario "Actions" {
            given { }
            when {
              Load(ctx, "text", 3, true)
              click B
              check C false
              fillText F "words"
              selectRow T 2
            }
            then { }
          }
        }"""
        suite, diags = parse_test_suite(src)
        assert suite is not None, [d.render() for d in diags]
        when = suite.scenarios[0].when
        assert when[0].name == "Load" and len(when[0].args) == 4
        assert when[1].kind is CommandKind.CLICK and when[1].arg is None
        assert when[2].arg is False
        assert when[3].arg == "words"
        assert when[4].arg == 2

    def test_duplicate_scenario_description(self):
        src = ('testsuite S for V { '
               'scenario "Same" { given { } when { } then { } } '
               'scenario "Same" { given { } when { } then { } } }')
        suite, diags = parse_test_suite(src)
        assert suite is None
        assert codes(diags) == ["E106"]

    def test_use_reference(self):
        src = ('testsuite S for V { scenario "U" { given { use other } '
               "when { } then { } } }")
        suite, _ = parse_test_suite(src)
        (ctx,) = suite.scenarios[0].given
        assert ctx.name == "other"
        assert ctx.body == ReferenceBody(target="other")

    def test_text_context_keeps_content_verbatim(self):
        src = ('testsuite S for V { scenario "T" { given { '
               'text blob """line one\nline two""" } when { } then { } } }')
        suite, _ = parse_test_suite(src)
        assert suite.scenarios[0].given[0].body == TextBody("line one\nline two")


class TestDiagnosticsInvariants:
    def _span_in_bounds(self, text: str, diag) -> bool:
        lines = text.split("\n")
        if not 1 <= diag.span.line <= len(lines):
            return False
        return 1 <= diag.span.column <= len(lines[diag.span.line - 1]) + 2

    def test_fuzzing_never_crashes(self):
        rng = random.Random(20240)
        for _ in range(800):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
            for parse in (parse_view_model, parse_test_suite):
                ast, diags = parse(blob)
                if ast is None:
                    assert diags
                text = blob.decode("utf-8", errors="replace")
                for diag in diags:
                    assert self._span_in_bounds(text, diag) or not text

    def test_printable_fuzzing_returns_syntax_codes(self):
        rng = random.Random(555)
        alphabet = [*"viewmodel testsuite {}()|\"' \n\tabc123*[]=:,._\\-/",
                    '"""', "\u00b2", "\u0663", "\u00e9"]
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
            ast, diags = parse_view_model(text)
            if ast is None:
                assert any(d.code.startswith("E") for d in diags)


def reference_scan_groups(text):
    """The per-character adornment scanner the parser used to carry."""
    groups = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "[":
            return groups, f"unexpected text in adornment: {text[i:].strip()!r}"
        i += 1
        start = i
        while i < n and text[i].isalpha():
            i += 1
        word = text[start:i]
        if word == "selected":
            if i >= n or text[i] != "]":
                return groups, "expected ']' after '[selected'"
            i += 1
            groups.append(("selected", None))
        elif word == "color":
            while i < n and text[i] == " ":
                i += 1
            start = i
            while i < n and text[i].isalpha():
                i += 1
            name = text[start:i]
            if name not in COLOR_NAMES:
                return groups, (f"unknown color '{name}'; "
                                f"expected one of {', '.join(COLOR_NAMES)}")
            if i >= n or text[i] != "]":
                return groups, "expected ']' after color name"
            i += 1
            groups.append(("color", name))
        elif word == "tooltip":
            while i < n and text[i] == " ":
                i += 1
            if i >= n or text[i] != '"':
                return groups, "expected a quoted string after '[tooltip'"
            i += 1
            parts = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    esc = text[i + 1]
                    if esc not in ESCAPES:
                        return groups, f"unknown escape \\{esc} in tooltip string"
                    parts.append(ESCAPES[esc])
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
            if i >= n:
                return groups, "unterminated tooltip string"
            i += 1
            if i >= n or text[i] != "]":
                return groups, "expected ']' after tooltip string"
            i += 1
            groups.append(("tooltip", "".join(parts)))
        else:
            return groups, f"unknown adornment '[{word}...'"
    return groups, None


_ADORNMENT_PIECES = st.sampled_from([
    *"[]\"\\ntqué²| ", "[tooltip ", '[tooltip "', '"]', "[color ", "[selected]",
    "red", "blue", "none", "purple"])
# One tooltip whose body has no quote, so every ending is tried against
# backslashes (escape pairs, unknown escapes, a lone final backslash).
_TOOLTIPS = st.builds(
    lambda body, end: f'[tooltip "{body}{end}',
    st.text(alphabet="\\ntqué²|[] "),
    st.sampled_from(['"]', '"', "", '" ]', '"] [selected]']))


# A description and a suite with a control character in the places a target
# would carry it: a data-table cell and a string literal of a check.
CONTROL_VMDSL = ("viewmodel V {\n  widgets {\n    textfield Note { supports enabled }\n  }\n"
                 "  commands {\n    command Load(data: context)\n  }\n}\n")
CONTROL_VMTEST = ('testsuite S for V {\n  scenario "s" {\n    given {\n'
                  '      datatable rows {\n        | A |\n        | x<cell>y |\n      }\n'
                  '    }\n    when { Load(rows) }\n'
                  '    then { textfield Note text "a<text>b" }\n  }\n}\n')


def control_suite(cell: str = "", text: str = "") -> str:
    return CONTROL_VMTEST.replace("<cell>", cell).replace("<text>", text)


class TestControlCharacters:
    """A source file may hold tab, LF and CR, and no other C0 control: one
    E001 at the first such character, anywhere in the file."""

    @pytest.mark.parametrize("code", [c for c in range(32) if chr(c) not in "\t\n\r"])
    def test_each_other_c0_control_is_e001(self, code):
        ch = chr(code)
        for text, (line, column) in ((control_suite(cell=ch), (6, 12)),
                                     (control_suite(text=ch), (10, 34))):
            ast, diags = parse_test_suite(text, "f")
            assert ast is None
            assert [d.render() for d in diags] == [
                f"f:{line}:{column}: E001: control character U+{code:04X} is not allowed"]

    def test_nul_in_a_cell_and_a_string_reports_the_first(self):
        ast, diags = parse_test_suite(control_suite("\0", "\0"), "f")
        assert ast is None
        assert [(d.code, d.span.line, d.span.column, d.span.length) for d in diags] == \
            [("E001", 6, 12, 1)]

    def test_tab_and_carriage_return_are_accepted(self):
        suite, diags = parse_test_suite(control_suite("\t", "\t"), "f")
        assert diags == []
        assert suite.scenarios[0].given[0].body.rows == (("x\ty",),)
        assert suite.scenarios[0].then[0].expectation == "a\tb"
        assert parse_test_suite(control_suite().replace("\n", "\r\n"), "f")[1] == []

    def test_in_a_comment_and_in_a_description(self):
        ast, diags = parse_view_model(CONTROL_VMDSL + "// \x1b[0m\n", "v")
        assert ast is None
        assert [d.render() for d in diags] == \
            ["v:9:4: E001: control character U+001B is not allowed"]

    def test_bytes_in_the_same_way(self):
        text = control_suite(text="\x7f\x00")
        assert [d.render() for d in parse_test_suite(text.encode(), "f")[1]] == \
            ["f:10:35: E001: control character U+0000 is not allowed"]


class TestScanGroups:
    @settings(max_examples=2000)
    @given(st.one_of(st.lists(_ADORNMENT_PIECES, max_size=24).map("".join), _TOOLTIPS))
    def test_matches_the_per_character_scanner(self, text):
        assert _scan_groups(text) == reference_scan_groups(text)

    def test_groups_and_decoded_tooltips(self):
        text = r' [selected] [color  red][tooltip "a\"b\\c\nd\te|é²"] '
        assert _scan_groups(text) == ([
            ("selected", None), ("color", "red"),
            ("tooltip", 'a"b\\c\nd\te|é²')], None)
        assert _scan_groups('[tooltip ""]') == ([("tooltip", "")], None)
        assert _scan_groups("") == ([], None)

    def test_error_messages(self):
        colors = ", ".join(COLOR_NAMES)
        cases = {
            "[selected] x y": "unexpected text in adornment: 'x y'",
            "[selected": "expected ']' after '[selected'",
            "[color purple]": f"unknown color 'purple'; expected one of {colors}",
            "[color red": "expected ']' after color name",
            "[tooltip tip]": "expected a quoted string after '[tooltip'",
            r'[tooltip "a\qb"]': "unknown escape \\q in tooltip string",
            '[tooltip "ab': "unterminated tooltip string",
            '[tooltip "ab"': "expected ']' after tooltip string",
            '[tooltip "ab" ]': "expected ']' after tooltip string",
            "[colour red]": "unknown adornment '[colour...'",
        }
        for text, message in cases.items():
            assert _scan_groups(text)[1] == message, text

    def test_unknown_escape_is_reported_before_the_missing_quote(self):
        assert _scan_groups(r'[tooltip "a\qb')[1] == "unknown escape \\q in tooltip string"
        assert _scan_groups(r'[tooltip "a\\\qb')[1] == "unknown escape \\q in tooltip string"

    def test_a_lone_final_backslash_leaves_the_string_unterminated(self):
        assert _scan_groups('[tooltip "ab\\')[1] == "unterminated tooltip string"
        assert _scan_groups('[tooltip "ab\\"')[1] == "unterminated tooltip string"
        assert _scan_groups('[tooltip "ab\\\\"]') == ([("tooltip", "ab\\")], None)

    def test_groups_before_an_error_are_kept(self):
        assert _scan_groups('[selected] [tooltip "x') == (
            [("selected", None)], "unterminated tooltip string")


# -- rows against the per-cell reader they replaced ----------------------------

class ReferenceRows(_Parser):
    """The row readers the parser used to carry: every cell went through
    ``_parse_cell_expectation`` and every adornment run through the
    per-character scanner."""

    def parse_plain_row(self, tok):
        cells, trailer = reference_split_pipe_row(tok[1])
        if cells is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        if trailer.strip():
            self.report("row marks are only allowed in expectation rows", tok)
        return tuple(cell.strip() for cell in cells)

    def parse_expect_row(self, tok, arity):
        cells_raw, trailer = reference_split_pipe_row(tok[1])
        if cells_raw is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        cells = []
        last = len(cells_raw) - 1
        for k, raw in enumerate(cells_raw):
            cut = k < last or bool(trailer.strip())
            cells.append(self._parse_cell_expectation(raw.strip(), tok, cut))
        selected = False
        color = None
        for kind, payload in self._parse_groups(trailer, tok):
            if kind == "selected":
                if selected:
                    self.report("duplicate [selected] mark", tok)
                selected = True
            elif kind == "color":
                if color is not None:
                    self.report("duplicate [color ...] mark", tok)
                color = payload
            else:
                self.report("tooltips belong on cells, not rows", tok)
        if len(cells) != arity:
            self.report(f"row has {len(cells)} cells but the header has {arity}",
                        tok, "E108")
            return None
        return RowExpectation(cells=tuple(cells), selected=selected, color=color)

    def _parse_cell_expectation(self, text, tok, cut):
        if text == "*":
            return CellExpectation(ignored=True)
        bracket = text.find("[")
        if bracket < 0:
            return CellExpectation(value=text)
        value = text[:bracket].rstrip()
        tooltip = None
        color = None
        for kind, payload in self._parse_groups(text[bracket:], tok, cut):
            if kind == "tooltip":
                if tooltip is not None:
                    self.report("duplicate [tooltip ...] on one cell", tok)
                tooltip = payload
            elif kind == "color":
                if color is not None:
                    self.report("duplicate [color ...] on one cell", tok)
                color = payload
            else:
                self.report("[selected] marks a row, not a cell", tok)
        return CellExpectation(value=value, tooltip=tooltip, color=color)

    def _parse_groups(self, text, tok, cut=False):
        groups, err = reference_scan_groups(text)
        if err is not None:
            if cut and err == "unterminated tooltip string":
                err = "a tooltip string cannot contain '|'"
            self.fail(err, tok)
        return groups


def reference_split_pipe_row(raw):
    parts = raw.split("|")
    if len(parts) < 3:
        return None, ""
    return parts[1:-1], parts[-1]


def read_row(parser_class, method, row, *args):
    """Parse the row on line 3 of a source; return the result ("fail" for a
    parse error) and the rendered diagnostics with their span lengths."""
    src = "a\n\n   " + row + "\n"
    tokens, _ = tokenize(src, "f")
    parser = parser_class(tokens, "f", [], src)
    try:
        result = getattr(parser, method)(tokens[1], *args)
    except _ParseError:
        result = "fail"
    return result, [(d.render(), d.span.length) for d in parser.diags]


# Pieces of a cell: plain text, '*', well-formed and broken adornments, a
# tooltip holding '|' (which cuts the cell), escapes good and bad, and
# duplicates of each mark.
_CELL_PIECES = st.sampled_from([
    "", " ", "a", "Task one", "\u00e9t\u00e9", "*", "[", "]", '"',
    '[tooltip "x"]', '[tooltip "a|b"]', '[tooltip "q\\"z\\n"]', '[tooltip "bad\\q"]',
    '[tooltip ""]', '[tooltip "open', "[color red]", "[color  blue]", "[color purple]",
    "[colorred]", "[selected]", "[selected", "[tooltip x]", "[size 3]"])
_TRAILERS = st.lists(st.sampled_from([
    "", " ", "[selected]", "[color red]", "[color gray]", '[tooltip "t"]', "junk",
    "[selected", "[color none]"]), max_size=3).map("".join)
_ROWS = st.builds(lambda cells, trailer: "|" + "|".join(cells) + "|" + trailer,
                  st.lists(st.lists(_CELL_PIECES, max_size=4).map("".join),
                           min_size=0, max_size=5),
                  _TRAILERS)


def read_rows(parser_class, rows, arity):
    """Parse each of ``rows``, one a line, with one parser; return the results
    ("fail" for a parse error) and the rendered diagnostics."""
    src = "\n".join(rows) + "\n"
    tokens, _ = tokenize(src, "f")
    assert len(tokens) == len(rows) + 1
    parser = parser_class(tokens, "f", [], src)
    results = []
    for tok in tokens[:-1]:
        try:
            results.append(parser.parse_expect_row(tok, arity))
        except _ParseError:
            results.append("fail")
    return results, [d.render() for d in parser.diags]


class TestRowsMatchTheReference:
    @settings(max_examples=1500, deadline=None)
    @given(_ROWS, st.integers(1, 5))
    def test_expectation_rows(self, row, arity):
        assert read_row(_Parser, "parse_expect_row", row, arity) == \
            read_row(ReferenceRows, "parse_expect_row", row, arity)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ROWS, min_size=1, max_size=3).flatmap(
        lambda rows: st.lists(st.sampled_from(rows), min_size=2, max_size=8)),
        st.integers(1, 5))
    def test_repeated_rows_read_by_one_parser(self, rows, arity):
        """A parser reads a trailer it has read cleanly before from memory;
        each row still gets what the reference gives it."""
        assert read_rows(_Parser, rows, arity) == read_rows(ReferenceRows, rows, arity)

    def test_a_repeated_dirty_trailer_reports_on_every_row(self):
        rows = ["| a | [selected] [selected]", "| b | [color red]", "| c | [selected] [selected]",
                "| d | [color red]", "| e | [tooltip \"t\"]", "| f | [tooltip \"t\"]"]
        results, diags = read_rows(_Parser, rows, 1)
        assert [(r.selected, r.color) for r in results] == [
            (True, None), (False, "red"), (True, None), (False, "red"),
            (False, None), (False, None)]
        assert diags == ["f:1:1: E001: duplicate [selected] mark",
                         "f:3:1: E001: duplicate [selected] mark",
                         "f:5:1: E001: tooltips belong on cells, not rows",
                         "f:6:1: E001: tooltips belong on cells, not rows"]

    @settings(max_examples=500, deadline=None)
    @given(_ROWS)
    def test_plain_rows(self, row):
        assert read_row(_Parser, "parse_plain_row", row) == \
            read_row(ReferenceRows, "parse_plain_row", row)

    def test_a_row_of_every_kind_of_cell(self):
        row = ('| * | plain | v [tooltip "a\\"b"] [color red] | w [color blue] '
               '[color red] | x [selected] |[selected] [color gray]')
        result, diags = read_row(_Parser, "parse_expect_row", row, 5)
        assert (result, diags) == read_row(ReferenceRows, "parse_expect_row", row, 5)
        assert result == RowExpectation(cells=(
            CellExpectation(ignored=True), CellExpectation(value="plain"),
            CellExpectation(value="v", tooltip='a"b', color="red"),
            CellExpectation(value="w", color="red"), CellExpectation(value="x")),
            selected=True, color="gray")
        assert diags == [("f:3:4: E001: duplicate [color ...] on one cell", len(row)),
                         ("f:3:4: E001: [selected] marks a row, not a cell", len(row))]


# -- recovery over many broken inputs ------------------------------------------

# One digest per case of recovery_cases(), in order, as recorded when the
# cases were added; a deliberate change to recovery records them again, and
# so does a change to astgen (last: its cell alphabet gained tab).
RECOVERY_DIGESTS = Path(__file__).with_name("parser_recovery.txt")
_INSERTS = list('{}(),|"[]')


def recovery_sources():
    """The shipped corpus plus 12 seeded astgen description/suite pairs."""
    sources = [(parse_view_model, "task_list.vmdsl", VMDSL_PATH.read_text()),
               (parse_test_suite, "task_list_tests.vmtest", VMTEST_PATH.read_text())]
    rng = random.Random(7)
    for k in range(12):
        desc = random_description(rng)
        suite = random_suite(rng, desc)
        sources.append((parse_view_model, f"astgen{k}.vmdsl", pretty_print(desc)))
        sources.append((parse_test_suite, f"astgen{k}.vmtest", pretty_print(suite)))
    return sources


def mutate_lines(rng: random.Random, text: str) -> tuple[str, list[str]]:
    """Apply one to three line edits; return the text and what was done."""
    lines = text.split("\n")
    done = []
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines))
        line = lines[at]
        op = rng.choice(("delete", "duplicate", "swap", "drop", "insert"))
        if op == "delete" and len(lines) > 1:
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, line)
        elif op == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], line
        elif op == "drop" and line:
            col = rng.randrange(len(line))
            lines[at] = line[:col] + line[col + 1:]
            op = f"drop column {col + 1} of"
        elif op == "insert":
            col = rng.randint(0, len(line))
            char = rng.choice(_INSERTS)
            lines[at] = line[:col] + char + line[col:]
            op = f"insert {char!r} at column {col + 1} of"
        else:
            continue
        done.append(f"{op} line {at + 1}")
    return "\n".join(lines), done


def recovery_cases(count: int):
    """Seeded mutations: a third of the shipped corpus, the rest astgen."""
    sources = recovery_sources()
    rng = random.Random(1111)
    for index in range(count):
        k = index % 2 if index % 3 == 0 else 2 + rng.randrange(len(sources) - 2)
        parse, name, text = sources[k]
        mutated, done = mutate_lines(rng, text)
        yield parse, name, mutated, done


def parse_digest(parse, name: str, text: str) -> str:
    """Digest of the diagnostics (text and span length) and the printed AST."""
    ast, diags = parse(text, name)
    parts = [f"{d.render()}|{d.span.length}" for d in diags]
    parts.append("<none>" if ast is None else pretty_print(ast))
    return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()[:12]


class TestRecoveryRegression:
    def test_mutated_sources_keep_their_diagnostics_and_asts(self):
        expected = RECOVERY_DIGESTS.read_text().split()
        cases = list(recovery_cases(len(expected)))
        assert len(cases) == len(expected)
        for index, ((parse, name, text, done), want) in enumerate(zip(cases, expected)):
            got = parse_digest(parse, name, text)
            assert got == want, (
                f"case {index} ({name}: {', '.join(done)}) changed; "
                f"diagnostics now: {[d.render() for d in parse(text, name)[1]]}")


# -- spans of every AST node ---------------------------------------------------

# SHA-256 of the (type name, span) of every record in the parsed corpus and 40
# seeded astgen projects, in walk order. Spans take no part in == or repr, so
# only this pins the span of a node that no diagnostic mentions. Recorded
# again when astgen's cell alphabet gained tab.
SPAN_DIGEST = "4bb6bbdb64d8130f5c1dd4c6bc890d8523f18505693d75bbf48947209865319f"


def walk_spans(node, out: list) -> None:
    if isinstance(node, (tuple, list)):
        for item in node:
            walk_spans(item, out)
    elif hasattr(node, "_fields"):
        out.append((type(node).__name__, getattr(node, "span", None)))
        for field in node._fields:
            walk_spans(getattr(node, field), out)


def test_every_ast_node_keeps_its_span():
    sources = [(parse_view_model, VMDSL_PATH.name, VMDSL_PATH.read_text()),
               (parse_test_suite, VMTEST_PATH.name, VMTEST_PATH.read_text())]
    rng = random.Random(4040)
    for k in range(40):
        desc = random_description(rng)
        sources.append((parse_view_model, f"astgen{k}.vmdsl", pretty_print(desc)))
        sources.append((parse_test_suite, f"astgen{k}.vmtest",
                        pretty_print(random_suite(rng, desc))))
    spans: list = []
    for parse, name, text in sources:
        ast, diags = parse(text, name)
        assert ast is not None, [d.render() for d in diags]
        walk_spans(ast, spans)
    assert hashlib.sha256(repr(spans).encode()).hexdigest() == SPAN_DIGEST, len(spans)


# -- the whole parsed AST, spans and diagnostics included ------------------------

# SHA-256 of each group of sources as parsed: every field of every node,
# spans included, and every diagnostic with its span. These pin the front
# end's output apart from how it builds its tokens and nodes. "astgen" was
# recorded again when astgen's cell alphabet gained tab.
AST_DIGESTS = {
    "taskmanager": "6a4dac55dd5c164efc64a29583bd78964486b7ffa429168bc44501fede4b29c5",
    "goldens": "5f0419c32073432b3887581ebf3f01cde0f2be0705a76199651c6d73086635fa",
    "astgen": "f8086a3fd6a29a6e7747b05d3d51386500bef3b918057ac1e12dc4e5a78c3a9b",
    "lexer_cases": "f7c509a5468603be76906afe54cc073f6272a6dc03ad48442de2dbbb2b51277e",
}


def render_node(node) -> str:
    """A node as text with all its fields; a frozenset's members sorted,
    since an enum's hash follows the string hash seed."""
    if isinstance(node, Record):
        shown = ", ".join(f"{f}={render_node(getattr(node, f))}" for f in node._fields)
        return f"{type(node).__name__}({shown})"
    if type(node) is tuple:
        return "(" + "".join(render_node(item) + ", " for item in node) + ")"
    if isinstance(node, frozenset):
        return "frozenset(" + ", ".join(sorted(map(render_node, node))) + ")"
    return repr(node)


def ast_digest_sources(group: str):
    if group == "astgen":
        rng = random.Random(1919)
        for k in range(20):
            desc = random_description(rng)
            yield parse_view_model, f"astgen{k}.vmdsl", pretty_print(desc)
            yield parse_test_suite, f"astgen{k}.vmtest", pretty_print(random_suite(rng, desc))
    elif group == "lexer_cases":
        for case_id, src, _, _ in LEXER_CASES:
            yield parse_view_model, f"{case_id}.vmdsl", src
            yield parse_test_suite, f"{case_id}.vmtest", src
    else:
        paths = ([VMDSL_PATH, VMTEST_PATH] if group == "taskmanager"
                 else sorted((GOLDENS / "rows").glob("rows.vm*")))
        for path in paths:
            parse = parse_view_model if path.suffix == ".vmdsl" else parse_test_suite
            yield parse, path.name, path.read_text()


@pytest.mark.parametrize("group", sorted(AST_DIGESTS))
def test_parsed_asts_are_unchanged(group):
    parts = []
    for parse, name, text in ast_digest_sources(group):
        ast, diags = parse(text, name)
        parts.append(f"{name}\n{render_node(ast)}")
        parts.extend(render_node(d) for d in diags)
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    assert digest == AST_DIGESTS[group], len(parts)
