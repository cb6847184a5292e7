import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from astgen import random_description, random_suite
from test_literals import HAZARD_TEXT
from vimotest.parser import parse_test_suite, parse_view_model
from vimotest.printer import align_pipe_rows, pretty_print


def reparse(ast):
    text = pretty_print(ast)
    if text.startswith("viewmodel"):
        parsed, diags = parse_view_model(text)
    else:
        parsed, diags = parse_test_suite(text)
    assert parsed is not None, [d.render() for d in diags] + [text]
    return parsed, text


class TestRoundTrip:
    def test_corpus_description(self, corpus_desc):
        parsed, text = reparse(corpus_desc)
        assert parsed == corpus_desc
        assert pretty_print(parsed) == text

    def test_corpus_suite(self, corpus_suite):
        parsed, text = reparse(corpus_suite)
        assert parsed == corpus_suite
        assert pretty_print(parsed) == text

    def test_empty_suite_is_a_fixed_point(self):
        text = "testsuite S for V { }\n"
        suite, _ = parse_test_suite(text)
        assert pretty_print(suite) == text

    def test_generated_descriptions(self):
        rng = random.Random(1001)
        for _ in range(60):
            desc = random_description(rng)
            parsed, text = reparse(desc)
            assert parsed == desc, text
            assert pretty_print(parsed) == text

    def test_generated_suites(self):
        rng = random.Random(1002)
        for _ in range(60):
            desc = random_description(rng)
            suite = random_suite(rng, desc)
            parsed, text = reparse(suite)
            assert parsed == suite, text
            assert pretty_print(parsed) == text


class TestCanonicalForm:
    def test_two_space_indent_and_trailing_newline(self, corpus_desc):
        text = pretty_print(corpus_desc)
        assert text.endswith("}\n") and not text.endswith("\n\n")
        assert "\n  widgets {" in text
        assert "\n    table Tasks {" in text

    def test_pipe_columns_aligned(self):
        src = """testsuite S for V {
          scenario "W" {
            given {
              datatable t {
                | a | bbbbbbbb |
                | cccccccc | d |
              }
            }
            when { } then { }
          }
        }"""
        suite, _ = parse_test_suite(src)
        text = pretty_print(suite)
        rows = [line for line in text.split("\n") if line.lstrip().startswith("|")]
        assert len(rows) == 2
        positions = [[i for i, ch in enumerate(line) if ch == "|"] for line in rows]
        assert positions[0] == positions[1]

    def test_grouped_feature_checks_print_one_per_line(self):
        src = ('testsuite S for V { scenario "G" { given { } when { } then { '
               "button B enabled true visible false } } }")
        suite, _ = parse_test_suite(src)
        text = pretty_print(suite)
        assert "button B enabled true\n" in text
        assert "button B visible false\n" in text

    def test_alias_context_has_no_textual_form(self):
        from vimotest.model import (ContextDefinition, ReferenceBody, TestScenario,
                                    TestSuite)

        suite = TestSuite(name="S", target_view_model="V", scenarios=(
            TestScenario(description="d", given=(
                ContextDefinition(name="a", body=ReferenceBody(target="b")),)),))
        with pytest.raises(ValueError):
            pretty_print(suite)


class TestIdempotence:
    def test_non_canonical_input_stabilizes_after_one_print(self):
        src = """testsuite S for V {
          scenario "it normalizes" {
            given {
              datatable data {
                |a|       b|
                |  c |d|
              }
            }
            when { click X }
            then { button X enabled true }
          }
        }"""
        suite, _ = parse_test_suite(src)
        once = pretty_print(suite)
        again, _ = parse_test_suite(once)
        assert pretty_print(again) == once


def enumerate_align_pipe_rows(grid):
    """``align_pipe_rows`` with widths and padding indexed cell by cell."""
    columns = max(len(row) for row in grid)
    widths = [0] * columns
    for row in grid:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    for row in grid:
        padded = [cell.ljust(widths[j]) for j, cell in enumerate(row)]
        lines.append("| " + " | ".join(padded) + " |")
    return lines


class TestAlignPipeRows:
    @given(st.lists(st.lists(HAZARD_TEXT, max_size=5), min_size=1, max_size=6))
    def test_matches_the_cell_by_cell_version(self, grid):
        """Ragged grids and empty rows included."""
        assert align_pipe_rows(grid) == enumerate_align_pipe_rows(grid)

    def test_columns_take_the_widest_cell(self):
        assert align_pipe_rows([("a", "bbb"), ("cc", ""), ("d",)]) == [
            "| a  | bbb |", "| cc |     |", "| d  |"]
