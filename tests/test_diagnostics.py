from conftest import VMTEST_PATH
from vimotest.diagnostics import UNKNOWN_SPAN, Diagnostic, SourceSpan, error
from vimotest.parser import parse_test_suite


class TestSourceSpan:
    def test_text_forms(self):
        span = SourceSpan("a.vmtest", 3, 7, 2)
        assert str(span) == "a.vmtest:3:7"
        assert repr(span) == "SourceSpan(file='a.vmtest', line=3, column=7, length=2)"
        assert span == SourceSpan(file="a.vmtest", line=3, column=7, length=2)

    def test_unknown_span_is_the_default(self):
        assert UNKNOWN_SPAN == SourceSpan()
        assert (UNKNOWN_SPAN.file, UNKNOWN_SPAN.line, UNKNOWN_SPAN.column,
                UNKNOWN_SPAN.length) == ("<input>", 1, 1, 0)
        assert str(UNKNOWN_SPAN) == "<input>:1:1"
        assert repr(UNKNOWN_SPAN) == "SourceSpan(file='<input>', line=1, column=1, length=0)"

    def test_diagnostic_render(self):
        diag = error("E101", "unknown widget 'X'", SourceSpan("v.vmdsl", 4, 9, 1))
        assert diag == Diagnostic("E101", "unknown widget 'X'", SourceSpan("v.vmdsl", 4, 9, 1))
        assert diag.render() == "v.vmdsl:4:9: E101: unknown widget 'X'"
        assert Diagnostic("E001", "m", UNKNOWN_SPAN).render() == "<input>:1:1: E001: m"


def test_ast_equality_ignores_spans():
    text = VMTEST_PATH.read_text(encoding="utf-8")
    first, first_diags = parse_test_suite(text, "a.vmtest")
    second, second_diags = parse_test_suite(text, "b.vmtest")
    assert first_diags == second_diags == []
    assert first.span != second.span and first.span.file == "a.vmtest"
    assert first == second
