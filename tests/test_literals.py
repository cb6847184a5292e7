"""The Java/C++ string-literal escaper and the comment sanitisers."""

import re

from hypothesis import given
from hypothesis import strategies as st

from vimotest.java_emitter import _comment as java_comment
from vimotest.literals import comment_text, quote


def reference_quote(value: str) -> str:
    """The per-character escaper both emitters used to carry."""
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


_DECODE = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def decode(literal: str) -> str:
    """Read a Java/C++ string literal back; fail on anything a compiler would
    reject or read differently (a raw quote, a raw line break, an unknown or
    dangling escape)."""
    assert literal[0] == literal[-1] == '"' and len(literal) >= 2
    body = literal[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        assert ch not in '"\n\r', f"raw {ch!r} at {i}"
        if ch == "\\":
            assert i + 1 < len(body), "dangling backslash"
            out.append(_DECODE[body[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# A backslash starts a Java unicode escape when an even number of
# backslashes precedes it and 'u' follows.
JAVA_UNICODE_ESCAPE = re.compile(r"(?<!\\)(?:\\\\)*\\u")


class TestQuote:
    @given(st.text())
    def test_matches_the_per_character_escaper(self, value):
        assert quote(value) == reference_quote(value)

    @given(st.text())
    def test_decodes_back_to_the_input(self, value):
        assert decode(quote(value)) == value

    @given(st.text())
    def test_never_spells_a_java_unicode_escape(self, value):
        assert JAVA_UNICODE_ESCAPE.search(quote(value)) is None

    def test_the_five_escapes(self):
        assert quote('a\\b"c\n\t\r') == r'"a\\b\"c\n\t\r"'

    def test_everything_else_passes_through(self):
        assert quote("é²٣\u2028\x00") == '"é²٣\u2028\x00"'
        assert quote("") == '""'
        assert quote("\\u000a") == r'"\\u000a"'


class TestCommentText:
    def test_carriage_return_is_spelled_out(self):
        assert comment_text("| a\rb |") == r"| a\rb |"
        assert java_comment("| a\r\\u |") == r"| a\r\\u |"

    def test_java_doubles_backslash_runs_before_u(self):
        assert java_comment(r"Ex\u000a") == r"Ex\\u000a"
        assert java_comment(r'"c:\\u000a"') == r'"c:\\\\u000a"'
        assert java_comment(r"a\\\uu b") == r"a\\\\\\uu b"

    def test_other_backslashes_stay(self):
        assert java_comment(r'"a\nb \"q\""') == r'"a\nb \"q\""'
        assert comment_text(r"Ex\u000a \ ") == r"Ex\u000a \ "

    def test_plain_text_is_unchanged(self):
        text = '| prioLow  | Exercise  | 2024-01-04 [tooltip "4th January 2024"] |'
        assert comment_text(text) == text
        assert java_comment(text) == text

    @given(st.text(alphabet="\\u\rx\"é "))
    def test_java_comment_has_no_unicode_escape_or_line_break(self, text):
        out = java_comment(text)
        assert JAVA_UNICODE_ESCAPE.search(out) is None
        assert "\r" not in out
        # Halving the runs before 'u' gives the text back, CR spelled out.
        undone = re.sub(r"(\\+)(?=u)", lambda m: m.group(1)[:len(m.group(1)) // 2], out)
        assert undone == text.replace("\r", "\\r")

    @given(st.text(alphabet="\\u\rx\"é "))
    def test_cpp_comment_changes_only_carriage_returns(self, text):
        assert comment_text(text) == text.replace("\r", "\\r")
