"""Table-driven lexer cases.

The expected tokens and diagnostics of the ASCII cases were recorded from the
character-walking lexer that the master-pattern lexer replaced, so they pin
its exact spans and messages. The non-ASCII cases pin the ASCII-only rules.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vimotest.diagnostics import E_SYNTAX, SourceSpan, error
from vimotest.lexer import ESCAPES, IDENT_PATTERN, TokenType, tokenize, unescape
from vimotest.model import is_identifier
from vimotest.parser import _Parser, parse_view_model


def lex(src):
    toks, diags = tokenize(src, "f")
    return ([(t.type.name, t.text, t.line, t.column, t.value) for t in toks],
            [(d.code, d.message, d.render(), d.span.length) for d in diags])


# (case id, source, [(type, text, line, column, value)], [(code, message, rendered, length)])
CASES = [
    ('unterminated_string_eol', 'a "abc\nb',
     [('IDENT', 'a', 1, 1, 'a'),
      ('STRING', '"abc', 1, 3, 'abc'),
      ('IDENT', 'b', 2, 1, 'b'),
      ('EOF', '', 2, 2, None)],
     [('E001', 'unterminated string literal', 'f:1:3: E001: unterminated string literal', 1)]),
    ('unterminated_string_eof', 'x "abc',
     [('IDENT', 'x', 1, 1, 'x'),
      ('STRING', '"abc', 1, 3, 'abc'),
      ('EOF', '', 1, 7, None)],
     [('E001', 'unterminated string literal', 'f:1:3: E001: unterminated string literal', 1)]),
    ('backslash_at_eof', '"ab\\',
     [('STRING', '"ab\\', 1, 1, 'ab'),
      ('EOF', '', 1, 5, None)],
     [('E001', 'unterminated string literal', 'f:1:1: E001: unterminated string literal', 1)]),
    ('backslash_newline', '"ab\\\ncd" z',
     [('STRING', '"ab\\\ncd"', 1, 1, 'abcd'),
      ('IDENT', 'z', 2, 5, 'z'),
      ('EOF', '', 2, 6, None)],
     [('E001', 'unknown escape \\\n', 'f:2:1: E001: unknown escape \\\n', 2)]),
    ('unknown_escape_column', 'x  "a\\qb\\n"',
     [('IDENT', 'x', 1, 1, 'x'),
      ('STRING', '"a\\qb\\n"', 1, 4, 'ab\n'),
      ('EOF', '', 1, 12, None)],
     [('E001', 'unknown escape \\q', 'f:1:6: E001: unknown escape \\q', 2)]),
    ('known_escapes', '"q\\"b\\\\s\\tt"',
     [('STRING', '"q\\"b\\\\s\\tt"', 1, 1, 'q"b\\s\tt'),
      ('EOF', '', 1, 13, None)],
     []),
    ('unterminated_triple', 'text """ab\ncd',
     [('IDENT', 'text', 1, 1, 'text'),
      ('TRIPLE_STRING', '"""', 1, 6, 'ab\ncd'),
      ('EOF', '', 2, 3, None)],
     [('E001', 'unterminated triple-quoted string', 'f:1:6: E001: unterminated triple-quoted string', 3)]),
    ('triple_string', '"""a\n"b"\n""" q',
     [('TRIPLE_STRING', '"""', 1, 1, 'a\n"b"\n'),
      ('IDENT', 'q', 3, 5, 'q'),
      ('EOF', '', 3, 6, None)],
     []),
    ('lone_minus', '- -5 7',
     [('INT', '-5', 1, 3, -5),
      ('INT', '7', 1, 6, 7),
      ('EOF', '', 1, 7, None)],
     [('E001', "unexpected character '-'", "f:1:1: E001: unexpected character '-'", 1)]),
    ('underscore_ident', '_abc a_b1',
     [('IDENT', 'abc', 1, 2, 'abc'),
      ('IDENT', 'a_b1', 1, 6, 'a_b1'),
      ('EOF', '', 1, 10, None)],
     [('E001', "unexpected character '_'", "f:1:1: E001: unexpected character '_'", 1)]),
    ('comment_at_eof', 'a //',
     [('IDENT', 'a', 1, 1, 'a'),
      ('EOF', '', 1, 5, None)],
     []),
    ('comment_then_code', 'a // note\nb',
     [('IDENT', 'a', 1, 1, 'a'),
      ('IDENT', 'b', 2, 1, 'b'),
      ('EOF', '', 2, 2, None)],
     []),
    ('lone_slash', 'a / b',
     [('IDENT', 'a', 1, 1, 'a'),
      ('IDENT', 'b', 1, 5, 'b'),
      ('EOF', '', 1, 6, None)],
     [('E001', "unexpected character '/'", "f:1:3: E001: unexpected character '/'", 1)]),
    ('crlf', 'a\r\nb\r\n',
     [('IDENT', 'a', 1, 1, 'a'),
      ('IDENT', 'b', 2, 1, 'b'),
      ('EOF', '', 3, 1, None)],
     []),
    ('tabs', '\ta\t{b',
     [('IDENT', 'a', 1, 2, 'a'),
      ('LBRACE', '{', 1, 4, None),
      ('IDENT', 'b', 1, 5, 'b'),
      ('EOF', '', 1, 6, None)],
     []),
    ('pipe_row_trailing_ws', '| a | b |  \t\n  | c |\r\n',
     [('PIPE_ROW', '| a | b |', 1, 1, '| a | b |'),
      ('PIPE_ROW', '| c |', 2, 3, '| c |'),
      ('EOF', '', 3, 1, None)],
     []),
    ('punctuation', '{}(),:.=',
     [('LBRACE', '{', 1, 1, None),
      ('RBRACE', '}', 1, 2, None),
      ('LPAREN', '(', 1, 3, None),
      ('RPAREN', ')', 1, 4, None),
      ('COMMA', ',', 1, 5, None),
      ('COLON', ':', 1, 6, None),
      ('DOT', '.', 1, 7, None),
      ('EQUALS', '=', 1, 8, None),
      ('EOF', '', 1, 9, None)],
     []),
    ('eof_column', 'abc',
     [('IDENT', 'abc', 1, 1, 'abc'),
      ('EOF', '', 1, 4, None)],
     []),
    ('eof_after_newline', 'abc\n',
     [('IDENT', 'abc', 1, 1, 'abc'),
      ('EOF', '', 2, 1, None)],
     []),
    ('empty', '',
     [('EOF', '', 1, 1, None)],
     []),
    ('empty_string_then_ident', '""x',
     [('STRING', '""', 1, 1, ''),
      ('IDENT', 'x', 1, 3, 'x'),
      ('EOF', '', 1, 4, None)],
     []),
]


@pytest.mark.parametrize("src,tokens,diags", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_tokens_and_diagnostics(src, tokens, diags):
    assert lex(src) == (tokens, diags)


def test_superscript_digit_is_a_diagnostic_not_a_crash():
    tokens, diags = lex("\u00b2")
    assert tokens == [("EOF", "", 1, 2, None)]
    assert diags == [("E001", "unexpected character '\u00b2'",
                      "f:1:1: E001: unexpected character '\u00b2'", 1)]


def test_arabic_indic_digit_is_not_an_int():
    tokens, diags = lex("\u0663")
    assert [t[0] for t in tokens] == ["EOF"]
    assert [d[0] for d in diags] == ["E001"]


def test_identifier_stops_at_non_ascii_letter():
    tokens, diags = lex("x\u00b2 \u00e9t\u00e9")
    assert tokens == [("IDENT", "x", 1, 1, "x"), ("IDENT", "t", 1, 5, "t"),
                      ("EOF", "", 1, 7, None)]
    assert [d[2] for d in diags] == [
        "f:1:2: E001: unexpected character '\u00b2'",
        "f:1:4: E001: unexpected character '\u00e9'",
        "f:1:6: E001: unexpected character '\u00e9'",
    ]


def test_non_ascii_text_inside_strings_rows_and_comments_is_kept():
    tokens, diags = lex('"\u00e9\u00b2" // \u0663\n| \u00e9 |')
    assert diags == []
    assert tokens[0][4] == "\u00e9\u00b2"
    assert tokens[1][:2] == ("PIPE_ROW", "| \u00e9 |")


@pytest.mark.parametrize("word", ["a", "Ab_9", "x\u00b2", "\u00e9", "_a", "9a", "a-b", ""])
def test_lexer_and_model_agree_on_identifiers(word):
    tokens, diags = tokenize(word)
    one_ident = not diags and [t.type.name for t in tokens] == ["IDENT", "EOF"]
    assert one_ident == is_identifier(word)


# -- reference oracle ---------------------------------------------------------
# The lexer before blanks were skipped inside the regex engine: a master
# pattern matched at each offset, with blanks, newlines and comments as one
# skip group. It returns the same tuples as ``lex``.

_REF_TOKEN_RE = re.compile(rf"""
    (?P<skip>(?:[ \t\r\n]|//[^\n]*)+)
  | (?P<pipe>\|[^\n]*)
  | (?P<punct>[{{}}(),:.=])
  | (?P<triple>\"\"\")
  | (?P<string>"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*")
  | (?P<ident>{IDENT_PATTERN})
  | (?P<int>-?[0-9]+)
""", re.VERBOSE)
_REF_PUNCT = {"{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
              ",": "COMMA", ":": "COLON", ".": "DOT", "=": "EQUALS"}
_REF_STRING_RUN_RE = re.compile(r'[^"\\\n]*')


def reference_lex(text, file="f"):
    toks, diags = [], []
    n = len(text)
    pos, line, line_start = 0, 1, 0
    while pos < n:
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos] == '"':
                tok, pos, line, line_start = _reference_malformed_string(
                    text, pos, line, line_start, file, diags)
                toks.append(tok)
            else:
                diags.append(error(E_SYNTAX, f"unexpected character {text[pos]!r}",
                                   SourceSpan(file, line, pos - line_start + 1, 1)))
                pos += 1
            continue
        kind, end, col = m.lastgroup, m.end(), pos - line_start + 1
        if kind == "skip":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "ident":
            toks.append(("IDENT", m.group(), line, col, m.group()))
        elif kind == "punct":
            toks.append((_REF_PUNCT[m.group()], m.group(), line, col, None))
        elif kind == "pipe":
            raw = m.group().rstrip()
            toks.append(("PIPE_ROW", raw, line, col, raw))
        elif kind == "string":
            toks.append(("STRING", m.group(), line, col, unescape(text[pos + 1:end - 1])))
        elif kind == "int":
            toks.append(("INT", m.group(), line, col, int(m.group())))
        else:  # triple
            close = text.find('"""', end)
            if close < 0:
                diags.append(error(E_SYNTAX, "unterminated triple-quoted string",
                                   SourceSpan(file, line, col, 3)))
                close = n
            toks.append(("TRIPLE_STRING", '"""', line, col, text[end:close]))
            newlines = text.count("\n", end, close)
            end = min(close + 3, n)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, close) + 1
        pos = end
    toks.append(("EOF", "", line, n - line_start + 1, None))
    return toks, [(d.code, d.message, d.render(), d.span.length) for d in diags]


def _reference_malformed_string(text, pos, line, line_start, file, diags):
    start_line, col = line, pos - line_start + 1
    n = len(text)
    parts = []
    i = pos + 1
    while True:
        run_end = _REF_STRING_RUN_RE.match(text, i).end()
        parts.append(text[i:run_end])
        i = run_end
        if text.startswith('"', i):
            i += 1
            break
        if text.startswith("\\", i) and i + 1 < n:
            esc = text[i + 1]
            if esc == "\n":
                line += 1
                line_start = i + 2
            if esc in ESCAPES:
                parts.append(ESCAPES[esc])
            else:
                diags.append(error(E_SYNTAX, f"unknown escape \\{esc}",
                                   SourceSpan(file, line, max(i - line_start + 1, 1), 2)))
            i += 2
            continue
        if text.startswith("\\", i):
            i += 1
        diags.append(error(E_SYNTAX, "unterminated string literal",
                           SourceSpan(file, start_line, col, 1)))
        break
    return ("STRING", text[pos:i], start_line, col, "".join(parts)), i, line, line_start


@pytest.mark.parametrize("src,tokens,diags", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_reference_oracle_matches_the_recorded_cases(src, tokens, diags):
    assert reference_lex(src) == (tokens, diags)


# DSL-shaped fragments plus the characters and pairs at the edges of the
# rules: form feed and vertical tab (not blanks), CRLF, a lone '/' and '-',
# triple quotes, escapes good and bad, and non-ASCII letters and digits.
_FRAGMENTS = [
    " ", "  ", "\t", "\r", "\n", "\r\n", "\f", "\x0b", "/", "//", "-", "-7", "0",
    '"', '"""', "\\", "\\n", "\\q", "\\\n", "|", "| a | b |", "{", "}", "(", ")",
    ",", ":", ".", "=", "a", "Zz_9", "_", "widgets", "\u00b2", "\u00e9", "\u0663",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
       st.sampled_from(["", "//", "\n//", '"', '"""']))
def test_tokens_and_diagnostics_match_the_reference(body, ending):
    src = body + ending
    assert lex(src) == reference_lex(src)


# -- the parser's view of the end of input ------------------------------------

def test_advance_at_eof_stays_put():
    tokens, _ = tokenize("a b")
    parser = _Parser(tokens, "f", [])
    assert [parser.advance().text for _ in range(2)] == ["a", "b"]
    for _ in range(3):
        tok = parser.advance()
        assert tok.type is TokenType.EOF and parser.peek() is tok
        assert parser.i == len(tokens) - 1


def test_found_end_of_input_keeps_its_span():
    desc, diags = parse_view_model("viewmodel V {\n  widgets {", "f")
    assert desc is None
    assert [(d.render(), d.span.length) for d in diags] == [
        ("f:2:12: E001: expected '}', found end of input", 1)]
