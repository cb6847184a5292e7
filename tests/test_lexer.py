"""Table-driven lexer cases.

The expected tokens and diagnostics of the ASCII cases were recorded from the
character-walking lexer that the master-pattern lexer replaced, so they pin
its exact spans and messages. The non-ASCII cases pin the ASCII-only rules.
"""

import pytest

from vimotest.lexer import tokenize
from vimotest.model import is_identifier


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
