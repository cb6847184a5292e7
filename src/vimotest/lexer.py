"""Tokenizer for the ViewModel and test-suite DSL files.

Line-oriented pipe rows (data tables, expectation rows) are captured as one
raw token each; their cells and adornments are split later by the parser.
The tokenizer never raises on bad input: it records E001 diagnostics and
keeps scanning.

Scanning follows the master-pattern recipe from the ``re`` documentation:
one ``finditer`` pass over a compiled alternation, one match per token. The
blanks (space, tab, carriage return) and newlines before a token are an
optional prefix of its match; when the prefix holds a newline it advances
the line and the offset of the last newline, which columns are taken from.
The match's last group names the token. A one-character group catches
anything else, and an empty alternative at the end of input takes the
blanks after the last token, so the EOF position counts them.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .diagnostics import Diagnostic, E_SYNTAX, SourceSpan, error

# Identifiers are ASCII; ``model.is_identifier`` uses the same rule.
IDENT_PATTERN = r"[A-Za-z][A-Za-z0-9_]*"

# The string escapes, shared with tooltip strings in expectation rows.
ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


class TokenType(Enum):
    IDENT = auto()
    STRING = auto()
    TRIPLE_STRING = auto()
    INT = auto()
    PIPE_ROW = auto()
    LBRACE = auto()
    RBRACE = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    COLON = auto()
    DOT = auto()
    EQUALS = auto()
    EOF = auto()


class Token(NamedTuple):
    type: TokenType
    text: str
    line: int
    column: int
    value: object = None  # unescaped string / int / raw pipe-row text


_PUNCT = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
    ".": TokenType.DOT,
    "=": TokenType.EQUALS,
}

# Group 1 is the blank prefix's newline run; the token groups follow it in
# this order, and ``m.lastindex`` is the token's group, or 1 or None for the
# blanks at the end of input. Those match ``\Z`` once: with no alternative
# after them, the engine would retry them from every offset.
_TOKEN_RE = re.compile(rf"""
    [ \t\r]*(\n[ \t\r\n]*)?
    (?:
      ({IDENT_PATTERN})
    | ([{{}}(),:.=])
    | (\"\"\")
    | ("[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*")
    | (\|[^\n]*)
    | (-?[0-9]+)
    | (//[^\n]*)
    | ([^ \t\r\n])
    | \Z
    )
""", re.VERBOSE)
_G_IDENT, _G_PUNCT, _G_TRIPLE, _G_STRING, _G_PIPE, _G_INT, _G_COMMENT, _G_OTHER = range(2, 10)

_ESCAPE_RE = re.compile(r"\\(.)")
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')


def _unescape(match: re.Match) -> str:
    return ESCAPES[match.group(1)]


def unescape(body: str) -> str:
    """Decode a string body whose escapes are all in ``ESCAPES``."""
    return _ESCAPE_RE.sub(_unescape, body) if "\\" in body else body


def tokenize(text: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    toks: list[Token] = []
    diags: list[Diagnostic] = []
    append = toks.append
    new = tuple.__new__
    ident, string, pipe, integer = (TokenType.IDENT, TokenType.STRING,
                                    TokenType.PIPE_ROW, TokenType.INT)
    n = len(text)
    pos = 0
    line = 1
    last_nl = -1  # offset of the last newline seen, so a column is offset - last_nl
    while pos < n:
        # A triple-quoted or malformed string ends this pass: scanning
        # restarts after it.
        for m in _TOKEN_RE.finditer(text, pos):
            nl = m.start(1)
            if nl >= 0:
                end = m.end(1)
                newlines = text.count("\n", nl, end)
                line += newlines
                last_nl = text.rindex("\n", nl, end) if newlines > 1 else nl
            kind = m.lastindex
            if kind == _G_IDENT:
                word = m[_G_IDENT]
                append(new(Token, (ident, word, line, m.start(_G_IDENT) - last_nl, word)))
            elif kind == _G_PUNCT:
                ch = m[_G_PUNCT]
                append(new(Token, (_PUNCT[ch], ch, line, m.start(_G_PUNCT) - last_nl, None)))
            elif kind == _G_STRING:
                start, end = m.span(_G_STRING)
                body = unescape(text[start + 1:end - 1])
                append(new(Token, (string, m[_G_STRING], line, start - last_nl, body)))
            elif kind == _G_PIPE:
                raw = m[_G_PIPE].rstrip()
                append(new(Token, (pipe, raw, line, m.start(_G_PIPE) - last_nl, raw)))
            elif kind == _G_INT:
                digits = m[_G_INT]
                append(new(Token, (integer, digits, line, m.start(_G_INT) - last_nl, int(digits))))
            elif kind == _G_TRIPLE:
                start, end = m.span(_G_TRIPLE)
                col = start - last_nl
                close = text.find('"""', end)
                if close < 0:
                    diags.append(error(E_SYNTAX, "unterminated triple-quoted string",
                                       SourceSpan(file, line, col, 3)))
                    close = n
                append(Token(TokenType.TRIPLE_STRING, '"""', line, col, text[end:close]))
                newlines = text.count("\n", end, close)
                if newlines:
                    line += newlines
                    last_nl = text.rindex("\n", start, close)
                pos = min(close + 3, n)
                break
            elif kind == _G_OTHER:
                start = m.start(_G_OTHER)
                if text[start] == '"':
                    tok, pos, line, line_start = _malformed_string(
                        text, start, line, last_nl + 1, file, diags)
                    last_nl = line_start - 1
                    append(tok)
                    break
                diags.append(error(E_SYNTAX, f"unexpected character {text[start]!r}",
                                   SourceSpan(file, line, start - last_nl, 1)))
            # else a comment, or the blanks at the end of input
        else:
            break
    append(Token(TokenType.EOF, "", line, n - last_nl))
    return toks, diags


def _malformed_string(text: str, pos: int, line: int, line_start: int, file: str,
                      diags: list[Diagnostic]) -> tuple[Token, int, int, int]:
    """Scan a string the master pattern rejected: a bad escape or no closing quote.

    Unknown escapes are dropped from the value and reported where the
    backslash stands; a backslash-newline continues the string on the next
    line. Returns the token and the new (pos, line, line_start).
    """
    start_line, col = line, pos - line_start + 1
    n = len(text)
    parts: list[str] = []
    i = pos + 1
    while True:
        run_end = _STRING_RUN_RE.match(text, i).end()
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
        if text.startswith("\\", i):  # a backslash at the end of input
            i += 1
        diags.append(error(E_SYNTAX, "unterminated string literal",
                           SourceSpan(file, start_line, col, 1)))
        break
    token = Token(TokenType.STRING, text[pos:i], start_line, col, "".join(parts))
    return token, i, line, line_start
