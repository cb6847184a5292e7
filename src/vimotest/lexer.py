"""Tokenizer for the ViewModel and test-suite DSL files.

Line-oriented pipe rows (data tables, expectation rows) are captured as one
raw token each; their cells and adornments are split later by the parser.
The tokenizer never raises on bad input: it records E001 diagnostics and
keeps scanning.

Scanning follows the master-pattern recipe from the ``re`` documentation:
one ``finditer`` pass over a compiled alternation. No group matches a blank
(space, tab, carriage return) on its own, so the regex engine skips blank
runs itself; a newline and the blank lines and indentation after it form
the one whitespace match, and line and column come from the offset of the
last newline seen. A last one-character group catches anything else.
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

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.column, max(len(self.text), 1))


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

_TOKEN_RE = re.compile(rf"""
    (?P<ident>{IDENT_PATTERN})
  | (?P<newline>\n[ \t\r\n]*)
  | (?P<punct>[{{}}(),:.=])
  | (?P<triple>\"\"\")
  | (?P<string>"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*")
  | (?P<pipe>\|[^\n]*)
  | (?P<int>-?[0-9]+)
  | (?P<comment>//[^\n]*)
  | (?P<other>[^ \t\r])
""", re.VERBOSE)

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
            kind = m.lastgroup
            if kind == "ident":
                word = m[0]
                append(new(Token, (ident, word, line, m.start() - last_nl, word)))
            elif kind == "newline":
                start, end = m.span()
                newlines = text.count("\n", start, end)
                line += newlines
                last_nl = text.rindex("\n", start, end) if newlines > 1 else start
            elif kind == "punct":
                ch = m[0]
                append(new(Token, (_PUNCT[ch], ch, line, m.start() - last_nl, None)))
            elif kind == "string":
                start, end = m.span()
                body = unescape(text[start + 1:end - 1])
                append(new(Token, (string, m[0], line, start - last_nl, body)))
            elif kind == "pipe":
                raw = m[0].rstrip()
                append(new(Token, (pipe, raw, line, m.start() - last_nl, raw)))
            elif kind == "int":
                digits = m[0]
                append(new(Token, (integer, digits, line, m.start() - last_nl, int(digits))))
            elif kind == "comment":
                pass
            elif kind == "triple":
                start, end = m.span()
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
            else:  # other
                start = m.start()
                if text[start] == '"':
                    tok, pos, line, line_start = _malformed_string(
                        text, start, line, last_nl + 1, file, diags)
                    last_nl = line_start - 1
                    append(tok)
                    break
                diags.append(error(E_SYNTAX, f"unexpected character {text[start]!r}",
                                   SourceSpan(file, line, start - last_nl, 1)))
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
