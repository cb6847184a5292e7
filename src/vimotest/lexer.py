"""Tokenizer for the ViewModel and test-suite DSL files.

Line-oriented pipe rows (data tables, expectation rows) are captured as one
raw token each; their cells and adornments are split later by the parser.
The tokenizer never raises on bad input: it records E001 diagnostics and
keeps scanning.

Scanning follows the master-pattern recipe from the ``re`` documentation:
one compiled alternation is matched at the current offset, and line and
column come from the offset of the last newline seen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

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


@dataclass(frozen=True)
class Token:
    type: TokenType
    text: str
    line: int
    column: int
    value: object = None  # unescaped string / int / raw pipe-row text

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file=file, line=self.line, column=self.column,
                          length=max(len(self.text), 1))


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
    (?P<skip>(?:[ \t\r\n]|//[^\n]*)+)
  | (?P<pipe>\|[^\n]*)
  | (?P<punct>[{{}}(),:.=])
  | (?P<triple>\"\"\")
  | (?P<string>"[^"\\\n]*(?:\\["\\nt][^"\\\n]*)*")
  | (?P<ident>{IDENT_PATTERN})
  | (?P<int>-?[0-9]+)
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
    match = _TOKEN_RE.match
    n = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    while pos < n:
        m = match(text, pos)
        if m is None:
            if text[pos] == '"':
                tok, pos, line, line_start = _malformed_string(
                    text, pos, line, line_start, file, diags)
                append(tok)
            else:
                diags.append(error(E_SYNTAX, f"unexpected character {text[pos]!r}",
                                   SourceSpan(file, line, pos - line_start + 1, 1)))
                pos += 1
            continue
        kind = m.lastgroup
        end = m.end()
        if kind == "skip":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "ident":
            word = m.group()
            append(Token(TokenType.IDENT, word, line, pos - line_start + 1, word))
        elif kind == "punct":
            ch = m.group()
            append(Token(_PUNCT[ch], ch, line, pos - line_start + 1))
        elif kind == "pipe":
            raw = m.group().rstrip()
            append(Token(TokenType.PIPE_ROW, raw, line, pos - line_start + 1, raw))
        elif kind == "string":
            body = unescape(text[pos + 1:end - 1])
            append(Token(TokenType.STRING, m.group(), line, pos - line_start + 1, body))
        elif kind == "int":
            digits = m.group()
            append(Token(TokenType.INT, digits, line, pos - line_start + 1, int(digits)))
        else:  # triple
            col = pos - line_start + 1
            close = text.find('"""', end)
            if close < 0:
                diags.append(error(E_SYNTAX, "unterminated triple-quoted string",
                                   SourceSpan(file, line, col, 3)))
                close = n
            append(Token(TokenType.TRIPLE_STRING, '"""', line, col, text[end:close]))
            newlines = text.count("\n", end, close)
            end = min(close + 3, n)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, close) + 1
        pos = end
    append(Token(TokenType.EOF, "", line, n - line_start + 1))
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
