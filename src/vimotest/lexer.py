"""Tokenizer for the ViewModel and test-suite DSL files.

Line-oriented pipe rows (data tables, expectation rows) are captured as one
raw token each; their cells and adornments are split later by the parser.
The tokenizer never raises on bad input: it records E001 diagnostics and
keeps scanning.

Scanning follows the master-pattern recipe from the ``re`` documentation:
one ``finditer`` pass over a compiled alternation, one match per token. The
blanks (space, tab, carriage return, newline) before a token are a prefix of
its match, and the match's last group names the token. A one-character group
catches anything else, and an empty alternative at the end of input takes
the blanks after the last token.

A token is a plain ``(type, text, offset, value)`` tuple: the loop builds
each one as a tuple display, with no constructor call, and the parser reads
it by unpacking or by index. The value is the unescaped string, the int or
the raw pipe-row text, None for punctuation and EOF.

A token keeps only its start offset. ``line_starts`` and ``position`` turn an
offset into a 1-based (line, column) on demand, where lines end at ``\\n``:
the parser does so for each span it builds, the tokenizer for each of its own
diagnostics.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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

# The token groups come in this order, and ``m.lastindex`` is the token's
# group, or None for the blanks at the end of input. Those match ``\Z`` once:
# with no alternative after them, the engine would retry them from every
# offset.
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]*
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
_G_IDENT, _G_PUNCT, _G_TRIPLE, _G_STRING, _G_PIPE, _G_INT, _G_COMMENT, _G_OTHER = range(1, 9)
_NEWLINE_RE = re.compile("\n")

_ESCAPE_RE = re.compile(r"\\(.)")
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')


def _unescape(match: re.Match) -> str:
    return ESCAPES[match.group(1)]


def unescape(body: str) -> str:
    """Decode a string body whose escapes are all in ``ESCAPES``."""
    return _ESCAPE_RE.sub(_unescape, body) if "\\" in body else body


def line_starts(text: str) -> list[int]:
    """The offset of the first character of each line of ``text``."""
    return [0, *[m.end() for m in _NEWLINE_RE.finditer(text)]]


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in the text of ``starts``."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def tokenize(text: str, file: str = "<input>") -> tuple[list[tuple], list[Diagnostic]]:
    toks: list[tuple] = []
    # (offset, message, length) of each diagnostic, placed when the scan ends.
    found: list[tuple[int, str, int]] = []
    append = toks.append
    ident, string, pipe, integer = (TokenType.IDENT, TokenType.STRING,
                                    TokenType.PIPE_ROW, TokenType.INT)
    n = len(text)
    pos = 0
    while pos < n:
        # A triple-quoted or malformed string ends this pass: scanning
        # restarts after it.
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastindex
            if kind == _G_IDENT:
                word = m[_G_IDENT]
                append((ident, word, m.start(_G_IDENT), word))
            elif kind == _G_PUNCT:
                ch = m[_G_PUNCT]
                append((_PUNCT[ch], ch, m.start(_G_PUNCT), None))
            elif kind == _G_STRING:
                start, end = m.span(_G_STRING)
                body = unescape(text[start + 1:end - 1])
                append((string, m[_G_STRING], start, body))
            elif kind == _G_PIPE:
                raw = m[_G_PIPE].rstrip()
                append((pipe, raw, m.start(_G_PIPE), raw))
            elif kind == _G_INT:
                digits = m[_G_INT]
                append((integer, digits, m.start(_G_INT), int(digits)))
            elif kind == _G_TRIPLE:
                start, end = m.span(_G_TRIPLE)
                close = text.find('"""', end)
                if close < 0:
                    found.append((start, "unterminated triple-quoted string", 3))
                    close = n
                append((TokenType.TRIPLE_STRING, '"""', start, text[end:close]))
                pos = min(close + 3, n)
                break
            elif kind == _G_OTHER:
                start = m.start(_G_OTHER)
                if text[start] == '"':
                    tok, pos = _malformed_string(text, start, found)
                    append(tok)
                    break
                found.append((start, f"unexpected character {text[start]!r}", 1))
            # else a comment, or the blanks at the end of input
        else:
            break
    append((TokenType.EOF, "", n, None))
    diags: list[Diagnostic] = []
    if found:
        starts = line_starts(text)
        diags = [error(E_SYNTAX, message, SourceSpan(file, *position(starts, offset), length))
                 for offset, message, length in found]
    return toks, diags


def _malformed_string(text: str, pos: int,
                      found: list[tuple[int, str, int]]) -> tuple[tuple, int]:
    """Scan a string the master pattern rejected: a bad escape or no closing quote.

    Unknown escapes are dropped from the value and reported where the
    backslash stands; a backslash-newline continues the string on the next
    line and is reported there. Returns the token and the offset after it.
    """
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
            if esc in ESCAPES:
                parts.append(ESCAPES[esc])
            else:  # a backslash-newline is reported where the next line starts
                found.append((i + 2 if esc == "\n" else i, f"unknown escape \\{esc}", 2))
            i += 2
            continue
        if text.startswith("\\", i):  # a backslash at the end of input
            i += 1
        found.append((pos, "unterminated string literal", 1))
        break
    return (TokenType.STRING, text[pos:i], pos, "".join(parts)), i
