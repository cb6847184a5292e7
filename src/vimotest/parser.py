"""Recursive-descent parsers for the two DSL file kinds.

``parse_view_model`` reads ``.vmdsl`` sources, ``parse_test_suite`` reads
``.vmtest`` sources. Both return ``(ast, diagnostics)``; the ast is None
whenever any error diagnostic was produced. Parsing recovers to the next
declaration after a syntax error so several errors can be reported at once.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Callable, Container, NoReturn, TypeVar

from .diagnostics import (
    Diagnostic,
    E_DUPLICATE_NAME,
    E_RAGGED_TABLE,
    E_SYNTAX,
    SourceSpan,
    error,
)
from .lexer import ESCAPES, Token, TokenType, tokenize, unescape
from .model import (
    Action,
    ArgContextRef,
    ArgLiteral,
    Argument,
    CellExpectation,
    CellKind,
    CheckValue,
    ColumnSpec,
    CommandDecl,
    CommandKind,
    ContextDefinition,
    CustomAction,
    CustomCommand,
    DataTableBody,
    FeatureKind,
    FileBody,
    COLOR_NAMES,
    FEATURE_RANK,
    FEATURE_TYPE,
    NameBinding,
    Param,
    ParamType,
    ReferenceBody,
    RowExpectation,
    RowsExpectation,
    TestScenario,
    TestSuite,
    TextBody,
    ViewModelDescription,
    WidgetAction,
    WidgetCommand,
    WidgetDecl,
    WidgetKind,
    XmlBody,
    is_identifier,
)
from .names import camel_case

T = TypeVar("T")

_WIDGET_KIND_WORDS = {k.value: k for k in WidgetKind}
_FEATURE_WORDS = {f.value: f for f in FeatureKind}
_ACTION_WORDS = {k.value: k for k in CommandKind}
_CELL_KIND_WORDS = {k.value: k for k in CellKind}
_PARAM_TYPE_WORDS = {p.value: p for p in ParamType}
_SCALAR_CHECK_FEATURES = {feature.value: feature for feature, type_name in FEATURE_TYPE.items()
                          if type_name in ("bool", "string")}
_BINDING_WORDS = frozenset({"typeName", "fileName", "property"})
_COMMAND_WORDS = frozenset(_ACTION_WORDS) | {"command"}
_SCENARIO_WORDS = frozenset({"scenario"})


class _ParseError(Exception):
    pass


def parse_view_model(
    text: str | bytes, file: str = "<input>"
) -> tuple[ViewModelDescription | None, list[Diagnostic]]:
    return _parse(text, file, _Parser.parse_view_model_file, "ViewModel")


def parse_test_suite(
    text: str | bytes, file: str = "<input>"
) -> tuple[TestSuite | None, list[Diagnostic]]:
    return _parse(text, file, _Parser.parse_test_suite_file, "test suite")


def _parse(text: str | bytes, file: str, entry: Callable[[_Parser], T],
           what: str) -> tuple[T | None, list[Diagnostic]]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            span = SourceSpan(file=file, line=1, column=1, length=0)
            return None, [error(E_SYNTAX, f"input is not valid UTF-8: {exc.reason}", span)]
    tokens, diags = tokenize(text, file)
    parser = _Parser(tokens, file, diags)
    try:
        ast = entry(parser)
    except _ParseError:
        return None, diags
    if not parser.at(TokenType.EOF):
        parser.report(f"unexpected content after {what} body: "
                      f"{parser._describe(parser.peek())}")
    return (None if diags else ast), diags


class _Parser:
    def __init__(self, tokens: list[Token], file: str, diagnostics: list[Diagnostic]):
        self.toks = tokens  # always ends in the one EOF token
        self.last = len(tokens) - 1
        self.file = file
        self.diags = diagnostics
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        """Return the current token and move past it, but never past EOF."""
        i = self.i
        if i < self.last:
            self.i = i + 1
        return self.toks[i]

    def at(self, ttype: TokenType) -> bool:
        return self.toks[self.i].type is ttype

    def at_word(self, *words: str) -> bool:
        tok = self.toks[self.i]
        return tok.type is TokenType.IDENT and tok.text in words

    def span_of(self, tok: Token) -> SourceSpan:
        return tok.span(self.file)

    def report(self, message: str, tok: Token | None = None, code: str = E_SYNTAX) -> None:
        tok = tok or self.peek()
        self.diags.append(error(code, message, self.span_of(tok)))

    def fail(self, message: str, tok: Token | None = None, code: str = E_SYNTAX) -> NoReturn:
        self.report(message, tok, code)
        raise _ParseError()

    def expect(self, ttype: TokenType, what: str) -> Token:
        if self.toks[self.i].type is not ttype:
            self.fail(f"expected {what}, found {self._describe(self.peek())}")
        return self.advance()

    def expect_word(self, word: str) -> Token:
        tok = self.toks[self.i]
        if tok.type is not TokenType.IDENT or tok.text != word:
            self.fail(f"expected '{word}', found {self._describe(tok)}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        return self.expect(TokenType.IDENT, what)

    def expect_one_of(self, words: dict[str, T], what: str) -> T:
        """Consume one of ``words`` and return what it maps to."""
        tok = self.toks[self.i]
        if tok.type is not TokenType.IDENT or tok.text not in words:
            self.fail(f"expected {what}, found {self._describe(tok)}")
        return words[self.advance().text]

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.type is TokenType.EOF:
            return "end of input"
        if tok.type is TokenType.PIPE_ROW:
            return "table row"
        return f"'{tok.text}'"

    def sync(self, stop_words: Container[str]) -> None:
        """Skip tokens until a declaration start word, '}', or EOF at depth 0."""
        depth = 0
        while not self.at(TokenType.EOF):
            tok = self.peek()
            if depth == 0:
                if tok.type is TokenType.RBRACE:
                    return
                if tok.type is TokenType.IDENT and tok.text in stop_words:
                    return
            if tok.type is TokenType.LBRACE:
                depth += 1
            elif tok.type is TokenType.RBRACE:
                depth -= 1
                if depth < 0:
                    return
            self.advance()

    # -- the shared list, block and duplicate rules ---------------------------

    def first(self, seen: set, key, tok: Token, message: str) -> bool:
        """True for the first ``key``; a repeat is reported at ``tok`` as
        E106 with ``message.format(key)``."""
        if key in seen:
            self.report(message.format(key), tok, E_DUPLICATE_NAME)
            return False
        seen.add(key)
        return True

    def items(self, parse_one: Callable, stop_words: Container[str],
              duplicate: str | None = None) -> tuple:
        """Parse items up to '}' or EOF, skipping to ``stop_words`` after an error.

        With a ``duplicate`` message, ``parse_one`` returns ``(item, key,
        token)``: an item whose key was seen before is reported at its token
        (see ``first``) and dropped.
        """
        out = []
        seen: set = set()
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                item = parse_one()
            except _ParseError:
                self.sync(stop_words)
                continue
            if duplicate is not None:
                item, key, tok = item
                if not self.first(seen, key, tok, duplicate):
                    continue
            out.append(item)
        return tuple(out)

    def block(self, word: str | None, parse_body: Callable[[], T]) -> T:
        """Parse ``word { body }``, or just ``{ body }`` without a word."""
        if word is not None:
            self.expect_word(word)
        self.expect(TokenType.LBRACE, "'{'")
        body = parse_body()
        self.expect(TokenType.RBRACE, "'}'")
        return body

    def comma_list(self, parse_one: Callable[[], T | None]) -> tuple[T, ...]:
        """Parse ``one (',' one)*``; a None from ``parse_one`` is dropped."""
        out = []
        while True:
            item = parse_one()
            if item is not None:
                out.append(item)
            if not self.at(TokenType.COMMA):
                return tuple(out)
            self.advance()

    # -- literals ----------------------------------------------------------

    def parse_bool(self) -> bool:
        if not self.at_word("true", "false"):
            self.fail(f"expected 'true' or 'false', found {self._describe(self.peek())}")
        return self.advance().text == "true"

    def parse_literal(self):
        tok = self.peek()
        if tok.type is TokenType.STRING or tok.type is TokenType.INT:
            return self.advance().value
        if self.at_word("true", "false"):
            return self.parse_bool()
        self.fail(f"expected a literal, found {self._describe(tok)}")

    # -- ViewModel description file -----------------------------------------

    def parse_view_model_file(self) -> ViewModelDescription:
        head = self.expect_word("viewmodel")
        name = self.expect_ident("ViewModel name")
        bindings: tuple[NameBinding, ...] = ()
        if self.at_word("bind"):
            bindings = self.block("bind", lambda: self.items(
                self.parse_binding, _BINDING_WORDS, "duplicate binding for {}"))
        widgets, commands = self.block(None, lambda: (
            self.block("widgets", lambda: self.items(
                self.parse_widget_decl, _WIDGET_KIND_WORDS, "duplicate widget name '{}'")),
            self.block("commands", lambda: self.items(
                self.parse_command_decl, _COMMAND_WORDS, "duplicate command name '{}'"))))
        return ViewModelDescription(name=name.text, widgets=widgets, commands=commands,
                                    bindings=bindings, span=self.span_of(head))

    def parse_binding(self) -> tuple[NameBinding, str, Token]:
        tok = self.peek()
        widget = feature = None
        if self.at_word("typeName", "fileName"):
            subject = self.advance().text
        elif self.at_word("property"):
            self.advance()
            widget = self.expect_ident("widget name").text
            self.expect(TokenType.DOT, "'.'")
            feature = self.parse_feature_word()
            if self.at_word("name"):
                subject = "propertyName"
            elif self.at_word("getter"):
                subject = "getterName"
            else:
                self.fail("expected 'name' or 'getter' after property binding")
            self.advance()
        else:
            self.fail("expected a name binding")
        self.expect(TokenType.EQUALS, "'='")
        value = self.expect(TokenType.STRING, "string")
        self._check_bound_name(subject, value)
        # The key names what is bound, as the duplicate message shows it.
        key = subject if widget is None else f"{subject} of {widget}.{feature.value}"
        return NameBinding(subject=subject, bound_name=value.value, widget=widget,
                           feature=feature, span=self.span_of(tok)), key, tok

    def _check_bound_name(self, subject: str, value: Token) -> None:
        name = value.value
        if subject == "fileName":
            bad = not name or "/" in name or "\\" in name or name in (".", "..")
            if bad:
                self.report(f"bound file name is not a valid path segment: {name!r}", value)
        elif not is_identifier(name):
            self.report(f"bound name is not a valid identifier: {name!r}", value)

    def parse_feature_word(self) -> FeatureKind:
        return self.expect_one_of(_FEATURE_WORDS, "a feature name")

    def parse_widget_decl(self) -> tuple[WidgetDecl, str, Token]:
        tok = self.peek()
        kind = self.expect_one_of(_WIDGET_KIND_WORDS, "a widget declaration")
        name = self.expect_ident("widget name")
        supports: set[FeatureKind] = set()
        examples: list[tuple[FeatureKind, object]] = []
        columns: tuple[ColumnSpec, ...] = ()
        if kind is WidgetKind.TABLE:
            self.expect(TokenType.LBRACE, "'{'")
            columns = self.block("columns", self.parse_column_decls)
            while self.at_word("supports"):
                supports.update(self.parse_supports())
            self.expect(TokenType.RBRACE, "'}'")
        elif self.at(TokenType.LBRACE):
            self.advance()
            seen: set[FeatureKind] = set()
            while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
                if self.at_word("supports"):
                    supports.update(self.parse_supports())
                elif self.at_word("example"):
                    self.advance()
                    ftok = self.peek()
                    feature = self.parse_feature_word()
                    self.expect(TokenType.EQUALS, "'='")
                    value = self.parse_literal()
                    if self.first(seen, feature, ftok,
                                  "duplicate example for feature '{0.value}'"):
                        examples.append((feature, value))
                else:
                    self.fail("expected 'supports' or 'example' in widget body")
            self.expect(TokenType.RBRACE, "'}'")
        examples.sort(key=lambda kv: FEATURE_RANK[kv[0]])
        return WidgetDecl(name=name.text, kind=kind, enabled_optional=frozenset(supports),
                          columns=columns, examples=tuple(examples),
                          span=self.span_of(tok)), name.text, name

    def parse_supports(self) -> tuple[FeatureKind, ...]:
        self.expect_word("supports")
        return self.comma_list(self.parse_feature_word)

    def parse_column_decls(self) -> tuple[ColumnSpec, ...]:
        columns: list[ColumnSpec] = []
        seen: set[str] = set()
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            tok = self.peek()
            kind = self.expect_one_of(_CELL_KIND_WORDS, "a column declaration")
            title = self.expect(TokenType.STRING, "column title")
            trimmed = title.value.strip()
            if self.first(seen, trimmed, title, "duplicate column title '{}'"):
                columns.append(ColumnSpec(cell_kind=kind, title=trimmed,
                                          span=self.span_of(tok)))
        if not columns:
            self.fail("a table needs at least one column")
        return tuple(columns)

    def parse_command_decl(self) -> tuple[CommandDecl, str, Token]:
        tok = self.peek()
        if self.at_word(*_ACTION_WORDS):
            kind = _ACTION_WORDS[self.advance().text]
            self.expect_word("on")
            target = self.expect_ident("widget name")
            name = camel_case(target.text, kind.value)
            return CommandDecl(name=name, form=WidgetCommand(kind=kind, target=target.text),
                               span=self.span_of(tok)), name, target
        if not self.at_word("command"):
            self.fail(f"expected a command declaration, found {self._describe(tok)}")
        self.advance()
        name = self.expect_ident("command name")
        if name.text in _ACTION_WORDS:
            self.report(f"custom commands must not be named '{name.text}'", name)
        self.expect(TokenType.LPAREN, "'('")
        seen: set[str] = set()
        params = () if self.at(TokenType.RPAREN) else self.comma_list(
            lambda: self.parse_param(seen))
        self.expect(TokenType.RPAREN, "')'")
        return CommandDecl(name=name.text, form=CustomCommand(params=params),
                           span=self.span_of(tok)), name.text, name

    def parse_param(self, seen: set[str]) -> Param | None:
        pname = self.expect_ident("parameter name")
        self.expect(TokenType.COLON, "':'")
        if not self.at_word(*_PARAM_TYPE_WORDS):
            self.fail("expected a parameter type (string, bool, int, or context)")
        ptype = _PARAM_TYPE_WORDS[self.advance().text]
        if self.first(seen, pname.text, pname, "duplicate parameter name '{}'"):
            return Param(name=pname.text, type=ptype)
        return None

    # -- test suite file ----------------------------------------------------

    def parse_test_suite_file(self) -> TestSuite:
        head = self.expect_word("testsuite")
        name = self.expect_ident("suite name")
        self.expect_word("for")
        target = self.expect_ident("ViewModel name")
        scenarios = self.block(None, lambda: self.items(
            self.parse_scenario, _SCENARIO_WORDS, "duplicate scenario description {!r}"))
        return TestSuite(name=name.text, target_view_model=target.text,
                         scenarios=scenarios, span=self.span_of(head))

    def parse_scenario(self) -> tuple[TestScenario, str, Token]:
        head = self.expect_word("scenario")
        desc = self.expect(TokenType.STRING, "scenario description")
        given, when, then = self.block(None, lambda: (
            self.block("given", lambda: self.items(self.parse_context, _CONTEXT_BODIES)),
            self.block("when", lambda: self.items(self.parse_action, _ACTION_WORDS)),
            self.block("then", lambda: tuple(chain.from_iterable(
                self.items(self.parse_check, _WIDGET_KIND_WORDS))))))
        return TestScenario(description=desc.value, given=given, when=when,
                            then=then, span=self.span_of(head)), desc.value, desc

    def parse_context(self) -> ContextDefinition:
        tok = self.peek()
        parse_body = self.expect_one_of(_CONTEXT_BODIES, "a context definition")
        name = self.expect_ident("context name").text
        return ContextDefinition(name=name, body=parse_body(self, name),
                                 span=self.span_of(tok))

    def parse_plain_table(self) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
        """Header plus data rows of a given-part data table; cells stay literal."""
        header_tok = self.expect(TokenType.PIPE_ROW, "table row")
        header = self.parse_plain_row(header_tok)
        seen: set[str] = set()
        for title in header:
            self.first(seen, title, header_tok, "duplicate column title '{}'")
        rows: list[tuple[str, ...]] = []
        while self.at(TokenType.PIPE_ROW):
            tok = self.advance()
            cells = self.parse_plain_row(tok)
            if len(cells) != len(header):
                self.report(
                    f"row has {len(cells)} cells but the header has {len(header)}",
                    tok, E_RAGGED_TABLE)
                continue
            rows.append(cells)
        return header, tuple(rows)

    def parse_plain_row(self, tok: Token) -> tuple[str, ...]:
        cells, trailer = _split_pipe_row(tok.text)
        if cells is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        if trailer.strip():
            self.report("row marks are only allowed in expectation rows", tok)
        return tuple(cell.strip() for cell in cells)

    def parse_action(self) -> Action:
        tok = self.peek()
        if self.at_word(*_ACTION_WORDS):
            kind = _ACTION_WORDS[self.advance().text]
            widget = self.expect_ident("widget name")
            arg = None
            if kind is CommandKind.CHECK:
                arg = self.parse_bool()
            elif kind is CommandKind.FILL_TEXT:
                arg = self.expect(TokenType.STRING, "string").value
            elif kind is CommandKind.SELECT_ROW:
                arg = self.expect(TokenType.INT, "row index").value
            return WidgetAction(kind=kind, widget=widget.text, arg=arg,
                                span=self.span_of(tok))
        name = self.expect(TokenType.IDENT, "a command action")
        self.expect(TokenType.LPAREN, "'(' after command name")
        args = () if self.at(TokenType.RPAREN) else self.comma_list(self.parse_argument)
        self.expect(TokenType.RPAREN, "')'")
        return CustomAction(name=name.text, args=args, span=self.span_of(tok))

    def parse_argument(self) -> Argument:
        tok = self.peek()
        if tok.type is TokenType.IDENT and tok.text not in ("true", "false"):
            self.advance()
            return ArgContextRef(name=tok.text)
        return ArgLiteral(value=self.parse_literal())

    def parse_check(self) -> list[CheckValue]:
        tok = self.peek()
        if self.at_word("table"):
            return [self.parse_rows_check()]
        kind = self.expect_one_of(_WIDGET_KIND_WORDS, "a check")
        widget = self.expect_ident("widget name")
        checks: list[CheckValue] = []
        while self.at(TokenType.IDENT) and self.peek().text in _SCALAR_CHECK_FEATURES:
            ftok = self.advance()
            feature = _SCALAR_CHECK_FEATURES[ftok.text]
            if feature is FeatureKind.TEXT:
                value = self.expect(TokenType.STRING, "string").value
            else:
                value = self.parse_bool()
            checks.append(CheckValue(widget=widget.text, widget_kind=kind,
                                     feature=feature, expectation=value,
                                     span=self.span_of(ftok)))
        if not checks:
            self.fail("expected at least one feature check "
                      "(enabled, visible, checked, or text)")
        return checks

    def parse_rows_check(self) -> CheckValue:
        head = self.expect_word("table")
        widget = self.expect_ident("widget name")
        self.expect(TokenType.LBRACE, "'{'")
        ignored: tuple[str, ...] = ()
        if self.at_word("ignore"):
            self.advance()
            seen: set[str] = set()
            ignored = self.comma_list(lambda: self.parse_ignored_title(seen))
        header, rows = self.block("rows", self.parse_expect_table)
        selected_check: int | str | None = None
        if self.at_word("selectedRow"):
            self.advance()
            if self.at_word("none"):
                self.advance()
                selected_check = "none"
            else:
                selected_check = self.expect(TokenType.INT, "row index or 'none'").value
        self.expect(TokenType.RBRACE, "'}'")
        expectation = RowsExpectation(header=header, rows=rows, ignored_columns=ignored,
                                      selected_row_check=selected_check)
        return CheckValue(widget=widget.text, widget_kind=WidgetKind.TABLE,
                          feature=FeatureKind.ROWS, expectation=expectation,
                          span=self.span_of(head))

    def parse_ignored_title(self, seen: set[str]) -> str | None:
        title = self.expect(TokenType.STRING, "column title")
        if self.first(seen, title.value, title, "duplicate ignored column '{}'"):
            return title.value
        return None

    def parse_expect_table(self) -> tuple[tuple[str, ...], tuple[RowExpectation, ...]]:
        header = self.parse_plain_row(self.expect(TokenType.PIPE_ROW, "header row"))
        rows: list[RowExpectation] = []
        selected_seen = False
        while self.at(TokenType.PIPE_ROW):
            tok = self.advance()
            try:
                row = self.parse_expect_row(tok, len(header))
            except _ParseError:
                continue  # reported; the row is one token, so the table goes on
            if row is None:
                continue
            if row.selected:
                if selected_seen:
                    self.report("only one row may carry the [selected] mark", tok)
                    row = RowExpectation(cells=row.cells, selected=False, color=row.color)
                selected_seen = True
            rows.append(row)
        return header, tuple(rows)

    def parse_expect_row(self, tok: Token, arity: int) -> RowExpectation | None:
        cells_raw, trailer = _split_pipe_row(tok.text)
        if cells_raw is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        cells: list[CellExpectation] = []
        last = len(cells_raw) - 1
        for k, raw in enumerate(cells_raw):
            # A '|' inside a tooltip cuts the cell: the tooltip looks
            # unterminated although the row goes on.
            cut = k < last or bool(trailer.strip())
            cells.append(self._parse_cell_expectation(raw.strip(), tok, cut))
        selected = False
        color: str | None = None
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
                        tok, E_RAGGED_TABLE)
            return None
        return RowExpectation(cells=tuple(cells), selected=selected, color=color)

    def _parse_cell_expectation(self, text: str, tok: Token, cut: bool) -> CellExpectation:
        if text == "*":
            return CellExpectation(ignored=True)
        bracket = text.find("[")
        if bracket < 0:
            return CellExpectation(value=text)
        value = text[:bracket].rstrip()
        tooltip: str | None = None
        color: str | None = None
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

    def _parse_groups(self, text: str, tok: Token,
                      cut: bool = False) -> list[tuple[str, str | None]]:
        """Parse '[selected]', '[color NAME]', '[tooltip "..."]' groups.

        ``cut`` says that more of the row follows ``text`` after a '|'.
        """
        groups, err = _scan_groups(text)
        if err is not None:
            if cut and err == _UNTERMINATED_TOOLTIP:
                err = "a tooltip string cannot contain '|'"
            self.fail(err, tok)
        return groups


_CONTEXT_BODIES = {
    "datatable": lambda p, name: DataTableBody(*p.block(None, p.parse_plain_table)),
    "text": lambda p, name: TextBody(
        text=p.expect(TokenType.TRIPLE_STRING, "triple-quoted string").value),
    "xml": lambda p, name: XmlBody(
        text=p.expect(TokenType.TRIPLE_STRING, "triple-quoted string").value),
    "file": lambda p, name: FileBody(path=p.expect(TokenType.STRING, "file path").value),
    "use": lambda p, name: ReferenceBody(target=name),
}


def _split_pipe_row(raw: str) -> tuple[list[str] | None, str]:
    parts = raw.split("|")  # raw starts with '|', so parts[0] is empty
    if len(parts) < 3:
        return None, ""
    return parts[1:-1], parts[-1]


# A tooltip body stops at the closing quote, an unknown escape or a lone
# final backslash.
_TOOLTIP_BODY = re.compile(r'(?:[^"\\]|\\[%s])*' % re.escape("".join(ESCAPES)))
_UNTERMINATED_TOOLTIP = "unterminated tooltip string"


def _scan_groups(text: str) -> tuple[list[tuple[str, str | None]], str | None]:
    groups: list[tuple[str, str | None]] = []
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
            start = i + 1
            i = _TOOLTIP_BODY.match(text, start).end()
            if i + 1 < n and text[i] == "\\":
                return groups, f"unknown escape \\{text[i + 1]} in tooltip string"
            if i >= n or text[i] != '"':
                return groups, _UNTERMINATED_TOOLTIP
            body = unescape(text[start:i])
            i += 1
            if i >= n or text[i] != "]":
                return groups, "expected ']' after tooltip string"
            i += 1
            groups.append(("tooltip", body))
        else:
            return groups, f"unknown adornment '[{word}...'"
    return groups, None
