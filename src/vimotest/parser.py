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
from .lexer import ESCAPES, TokenType, line_starts, position, tokenize, unescape
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
    xml_attribute_name,
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
_BOOL_WORDS = {"true": True, "false": False}

# Token types as module constants. On Python 3.11 the enum metaclass defines
# ``__getattr__``, which makes every member read such as ``TokenType.IDENT``
# cost about 0.17 us, against about 0.01 us for a module global.
_IDENT, _STRING, _TRIPLE, _INT, _PIPE, _EOF = (
    TokenType.IDENT, TokenType.STRING, TokenType.TRIPLE_STRING, TokenType.INT,
    TokenType.PIPE_ROW, TokenType.EOF)
_LBRACE, _RBRACE, _LPAREN, _RPAREN, _COMMA, _COLON, _DOT, _EQUALS = (
    TokenType.LBRACE, TokenType.RBRACE, TokenType.LPAREN, TokenType.RPAREN,
    TokenType.COMMA, TokenType.COLON, TokenType.DOT, TokenType.EQUALS)
_new = tuple.__new__


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
    parser = _Parser(tokens, file, diags, text)
    try:
        ast = entry(parser)
    except _ParseError:
        return None, diags
    if not parser.at(_EOF):
        parser.report(f"unexpected content after {what} body: "
                      f"{parser._describe(parser.peek())}")
    return (None if diags else ast), diags


class _Parser:
    def __init__(self, tokens: list[tuple], file: str, diagnostics: list[Diagnostic],
                 text: str):
        self.toks = tokens  # always ends in the one EOF token
        self.last = len(tokens) - 1
        self.file = file
        self.diags = diagnostics
        self.starts = line_starts(text)  # the offset where each line starts
        self.i = 0
        # The (selected, color) of each row trailer text read without a diagnostic.
        self.trailers: dict[str, tuple[bool, str | None]] = {}

    # -- token plumbing ----------------------------------------------------
    #
    # A token is the lexer's ``(type, text, offset, value)`` tuple. A method
    # that reads several of its fields unpacks it; one field is read by index.
    # Only an IDENT token's text is an identifier (a string keeps its quotes),
    # so a keyword test compares the text alone. A helper that matched a
    # token steps with ``self.i += 1``: a matched token is never the EOF.

    def peek(self) -> tuple:
        return self.toks[self.i]

    def advance(self) -> tuple:
        """Return the current token and move past it, but never past EOF."""
        i = self.i
        if i < self.last:
            self.i = i + 1
        return self.toks[i]

    def at(self, ttype: TokenType) -> bool:
        return self.toks[self.i][0] is ttype

    def at_word(self, word: str) -> bool:
        return self.toks[self.i][1] == word

    def span_of(self, tok: tuple) -> SourceSpan:
        _, text, offset, _ = tok
        line, column = position(self.starts, offset)
        return _new(SourceSpan, (self.file, line, column, len(text) or 1))

    def report(self, message: str, tok: tuple | None = None, code: str = E_SYNTAX) -> None:
        tok = tok or self.peek()
        self.diags.append(error(code, message, self.span_of(tok)))

    def fail(self, message: str, tok: tuple | None = None, code: str = E_SYNTAX) -> NoReturn:
        self.report(message, tok, code)
        raise _ParseError()

    def expect(self, ttype: TokenType, what: str) -> tuple:
        tok = self.toks[self.i]
        if tok[0] is not ttype:
            self.fail(f"expected {what}, found {self._describe(tok)}")
        self.i += 1
        return tok

    def expect_word(self, word: str) -> tuple:
        tok = self.toks[self.i]
        if tok[1] != word:
            self.fail(f"expected '{word}', found {self._describe(tok)}")
        self.i += 1
        return tok

    def expect_one_of(self, words: dict[str, T], what: str) -> T:
        """Consume one of ``words`` and return what it maps to."""
        tok = self.toks[self.i]
        value = words.get(tok[1])
        if value is None:
            self.fail(f"expected {what}, found {self._describe(tok)}")
        self.i += 1
        return value

    @staticmethod
    def _describe(tok: tuple) -> str:
        ttype, text, _, _ = tok
        if ttype is _EOF:
            return "end of input"
        if ttype is _PIPE:
            return "table row"
        return f"'{text}'"

    def sync(self, stop_words: Container[str]) -> None:
        """Skip tokens until a declaration start word, '}', or EOF at depth 0."""
        depth = 0
        while not self.at(_EOF):
            ttype, text, _, _ = self.peek()
            if depth == 0:
                if ttype is _RBRACE:
                    return
                if ttype is _IDENT and text in stop_words:
                    return
            if ttype is _LBRACE:
                depth += 1
            elif ttype is _RBRACE:
                depth -= 1
                if depth < 0:
                    return
            self.advance()

    # -- the shared list, block and duplicate rules ---------------------------

    def first(self, seen: set, key, tok: tuple, message: str) -> bool:
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
        toks = self.toks
        while (ttype := toks[self.i][0]) is not _RBRACE and ttype is not _EOF:
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
        self.expect(_LBRACE, "'{'")
        body = parse_body()
        self.expect(_RBRACE, "'}'")
        return body

    def comma_list(self, parse_one: Callable[[], T | None]) -> tuple[T, ...]:
        """Parse ``one (',' one)*``; a None from ``parse_one`` is dropped."""
        out = []
        toks = self.toks
        while True:
            item = parse_one()
            if item is not None:
                out.append(item)
            if toks[self.i][0] is not _COMMA:
                return tuple(out)
            self.i += 1

    # -- literals ----------------------------------------------------------

    def parse_bool(self) -> bool:
        return self.expect_one_of(_BOOL_WORDS, "'true' or 'false'")

    def parse_literal(self):
        tok = self.peek()
        ttype, text, _, value = tok
        if ttype is _STRING or ttype is _INT:
            self.i += 1
            return value
        if text in _BOOL_WORDS:
            return self.parse_bool()
        self.fail(f"expected a literal, found {self._describe(tok)}")

    # -- ViewModel description file -----------------------------------------

    def parse_view_model_file(self) -> ViewModelDescription:
        head = self.expect_word("viewmodel")
        name = self.expect(_IDENT, "ViewModel name")
        bindings: tuple[NameBinding, ...] = ()
        if self.at_word("bind"):
            bindings = self.block("bind", lambda: self.items(
                self.parse_binding, _BINDING_WORDS, "duplicate binding for {}"))
        widgets, commands = self.block(None, lambda: (
            self.block("widgets", lambda: self.items(
                self.parse_widget_decl, _WIDGET_KIND_WORDS, "duplicate widget name '{}'")),
            self.block("commands", lambda: self.items(
                self.parse_command_decl, _COMMAND_WORDS, "duplicate command name '{}'"))))
        return ViewModelDescription(name=name[1], widgets=widgets, commands=commands,
                                    bindings=bindings, span=self.span_of(head))

    def parse_binding(self) -> tuple[NameBinding, str, tuple]:
        tok = self.peek()
        widget = feature = None
        if tok[1] in ("typeName", "fileName"):
            subject = self.advance()[1]
        elif self.at_word("property"):
            self.advance()
            widget = self.expect(_IDENT, "widget name")[1]
            self.expect(_DOT, "'.'")
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
        self.expect(_EQUALS, "'='")
        value = self.expect(_STRING, "string")
        self._check_bound_name(subject, value)
        # The key names what is bound, as the duplicate message shows it.
        key = subject if widget is None else f"{subject} of {widget}.{feature.value}"
        return NameBinding(subject=subject, bound_name=value[3], widget=widget,
                           feature=feature, span=self.span_of(tok)), key, tok

    def _check_bound_name(self, subject: str, value: tuple) -> None:
        name = value[3]
        if subject == "fileName":
            bad = not name or "/" in name or "\\" in name or name in (".", "..")
            if bad:
                self.report(f"bound file name is not a valid path segment: {name!r}", value)
        elif not is_identifier(name):
            self.report(f"bound name is not a valid identifier: {name!r}", value)

    def parse_feature_word(self) -> FeatureKind:
        return self.expect_one_of(_FEATURE_WORDS, "a feature name")

    def parse_widget_decl(self) -> tuple[WidgetDecl, str, tuple]:
        tok = self.peek()
        kind = self.expect_one_of(_WIDGET_KIND_WORDS, "a widget declaration")
        name = self.expect(_IDENT, "widget name")
        supports: set[FeatureKind] = set()
        examples: list[tuple[FeatureKind, object]] = []
        columns: tuple[ColumnSpec, ...] = ()
        if kind is WidgetKind.TABLE:
            self.expect(_LBRACE, "'{'")
            columns = self.block("columns", self.parse_column_decls)
            while self.at_word("supports"):
                supports.update(self.parse_supports())
            self.expect(_RBRACE, "'}'")
        elif self.at(_LBRACE):
            self.i += 1
            seen: set[FeatureKind] = set()
            toks = self.toks
            while (item := toks[self.i])[0] is not _RBRACE and item[0] is not _EOF:
                if item[1] == "supports":
                    supports.update(self.parse_supports())
                elif item[1] == "example":
                    self.i += 1
                    ftok = toks[self.i]
                    feature = self.parse_feature_word()
                    self.expect(_EQUALS, "'='")
                    value = self.parse_literal()
                    if self.first(seen, feature, ftok,
                                  "duplicate example for feature '{0.value}'"):
                        examples.append((feature, value))
                else:
                    self.fail("expected 'supports' or 'example' in widget body")
            self.expect(_RBRACE, "'}'")
        examples.sort(key=lambda kv: FEATURE_RANK[kv[0]])
        return WidgetDecl(name[1], kind, frozenset(supports), columns, tuple(examples),
                          self.span_of(tok)), name[1], name

    def parse_supports(self) -> tuple[FeatureKind, ...]:
        self.expect_word("supports")
        return self.comma_list(self.parse_feature_word)

    def parse_column_decls(self) -> tuple[ColumnSpec, ...]:
        columns: list[ColumnSpec] = []
        seen: set[str] = set()
        while not self.at(_RBRACE) and not self.at(_EOF):
            tok = self.peek()
            kind = self.expect_one_of(_CELL_KIND_WORDS, "a column declaration")
            title = self.expect(_STRING, "column title")
            trimmed = title[3].strip()
            if self.first(seen, trimmed, title, "duplicate column title '{}'"):
                columns.append(ColumnSpec(kind, trimmed, self.span_of(tok)))
        if not columns:
            self.fail("a table needs at least one column")
        return tuple(columns)

    def parse_command_decl(self) -> tuple[CommandDecl, str, tuple]:
        tok = self.peek()
        word = tok[1]
        kind = _ACTION_WORDS.get(word)
        if kind is not None:
            self.i += 1
            self.expect_word("on")
            target = self.expect(_IDENT, "widget name")
            widget = target[1]
            name = camel_case(widget, kind.value)
            return CommandDecl(name, WidgetCommand(kind, widget),
                               self.span_of(tok)), name, target
        if word != "command":
            self.fail(f"expected a command declaration, found {self._describe(tok)}")
        self.i += 1
        name = self.expect(_IDENT, "command name")
        command = name[1]
        if command in _ACTION_WORDS:
            self.report(f"custom commands must not be named '{command}'", name)
        self.expect(_LPAREN, "'('")
        seen: set[str] = set()
        params = () if self.at(_RPAREN) else self.comma_list(
            lambda: self.parse_param(seen))
        self.expect(_RPAREN, "')'")
        return CommandDecl(command, CustomCommand(params), self.span_of(tok)), command, name

    def parse_param(self, seen: set[str]) -> Param | None:
        pname = self.expect(_IDENT, "parameter name")
        self.expect(_COLON, "':'")
        ptype = _PARAM_TYPE_WORDS.get(self.peek()[1])
        if ptype is None:
            self.fail("expected a parameter type (string, bool, int, or context)")
        self.i += 1
        if self.first(seen, pname[1], pname, "duplicate parameter name '{}'"):
            return Param(name=pname[1], type=ptype)
        return None

    # -- test suite file ----------------------------------------------------

    def parse_test_suite_file(self) -> TestSuite:
        head = self.expect_word("testsuite")
        name = self.expect(_IDENT, "suite name")
        self.expect_word("for")
        target = self.expect(_IDENT, "ViewModel name")
        scenarios = self.block(None, lambda: self.items(
            self.parse_scenario, _SCENARIO_WORDS, "duplicate scenario description {!r}"))
        return TestSuite(name=name[1], target_view_model=target[1],
                         scenarios=scenarios, span=self.span_of(head))

    def parse_scenario(self) -> tuple[TestScenario, str, tuple]:
        head = self.expect_word("scenario")
        desc = self.expect(_STRING, "scenario description")
        given, when, then = self.block(None, lambda: (
            self.block("given", lambda: self.items(self.parse_context, _CONTEXT_BODIES)),
            self.block("when", lambda: self.items(self.parse_action, _ACTION_WORDS)),
            self.block("then", lambda: tuple(chain.from_iterable(
                self.items(self.parse_check, _WIDGET_KIND_WORDS))))))
        return TestScenario(description=desc[3], given=given, when=when,
                            then=then, span=self.span_of(head)), desc[3], desc

    def parse_context(self) -> ContextDefinition:
        tok = self.peek()
        parse_body = self.expect_one_of(_CONTEXT_BODIES, "a context definition")
        name = self.expect(_IDENT, "context name")[1]
        return ContextDefinition(name=name, body=parse_body(self, name),
                                 span=self.span_of(tok))

    def parse_plain_table(self) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
        """Header plus data rows of a given-part data table; cells stay literal."""
        header_tok = self.expect(_PIPE, "table row")
        header = self.parse_plain_row(header_tok)
        seen: set[str] = set()
        attributes: dict[str, str] = {}  # XML attribute name -> its first title
        for title in header:
            if not self.first(seen, title, header_tok, "duplicate column title '{}'"):
                continue
            name = xml_attribute_name(title)
            first = attributes.setdefault(name, title)
            if first != title:
                self.report(f"column titles '{first}' and '{title}' share the XML "
                            f"attribute name '{name}'", header_tok, E_DUPLICATE_NAME)
        rows: list[tuple[str, ...]] = []
        toks = self.toks
        while (tok := toks[self.i])[0] is _PIPE:
            self.i += 1
            cells = self.parse_plain_row(tok)
            if len(cells) != len(header):
                self.report(
                    f"row has {len(cells)} cells but the header has {len(header)}",
                    tok, E_RAGGED_TABLE)
                continue
            rows.append(cells)
        return header, tuple(rows)

    def parse_plain_row(self, tok: tuple) -> tuple[str, ...]:
        cells, trailer = _split_pipe_row(tok[1])
        if cells is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        if trailer.strip():
            self.report("row marks are only allowed in expectation rows", tok)
        return tuple(map(str.strip, cells))

    def parse_action(self) -> Action:
        tok = self.peek()
        kind = _ACTION_WORDS.get(tok[1])
        if kind is not None:
            self.i += 1
            widget = self.expect(_IDENT, "widget name")[1]
            read_arg = _ACTION_ARGS.get(kind)
            arg = None if read_arg is None else read_arg(self)
            return WidgetAction(kind, widget, arg, self.span_of(tok))
        name = self.expect(_IDENT, "a command action")
        self.expect(_LPAREN, "'(' after command name")
        args = () if self.at(_RPAREN) else self.comma_list(self.parse_argument)
        self.expect(_RPAREN, "')'")
        return CustomAction(name=name[1], args=args, span=self.span_of(tok))

    def parse_argument(self) -> Argument:
        ttype, text, _, _ = self.peek()
        if ttype is _IDENT and text not in _BOOL_WORDS:
            self.i += 1
            return ArgContextRef(name=text)
        return ArgLiteral(value=self.parse_literal())

    def parse_check(self) -> list[CheckValue]:
        if self.at_word("table"):
            return [self.parse_rows_check()]
        kind = self.expect_one_of(_WIDGET_KIND_WORDS, "a check")
        widget = self.expect(_IDENT, "widget name")[1]
        checks: list[CheckValue] = []
        toks = self.toks
        while (ftok := toks[self.i])[1] in _SCALAR_CHECK_FEATURES:
            self.i += 1
            feature = _SCALAR_CHECK_FEATURES[ftok[1]]
            if FEATURE_TYPE[feature] == "string":
                value = self.expect(_STRING, "string")[3]
            else:
                value = self.parse_bool()
            checks.append(CheckValue(widget, kind, feature, value, self.span_of(ftok)))
        if not checks:
            self.fail("expected at least one feature check "
                      "(enabled, visible, checked, or text)")
        return checks

    def parse_rows_check(self) -> CheckValue:
        head = self.expect_word("table")
        widget = self.expect(_IDENT, "widget name")
        self.expect(_LBRACE, "'{'")
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
                selected_check = self.expect(_INT, "row index or 'none'")[3]
        self.expect(_RBRACE, "'}'")
        expectation = RowsExpectation(header=header, rows=rows, ignored_columns=ignored,
                                      selected_row_check=selected_check)
        return CheckValue(widget[1], WidgetKind.TABLE, FeatureKind.ROWS, expectation,
                          self.span_of(head))

    def parse_ignored_title(self, seen: set[str]) -> str | None:
        title = self.expect(_STRING, "column title")
        if self.first(seen, title[3], title, "duplicate ignored column '{}'"):
            return title[3]
        return None

    def parse_expect_table(self) -> tuple[tuple[str, ...], tuple[RowExpectation, ...]]:
        header = self.parse_plain_row(self.expect(_PIPE, "header row"))
        rows: list[RowExpectation] = []
        selected_seen = False
        toks = self.toks
        while (tok := toks[self.i])[0] is _PIPE:
            self.i += 1
            try:
                row = self.parse_expect_row(tok, len(header))
            except _ParseError:
                continue  # reported; the row is one token, so the table goes on
            if row is None:
                continue
            if row.selected:
                if selected_seen:
                    self.report("only one row may carry the [selected] mark", tok)
                    row = RowExpectation(row.cells, False, row.color)
                selected_seen = True
            rows.append(row)
        return header, tuple(rows)

    def parse_expect_row(self, tok: tuple, arity: int) -> RowExpectation | None:
        cells_raw, trailer = _split_pipe_row(tok[1])
        if cells_raw is None:
            self.fail("malformed table row: expected '| cell | ... |'", tok)
        # A '|' inside a tooltip cuts the cell: the tooltip looks
        # unterminated although the row goes on.
        marked = bool(trailer.strip())
        last = len(cells_raw) - 1
        cells: list[CellExpectation] = []
        for k, text in enumerate(map(str.strip, cells_raw)):
            if "[" in text:
                cells.append(self._parse_cell_expectation(text, tok, k < last or marked))
            else:
                cells.append(_IGNORED_CELL if text == "*" else CellExpectation(False, text))
        marks = self.trailers.get(trailer)
        if marks is None:
            marks = self._parse_row_marks(trailer, tok)
        if len(cells) != arity:
            self.report(f"row has {len(cells)} cells but the header has {arity}",
                        tok, E_RAGGED_TABLE)
            return None
        return RowExpectation(tuple(cells), *marks)

    def _parse_row_marks(self, trailer: str, tok: tuple) -> tuple[bool, str | None]:
        """The marks after a row's closing pipe: whether the row is selected,
        and its colour. Kept in ``self.trailers`` when reading them reports
        nothing."""
        reported = len(self.diags)
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
        if len(self.diags) == reported:
            self.trailers[trailer] = selected, color
        return selected, color

    def _parse_cell_expectation(self, text: str, tok: tuple, cut: bool) -> CellExpectation:
        """A stripped cell that holds a '['; its adornments start there."""
        bracket = text.index("[")
        value = text[:bracket].rstrip()
        tooltip: str | None = None
        color: str | None = None
        for kind, payload in self._parse_groups(text, tok, cut, bracket):
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
        return CellExpectation(False, value, tooltip, color)

    def _parse_groups(self, text: str, tok: tuple, cut: bool = False,
                      start: int = 0) -> list[tuple[str, str | None]]:
        """Parse '[selected]', '[color NAME]', '[tooltip "..."]' groups from
        ``text[start:]``.

        ``cut`` says that more of the row follows ``text`` after a '|'.
        """
        groups, err = _scan_groups(text, start)
        if err is not None:
            if cut and err == _UNTERMINATED_TOOLTIP:
                err = "a tooltip string cannot contain '|'"
            self.fail(err, tok)
        return groups


# The argument a widget action reads after its widget; a click reads none.
_ACTION_ARGS = {
    CommandKind.CHECK: _Parser.parse_bool,
    CommandKind.FILL_TEXT: lambda p: p.expect(_STRING, "string")[3],
    CommandKind.SELECT_ROW: lambda p: p.expect(_INT, "row index")[3],
}

_CONTEXT_BODIES = {
    "datatable": lambda p, name: DataTableBody(*p.block(None, p.parse_plain_table)),
    "text": lambda p, name: TextBody(
        text=p.expect(_TRIPLE, "triple-quoted string")[3]),
    "xml": lambda p, name: XmlBody(
        text=p.expect(_TRIPLE, "triple-quoted string")[3]),
    "file": lambda p, name: FileBody(path=p.expect(_STRING, "file path")[3]),
    "use": lambda p, name: ReferenceBody(target=name),
}


def _split_pipe_row(raw: str) -> tuple[list[str] | None, str]:
    parts = raw.split("|")  # raw starts with '|', so parts[0] is empty
    if len(parts) < 3:
        return None, ""
    return parts[1:-1], parts[-1]


_IGNORED_CELL = CellExpectation(ignored=True)

# A tooltip body runs up to the closing quote, an unknown escape or a lone
# final backslash. It is written unrolled, as runs of plain characters
# between known escapes, which the engine matches without a step per
# character.
_TOOLTIP_BODY = r'[^"\\]*(?:\\[%s][^"\\]*)*' % re.escape("".join(ESCAPES))
_TOOLTIP_BODY_RE = re.compile(_TOOLTIP_BODY)
# One well-formed adornment and the blanks before it. ``lastindex`` is 1 for
# a colour, 2 for a tooltip and None for '[selected]'. A colour name is never
# empty, so '[color' needs a space after it, as in ``_adornment_error``.
_ADORNMENT_RE = re.compile(r'\s*\[(?:selected\]|color +(%s)\]|tooltip *"(%s)"\])'
                           % ("|".join(COLOR_NAMES), _TOOLTIP_BODY))
_SELECTED = ("selected", None)
_UNTERMINATED_TOOLTIP = "unterminated tooltip string"


def _scan_groups(text: str, i: int = 0) -> tuple[list[tuple[str, str | None]], str | None]:
    """The (kind, payload) adornments of ``text[i:]``, and an error message or None.

    The pattern reads adornments while they are well-formed; where it stops,
    ``_adornment_error`` words the error, and the groups read before it are kept.
    """
    groups: list[tuple[str, str | None]] = []
    n = len(text)
    match = _ADORNMENT_RE.match
    while i < n:
        m = match(text, i)
        if m is None:
            return groups, _adornment_error(text, i)
        kind = m.lastindex
        if kind is None:
            groups.append(_SELECTED)
        elif kind == 1:
            groups.append(("color", m[1]))
        else:
            groups.append(("tooltip", unescape(m[2])))
        i = m.end()
    return groups, None


def _adornment_error(text: str, i: int) -> str | None:
    """What is wrong with the first adornment of ``text[i:]``, which
    ``_ADORNMENT_RE`` does not match, or None when only blanks are left."""
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    if i == n:
        return None
    if text[i] != "[":
        return f"unexpected text in adornment: {text[i:].strip()!r}"
    i += 1
    start = i
    while i < n and text[i].isalpha():
        i += 1
    word = text[start:i]
    if word == "selected":
        return "expected ']' after '[selected'"
    if word == "color":
        while i < n and text[i] == " ":
            i += 1
        start = i
        while i < n and text[i].isalpha():
            i += 1
        if text[start:i] not in COLOR_NAMES:
            return (f"unknown color '{text[start:i]}'; "
                    f"expected one of {', '.join(COLOR_NAMES)}")
        return "expected ']' after color name"
    if word == "tooltip":
        while i < n and text[i] == " ":
            i += 1
        if i >= n or text[i] != '"':
            return "expected a quoted string after '[tooltip'"
        i = _TOOLTIP_BODY_RE.match(text, i + 1).end()
        if i + 1 < n and text[i] == "\\":
            return f"unknown escape \\{text[i + 1]} in tooltip string"
        if i >= n or text[i] != '"':
            return _UNTERMINATED_TOOLTIP
        return "expected ']' after tooltip string"
    return f"unknown adornment '[{word}...'"
