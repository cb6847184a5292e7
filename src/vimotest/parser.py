"""Recursive-descent parsers for the two DSL file kinds.

``parse_view_model`` reads ``.vmdsl`` sources, ``parse_test_suite`` reads
``.vmtest`` sources. Both return ``(ast, diagnostics)``; the ast is None
whenever any error diagnostic was produced. Parsing recovers to the next
declaration after a syntax error so several errors can be reported at once.
"""

from __future__ import annotations

import re

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

_WIDGET_KIND_WORDS = {k.value: k for k in WidgetKind}
_SIMPLE_WIDGET_WORDS = {k.value: k for k in WidgetKind if k is not WidgetKind.TABLE}
_FEATURE_WORDS = {f.value: f for f in FeatureKind}
_ACTION_WORDS = {k.value: k for k in CommandKind}
_CELL_KIND_WORDS = {k.value: k for k in CellKind}
_PARAM_TYPE_WORDS = {p.value: p for p in ParamType}
_SCALAR_CHECK_FEATURES = {
    "enabled": FeatureKind.ENABLED,
    "visible": FeatureKind.VISIBLE,
    "checked": FeatureKind.CHECKED,
    "text": FeatureKind.TEXT,
}


class _ParseError(Exception):
    pass


def _decode(text: str | bytes, file: str) -> tuple[str | None, list[Diagnostic]]:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8"), []
        except UnicodeDecodeError as exc:
            span = SourceSpan(file=file, line=1, column=1, length=0)
            return None, [error(E_SYNTAX, f"input is not valid UTF-8: {exc.reason}", span)]
    return text, []


def parse_view_model(
    text: str | bytes, file: str = "<input>"
) -> tuple[ViewModelDescription | None, list[Diagnostic]]:
    decoded, diags = _decode(text, file)
    if decoded is None:
        return None, diags
    tokens, lex_diags = tokenize(decoded, file)
    diags.extend(lex_diags)
    parser = _Parser(tokens, file, diags)
    desc = parser.parse_view_model_file()
    if diags:
        return None, diags
    return desc, diags


def parse_test_suite(
    text: str | bytes, file: str = "<input>"
) -> tuple[TestSuite | None, list[Diagnostic]]:
    decoded, diags = _decode(text, file)
    if decoded is None:
        return None, diags
    tokens, lex_diags = tokenize(decoded, file)
    diags.extend(lex_diags)
    parser = _Parser(tokens, file, diags)
    suite = parser.parse_test_suite_file()
    if diags:
        return None, diags
    return suite, diags


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

    def fail(self, message: str, tok: Token | None = None, code: str = E_SYNTAX) -> None:
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

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.type is TokenType.EOF:
            return "end of input"
        if tok.type is TokenType.PIPE_ROW:
            return "table row"
        return f"'{tok.text}'"

    def sync(self, stop_words: frozenset[str] | set[str]) -> None:
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

    def parse_view_model_file(self) -> ViewModelDescription | None:
        try:
            head = self.expect_word("viewmodel")
            name = self.expect_ident("ViewModel name")
            bindings: tuple[NameBinding, ...] = ()
            if self.at_word("bind"):
                bindings = self.parse_binding_block()
            self.expect(TokenType.LBRACE, "'{'")
            self.expect_word("widgets")
            self.expect(TokenType.LBRACE, "'{'")
            widgets = self.parse_widget_decls()
            self.expect(TokenType.RBRACE, "'}'")
            self.expect_word("commands")
            self.expect(TokenType.LBRACE, "'{'")
            commands = self.parse_command_decls()
            self.expect(TokenType.RBRACE, "'}'")
            self.expect(TokenType.RBRACE, "'}'")
            if not self.at(TokenType.EOF):
                self.report(f"unexpected content after ViewModel body: "
                            f"{self._describe(self.peek())}")
            return ViewModelDescription(
                name=name.text,
                widgets=widgets,
                commands=commands,
                bindings=bindings,
                span=self.span_of(head),
            )
        except _ParseError:
            return None

    def parse_binding_block(self) -> tuple[NameBinding, ...]:
        self.expect_word("bind")
        self.expect(TokenType.LBRACE, "'{'")
        bindings: list[NameBinding] = []
        seen: dict[tuple, Token] = {}
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                binding, key, tok = self.parse_binding()
            except _ParseError:
                self.sync({"typeName", "fileName", "property"})
                continue
            if key in seen:
                self.report(f"duplicate binding for {binding.subject}"
                            + (f" of {binding.widget}.{binding.feature.value}"
                               if binding.widget else ""),
                            tok, E_DUPLICATE_NAME)
            else:
                seen[key] = tok
                bindings.append(binding)
        self.expect(TokenType.RBRACE, "'}'")
        return tuple(bindings)

    def parse_binding(self) -> tuple[NameBinding, tuple, Token]:
        tok = self.peek()
        if self.at_word("typeName", "fileName"):
            subject = self.advance().text
            self.expect(TokenType.EQUALS, "'='")
            value = self.expect(TokenType.STRING, "string")
            self._check_bound_name(subject, value)
            return (NameBinding(subject=subject, bound_name=value.value,
                                span=self.span_of(tok)),
                    (subject,), tok)
        if self.at_word("property"):
            self.advance()
            widget = self.expect_ident("widget name")
            self.expect(TokenType.DOT, "'.'")
            feature = self.parse_feature_word()
            if self.at_word("name"):
                subject = "propertyName"
            elif self.at_word("getter"):
                subject = "getterName"
            else:
                self.fail("expected 'name' or 'getter' after property binding")
            self.advance()
            self.expect(TokenType.EQUALS, "'='")
            value = self.expect(TokenType.STRING, "string")
            self._check_bound_name(subject, value)
            return (NameBinding(subject=subject, bound_name=value.value,
                                widget=widget.text, feature=feature,
                                span=self.span_of(tok)),
                    (subject, widget.text, feature), tok)
        self.fail("expected a name binding")
        raise AssertionError

    def _check_bound_name(self, subject: str, value: Token) -> None:
        name = value.value
        if subject == "fileName":
            bad = not name or "/" in name or "\\" in name or name in (".", "..")
            if bad:
                self.report(f"bound file name is not a valid path segment: {name!r}", value)
        elif not is_identifier(name):
            self.report(f"bound name is not a valid identifier: {name!r}", value)

    def parse_feature_word(self) -> FeatureKind:
        tok = self.peek()
        if tok.type is TokenType.IDENT and tok.text in _FEATURE_WORDS:
            self.advance()
            return _FEATURE_WORDS[tok.text]
        self.fail(f"expected a feature name, found {self._describe(tok)}")
        raise AssertionError

    def parse_widget_decls(self) -> tuple[WidgetDecl, ...]:
        widgets: list[WidgetDecl] = []
        seen: dict[str, Token] = {}
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                decl, name_tok = self.parse_widget_decl()
            except _ParseError:
                self.sync(set(_WIDGET_KIND_WORDS))
                continue
            if decl.name in seen:
                self.report(f"duplicate widget name '{decl.name}'",
                            name_tok, E_DUPLICATE_NAME)
            else:
                seen[decl.name] = name_tok
                widgets.append(decl)
        return tuple(widgets)

    def parse_widget_decl(self) -> tuple[WidgetDecl, Token]:
        tok = self.peek()
        if self.at_word(*_SIMPLE_WIDGET_WORDS):
            kind = _WIDGET_KIND_WORDS[self.advance().text]
            name = self.expect_ident("widget name")
            supports: set[FeatureKind] = set()
            examples: dict[FeatureKind, object] = {}
            if self.at(TokenType.LBRACE):
                self.advance()
                while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
                    if self.at_word("supports"):
                        self.parse_supports(supports)
                    elif self.at_word("example"):
                        self.parse_example(examples)
                    else:
                        self.fail("expected 'supports' or 'example' in widget body")
                self.expect(TokenType.RBRACE, "'}'")
            return (WidgetDecl(
                name=name.text,
                kind=kind,
                enabled_optional=frozenset(supports),
                examples=_sorted_examples(examples),
                span=self.span_of(tok),
            ), name)
        if self.at_word("table"):
            self.advance()
            name = self.expect_ident("widget name")
            self.expect(TokenType.LBRACE, "'{'")
            self.expect_word("columns")
            self.expect(TokenType.LBRACE, "'{'")
            columns = self.parse_column_decls()
            self.expect(TokenType.RBRACE, "'}'")
            supports = set()
            while self.at_word("supports"):
                self.parse_supports(supports)
            self.expect(TokenType.RBRACE, "'}'")
            return (WidgetDecl(
                name=name.text,
                kind=WidgetKind.TABLE,
                enabled_optional=frozenset(supports),
                columns=columns,
                span=self.span_of(tok),
            ), name)
        self.fail(f"expected a widget declaration, found {self._describe(tok)}")
        raise AssertionError

    def parse_supports(self, into: set[FeatureKind]) -> None:
        self.expect_word("supports")
        into.add(self.parse_feature_word())
        while self.at(TokenType.COMMA):
            self.advance()
            into.add(self.parse_feature_word())

    def parse_example(self, into: dict) -> None:
        self.expect_word("example")
        tok = self.peek()
        feature = self.parse_feature_word()
        self.expect(TokenType.EQUALS, "'='")
        value = self.parse_literal()
        if feature in into:
            self.report(f"duplicate example for feature '{feature.value}'",
                        tok, E_DUPLICATE_NAME)
        else:
            into[feature] = value

    def parse_column_decls(self) -> tuple[ColumnSpec, ...]:
        columns: list[ColumnSpec] = []
        seen: dict[str, Token] = {}
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            tok = self.peek()
            if not self.at_word(*_CELL_KIND_WORDS):
                self.fail(f"expected a column declaration, found {self._describe(tok)}")
            kind = _CELL_KIND_WORDS[self.advance().text]
            title = self.expect(TokenType.STRING, "column title")
            trimmed = title.value.strip()
            if trimmed in seen:
                self.report(f"duplicate column title '{trimmed}'", title, E_DUPLICATE_NAME)
            else:
                seen[trimmed] = title
                columns.append(ColumnSpec(cell_kind=kind, title=trimmed,
                                          span=self.span_of(tok)))
        if not columns:
            self.fail("a table needs at least one column")
        return tuple(columns)

    def parse_command_decls(self) -> tuple[CommandDecl, ...]:
        commands: list[CommandDecl] = []
        seen: dict[str, Token] = {}
        sync_words = set(_ACTION_WORDS) | {"command"}
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                decl, name_tok = self.parse_command_decl()
            except _ParseError:
                self.sync(sync_words)
                continue
            if decl.name in seen:
                self.report(f"duplicate command name '{decl.name}'",
                            name_tok, E_DUPLICATE_NAME)
            else:
                seen[decl.name] = name_tok
                commands.append(decl)
        return tuple(commands)

    def parse_command_decl(self) -> tuple[CommandDecl, Token]:
        tok = self.peek()
        if self.at_word(*_ACTION_WORDS):
            kind = _ACTION_WORDS[self.advance().text]
            self.expect_word("on")
            target = self.expect_ident("widget name")
            name = camel_case(target.text, kind.value)
            return (CommandDecl(name=name,
                                form=WidgetCommand(kind=kind, target=target.text),
                                span=self.span_of(tok)),
                    target)
        if self.at_word("command"):
            self.advance()
            name = self.expect_ident("command name")
            if name.text in _ACTION_WORDS:
                self.report(f"custom commands must not be named '{name.text}'", name)
            self.expect(TokenType.LPAREN, "'('")
            params: list[Param] = []
            seen_params: set[str] = set()
            if not self.at(TokenType.RPAREN):
                while True:
                    pname = self.expect_ident("parameter name")
                    self.expect(TokenType.COLON, "':'")
                    ptok = self.peek()
                    if not self.at_word(*_PARAM_TYPE_WORDS):
                        self.fail("expected a parameter type "
                                  "(string, bool, int, or context)")
                    ptype = _PARAM_TYPE_WORDS[self.advance().text]
                    if pname.text in seen_params:
                        self.report(f"duplicate parameter name '{pname.text}'",
                                    pname, E_DUPLICATE_NAME)
                    else:
                        seen_params.add(pname.text)
                        params.append(Param(name=pname.text, type=ptype))
                    if self.at(TokenType.COMMA):
                        self.advance()
                        continue
                    break
            self.expect(TokenType.RPAREN, "')'")
            return (CommandDecl(name=name.text, form=CustomCommand(params=tuple(params)),
                                span=self.span_of(tok)),
                    name)
        self.fail(f"expected a command declaration, found {self._describe(tok)}")
        raise AssertionError

    # -- test suite file ----------------------------------------------------

    def parse_test_suite_file(self) -> TestSuite | None:
        try:
            head = self.expect_word("testsuite")
            name = self.expect_ident("suite name")
            self.expect_word("for")
            target = self.expect_ident("ViewModel name")
            self.expect(TokenType.LBRACE, "'{'")
            scenarios: list[TestScenario] = []
            seen: dict[str, Token] = {}
            while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
                try:
                    scenario, desc_tok = self.parse_scenario()
                except _ParseError:
                    self.sync({"scenario"})
                    continue
                if scenario.description in seen:
                    self.report(
                        f"duplicate scenario description {scenario.description!r}",
                        desc_tok, E_DUPLICATE_NAME)
                else:
                    seen[scenario.description] = desc_tok
                    scenarios.append(scenario)
            self.expect(TokenType.RBRACE, "'}'")
            if not self.at(TokenType.EOF):
                self.report(f"unexpected content after test suite body: "
                            f"{self._describe(self.peek())}")
            return TestSuite(name=name.text, target_view_model=target.text,
                             scenarios=tuple(scenarios), span=self.span_of(head))
        except _ParseError:
            return None

    def parse_scenario(self) -> tuple[TestScenario, Token]:
        head = self.expect_word("scenario")
        desc = self.expect(TokenType.STRING, "scenario description")
        self.expect(TokenType.LBRACE, "'{'")
        self.expect_word("given")
        self.expect(TokenType.LBRACE, "'{'")
        given = self.parse_contexts()
        self.expect(TokenType.RBRACE, "'}'")
        self.expect_word("when")
        self.expect(TokenType.LBRACE, "'{'")
        when = self.parse_actions()
        self.expect(TokenType.RBRACE, "'}'")
        self.expect_word("then")
        self.expect(TokenType.LBRACE, "'{'")
        then = self.parse_checks()
        self.expect(TokenType.RBRACE, "'}'")
        self.expect(TokenType.RBRACE, "'}'")
        return (TestScenario(description=desc.value, given=given, when=when,
                             then=then, span=self.span_of(head)),
                desc)

    def parse_contexts(self) -> tuple[ContextDefinition, ...]:
        out: list[ContextDefinition] = []
        sync_words = {"datatable", "text", "xml", "file", "use"}
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                out.append(self.parse_context())
            except _ParseError:
                self.sync(sync_words)
        return tuple(out)

    def parse_context(self) -> ContextDefinition:
        tok = self.peek()
        if self.at_word("datatable"):
            self.advance()
            name = self.expect_ident("context name")
            self.expect(TokenType.LBRACE, "'{'")
            header, rows = self.parse_plain_table()
            self.expect(TokenType.RBRACE, "'}'")
            return ContextDefinition(name=name.text,
                                     body=DataTableBody(header=header, rows=rows),
                                     span=self.span_of(tok))
        if self.at_word("text"):
            self.advance()
            name = self.expect_ident("context name")
            body = self.expect(TokenType.TRIPLE_STRING, "triple-quoted string")
            return ContextDefinition(name=name.text, body=TextBody(text=body.value),
                                     span=self.span_of(tok))
        if self.at_word("xml"):
            self.advance()
            name = self.expect_ident("context name")
            body = self.expect(TokenType.TRIPLE_STRING, "triple-quoted string")
            return ContextDefinition(name=name.text, body=XmlBody(text=body.value),
                                     span=self.span_of(tok))
        if self.at_word("file"):
            self.advance()
            name = self.expect_ident("context name")
            path = self.expect(TokenType.STRING, "file path")
            return ContextDefinition(name=name.text, body=FileBody(path=path.value),
                                     span=self.span_of(tok))
        if self.at_word("use"):
            self.advance()
            name = self.expect_ident("context name")
            return ContextDefinition(name=name.text,
                                     body=ReferenceBody(target=name.text),
                                     span=self.span_of(tok))
        self.fail(f"expected a context definition, found {self._describe(tok)}")
        raise AssertionError

    def parse_plain_table(self) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
        """Header plus data rows of a given-part data table; cells stay literal."""
        header_tok = self.expect(TokenType.PIPE_ROW, "table row")
        header = self.parse_plain_row(header_tok)
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

    def parse_actions(self) -> tuple[Action, ...]:
        out: list = []
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                out.append(self.parse_action())
            except _ParseError:
                self.sync(set(_ACTION_WORDS))
        return tuple(out)

    def parse_action(self):
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
        if self.at(TokenType.IDENT):
            name = self.advance()
            self.expect(TokenType.LPAREN, "'(' after command name")
            args: list[Argument] = []
            if not self.at(TokenType.RPAREN):
                while True:
                    args.append(self.parse_argument())
                    if self.at(TokenType.COMMA):
                        self.advance()
                        continue
                    break
            self.expect(TokenType.RPAREN, "')'")
            return CustomAction(name=name.text, args=tuple(args), span=self.span_of(tok))
        self.fail(f"expected a command action, found {self._describe(tok)}")
        raise AssertionError

    def parse_argument(self) -> Argument:
        tok = self.peek()
        if tok.type is TokenType.IDENT and tok.text not in ("true", "false"):
            self.advance()
            return ArgContextRef(name=tok.text)
        return ArgLiteral(value=self.parse_literal())

    def parse_checks(self) -> tuple[CheckValue, ...]:
        out: list[CheckValue] = []
        sync_words = set(_WIDGET_KIND_WORDS)
        while not self.at(TokenType.RBRACE) and not self.at(TokenType.EOF):
            try:
                out.extend(self.parse_check())
            except _ParseError:
                self.sync(sync_words)
        return tuple(out)

    def parse_check(self) -> list[CheckValue]:
        tok = self.peek()
        if self.at_word(*_SIMPLE_WIDGET_WORDS):
            kind = _WIDGET_KIND_WORDS[self.advance().text]
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
        if self.at_word("table"):
            return [self.parse_rows_check()]
        self.fail(f"expected a check, found {self._describe(tok)}")
        raise AssertionError

    def parse_rows_check(self) -> CheckValue:
        head = self.expect_word("table")
        widget = self.expect_ident("widget name")
        self.expect(TokenType.LBRACE, "'{'")
        ignored: list[str] = []
        if self.at_word("ignore"):
            self.advance()
            first = self.expect(TokenType.STRING, "column title")
            ignored.append(first.value)
            while self.at(TokenType.COMMA):
                self.advance()
                title = self.expect(TokenType.STRING, "column title")
                if title.value in ignored:
                    self.report(f"duplicate ignored column '{title.value}'", title)
                else:
                    ignored.append(title.value)
        self.expect_word("rows")
        self.expect(TokenType.LBRACE, "'{'")
        header_tok = self.expect(TokenType.PIPE_ROW, "header row")
        header = self.parse_plain_row(header_tok)
        rows: list[RowExpectation] = []
        selected_seen: Token | None = None
        while self.at(TokenType.PIPE_ROW):
            tok = self.advance()
            try:
                row = self.parse_expect_row(tok, len(header))
            except _ParseError:
                continue  # reported; the row is one token, so the table goes on
            if row is None:
                continue
            if row.selected:
                if selected_seen is not None:
                    self.report("only one row may carry the [selected] mark", tok)
                    row = RowExpectation(cells=row.cells, selected=False, color=row.color)
                else:
                    selected_seen = tok
            rows.append(row)
        self.expect(TokenType.RBRACE, "'}'")
        selected_check: int | str | None = None
        if self.at_word("selectedRow"):
            self.advance()
            if self.at_word("none"):
                self.advance()
                selected_check = "none"
            else:
                selected_check = self.expect(TokenType.INT, "row index or 'none'").value
        self.expect(TokenType.RBRACE, "'}'")
        expectation = RowsExpectation(header=header, rows=tuple(rows),
                                      ignored_columns=tuple(ignored),
                                      selected_row_check=selected_check)
        return CheckValue(widget=widget.text, widget_kind=WidgetKind.TABLE,
                          feature=FeatureKind.ROWS, expectation=expectation,
                          span=self.span_of(head))

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


def _sorted_examples(examples: dict) -> tuple:
    return tuple(sorted(examples.items(), key=lambda kv: FEATURE_RANK[kv[0]]))
