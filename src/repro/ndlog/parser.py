"""Parser for the NDlog surface syntax.

The accepted syntax follows the paper's examples (Section 2.2) and the P2 /
declarative-networking conventions:

.. code-block:: none

    /* path vector protocol */
    materialize(link, infinity, infinity, keys(1,2)).

    r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
    r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2,
                         P=f_concatPath(S,P2), f_inPath(P2,S)=false.
    r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).

    link(@"a","b",1).

Identifiers starting with an upper-case letter (or ``_``) are variables, all
other identifiers are string constants (Datalog convention), ``true`` /
``false`` are booleans, and numbers are integers or floats.  Rule names are
optional.  Facts are clauses without a ``:-``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from ..terms import Const, Func, Term, Var
from .ast import (
    AGGREGATE_FUNCTIONS,
    Aggregate,
    Assignment,
    BodyItem,
    Condition,
    Fact,
    HeadArg,
    HeadLiteral,
    Literal,
    MaterializeDecl,
    NDlogError,
    Program,
    Rule,
    Span,
)


class ParseError(NDlogError):
    """Raised on malformed NDlog input."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line and column:
            rendered = f"line {line}:{column}: {message}"
        elif line:
            rendered = f"line {line}: {message}"
        else:
            rendered = message
        super().__init__(rendered)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int = 0

    @property
    def span(self) -> Span:
        return Span(self.line, self.column)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<entails>:-)
  | (?P<op><=|>=|!=|==|<>|[<>=])
  | (?P<arith>[+\-*/])
  | (?P<punct>[(),.@!])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize NDlog source text."""

    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        column = pos - line_start + 1
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append(Token(kind, value, line, column))
    return tokens


class _TokenStream:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = list(tokens)
        self._index = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self._index + offset
        return self._tokens[i] if i < len(self._tokens) else None

    def next(self) -> Token:
        tok = self.require_peek()
        self._index += 1
        return tok

    def require_peek(self) -> Token:
        """Like :meth:`peek`, but truncated input is a :class:`ParseError`
        (never an internal assertion — fuzzed text ends mid-clause)."""

        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else 0,
                last.column if last else 0,
            )
        return tok

    def expect(self, value: str) -> Token:
        tok = self.next()
        if tok.value != value:
            raise ParseError(
                f"expected {value!r}, found {tok.value!r}", tok.line, tok.column
            )
        return tok

    def at(self, value: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.value == value

    def at_kind(self, kind: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)


def _make_identifier_term(name: str) -> Term:
    if name == "true":
        return Const(True)
    if name == "false":
        return Const(False)
    if name == "infinity":
        return Const(float("inf"))
    # Identifiers are interned: variable and constant names recur across
    # every rule of a program, and interning keeps dict/set operations on
    # them at pointer-comparison speed.
    if name[0].isupper() or name[0] == "_":
        return Var(sys.intern(name))
    return Const(sys.intern(name))


class Parser:
    """Recursive-descent parser producing a :class:`Program`.

    ``strict=False`` parses without enforcing rule safety or program-level
    arity consistency: the static analyzer uses it to load programs whose
    violations it reports as sourced diagnostics instead of parse failures.
    """

    def __init__(self, text: str, name: str = "program", *, strict: bool = True) -> None:
        self.stream = _TokenStream(tokenize(text))
        self.name = name
        self.strict = strict

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse(self) -> Program:
        program = Program(self.name)
        while not self.stream.exhausted:
            self._parse_clause(program)
        if self.strict:
            program.check()
        return program

    def _parse_clause(self, program: Program) -> None:
        tok = self.stream.require_peek()
        if tok.kind != "ident":
            raise ParseError(
                f"expected a clause, found {tok.value!r}", tok.line, tok.column
            )
        clause_span = tok.span
        # materialize declaration
        if tok.value == "materialize" and self.stream.at("(", 1):
            program.add_materialize(self._parse_materialize())
            return
        # optional rule name: ident not followed by '('
        rule_name = ""
        if self.stream.at_kind("ident") and not self.stream.at("(", 1):
            rule_name = self.stream.next().value
        head_tok = self.stream.peek()
        head = self._parse_head_literal()
        if self.stream.at(":-"):
            self.stream.expect(":-")
            body = self._parse_body()
            self.stream.expect(".")
            if not rule_name:
                rule_name = f"r{len(program.rules) + 1}"
            program.rules.append(Rule(rule_name, head, tuple(body), span=clause_span))
            return
        # otherwise it's a fact
        self.stream.expect(".")
        if rule_name:
            line = head_tok.line if head_tok else 0
            raise ParseError("facts cannot carry a rule name", line)
        if head.has_aggregate:
            line = head_tok.line if head_tok else 0
            raise ParseError("facts cannot contain aggregates", line)
        values = []
        for arg in head.plain_args():
            if not isinstance(arg, Const):
                line = head_tok.line if head_tok else 0
                raise ParseError("facts must be ground", line)
            values.append(arg.value)
        program.add_fact(
            Fact(head.predicate, tuple(values), head.location, span=clause_span)
        )

    def _parse_materialize(self) -> MaterializeDecl:
        self.stream.expect("materialize")
        self.stream.expect("(")
        pred_tok = self.stream.next()
        if pred_tok.kind != "ident":
            raise ParseError("materialize expects a predicate name", pred_tok.line)
        self.stream.expect(",")
        lifetime = self._parse_number_or_infinity()
        self.stream.expect(",")
        size = self._parse_number_or_infinity()
        self.stream.expect(",")
        self.stream.expect("keys")
        self.stream.expect("(")
        keys: list[int] = []
        while not self.stream.at(")"):
            tok = self.stream.next()
            if tok.kind != "number":
                raise ParseError("keys(...) expects attribute positions", tok.line)
            keys.append(int(float(tok.value)))
            if self.stream.at(","):
                self.stream.next()
        self.stream.expect(")")
        self.stream.expect(")")
        self.stream.expect(".")
        return MaterializeDecl(
            sys.intern(pred_tok.value), lifetime, size, tuple(keys), span=pred_tok.span
        )

    def _parse_number_or_infinity(self) -> float:
        tok = self.stream.next()
        if tok.kind == "number":
            return float(tok.value)
        if tok.kind == "ident" and tok.value == "infinity":
            return float("inf")
        raise ParseError(f"expected a number or 'infinity', found {tok.value!r}", tok.line)

    # ------------------------------------------------------------------
    # Heads and bodies
    # ------------------------------------------------------------------
    def _parse_head_literal(self) -> HeadLiteral:
        pred = self.stream.next()
        if pred.kind != "ident":
            raise ParseError(f"expected a predicate name, found {pred.value!r}", pred.line)
        self.stream.expect("(")
        args: list[HeadArg] = []
        location: Optional[int] = None
        while not self.stream.at(")"):
            if self.stream.at("@"):
                self.stream.next()
                if location is not None:
                    raise ParseError("multiple location specifiers in head", pred.line)
                location = len(args)
            args.append(self._parse_head_arg())
            if self.stream.at(","):
                self.stream.next()
        self.stream.expect(")")
        return HeadLiteral(sys.intern(pred.value), tuple(args), location, span=pred.span)

    def _parse_head_arg(self) -> HeadArg:
        tok = self.stream.require_peek()
        if (
            tok.kind == "ident"
            and tok.value in AGGREGATE_FUNCTIONS
            and self.stream.at("<", 1)
        ):
            self.stream.next()  # aggregate function
            self.stream.expect("<")
            var_tok = self.stream.next()
            if var_tok.kind != "ident" or not (var_tok.value[0].isupper() or var_tok.value[0] == "_"):
                raise ParseError("aggregate expects a variable", var_tok.line)
            self.stream.expect(">")
            return Aggregate(tok.value, Var(var_tok.value))
        return self._parse_expression()

    def _parse_body(self) -> list[BodyItem]:
        items: list[BodyItem] = [self._parse_body_item()]
        while self.stream.at(","):
            self.stream.next()
            items.append(self._parse_body_item())
        return items

    def _parse_body_item(self) -> BodyItem:
        # negated literal: 'not pred(...)' or '!pred(...)'
        tok = self.stream.require_peek()
        if tok.value == "!" or (tok.kind == "ident" and tok.value == "not" and self.stream.at_kind("ident", 1) and self.stream.at("(", 2)):
            self.stream.next()
            lit = self._parse_literal()
            return Literal(lit.predicate, lit.args, lit.location, negated=True, span=lit.span)
        # positive literal: ident '(' ... but beware function-call conditions
        # such as f_inPath(P2,S)=false — disambiguate by looking for a
        # comparison operator after the closing parenthesis.
        if tok.kind == "ident" and self.stream.at("(", 1):
            if not self._call_is_condition():
                return self._parse_literal()
        # otherwise an assignment or condition
        left = self._parse_expression()
        op_tok = self.stream.next()
        if op_tok.kind not in ("op",):
            raise ParseError(
                f"expected a comparison operator, found {op_tok.value!r}",
                op_tok.line,
                op_tok.column,
            )
        right = self._parse_expression()
        op = {"==": "=", "!=": "/=", "<>": "/="}.get(op_tok.value, op_tok.value)
        span = tok.span
        if op == "=" and isinstance(left, Var):
            return Assignment(left, right, span=span)
        if op == "=" and isinstance(right, Var) and not isinstance(left, Var):
            # allow 'expr = Var' as assignment too (uncommon but harmless)
            return Assignment(right, left, span=span)
        return Condition(op, left, right, span=span)

    def _call_is_condition(self) -> bool:
        """Look ahead past a balanced ``ident(...)`` for a comparison operator."""

        depth = 0
        offset = 1  # start at the '('
        while True:
            tok = self.stream.peek(offset)
            if tok is None:
                return False
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1
                if depth == 0:
                    after = self.stream.peek(offset + 1)
                    if after is None:
                        return False
                    return after.kind in ("op", "arith")
            offset += 1

    def _parse_literal(self) -> Literal:
        pred = self.stream.next()
        self.stream.expect("(")
        args: list[Term] = []
        location: Optional[int] = None
        while not self.stream.at(")"):
            if self.stream.at("@"):
                self.stream.next()
                if location is not None:
                    raise ParseError("multiple location specifiers in literal", pred.line)
                location = len(args)
            args.append(self._parse_expression())
            if self.stream.at(","):
                self.stream.next()
        self.stream.expect(")")
        return Literal(sys.intern(pred.value), tuple(args), location, span=pred.span)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Term:
        return self._parse_additive()

    def _parse_additive(self) -> Term:
        left = self._parse_multiplicative()
        while self.stream.at("+") or self.stream.at("-"):
            op = self.stream.next().value
            right = self._parse_multiplicative()
            left = Func(op, (left, right))
        return left

    def _parse_multiplicative(self) -> Term:
        left = self._parse_primary()
        while self.stream.at("*") or self.stream.at("/"):
            op = self.stream.next().value
            right = self._parse_primary()
            left = Func(op, (left, right))
        return left

    def _parse_primary(self) -> Term:
        tok = self.stream.next()
        if tok.kind == "number":
            value = float(tok.value) if "." in tok.value else int(tok.value)
            return Const(value)
        if tok.kind == "string":
            return Const(tok.value[1:-1])
        if tok.value == "(":
            inner = self._parse_expression()
            self.stream.expect(")")
            return inner
        if tok.value == "-":
            inner = self._parse_primary()
            return Func("-", (Const(0), inner))
        if tok.kind == "ident":
            if self.stream.at("("):
                self.stream.expect("(")
                args: list[Term] = []
                while not self.stream.at(")"):
                    args.append(self._parse_expression())
                    if self.stream.at(","):
                        self.stream.next()
                self.stream.expect(")")
                return Func(tok.value, tuple(args))
            return _make_identifier_term(tok.value)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line)


def parse_program(text: str, name: str = "program", *, strict: bool = True) -> Program:
    """Parse NDlog source text into a :class:`Program`.

    ``strict=False`` skips rule-safety and arity checks so the static
    analyzer (:mod:`repro.ndlog.analysis`) can report them as diagnostics.
    """

    return Parser(text, name, strict=strict).parse()


def parse_rule(text: str, name: str = "rule") -> Rule:
    """Parse a single rule (convenience for tests and generated programs)."""

    program = Parser(text, name).parse()
    if len(program.rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(program.rules)}")
    return program.rules[0]
