"""Surface reader for the formula language.

Grammar, loosest binding first::

    formula    := implies ("<->" formula)?          right-associative
    implies    := or ("->" implies)?                right-associative
    or         := and ("|" and)*
    and        := unary ("&" unary)*
    unary      := "~" unary | quantifier | primary
    quantifier := ("all" | "ex") var "." formula
                | "ex!!" indvar "." formula
    primary    := "(" formula ")" | application | equality
    application:= predvar indvar ... indvar         exactly arity-many
    equality   := var "=" var                       both sides same sort

Variables are ``x<digits>`` and ``A<digits>^<arity>``.  A quantifier body
extends as far right as possible.  ``ex!!`` is an abbreviation expanded at
parse time into existence plus a two-copy equality clause.

Input that nests parentheses and quantifiers more than ``2 * MAX_DEPTH``
deep, or that builds a formula deeper than ``MAX_DEPTH``, is a
:class:`ParseError`; the reader never recurses further than that.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .syntax import (
    BINARY_SYNTAX,
    MAX_DEPTH,
    QUANTIFIER_SYNTAX,
    Atom,
    Eq,
    Formula,
    FormulaError,
    Not,
    Var,
    exists_unique,
)

# the printer's tables keyed by token text, plus the ex!! abbreviation
_CONNECTIVES = {text: (cls, prec, left) for cls, (text, prec, left) in BINARY_SYNTAX.items()}
_BINDERS = {text: cls for cls, text in QUANTIFIER_SYNTAX.items()}
_BINDERS["ex!!"] = lambda var, body: exists_unique((var,), body)

# The printer nests at most one pair of parentheses plus one quantifier per
# node, so every formula within MAX_DEPTH re-parses under this bound.
_MAX_NESTING = 2 * MAX_DEPTH


class ParseError(Exception):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


Token = namedtuple("Token", "kind text pos")


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<predvar>A\d+\^\d+)"
    r"|(?P<indvar>x\d+)"
    r"|(?P<exbang>ex!!)"
    r"|(?P<all>all\b)"
    r"|(?P<ex>ex\b)"
    r"|(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<not>~)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<dot>\.)"
    r"|(?P<eq>=)"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _var_of(tok: Token) -> Var:
    if tok.kind == "indvar":
        return Var(int(tok.text[1:]), 0)
    index, arity = tok.text[1:].split("^")
    if int(arity) < 1:
        raise ParseError("predicate variables need arity >= 1", tok.pos)
    return Var(int(index), int(arity))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self.advance()

    def build(self, tok: Token, cls, *args) -> Formula:
        """Construct a node; a construction error is reported at ``tok``."""
        try:
            return cls(*args)
        except FormulaError as exc:
            raise ParseError(str(exc), tok.pos) from exc

    def enter(self, tok: Token) -> None:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ParseError(
                f"more than {_MAX_NESTING} nested parentheses and quantifiers", tok.pos
            )

    def formula(self) -> Formula:
        """Unary operands joined by binary connectives, grouped by precedence
        with an operator stack, so long chains take no recursion."""
        operands = [self.unary()]
        pending: list[Token] = []

        def reduce() -> None:
            right = operands.pop()
            tok = pending.pop()
            operands.append(self.build(tok, _CONNECTIVES[tok.text][0], operands.pop(), right))

        while self.peek().text in _CONNECTIVES:
            tok = self.advance()
            _, prec, left = _CONNECTIVES[tok.text]
            # first build what binds tighter, and what binds as tight if it associates left
            while pending and _CONNECTIVES[pending[-1].text][1] >= (prec if left else prec + 1):
                reduce()
            pending.append(tok)
            operands.append(self.unary())
        while pending:
            reduce()
        return operands[0]

    def unary(self) -> Formula:
        nots = []
        while self.peek().kind == "not":
            nots.append(self.advance())
        if self.peek().text in _BINDERS:
            f = self.quantifier()
        else:
            f = self.primary()
        for tok in reversed(nots):
            f = self.build(tok, Not, f)
        return f

    def quantifier(self) -> Formula:
        kw = self.advance()
        vtok = self.peek()
        if vtok.kind not in ("indvar", "predvar"):
            raise ParseError("expected a variable after the quantifier", vtok.pos)
        if kw.kind == "exbang" and vtok.kind != "indvar":
            raise ParseError("ex!! binds an individual variable", vtok.pos)
        var = _var_of(self.advance())
        self.expect("dot", "'.' after the quantified variable")
        self.enter(kw)
        body = self.formula()
        self.nesting -= 1
        return self.build(kw, _BINDERS[kw.text], var, body)

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lpar":
            self.enter(self.advance())
            f = self.formula()
            self.expect("rpar", "')'")
            self.nesting -= 1
            return f
        if tok.kind == "indvar":
            left = _var_of(self.advance())
            self.expect("eq", "'=' after an individual variable")
            return self.equality(left)
        if tok.kind == "predvar":
            head = _var_of(self.advance())
            if self.peek().kind == "eq":
                self.advance()
                return self.equality(head)
            args = []
            for k in range(head.arity):
                atok = self.peek()
                if atok.kind != "indvar":
                    raise ParseError(
                        f"expected individual variable (argument {k + 1} of {head})",
                        atok.pos,
                    )
                args.append(_var_of(self.advance()))
            return Atom(head, tuple(args))
        raise ParseError("expected a formula", tok.pos)

    def equality(self, left: Var) -> Formula:
        rtok = self.peek()
        if rtok.kind not in ("indvar", "predvar"):
            raise ParseError("expected a variable after '='", rtok.pos)
        return self.build(rtok, Eq, left, _var_of(self.advance()))


def parse(text: str) -> Formula:
    """Parse surface text into a formula; round-trips with ``format_formula``."""
    parser = _Parser(tokenize(text))
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("unexpected trailing input", tok.pos)
    return f


def parse_var(text: str) -> Var:
    """Parse a bare variable name such as ``x3`` or ``A1^2``."""
    tokens = tokenize(text)
    if len(tokens) != 2 or tokens[0].kind not in ("indvar", "predvar"):
        raise ParseError("expected a single variable name", 0)
    return _var_of(tokens[0])
