"""Recursive-descent parser for equation source text.

Grammar (infix, left associative, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' signed-integer)?
    atom   := NUMBER | NAME | 'sqrt' '(' expr ')' | '(' expr ')'

Exponents must be integer literals; anything else is a ParseError.
Rational literals like 7/8 are ordinary constant divisions and stay
exact through interval evaluation. System source consists of one
``variables = x y z`` line plus one equation per line, each optionally
suffixed ``= 0``; ``#`` starts a comment.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .expr import Const, Expr, Sqrt, Var, add, children, div, mul, neg, power, sub

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()=]))"
)


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(text: str, line: int | None = None) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line, pos + 1)
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num") + 1))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op") + 1))
    return tokens


# Python allows 1000 nested frames by default.  The parser takes five per
# nesting level (parentheses, sqrt, sign) and a recursive pass over a parsed
# tree (derivative, to_source, ==, hash) at most two per tree level; loops
# build operator chains, so tree depth has its own bound.
_MAX_DEPTH = 150
_MAX_TREE_DEPTH = 300


def _tree_depth(e: Expr) -> int:
    deepest, stack = 0, [(e, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in children(node))
    return deepest


class _Parser:
    def __init__(self, tokens: list[_Token], names: dict[str, int], line: int | None):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.line = line
        self.depth = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def _expect_op(self, text: str):
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", self.line, tok.column)

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.pos += 1
                rhs = self.parse_term()
                e = add(e, rhs) if tok.text == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self.pos += 1
                rhs = self.parse_unary()
                e = mul(e, rhs) if tok.text == "*" else div(e, rhs)
            else:
                return e

    def parse_unary(self) -> Expr:
        # every nesting construct (parens, sqrt, unary sign) passes through
        # here, so one counter bounds total parser recursion
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.line)
        try:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.pos += 1
                inner = self.parse_unary()
                return inner if tok.text == "+" else neg(inner)
            return self.parse_power()
        finally:
            self.depth -= 1

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.pos += 1
            k = self._parse_exponent()
            e = power(base, k)
            nxt = self._peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "^":
                raise ParseError("chained ^ requires parentheses", self.line, nxt.column)
            return e
        return base

    def _parse_exponent(self) -> int:
        tok = self._peek()
        parenthesized = False
        if tok is not None and tok.kind == "op" and tok.text == "(":
            parenthesized = True
            self.pos += 1
            tok = self._peek()
        sign = 1
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            if not parenthesized:
                raise ParseError("signed exponent requires parentheses", self.line, tok.column)
            sign = -1 if tok.text == "-" else 1
            self.pos += 1
            tok = self._peek()
        if tok is None or tok.kind != "num":
            raise ParseError("exponent must be an integer literal", self.line,
                             tok.column if tok else None)
        if not re.fullmatch(r"\d+", tok.text):
            raise ParseError(f"exponent must be an integer literal, found {tok.text!r}",
                             self.line, tok.column)
        self.pos += 1
        if parenthesized:
            self._expect_op(")")
        return sign * int(tok.text)

    def parse_atom(self) -> Expr:
        tok = self._next()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "name":
            if tok.text == "sqrt":
                self._expect_op("(")
                inner = self.parse_expr()
                self._expect_op(")")
                return Sqrt(inner)
            if tok.text in self.names:
                return Var(self.names[tok.text])
            raise ParseError(f"unknown identifier {tok.text!r}", self.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self._expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.column)


def parse_expression(text: str, variables: list[str] | tuple[str, ...],
                     line: int | None = None) -> Expr:
    names = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    # optional '= 0' suffix
    for i, tok in enumerate(tokens):
        if tok.kind == "op" and tok.text == "=":
            rhs = tokens[i + 1:]
            if len(rhs) != 1 or rhs[0].kind != "num" or float(rhs[0].text) != 0.0:
                raise ParseError("right-hand side must be 0", line, tok.column)
            tokens = tokens[:i]
            break
    p = _Parser(tokens, names, line)
    e = p.parse_expr()
    leftover = p._peek()
    if leftover is not None:
        raise ParseError(f"unexpected token {leftover.text!r} after expression",
                         line, leftover.column)
    if _tree_depth(e) > _MAX_TREE_DEPTH:
        raise ParseError(
            f"expression nested too deeply (tree depth above {_MAX_TREE_DEPTH})", line
        )
    return e


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"sqrt", "variables", "equation"}


def parse_variables(spec: str, line: int | None = None) -> list[str]:
    names = spec.replace(",", " ").split()
    if not names:
        raise ParseError("no variables declared", line)
    seen = set()
    for v in names:
        if not _NAME_RE.match(v):
            raise ParseError(f"invalid variable name {v!r}", line)
        if v in _RESERVED:
            raise ParseError(f"variable name {v!r} is reserved", line)
        if v in seen:
            raise ParseError(f"duplicate variable {v!r}", line)
        seen.add(v)
    return names


def parse_system(source: str) -> tuple[list[str], list[Expr]]:
    """Parse a system block: a variables line plus one equation per line.

    Returns (variable names in declared order, equation expressions).
    """
    variables: list[str] | None = None
    equations: list[Expr] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        head = text.split("=", 1)[0].strip().lower()
        if head == "variables" or text.lower().startswith("variables "):
            if variables is not None:
                raise ParseError("duplicate variables line", lineno)
            body = text.split("=", 1)[1] if "=" in text else text[len("variables"):]
            variables = parse_variables(body, lineno)
            continue
        if head == "equation":
            text = text.split("=", 1)[1].strip()
            if not text:
                raise ParseError("empty equation", lineno)
        if variables is None:
            raise ParseError("variables must be declared before equations", lineno)
        equations.append(parse_expression(text, variables, lineno))
    if variables is None:
        raise ParseError("missing variables line")
    if not equations:
        raise ParseError("no equations given")
    return variables, equations
