"""Knot expressions and their class representatives.

The expression language covers the unknot, positive torus knots, cables,
connected sums, mirrors, and the doubled trefoil D.  Grammar:

    expr := term ('+' term)*
    term := '-' term | atom
    atom := 'U' | 'D' | 'T(' int ',' int ')' | 'C(' expr ';' int ',' int ')'
          | '(' expr ')'

'+' is connected sum and '-' is mirror reversal.  class_complex maps an
expression to a reduced representative of its concordance class: torus
knots and supported cables become staircases, sums become reduced tensor
products, mirrors become duals, and D is carried by the trefoil staircase
(its class, not its full complex, which no small model determines).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

from .cfk import Arrow, CfkComplex, Generator, dual, reduce, tensor, unknot_complex
from .concordance import ClassRep
from .errors import (
    ExpressionError,
    NotCoprime,
    NotStaircaseForm,
    ParseError,
    UnsupportedExpression,
)
from .laurent import (
    LaurentPoly,
    StaircaseExponents,
    cable_alexander,
    staircase_exponents,
    torus_alexander,
)

__all__ = [
    "Unknot",
    "Torus",
    "Cable",
    "Sum",
    "Mirror",
    "WhiteheadDoubleTrefoil",
    "KnotExpr",
    "parse",
    "staircase",
    "alexander",
    "class_complex",
]


@dataclasses.dataclass(frozen=True)
class Unknot:
    def __str__(self) -> str:
        return "U"


@dataclasses.dataclass(frozen=True)
class Torus:
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ExpressionError(
                f"torus parameters must be positive, got ({self.p}, {self.q}); "
                "write negative torus knots with a leading '-'"
            )
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"torus parameters ({self.p}, {self.q}) share a factor")

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


@dataclasses.dataclass(frozen=True)
class Cable:
    inner: "KnotExpr"
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ExpressionError(f"cable winding p must be positive, got {self.p}")
        if math.gcd(self.p, abs(self.q)) != 1:
            raise NotCoprime(f"cable parameters ({self.p}, {self.q}) share a factor")

    def __str__(self) -> str:
        return f"C({self.inner};{self.p},{self.q})"


@dataclasses.dataclass(frozen=True)
class Sum:
    left: "KnotExpr"
    right: "KnotExpr"

    def __str__(self) -> str:
        # keep round trips exact: '+' associates left, so a right Sum child
        # needs parentheses
        right = f"({self.right})" if isinstance(self.right, Sum) else str(self.right)
        return f"{self.left} + {right}"


@dataclasses.dataclass(frozen=True)
class Mirror:
    inner: "KnotExpr"

    def __str__(self) -> str:
        inner = f"({self.inner})" if isinstance(self.inner, Sum) else str(self.inner)
        return f"-{inner}"


@dataclasses.dataclass(frozen=True)
class WhiteheadDoubleTrefoil:
    def __str__(self) -> str:
        return "D"


KnotExpr = Union[Unknot, Torus, Cable, Sum, Mirror, WhiteheadDoubleTrefoil]


# ---------------------------------------------------------------------------
# parsing


@dataclasses.dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-();,":
            tokens.append(_Token("punct", c, i + 1))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i + 1))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", 1, i + 1)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# Deepest nesting parse accepts, counting every mirror, parenthesis, cable
# and '+' on a path from the root.  str, repr, alexander and class_complex
# recurse once per level, str and repr with three frames each, so a tree of
# this depth stays well inside the default recursion limit.
MAX_DEPTH = 200


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # mirrors, parentheses and cables entered, not yet left

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind == "end":
            raise ParseError(f"expected {text!r} but the expression ended", 1, tok.column)
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", 1, tok.column)
        return tok

    def check_depth(self, depth: int, tok: _Token) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(
                f"expression nests deeper than {MAX_DEPTH} levels", 1, tok.column
            )

    def enter(self, tok: _Token) -> None:
        self.open += 1
        self.check_depth(self.open, tok)

    def integer(self) -> int:
        sign = 1
        tok = self.take()
        if tok.kind == "punct" and tok.text == "-":
            sign = -1
            tok = self.take()
        if tok.kind != "int":
            raise ParseError(f"expected an integer, got {tok.text!r}", 1, tok.column)
        return sign * int(tok.text)

    # Each rule returns its node and the node's depth: the nesting levels on
    # its deepest path.  A sum's depth is checked together with the levels
    # open around it.

    def expr(self) -> tuple[KnotExpr, int]:
        node, depth = self.term()
        while self.peek().text == "+":
            plus = self.take()
            right, right_depth = self.term()
            node, depth = Sum(node, right), 1 + max(depth, right_depth)
            self.check_depth(self.open + depth, plus)
        return node, depth

    def term(self) -> tuple[KnotExpr, int]:
        if self.peek().text == "-":
            self.enter(self.take())
            inner, depth = self.term()
            self.open -= 1
            return Mirror(inner), depth + 1
        return self.atom()

    def atom(self) -> tuple[KnotExpr, int]:
        tok = self.take()
        if tok.text == "(":
            self.enter(tok)
            node, depth = self.expr()
            self.expect(")")
            self.open -= 1
            return node, depth + 1
        if tok.kind == "name":
            if tok.text == "U":
                return Unknot(), 0
            if tok.text == "D":
                return WhiteheadDoubleTrefoil(), 0
            if tok.text == "T":
                self.expect("(")
                p = self.integer()
                self.expect(",")
                q = self.integer()
                self.expect(")")
                return Torus(p, q), 0
            if tok.text == "C":
                self.expect("(")
                self.enter(tok)
                inner, depth = self.expr()
                self.expect(";")
                p = self.integer()
                self.expect(",")
                q = self.integer()
                self.expect(")")
                self.open -= 1
                return Cable(inner, p, q), depth + 1
            raise ParseError(f"unknown knot symbol {tok.text!r}", 1, tok.column)
        if tok.kind == "end":
            raise ParseError("expected an expression but the input ended", 1, tok.column)
        raise ParseError(f"expected an expression, got {tok.text!r}", 1, tok.column)


def parse(text: str) -> KnotExpr:
    """Parse a knot expression; positions in errors are 1-based columns.

    Expressions nested deeper than MAX_DEPTH levels raise ParseError.
    """
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", 1, trailing.column)
    return node


# ---------------------------------------------------------------------------
# building complexes


def staircase(exps: StaircaseExponents) -> CfkComplex:
    """Zigzag complex whose step lengths are the exponent differences.

    Generators x0 .. xk at Alexander gradings n_i - g; each odd-index
    generator emits one horizontal arrow (to the previous generator, U
    power equal to the exponent drop) and one vertical arrow (to the next).
    """
    n = exps.exponents
    g = exps.genus
    maslov = [0] * len(n)
    for i in range(1, len(n)):
        if i % 2 == 1:
            maslov[i] = maslov[i - 1] + 1 - 2 * (n[i - 1] - n[i])
        else:
            maslov[i] = maslov[i - 1] - 1
    gens = [Generator(f"x{i}", n[i] - g, maslov[i]) for i in range(len(n))]
    arrows = []
    for i in range(1, len(n), 2):
        arrows.append(Arrow(f"x{i}", f"x{i - 1}", n[i - 1] - n[i]))
        arrows.append(Arrow(f"x{i}", f"x{i + 1}", 0))
    return CfkComplex(gens, arrows)


def alexander(e: KnotExpr) -> LaurentPoly:
    """Alexander polynomial of the knot an expression denotes.

    Note D itself has trivial polynomial, so for D-cables this differs from
    the polynomial of the class representative on purpose.
    """
    if isinstance(e, Unknot):
        return LaurentPoly.one()
    if isinstance(e, Torus):
        return torus_alexander(e.p, e.q)
    if isinstance(e, Sum):
        return (alexander(e.left) * alexander(e.right)).normalized()
    if isinstance(e, Mirror):
        return alexander(e.inner)
    if isinstance(e, WhiteheadDoubleTrefoil):
        return LaurentPoly.one()
    if isinstance(e, Cable):
        return cable_alexander(alexander(e.inner), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


def _contains_sum_or_mirror(e: KnotExpr) -> bool:
    if isinstance(e, (Sum, Mirror)):
        return True
    if isinstance(e, Cable):
        return _contains_sum_or_mirror(e.inner)
    return False


def _replace_double(e: KnotExpr) -> KnotExpr:
    """Rewrite D to the trefoil, which carries the same class."""
    if isinstance(e, WhiteheadDoubleTrefoil):
        return Torus(2, 3)
    if isinstance(e, Cable):
        return Cable(_replace_double(e.inner), e.p, e.q)
    return e


def _class_of(e: KnotExpr) -> CfkComplex:
    if isinstance(e, Unknot):
        return unknot_complex()
    if isinstance(e, Torus):
        return staircase(staircase_exponents(torus_alexander(e.p, e.q)))
    if isinstance(e, WhiteheadDoubleTrefoil):
        return staircase(StaircaseExponents((2, 1, 0)))
    if isinstance(e, Mirror):
        return dual(_class_of(e.inner))
    if isinstance(e, Sum):
        return reduce(tensor(_class_of(e.left), _class_of(e.right)))
    if isinstance(e, Cable):
        if e.q <= 0:
            raise UnsupportedExpression(
                f"cable framing must be positive to build a class, got q={e.q}"
            )
        if _contains_sum_or_mirror(e.inner):
            raise UnsupportedExpression(
                "no class construction for cables of sums or mirrors"
            )
        companion = _replace_double(e.inner)
        poly = cable_alexander(alexander(companion), e.p, e.q)
        try:
            exps = staircase_exponents(poly)
        except NotStaircaseForm as exc:
            raise UnsupportedExpression(
                f"cable polynomial {poly} is not in staircase form: {exc}"
            ) from exc
        return staircase(exps)
    raise TypeError(f"not a knot expression: {e!r}")


def class_complex(e: KnotExpr) -> ClassRep:
    """Reduced representative complex of the concordance class of e."""
    return ClassRep(_class_of(e), e)
