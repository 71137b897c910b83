"""Knot expressions and their class representatives.

The expression language covers the unknot, positive torus knots, cables,
connected sums, mirrors, and the doubled trefoil D.  Grammar:

    expr := term ('+' term)*
    term := '-' term | atom
    atom := 'U' | 'D' | 'T(' int ',' int ')' | 'C(' expr ';' int ',' int ')'
          | '(' expr ')'

'+' is connected sum and '-' is mirror reversal.  class_complex maps an
expression to a reduced representative of its concordance class: the
unknot, torus knots and supported cables become staircases, sums become
tensor products, mirrors become duals (both keep a complex reduced), and D
is carried by the trefoil staircase (its class, not its full complex, which
no small model determines).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Union

from ._value import Value
from .cfk import MAX_GENERATORS, CfkComplex, _generator, _indexed, dual, reduce, tensor, validate
from .errors import (
    ExpressionError,
    InconsistentInput,
    NotCoprime,
    ParseError,
    UnsupportedExpression,
    parse_int,
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
    "ClassRep",
    "class_complex",
]


class Unknot(Value):
    def __str__(self) -> str:
        return "U"


class Torus(Value):
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


class Cable(Value):
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


class Sum(Value):
    left: "KnotExpr"
    right: "KnotExpr"

    def __str__(self) -> str:
        # keep round trips exact: '+' associates left, so a right Sum child
        # needs parentheses
        right = f"({self.right})" if isinstance(self.right, Sum) else str(self.right)
        return f"{self.left} + {right}"


class Mirror(Value):
    inner: "KnotExpr"

    def __str__(self) -> str:
        inner = f"({self.inner})" if isinstance(self.inner, Sum) else str(self.inner)
        return f"-{inner}"


class WhiteheadDoubleTrefoil(Value):
    def __str__(self) -> str:
        return "D"


KnotExpr = Union[Unknot, Torus, Cable, Sum, Mirror, WhiteheadDoubleTrefoil]


# ---------------------------------------------------------------------------
# parsing


class _Token(NamedTuple):
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
        if c.isdecimal():  # not isdigit: it passes '³', which int() refuses
            j = i
            while j < len(text) and text[j].isdecimal():
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
        return sign * parse_int(tok.text, 1, tok.column)

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
MAX_ALEXANDER_DEGREE = 500_000  # the largest leaf polynomial built
MAX_PRODUCTS = 20_000_000  # coefficient products alexander or class_complex may make


def staircase(exps: StaircaseExponents) -> CfkComplex:
    """Zigzag complex whose step lengths are the exponent differences.

    Generators x0 .. xk at Alexander gradings n_i - g; each odd-index
    generator emits one horizontal arrow (to the previous generator, U
    power equal to the exponent drop) and one vertical arrow (to the next).
    Valid exponents make it a reduced knot class whose column keeps x0 at
    M = 0, so it carries class degree 0.
    """
    n, g, last = exps.exponents, exps.genus, len(exps.exponents) - 1
    maslov = [0]
    for i in range(1, len(n)):
        maslov.append(maslov[-1] + (1 - 2 * (n[i - 1] - n[i]) if i % 2 else -1))
    # x_i sits at index last - i: A ascends, so _store permutes nothing
    gens = [_generator((f"x{i}", n[i] - g, maslov[i])) for i in range(last, -1, -1)]
    steps = ((last - i, n[i - 1] - n[i]) for i in range(last - 1, 0, -2))  # odd i; k ascends
    return _indexed(gens, [a for k, u in steps for a in ((k, k - 1, 0), (k, k + 1, u))], 0)


def alexander(e: KnotExpr) -> LaurentPoly:
    """Alexander polynomial of the knot an expression denotes.

    Note D itself has trivial polynomial, so for D-cables this differs from
    the polynomial of the class representative on purpose.  A degree over
    MAX_ALEXANDER_DEGREE, or over MAX_PRODUCTS coefficient products, raises
    UnsupportedExpression before anything is built.
    """
    degree, products, _, _ = _work(e)
    _check(degree, MAX_ALEXANDER_DEGREE, "an Alexander polynomial of degree {:,}")
    _check(products, MAX_PRODUCTS, "building the polynomial with {:,} coefficient products")
    return _alexander(e)


def _alexander(e: KnotExpr) -> LaurentPoly:
    if isinstance(e, (Unknot, WhiteheadDoubleTrefoil)):
        return LaurentPoly.one()
    if isinstance(e, Torus):
        return torus_alexander(e.p, e.q)
    if isinstance(e, Sum):  # a product of normalized polynomials is normalized
        return _alexander(e.left) * _alexander(e.right)
    if isinstance(e, Mirror):
        return _alexander(e.inner)
    if isinstance(e, Cable):
        return cable_alexander(_alexander(e.inner), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


def _lspace_polynomial(e: KnotExpr) -> LaurentPoly:
    """Alexander polynomial of the L-space knot whose staircase carries the
    class of e: U, T(p,q), D (as the trefoil) or cables nested on one of them.
    For p >= 2 the (p, q) cable of an L-space knot K is an L-space knot, and
    so has a staircase complex, exactly when q >= p(2g(K) - 1) (Hedden,
    arXiv:0806.2172; Hom, arXiv:1009.2413); every cable in the nest must
    have q > 0 and meet that bound, or UnsupportedExpression is raised.
    """
    if isinstance(e, WhiteheadDoubleTrefoil):
        return torus_alexander(2, 3)
    if isinstance(e, (Sum, Mirror)):
        raise UnsupportedExpression("no class construction for cables of sums or mirrors")
    if not isinstance(e, Cable):
        return _alexander(e)
    if e.q <= 0:
        raise UnsupportedExpression(f"cable framing must be positive to build a class, got q={e.q}")
    poly = _lspace_polynomial(e.inner)
    genus = poly.degree // 2
    bound = e.p * (2 * genus - 1)
    if e.p >= 2 and e.q < bound:
        raise UnsupportedExpression(
            f"cable ({e.p},{e.q}) of a genus {genus} companion is not "
            f"an L-space knot (needs q >= {bound}), so no staircase models it"
        )
    return cable_alexander(poly, e.p, e.q)


def _work(e: KnotExpr) -> tuple[int, int, int, int]:
    """Read off e before anything is built: the degree of alexander(e) and the
    coefficient products it makes (at each '+' and each cable), then the
    largest leaf degree of class_complex (D counting as the trefoil) and the
    coefficient products its leaves make (at each cable)."""
    if isinstance(e, Mirror):
        return _work(e.inner)
    if isinstance(e, Sum):
        (d1, n1, l1, m1), (d2, n2, l2, m2) = _work(e.left), _work(e.right)
        return d1 + d2, n1 + n2 + (d1 + 1) * (d2 + 1), max(l1, l2), m1 + m2
    if isinstance(e, WhiteheadDoubleTrefoil):
        return 0, 0, 2, 0
    if isinstance(e, Torus):
        return (e.p - 1) * (e.q - 1), 0, (e.p - 1) * (e.q - 1), 0
    if isinstance(e, Cable):
        d, n, leaf, m = _work(e.inner)
        t = (e.p - 1) * (abs(e.q) - 1)  # the degree of the (p, q) torus factor
        return e.p * d + t, n + (d + 1) * (t + 1), e.p * leaf + t, m + (leaf + 1) * (t + 1)
    return 0, 0, 0, 0


def _check(value: int, limit: int, what: str) -> None:
    """Raise UnsupportedExpression when value, the {:,} of what, is over limit."""
    if value > limit:
        raise UnsupportedExpression(f"{what.format(value)} is over the limit of {limit:,}")


def _staircases(e: KnotExpr) -> list[StaircaseExponents]:
    """The staircase of every leaf of e (mirrors dropped), left to right;
    each leaf is an L-space knot, so its polynomial has staircase form."""
    if isinstance(e, Mirror):
        return _staircases(e.inner)
    if isinstance(e, Sum):
        return _staircases(e.left) + _staircases(e.right)
    return [staircase_exponents(_lspace_polynomial(e))]


def _class_of(e: KnotExpr, leaves: Iterator[StaircaseExponents]) -> CfkComplex:
    if isinstance(e, Mirror):
        return dual(_class_of(e.inner, leaves))
    if isinstance(e, Sum):
        return tensor(_class_of(e.left, leaves), _class_of(e.right, leaves))
    return staircase(next(leaves))


class ClassRep(Value):
    """A concordance class, carried by a reduced knot-like complex."""

    complex: CfkComplex
    provenance: KnotExpr | None = None

    def __post_init__(self) -> None:
        report = validate(self.complex, knot_class=True)
        if not report.ok:
            first = report.errors[0]
            raise InconsistentInput(f"not a knot-like complex: {first.message}")
        if reduce(self.complex) is not self.complex:  # reduce returns a reduced input itself
            raise InconsistentInput("not reduced: an arrow drops no grading")

    def __str__(self) -> str:
        if self.provenance is not None:
            return str(self.provenance)
        return f"<class on {len(self.complex.generators)} generators>"


def class_complex(e: KnotExpr) -> ClassRep:
    """Reduced representative complex of the concordance class of e.

    UnsupportedExpression is raised before any polynomial is built for a leaf
    of degree over MAX_ALEXANDER_DEGREE or leaves over MAX_PRODUCTS coefficient
    products, and before any staircase for a class over MAX_GENERATORS
    generators (the product of the leaves' staircase sizes).
    """
    _, _, degree, products = _work(e)
    _check(degree, MAX_ALEXANDER_DEGREE, "a leaf polynomial of degree {:,}")
    _check(products, MAX_PRODUCTS, "building the leaf polynomials with {:,} coefficient products")
    leaves = _staircases(e)
    size = math.prod(len(exps.exponents) for exps in leaves)
    _check(size, MAX_GENERATORS, "a class of {:,} generators")
    return ClassRep(_class_of(e, iter(leaves)), e)
