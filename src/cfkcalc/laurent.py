"""Exact integer Laurent polynomial arithmetic and staircase polynomials.

A :class:`LaurentPoly` maps exponents to nonzero integer coefficients, so
equality is exact and no float ever appears.  On top of the ring operations
this module provides the two Alexander polynomial constructors used by the
knot expression language and the validator that turns an alternating,
symmetric polynomial into its staircase exponent sequence.
"""

from __future__ import annotations

import math
import re
from operator import add, gt
from typing import Iterator, Mapping

from ._value import Value
from .errors import NotCoprime, NotStaircaseForm, ParseError, parse_int

__all__ = [
    "LaurentPoly",
    "StaircaseExponents",
    "torus_alexander",
    "cable_alexander",
    "staircase_exponents",
]


class LaurentPoly:
    """Immutable Laurent polynomial in one variable over the integers.

    >>> p = LaurentPoly({2: 1, 0: -1})
    >>> str(p * p)
    't^4 - 2t^2 + 1'
    >>> str(LaurentPoly.parse("t^-1 + 1"))
    '1 + t^-1'
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        self._coeffs = {e: c for e, c in dict(coeffs).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    @property
    def degree(self) -> int:
        """Highest exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

    @property
    def valuation(self) -> int:
        """Lowest exponent; raises on the zero polynomial."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self._coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def substitute_power(self, n: int) -> "LaurentPoly":
        """Substitute t -> t^n; n must be a nonzero integer."""
        if n == 0:
            raise ValueError("substitution power must be nonzero")
        return LaurentPoly({e * n: c for e, c in self._coeffs.items()})

    def normalized(self) -> "LaurentPoly":
        """Shift to lowest exponent 0 and make the leading coefficient positive."""
        if not self:
            return self
        out = self.shifted(-self.valuation)
        if out.coeff(out.degree) < 0:
            out = -out
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"

    _TERM = re.compile(
        r"(?P<coeff>\d+)?"
        r"(?P<var>t(\^(?P<exp>-?\d+))?)?"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the rendering produced by __str__ (sign order is free).

        >>> LaurentPoly.parse("t^6 - t^5 + t^3 - t + 1").coeff(3)
        1
        """
        s = text.strip()
        if not s:
            raise ParseError("empty polynomial", 1, 1)
        if s == "0":
            return cls.zero()
        out: dict[int, int] = {}
        pos = 0
        sign = 1
        first = True
        n = len(s)
        while pos < n:
            while pos < n and s[pos].isspace():
                pos += 1
            if pos >= n:
                break
            if not first or s[pos] in "+-":
                if s[pos] == "+":
                    sign = 1
                elif s[pos] == "-":
                    sign = -1
                else:
                    raise ParseError("expected '+' or '-'", column=pos + 1)
                pos += 1
                while pos < n and s[pos].isspace():
                    pos += 1
            first = False
            m = cls._TERM.match(s, pos)
            if m is None or m.end() == pos:
                raise ParseError("expected a term", column=pos + 1)
            coeff_txt, var, exp_txt = m.group("coeff"), m.group("var"), m.group("exp")
            if coeff_txt is None and var is None:
                raise ParseError("expected a term", column=pos + 1)
            coeff = 1 if coeff_txt is None else parse_int(coeff_txt, None, m.start("coeff") + 1)
            if var is None:
                exp = 0
            elif exp_txt is None:
                exp = 1
            else:
                exp = parse_int(exp_txt, None, m.start("exp") + 1)
            out[exp] = out.get(exp, 0) + sign * coeff
            pos = m.end()
        return cls(out)


class StaircaseExponents(Value):
    """Strictly decreasing exponents of a staircase polynomial.

    The sequence has odd length, ends at 0, and satisfies the symmetry
    n_i + n_(k-i) = n_0; the genus is n_0 / 2.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) % 2 == 0 or not exps:
            raise NotStaircaseForm("even number of terms")
        if min(exps) < 0:
            raise NotStaircaseForm("negative exponent")
        if not all(map(gt, exps, exps[1:])):
            raise NotStaircaseForm("exponents not strictly decreasing")
        if exps[-1] != 0:
            raise NotStaircaseForm("lowest exponent is not 0")
        top = exps[0]
        if set(map(add, exps, reversed(exps))) != {top}:
            raise NotStaircaseForm("exponents not symmetric")
        # symmetry pins the middle term to top/2, so top is even
        assert top % 2 == 0

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def __getitem__(self, i: int) -> int:
        return self.exponents[i]

    @property
    def genus(self) -> int:
        return self.exponents[0] // 2

    @property
    def steps(self) -> int:
        """Number of zigzag steps; the staircase has 2*steps + 1 corners."""
        return (len(self.exponents) - 1) // 2


def staircase_exponents(poly: LaurentPoly) -> StaircaseExponents:
    """Exponent sequence of a staircase polynomial, highest first.

    The polynomial must have all coefficients +1/-1, alternating and starting
    at +1 from the top, an odd number of terms, lowest exponent 0, and the
    palindromic exponent symmetry; otherwise NotStaircaseForm is raised.
    """
    exps = sorted(poly._coeffs, reverse=True)
    if not exps:
        raise NotStaircaseForm("zero polynomial")
    signs = list(map(poly._coeffs.__getitem__, exps))
    if set(signs[0::2]) != {1} or not set(signs[1::2]) <= {-1}:
        k = next(k for k, c in enumerate(signs) if c != (-1) ** k)  # the first bad one
        raise NotStaircaseForm(f"coefficient {signs[k]} at t^{exps[k]}, expected {(-1) ** k}")
    return StaircaseExponents(tuple(exps))


def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot, lowest exponent 0.

    p and q must be coprime; q may be negative, in which case |q| is used
    (mirrors share the polynomial).  The polynomial is read off the semigroup
    S = <p, q>: with 2g = (p - 1)(q - 1), Delta = (1 - t) * sum(t^s for s in S
    below 2g) + t^2g, so it has +1 where a run of S starts and -1 one past
    where a run ends, in time linear in the degree and with no division.

    >>> str(torus_alexander(2, 3))
    't^2 - t + 1'
    """
    q = abs(q)
    if p < 0:
        raise ValueError("p must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if p <= 1 or q <= 1:
        return LaurentPoly.one()
    top = (p - 1) * (q - 1)
    member = bytearray(top + 1)  # member[n] == 1 iff n is in S, for n <= 2g
    for a in range(0, top + 1, q):
        member[a::p] = b"\x01" * ((top - a) // p + 1)
    # every n >= 2g is in S and 2g - 1 is not, so the last run starts at 2g
    coeffs, start = {top: 1}, 0
    while start < top:
        end = member.find(0, start)
        coeffs[start], coeffs[end] = 1, -1
        start = member.find(1, end)
    return LaurentPoly(coeffs)


def cable_alexander(delta: LaurentPoly, p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) cable: delta(t^p) times the
    (p, q) torus polynomial, normalized to lowest exponent 0 and positive
    leading coefficient.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if math.gcd(p, abs(q)) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if not delta:
        raise ValueError("companion polynomial is zero")
    return (delta.substitute_power(p) * torus_alexander(p, q)).normalized()
