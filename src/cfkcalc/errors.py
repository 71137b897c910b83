"""Exception hierarchy shared across the package.

Input-shaped failures (malformed text, unusable parameters) and math-shaped
failures (a precondition of the requested computation does not hold) live in
separate branches so that the command line tool can map them to distinct
exit codes.
"""

from __future__ import annotations

import sys

__all__ = [
    "CfkError",
    "InputError",
    "MathError",
    "ParseError",
    "NotCoprime",
    "ExpressionError",
    "UnsupportedExpression",
    "InconsistentInput",
    "CertificateError",
    "NotStaircaseForm",
    "RankNotOne",
    "EpsilonNotOne",
    "SearchExhausted",
    "InternalInconsistency",
    "NotAChain",
    "TooShort",
]


class CfkError(Exception):
    """Base class for every error raised by this package."""


class InputError(CfkError):
    """The input text or parameters cannot be used at all."""


class MathError(CfkError):
    """The computation is well-posed only under a hypothesis that failed."""


class ParseError(InputError):
    """Malformed text, with a 1-based position when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)


def parse_int(text: str, line: int | None = None, column: int | None = None) -> int:
    """int(text) of digits; past the interpreter's digit limit, ParseError at (line, column)."""
    try:
        return int(text)
    except ValueError:
        digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
        message = f"an integer of {digits:,} digits is over the limit of {limit:,}"
        raise ParseError(message, line, column)


class NotCoprime(InputError):
    """Torus or cabling parameters share a factor."""


class ExpressionError(InputError):
    """A knot expression is syntactically fine but semantically out of range."""


class UnsupportedExpression(InputError):
    """No sound construction is available for the requested expression."""


class InconsistentInput(InputError):
    """Arguments contradict each other (epsilon = 0 forces tau = 0)."""


class CertificateError(InputError):
    """A certificate document is structurally unusable."""


class NotStaircaseForm(MathError):
    """A polynomial is not an alternating, symmetric staircase polynomial."""


class RankNotOne(MathError):
    """Column homology rank is not 1, so the complex is not knot-like."""


class EpsilonNotOne(MathError):
    """a1/a2 are defined only when epsilon is +1."""


class SearchExhausted(MathError):
    """A bounded region search ended without the guaranteed witness."""


class InternalInconsistency(MathError):
    """Two computations that must agree did not; indicates corrupt input."""


class NotAChain(MathError):
    """Certificate construction found an unorderable pair."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        self.pair = pair
        super().__init__(message)


class TooShort(MathError):
    """The staircase has no steps, so the closed forms do not apply."""
