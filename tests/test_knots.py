"""Expression parsing, staircase construction, and class representatives.

The parser tests pin exact error columns; the class tests cross-check tau
of cable classes against the cable rule and Alexander polynomials against
the Euler characteristic of the reduced rank table.
"""

from __future__ import annotations

import pytest

from cfkcalc import (
    Cable,
    ExpressionError,
    LaurentPoly,
    Mirror,
    NotCoprime,
    Ordering,
    ParseError,
    StaircaseExponents,
    Sum,
    Torus,
    Unknot,
    UnsupportedExpression,
    WhiteheadDoubleTrefoil,
    alexander,
    cable_alexander,
    cable_tau,
    class_cmp,
    class_complex,
    dual,
    epsilon,
    hfk_table,
    parse,
    serialize,
    staircase,
    staircase_exponents,
    tau,
    torus_alexander,
    unknot_complex,
    validate,
)
from cfkcalc.knots import MAX_DEPTH
from conftest import trefoil_complex

T23 = Torus(2, 3)


# ---------------------------------------------------------------------------
# expression nodes


def test_torus_parameter_validation():
    with pytest.raises(ExpressionError):
        Torus(0, 3)
    with pytest.raises(ExpressionError):
        Torus(2, -3)
    with pytest.raises(NotCoprime):
        Torus(2, 4)


def test_cable_parameter_validation():
    with pytest.raises(ExpressionError):
        Cable(T23, 0, 1)
    with pytest.raises(NotCoprime):
        Cable(T23, 2, 4)
    with pytest.raises(NotCoprime):
        Cable(T23, 2, -4)
    assert Cable(T23, 2, -3).q == -3  # negative framing is expressible


def test_expression_rendering():
    assert str(Unknot()) == "U"
    assert str(WhiteheadDoubleTrefoil()) == "D"
    assert str(Torus(3, 4)) == "T(3,4)"
    assert str(Cable(T23, 2, 5)) == "C(T(2,3);2,5)"
    assert str(Sum(T23, Torus(2, 5))) == "T(2,3) + T(2,5)"
    assert str(Mirror(T23)) == "-T(2,3)"
    assert str(Mirror(Sum(Unknot(), T23))) == "-(U + T(2,3))"
    assert str(Sum(T23, Sum(Unknot(), Unknot()))) == "T(2,3) + (U + U)"


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse("U") == Unknot()
    assert parse("D") == WhiteheadDoubleTrefoil()
    assert parse("T(3,4)") == Torus(3, 4)
    assert parse("C(D;2,7)") == Cable(WhiteheadDoubleTrefoil(), 2, 7)
    assert parse("C(T(2,3);2,-3)") == Cable(T23, 2, -3)
    assert parse("(T(2,3))") == T23
    assert parse("  T( 2 ,  3 )  ") == T23


def test_parse_sum_associates_left():
    assert parse("U + D + T(2,3)") == Sum(Sum(Unknot(), WhiteheadDoubleTrefoil()), T23)


def test_parse_mirror_binds_tighter_than_sum():
    assert parse("-T(2,3) + U") == Sum(Mirror(T23), Unknot())
    assert parse("-(T(2,3) + U)") == Mirror(Sum(T23, Unknot()))
    assert parse("--U") == Mirror(Mirror(Unknot()))


def test_parse_cable_of_compound_expression():
    assert parse("C(T(2,3) + U;2,3)") == Cable(Sum(T23, Unknot()), 2, 3)


ROUND_TRIP_CATALOG = [
    Unknot(),
    Torus(4, 5),
    Cable(WhiteheadDoubleTrefoil(), 3, 4),
    Sum(Sum(T23, Torus(2, 5)), Mirror(Torus(3, 4))),
    Sum(T23, Mirror(Sum(Unknot(), WhiteheadDoubleTrefoil()))),
    Mirror(Mirror(T23)),
    Cable(Cable(T23, 2, 3), 2, 15),
]


@pytest.mark.parametrize("expr", ROUND_TRIP_CATALOG, ids=str)
def test_parse_inverts_rendering(expr):
    assert parse(str(expr)) == expr


@pytest.mark.parametrize(
    "text,column,fragment",
    [
        ("", 1, "input ended"),
        ("X", 1, "unknown knot symbol"),
        ("$", 1, "unexpected character"),
        ("T(a,b)", 3, "expected an integer"),
        ("T(2 3)", 5, "expected ','"),
        ("T(2,3", 6, "expression ended"),
        ("T(2,3) U", 8, "trailing input"),
        ("U +", 4, "input ended"),
        ("C(U;2)", 6, "expected ','"),
    ],
)
def test_parse_errors_carry_columns(text, column, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.column == column
    assert fragment in str(exc.value)


def _nested(kind: str, depth: int) -> str:
    """An expression whose deepest path has exactly depth levels."""
    if kind == "parentheses":
        return "(" * depth + "U" + ")" * depth
    if kind == "mirrors":
        return "-" * depth + "T(2,3)"
    if kind == "sum":
        return " + ".join(["U"] * (depth + 1))
    # a long sum whose first term is deep: the two add up
    return "-" * (depth // 2) + "U" + " + U" * (depth - depth // 2)


@pytest.mark.parametrize("kind", ["parentheses", "mirrors", "sum", "mixed"])
def test_parse_bounds_nesting_depth(kind):
    e = parse(_nested(kind, MAX_DEPTH))
    assert parse(str(e)) == e
    repr(e)
    alexander(e)
    class_complex(e)
    with pytest.raises(ParseError, match="nests deeper"):
        parse(_nested(kind, MAX_DEPTH + 1))


def test_parse_rejects_invalid_parameters_with_input_errors():
    with pytest.raises(NotCoprime):
        parse("T(2,4)")
    with pytest.raises(ExpressionError):
        parse("T(2,-3)")


# ---------------------------------------------------------------------------
# staircase construction


def test_staircase_of_trefoil_exponents_is_the_trefoil_complex():
    assert staircase(StaircaseExponents((2, 1, 0))) == trefoil_complex()


def test_staircase_of_a_single_exponent_is_a_point():
    assert staircase(StaircaseExponents((0,))) == unknot_complex("x0")


def test_staircase_gradings_for_a_two_step_example():
    c = staircase(StaircaseExponents((6, 5, 3, 1, 0)))
    assert c.grading_table() == {
        (3, 0): 1,
        (2, -1): 1,
        (0, -2): 1,
        (-2, -5): 1,
        (-3, -6): 1,
    }
    assert len(c.arrows) == 4


@pytest.mark.parametrize("p,q", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7)])
def test_torus_staircases_are_knot_like(p, q):
    c = staircase(staircase_exponents(torus_alexander(p, q)))
    assert validate(c, knot_class=True).ok


# ---------------------------------------------------------------------------
# Alexander polynomials of expressions


def test_alexander_of_atoms():
    assert alexander(Unknot()) == LaurentPoly.one()
    assert alexander(WhiteheadDoubleTrefoil()) == LaurentPoly.one()
    assert alexander(Torus(3, 4)) == torus_alexander(3, 4)


def test_alexander_multiplies_over_sums_and_ignores_mirrors():
    e = parse("T(2,3) + T(2,5)")
    assert alexander(e) == (torus_alexander(2, 3) * torus_alexander(2, 5)).normalized()
    assert alexander(Mirror(Torus(3, 4))) == torus_alexander(3, 4)


def test_alexander_of_cables_uses_the_companion_polynomial():
    assert alexander(Cable(T23, 2, 7)) == cable_alexander(torus_alexander(2, 3), 2, 7)
    # D has trivial polynomial, so its cables reduce to torus polynomials
    assert alexander(Cable(WhiteheadDoubleTrefoil(), 3, 4)) == torus_alexander(3, 4)


# ---------------------------------------------------------------------------
# class representatives


def test_class_complex_carries_its_expression():
    e = parse("T(3,4)")
    rep = class_complex(e)
    assert rep.provenance == e
    assert str(rep) == "T(3,4)"


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
def test_tau_of_torus_classes(p, q):
    assert tau(class_complex(Torus(p, q)).complex) == (p - 1) * (q - 1) // 2


def test_unknot_class_is_a_point():
    assert len(class_complex(Unknot()).complex.generators) == 1


def test_double_shares_the_trefoil_class():
    rep = class_complex(WhiteheadDoubleTrefoil())
    assert rep.complex == class_complex(T23).complex
    assert class_cmp(rep, class_complex(T23)) == Ordering.EQ


def test_mirror_class_is_the_dual_complex():
    e = Torus(3, 4)
    mirrored = class_complex(Mirror(e)).complex
    assert serialize(mirrored) == serialize(dual(class_complex(e).complex))


def test_sum_class_reduces_the_tensor_product():
    rep = class_complex(parse("T(2,3) + T(2,3)"))
    assert tau(rep.complex) == 2
    cancel = class_complex(parse("T(2,3) + -T(2,3)"))
    assert tau(cancel.complex) == 0
    assert epsilon(cancel.complex) == 0


@pytest.mark.parametrize(
    "inner,p,q",
    [("T(2,3)", 2, 5), ("T(2,3)", 3, 4), ("T(2,3)", 2, 15), ("T(3,4)", 2, 15), ("D", 2, 7)],
)
def test_cable_class_tau_matches_the_cable_rule(inner, p, q):
    companion = class_complex(parse(inner)).complex
    rep = class_complex(Cable(parse(inner), p, q))
    want = cable_tau(tau(companion), epsilon(companion), p, q)
    assert tau(rep.complex) == want


def test_unsupported_cables():
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(T23, 2, -3))
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Sum(T23, Unknot()), 2, 3))
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Mirror(T23), 2, 3))


# ---------------------------------------------------------------------------
# Euler characteristic consistency


def euler_poly(table: dict[tuple[int, int], int]) -> LaurentPoly:
    coeffs: dict[int, int] = {}
    for (a, m), count in table.items():
        coeffs[a] = coeffs.get(a, 0) + (-1) ** (m % 2) * count
    return LaurentPoly(coeffs)


CHI_CATALOG = [
    "U",
    "T(2,3)",
    "T(3,4)",
    "-T(3,4)",
    "T(2,3) + T(2,5)",
    "T(2,3) + -T(2,3)",
    "C(T(2,3);2,7)",
    "C(T(2,3);3,4)",
    "-(T(2,3) + T(3,4))",
]


@pytest.mark.parametrize("text", CHI_CATALOG)
def test_alexander_equals_euler_characteristic_of_the_rank_table(text):
    # the rank table is centered while alexander uses lowest exponent 0,
    # so compare after shifting both to the same normal form
    e = parse(text)
    table = hfk_table(class_complex(e).complex)
    assert euler_poly(table).normalized() == alexander(e).normalized()
