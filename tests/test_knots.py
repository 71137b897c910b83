"""Expression parsing, staircase construction, and class representatives.

The parser tests pin exact error columns; the class tests cross-check tau
and epsilon of cable classes against the cable rule and Alexander
polynomials against the Euler characteristic of the reduced rank table.
"""

from __future__ import annotations

import functools
import math
import random
import re

import pytest

from cfkcalc import (
    Cable,
    ClassRep,
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
    parse,
    reduce,
    serialize,
    staircase,
    staircase_exponents,
    tau,
    tensor,
    torus_alexander,
    unknot_complex,
    validate,
)
from cfkcalc import cfk, knots
from cfkcalc.knots import MAX_ALEXANDER_DEGREE, MAX_DEPTH
from conftest import (
    SEED,
    digit_limit_message,
    random_exponents,
    reference_staircase,
    trefoil_complex,
    unmarked,
)

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
        ("T(2,³)", 5, "unexpected character '³'"),  # a digit to isdigit, not to int()
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


def test_parse_refuses_a_literal_past_the_digit_limit_at_its_column(too_many_digits):
    for text, column in [(f"T(2,{too_many_digits})", 5), (f"C(T(2,3);-{too_many_digits},1)", 11)]:
        message = f"^line 1, column {column}: {digit_limit_message(len(too_many_digits))}$"
        with pytest.raises(ParseError, match=message) as exc:
            parse(text)
        assert exc.value.column == column


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


def _staircase_cross_check_cases():
    yield StaircaseExponents((0,))
    for p in range(2, 13):
        for q in range(p + 1, 13):
            if math.gcd(p, q) == 1:
                yield staircase_exponents(torus_alexander(p, q))
    yield staircase_exponents(torus_alexander(2, 4001))
    yield staircase_exponents(torus_alexander(400, 401))
    for p in range(2, 13):
        yield staircase_exponents(knots._lspace_polynomial(parse(f"C(D;{p},{p + 1})")))
    rng = random.Random(SEED)
    for _ in range(50):
        yield random_exponents(rng, max_steps=rng.randint(1, 8), max_len=rng.randint(1, 6))


def test_staircase_on_index_triples_matches_the_named_build():
    for exps in _staircase_cross_check_cases():
        built, reference = staircase(exps), reference_staircase(exps)
        assert built == reference, exps
        assert serialize(built) == serialize(reference), exps


@pytest.mark.parametrize("p,q", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7)])
def test_torus_staircases_are_knot_like(p, q):
    c = staircase(staircase_exponents(torus_alexander(p, q)))
    assert validate(unmarked(c), knot_class=True).ok


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
    assert class_complex(Unknot()).complex == unknot_complex()


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
    [
        ("T(2,3)", 2, 5),
        ("T(2,3)", 3, 4),
        ("T(2,3)", 2, 15),
        ("T(3,4)", 2, 15),
        ("D", 2, 7),
        ("C(T(2,3);2,3)", 2, 13),
        ("C(D;2,3)", 3, 16),
    ],
)
def test_cable_class_tau_matches_the_cable_rule(inner, p, q):
    companion = class_complex(parse(inner)).complex
    rep = class_complex(Cable(parse(inner), p, q))
    want = cable_tau(tau(companion), epsilon(companion), p, q)
    assert tau(rep.complex) == want


CABLE_COMPANIONS = ["U", "D", "T(2,3)", "T(2,5)", "T(3,4)", "T(2,7)", "T(3,5)", "C(T(2,3);2,5)"]


def test_cable_rule_holds_on_every_accepted_cable():
    # Hom's cable formula (arXiv:1202.1463): tau of C(K;p,q) from tau(K) and
    # epsilon(K), and epsilon(C(K;p,q)) = epsilon(K) whenever epsilon(K) != 0
    accepted, signed, wrong = 0, 0, []
    for inner in CABLE_COMPANIONS:
        expr = parse(inner)
        companion = class_complex(expr).complex
        t, e = tau(companion), epsilon(companion)
        for p in range(2, 5):
            for q in range(-30, 40):
                if math.gcd(p, abs(q)) != 1:
                    continue
                try:
                    c = class_complex(Cable(expr, p, q)).complex
                except UnsupportedExpression:
                    continue
                accepted += 1
                if tau(c) != cable_tau(t, e, p, q):
                    wrong.append(("tau", inner, p, q))
                if e != 0:
                    signed += 1
                    if epsilon(c) != e:
                        wrong.append(("epsilon", inner, p, q))
    assert wrong == []
    assert (accepted, signed) == (383, 317)


def test_unsupported_cables():
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(T23, 2, -3))
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Sum(T23, Unknot()), 2, 3))
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Mirror(T23), 2, 3))
    # q > 0 is required at every level of a nest, not only the outermost
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Cable(Unknot(), 3, -2), 2, 3))
    with pytest.raises(UnsupportedExpression):
        class_complex(Cable(Cable(T23, 2, 3), 2, -1))


# one-level cables (p <= 4, q < 40) of U, D and small torus knots, and
# two-level cable nests on the trefoil
CABLES = [(p, q) for p in range(1, 5) for q in range(1, 40) if math.gcd(p, q) == 1]
LEAF_GRID = [
    f"C({k};{p},{q})"
    for k in ("U", "D", "T(2,3)", "T(2,5)", "T(2,7)", "T(3,4)", "T(3,5)")
    for p, q in CABLES
] + [f"C(C(T(2,3);{p},{q});{r},{s})" for p, q in CABLES if p > 1 for r, s in CABLES if r > 1]


def test_staircases_carry_the_class_degree_that_validate_finds():
    # staircase marks its class in degree 0, so validate trusts it: the whole
    # check of an unmarked copy must pass and record that same degree
    rng = random.Random(SEED)
    cases = [random_exponents(rng, 4, 5) for _ in range(50)]
    for text in [*LEAF_GRID, "T(400,401)", "T(2,4001)"]:
        try:
            cases.append(staircase_exponents(knots._lspace_polynomial(parse(text))))
        except UnsupportedExpression:
            continue
    assert len(cases) == 50 + 774
    for exps in cases:
        built = staircase(exps)
        fresh = unmarked(built)
        assert validate(fresh, knot_class=True).ok, exps
        assert built._class_degree == fresh._class_degree == 0, exps


def test_every_leaf_the_lspace_walk_accepts_has_a_staircase():
    # the walk accepts only L-space knots (Hedden, Hom), whose polynomials
    # are in staircase form, so class_complex builds each one
    built = 0
    for text in LEAF_GRID:
        e = parse(text)
        try:
            knots._lspace_polynomial(e)
        except UnsupportedExpression:
            continue
        class_complex(e)  # NotStaircaseForm, were a leaf without a staircase accepted
        built += 1
    assert built == 772


def test_staircases_come_sorted_and_equal_the_named_build(monkeypatch):
    # x_i is emitted at index k - i, in ascending A with its arrows sorted, so
    # _store permutes nothing; the complex and its offsets are the named build's
    emitted = []

    def indexed(names, alexander, maslov, triples, degree=None):
        triples = list(triples)  # an iterator, read once
        emitted.append((list(zip(alexander, maslov, names)), triples))
        return cfk._indexed(names, alexander, maslov, triples, degree)

    monkeypatch.setattr(knots, "_indexed", indexed)
    checked = 0
    for text in [*LEAF_GRID, "T(400,401)", "T(2,4001)"]:
        try:
            exps = staircase_exponents(knots._lspace_polynomial(parse(text)))
        except UnsupportedExpression:
            continue
        built, reference = staircase(exps), reference_staircase(exps)
        keys, triples = emitted.pop()  # (A, M, name) per emitted generator
        assert [name for _, _, name in keys] == [f"x{i}" for i in reversed(range(len(exps)))]
        assert keys == sorted(keys), text
        assert triples == sorted(triples), text
        assert built == reference and built.offsets == reference.offsets, text
        checked += 1
    assert checked == 774


@pytest.mark.parametrize(
    "text, size",
    [(" + ".join(["T(2,5)"] * 12), "244,140,625"), ("-T(2,200001)", "200,001")],
)
def test_classes_over_the_limit_are_refused_before_any_build(monkeypatch, text, size):
    def built(*args):
        raise AssertionError("a staircase or tensor product was built")

    monkeypatch.setattr(knots, "staircase", built)
    monkeypatch.setattr(knots, "tensor", built)
    with pytest.raises(UnsupportedExpression, match=f"class of {size} generators"):
        class_complex(parse(text))


@pytest.mark.parametrize(
    "text, degree",
    [
        ("T(2,1000001)", "1,000,000"),
        ("T(3,4) + -T(2,1000001)", "1,000,000"),
        ("C(T(2,3);2,500001)", "500,004"),
        ("-C(D;3,250001) + D", "500,006"),
    ],
)
def test_leaf_polynomials_over_the_degree_limit_are_refused_before_any_is_built(
    monkeypatch, text, degree
):
    def built(*args):
        raise AssertionError("an Alexander polynomial was built")

    monkeypatch.setattr(knots, "torus_alexander", built)
    monkeypatch.setattr(knots, "cable_alexander", built)
    message = f"a leaf polynomial of degree {degree} is over the limit of 500,000"
    with pytest.raises(UnsupportedExpression, match=re.escape(message)):
        class_complex(parse(text))


@pytest.mark.parametrize(
    "text, degree",
    [
        ("T(2,1000001)", "1,000,000"),
        ("T(2,250001) + -T(2,250003)", "500,002"),
        ("C(D;3,250003)", "500,004"),
        ("C(U;2,-500003)", "500,002"),
        ("C(T(2,3);2,499999) + U", "500,002"),
    ],
)
def test_alexander_over_the_degree_limit_is_refused_before_any_polynomial(
    monkeypatch, text, degree
):
    def built(*args):
        raise AssertionError("an Alexander polynomial was built")

    monkeypatch.setattr(knots, "torus_alexander", built)
    monkeypatch.setattr(knots, "cable_alexander", built)
    message = f"an Alexander polynomial of degree {degree} is over the limit of 500,000"
    with pytest.raises(UnsupportedExpression, match=re.escape(message)):
        alexander(parse(text))


@pytest.mark.parametrize(
    "text",
    [
        "U",
        "D",
        "T(5,7)",
        "C(D;2,3)",
        "C(U;3,-4)",
        "C(T(2,3);2,-5)",
        "-C(C(D;2,3);3,20) + T(2,5) + -(D + T(3,4))",
    ],
)
def test_alexander_degree_read_off_the_expression_is_the_polynomial_degree(text):
    e = parse(text)
    assert knots._work(e)[0] == alexander(e).degree


@pytest.mark.parametrize(
    "text", ["U", "D", "T(2,3)", "T(5,7)", "C(T(2,3);2,5)", "C(C(D;2,3);3,20)", "C(U;3,2)"]
)
def test_leaf_degree_read_off_the_expression_is_the_polynomial_degree(text):
    e = parse(text)
    assert knots._work(e)[2] == knots._lspace_polynomial(e).degree


def test_leaf_degree_of_a_sum_is_its_largest_leaf_degree():
    assert knots._work(parse("T(2,5) + -(C(D;2,5) + T(3,4))"))[2] == 8 == 2 * 2 + 4


def test_large_torus_leaves_stay_under_the_degree_limit():
    assert knots._work(parse("T(2,199999)"))[2] == 199_998 <= MAX_ALEXANDER_DEGREE
    assert knots._work(parse("T(400,401)"))[2] == 159_600 <= MAX_ALEXANDER_DEGREE
    assert len(class_complex(parse("T(400,401)")).complex) == 799


@pytest.mark.parametrize(
    "text, signs, leaves_only",
    [
        ("T(3,4)", "+", True),
        ("-T(3,4)", "-", True),
        ("C(D;3,4) + -T(3,4)", "+-", True),
        ("--T(2,5) + -(T(2,3) + -T(3,4))", "+-+", False),
    ],
)
def test_a_class_keeps_its_signed_leaves_as_factors(monkeypatch, text, signs, leaves_only):
    # the factors are the leaves the build makes anyway: one staircase per
    # leaf, and one dual per mirrored leaf when mirrors cover leaves only (a
    # mirror over a sum or a mirror dualizes its whole product)
    made = []

    def counting(name):
        real = getattr(knots, name)
        return lambda c: made.append(name) or real(c)

    for name in ("staircase", "dual"):
        monkeypatch.setattr(knots, name, counting(name))
    rep = class_complex(parse(text))
    monkeypatch.undo()
    polys = [knots._lspace_polynomial(e) for e in _leaves(parse(text))]
    leaves = [staircase(staircase_exponents(poly)) for poly in polys]
    signed = [leaf if sign == "+" else dual(leaf) for leaf, sign in zip(leaves, signs, strict=True)]
    assert rep.factors == tuple(signed)
    assert rep.factors == knots._signed_leaves(parse(text))
    product = functools.reduce(tensor, rep.factors)
    assert (len(product), tau(product), epsilon(product)) == (
        len(rep.complex), tau(rep.complex), epsilon(rep.complex)
    )
    if len(signs) == 1:
        assert rep.factors[0] is rep.complex
    if leaves_only:
        assert product == rep.complex
        assert made.count("staircase") == len(signs) and made.count("dual") == signs.count("-")


def _leaves(e):
    if isinstance(e, Mirror):
        return _leaves(e.inner)
    if isinstance(e, Sum):
        return _leaves(e.left) + _leaves(e.right)
    return [e]


def test_a_class_given_as_one_complex_is_its_own_factor():
    c = staircase(staircase_exponents(torus_alexander(3, 4)))
    assert ClassRep(c).factors == (c,) and ClassRep(c, None, (c,)) == ClassRep(c)


def _products_made(monkeypatch, build, e) -> int:
    """Coefficient products build(e) makes, leaving out the binomial products
    inside torus_alexander, which the count read off e does not cover."""
    made = []
    multiply = LaurentPoly.__mul__

    def counted(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        if max(len(dict(a)), len(dict(b))) > 2:
            made.append(len(dict(a)) * len(dict(b)))
        return multiply(a, b)

    with monkeypatch.context() as m:
        m.setattr(LaurentPoly, "__mul__", counted)
        build(e)
    return sum(made)


@pytest.mark.parametrize(
    "text",
    [
        "U + U",
        "T(2,5) + T(2,7)",
        "C(D;2,3)",
        "C(U;3,-4)",
        "C(T(2,3);2,-5)",
        "C(T(2,3) + T(2,5);2,3)",
        "-C(C(D;2,3);3,20) + T(2,5) + -(D + T(3,4))",
    ],
)
def test_products_read_off_the_expression_bound_those_alexander_makes(monkeypatch, text):
    e = parse(text)
    made = _products_made(monkeypatch, alexander, e)
    assert made <= knots._work(e)[1]
    if text == "T(2,5) + T(2,7)":  # dense factors: the bound is exact
        assert made == knots._work(e)[1] == 5 * 7


@pytest.mark.parametrize(
    "text", ["T(5,7)", "C(T(2,3);2,5)", "C(C(D;2,3);3,20)", "T(2,5) + -(C(D;2,5) + T(3,4))"]
)
def test_products_read_off_the_expression_bound_those_the_leaves_make(monkeypatch, text):
    e = parse(text)
    made = _products_made(monkeypatch, knots._staircases, e)
    assert made <= knots._work(e)[3]
    if text == "C(T(2,3);2,5)":  # dense factors: the bound is exact
        assert made == knots._work(e)[3] == 3 * 5


@pytest.mark.parametrize(
    "build, text, message",
    [
        (alexander, "T(2,250001) + T(2,250001)", "polynomial with 62,500,500,001"),
        (alexander, "C(T(2,125001);2,250001)", "polynomial with 31,250,375,001"),
        (class_complex, "C(T(2,125001);2,250001)", "leaf polynomials with 31,250,375,001"),
        (class_complex, "-C(T(2,201);2,200001) + U", "leaf polynomials with 40,200,201"),
    ],
)
def test_polynomial_products_over_the_limit_are_refused_before_any_polynomial(
    monkeypatch, build, text, message
):
    def built(*args):
        raise AssertionError("an Alexander polynomial was built")

    monkeypatch.setattr(knots, "torus_alexander", built)
    monkeypatch.setattr(knots, "cable_alexander", built)
    message = f"building the {message} coefficient products is over the limit of 20,000,000"
    with pytest.raises(UnsupportedExpression, match=re.escape(message)):
        build(parse(text))


def test_the_largest_sum_readme_cites_keeps_its_polynomial():
    # the square of 1 - t + ... + t^4000: coefficient k counts the ways to
    # write k as i + j with 0 <= i, j <= 4000, with sign (-1)^k
    square = LaurentPoly({k: (-1) ** k * (min(k, 8000 - k) + 1) for k in range(8001)})
    assert knots._work(parse("T(2,4001) + T(2,4001)"))[1] == 4001**2 <= knots.MAX_PRODUCTS
    assert alexander(parse("T(2,4001) + T(2,4001)")) == square


def test_each_leaf_polynomial_is_computed_once(monkeypatch):
    calls = []

    def counted(poly):
        calls.append(poly)
        return staircase_exponents(poly)

    monkeypatch.setattr(knots, "staircase_exponents", counted)
    rep = class_complex(parse("T(2,3) + -(T(3,4) + C(D;2,3))"))
    want = [alexander(parse(x)) for x in ("T(2,3)", "T(3,4)", "C(T(2,3);2,3)")]
    assert calls == want
    assert len(rep.complex) == 3 * 5 * len(staircase_exponents(want[2]).exponents)


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
    table = reduce(class_complex(e).complex).grading_table()
    assert euler_poly(table).normalized() == alexander(e).normalized()
