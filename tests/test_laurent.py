"""Laurent polynomial arithmetic and staircase exponent extraction."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from cfkcalc import (
    LaurentPoly,
    NotCoprime,
    NotStaircaseForm,
    ParseError,
    StaircaseExponents,
    cable_alexander,
    class_complex,
    knots,
    laurent,
    parse,
    staircase_exponents,
    torus_alexander,
)

from conftest import digit_limit_message

coeff = st.integers(min_value=-4, max_value=4)
exponent = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(exponent, coeff, max_size=6).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def P(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text)


def test_parse_and_str_basics():
    assert str(P("t^2 - t + 1")) == "t^2 - t + 1"
    assert str(P("1")) == "1"
    assert str(P("0")) == "0"
    assert str(P("-3t^-2 + t")) == "t - 3t^-2"
    assert str(P("t + t")) == "2t"


def test_parse_rejects_garbage():
    for text in ["", "t^", "t**2", "2x", "t^1.5", "+"]:
        with pytest.raises(ParseError):
            P(text)


def test_parse_refuses_a_literal_past_the_digit_limit_at_its_column(too_many_digits):
    message = digit_limit_message(len(too_many_digits))
    for text, column in [(f"t + {too_many_digits}t^2", 5), (f"1 - t^-{too_many_digits}", 7)]:
        with pytest.raises(ParseError, match=f"^column {column}: {message}$") as exc:
            P(text)
        assert exc.value.column == column


@settings(deadline=None, max_examples=60)
@given(polys)
def test_str_parse_round_trip(p):
    assert P(str(p)) == p


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_ring_identities(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()
    assert a * LaurentPoly.one() == a


def test_equal_polynomials_hash_equal():
    p = P("t^2 - 2t + 1")
    same = [LaurentPoly({5: 0, 0: 1, 1: -2, 2: 1}), P("t - 1") * P("t - 1"), p + p - p]
    assert {hash(q) for q in same} == {hash(p)} and len({p, *same}) == 1


def test_normalized_moves_valuation_to_zero():
    p = P("t^3 - t^5")
    n = p.normalized()
    assert str(n) == "t^2 - 1"
    assert n.normalized() == n


@settings(deadline=None, max_examples=60)
@given(nonzero_polys)
def test_mirror_is_involutive_and_normalization_idempotent(p):
    assert p.mirror().mirror() == p
    assert p.normalized().normalized() == p.normalized()


def test_substitute_power():
    assert P("t^2 - t + 1").substitute_power(3) == P("t^6 - t^3 + 1")


# ---------------------------------------------------------------------------
# knot polynomials


def test_torus_alexander_trefoil_and_figure_values():
    assert torus_alexander(2, 3) == P("t^2 - t + 1")
    assert torus_alexander(3, 4) == P("t^6 - t^5 + t^3 - t + 1")
    assert torus_alexander(4, 5) == P("t^12 - t^11 + t^8 - t^6 + t^4 - t + 1")


def test_torus_alexander_unknot_cases():
    assert torus_alexander(1, 5) == LaurentPoly.one()
    assert torus_alexander(7, 1) == LaurentPoly.one()
    assert torus_alexander(0, 1) == torus_alexander(1, -8) == LaurentPoly.one()


def test_torus_alexander_symmetry_and_coprimality():
    for p in range(2, 6):
        for q in range(p + 1, 8):
            if __import__("math").gcd(p, q) != 1:
                with pytest.raises(NotCoprime):
                    torus_alexander(p, q)
            else:
                assert torus_alexander(p, q) == torus_alexander(q, p)


def _torus_identity_holds(p: int, q: int) -> bool:
    """The oracle, by multiplication alone: Delta (t^p - 1)(t^q - 1) equals
    (t^pq - 1)(t - 1), which pins Delta, its shift and its sign."""
    def less_one(e: int) -> LaurentPoly:
        return LaurentPoly({e: 1, 0: -1})

    return torus_alexander(p, q) * less_one(p) * less_one(q) == less_one(p * q) * less_one(1)


def test_torus_alexander_satisfies_the_product_identity_on_a_grid():
    for p in range(1, 30):
        for q in range(1, 60):
            if math.gcd(p, q) == 1:
                assert _torus_identity_holds(p, q), (p, q)
                assert torus_alexander(p, q) == torus_alexander(q, p) == torus_alexander(p, -q)


def test_torus_alexander_satisfies_the_product_identity_on_every_class_leaf(monkeypatch):
    # the benchmark's T(2,q) and T(p,p+1) bands, and every torus factor the
    # class path makes on the criterion 10 families C(D;p,p+1) - T(p,p+1)
    leaves = {(2, q) for q in range(3995, 4006, 2)} | {(p, p + 1) for p in range(399, 402)}
    made = set()

    def recording(p: int, q: int) -> LaurentPoly:
        made.add((p, q))
        return torus_alexander(p, q)

    monkeypatch.setattr(laurent, "torus_alexander", recording)
    monkeypatch.setattr(knots, "torus_alexander", recording)
    for p in range(2, 7):
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})"))
    assert made == {(2, 3)} | {(p, p + 1) for p in range(2, 7)}
    for p, q in sorted(leaves | made):
        assert _torus_identity_holds(p, q), (p, q)


def test_torus_alexander_refuses_a_negative_p_and_a_shared_factor_of_q():
    with pytest.raises(ValueError):
        torus_alexander(-2, 3)
    with pytest.raises(NotCoprime):
        torus_alexander(6, -9)


def test_cable_alexander_trefoil_cable():
    delta = torus_alexander(2, 3)
    assert cable_alexander(delta, 2, 3) == P("t^6 - t^5 + t^3 - t + 1")


def test_cable_alexander_of_unit_gives_torus():
    for p, q in [(2, 3), (3, 4), (2, 7)]:
        assert cable_alexander(LaurentPoly.one(), p, q) == torus_alexander(p, q)


def test_cable_alexander_negative_q_uses_magnitude():
    assert cable_alexander(LaurentPoly.one(), 2, -3) == torus_alexander(2, 3)


def test_cable_alexander_rejects_common_factor():
    with pytest.raises(NotCoprime):
        cable_alexander(LaurentPoly.one(), 2, 4)


# ---------------------------------------------------------------------------
# staircase exponents


def test_staircase_exponents_basic():
    exps = staircase_exponents(P("t^2 - t + 1"))
    assert exps.exponents == (2, 1, 0)
    assert exps.genus == 1
    assert exps.steps == 1


def test_staircase_exponents_of_one():
    exps = staircase_exponents(LaurentPoly.one())
    assert exps.exponents == (0,)
    assert exps.steps == 0


def test_staircase_exponents_rejects_bad_shapes():
    # the signs are read before the shape, and the first bad coefficient is named
    for text, message in [
        ("0", "zero polynomial"),
        ("t^2 + t + 1", "coefficient 1 at t^1, expected -1"),
        ("t^2 - 2t + 1", "coefficient -2 at t^1, expected -1"),
        ("-t^2 + t - 1", "coefficient -1 at t^2, expected 1"),
        ("t^2 - t + 2", "coefficient 2 at t^0, expected 1"),
        ("t^4 - t^3 + 3t^2 + 2t + 1", "coefficient 3 at t^2, expected 1"),
        ("t^2 + 2t + 3", "coefficient 2 at t^1, expected -1"),
        ("t^2 + t", "coefficient 1 at t^1, expected -1"),
        ("t^2 - t", "even number of terms"),
        ("t - 1 + t^-1", "negative exponent"),
        ("t^3 - t^2 + t", "lowest exponent is not 0"),
        ("t^3 - t + 1", "exponents not symmetric"),
        ("t^6 - t^5 + t^4 - t + 1", "exponents not symmetric"),
    ]:
        with pytest.raises(NotStaircaseForm, match=f"^{re.escape(message)}$"):
            staircase_exponents(P(text))


def test_staircase_exponents_validation():
    # each message, and which wins when an input has more than one fault
    for exps, message in [
        ((), "even number of terms"),
        ((2, 1), "even number of terms"),
        ((-1,), "negative exponent"),
        ((2, 2, -1), "negative exponent"),
        ((2, 1, 1), "exponents not strictly decreasing"),
        ((0, 1, 2), "exponents not strictly decreasing"),
        ((5, 3, 3, 1, 1), "exponents not strictly decreasing"),
        ((3, 2, 1), "lowest exponent is not 0"),
        ((4, 1, 0), "exponents not symmetric"),
        ((6, 5, 4, 1, 0), "exponents not symmetric"),
        ((6, 5, 3, 2, 0), "exponents not symmetric"),
    ]:
        with pytest.raises(NotStaircaseForm, match=f"^{re.escape(message)}$"):
            StaircaseExponents(exps)
    for exps in [(0,), (2, 1, 0), (6, 5, 3, 1, 0), (12, 11, 8, 6, 4, 1, 0)]:
        assert StaircaseExponents(list(exps)).exponents == exps


def test_torus_exponent_prefixes():
    for p in range(3, 7):
        exps = staircase_exponents(torus_alexander(p, p + 1)).exponents
        assert exps[:4] == (
            p * p - p,
            p * p - p - 1,
            p * p - 2 * p,
            p * p - 2 * p - 2,
        )


def test_trefoil_cable_exponent_prefixes():
    delta = torus_alexander(2, 3)
    for p in range(2, 6):
        exps = staircase_exponents(cable_alexander(delta, p, p + 1)).exponents
        assert exps[:3] == (p * p + p, p * p + p - 1, p * p - 1)


def test_two_cable_exponent_prefixes():
    for p, m in [(2, 5), (3, 7), (3, 11)]:
        delta = torus_alexander(p, p + 1)
        exps = staircase_exponents(cable_alexander(delta, 2, 2 * m + 1)).exponents
        base = 2 * p * p - 2 * p + 2 * m
        assert exps[:3] == (base, base - 1, base - 2 * p)
