"""Acceptance suite: one test per numbered criterion.

Each test is a single function so the terminal summary prints exactly one
PASS/FAIL line per criterion.  Expected values are frozen from independent
hand computation; randomized properties run on a fixed seed.
"""

from __future__ import annotations

import json
import random

from cfkcalc import (
    Certificate,
    ClassRep,
    DominanceEvidence,
    LaurentPoly,
    Ordering,
    WHITEHEAD_RANK_TABLE,
    a1,
    a2,
    cable_alexander,
    check_whitehead_model,
    class_cmp,
    class_complex,
    direct_sum,
    dominance_evidence,
    dual,
    epsilon,
    epsilon_oracle,
    f_map_trivial,
    g_map_trivial,
    independence_certificate,
    parse,
    recheck_certificate,
    reduce,
    square_complex,
    staircase,
    staircase_a_invariants,
    staircase_exponents,
    tau,
    tensor,
    torus_alexander,
    unknot_complex,
    validate,
)
from conftest import (
    SEED,
    random_staircase,
    randomized_corpus,
    torus_staircase,
    trefoil_complex,
    unmarked,
    with_random_squares,
)

COPRIME_GRID = [
    (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7),
    (4, 5), (4, 7), (5, 6), (5, 7), (6, 7),
]


def cable_staircase(p_inner: int, q_inner: int, p: int, q: int):
    """Staircase of the (p, q) cable with torus companion (p_inner, q_inner)."""
    poly = cable_alexander(torus_alexander(p_inner, q_inner), p, q)
    return staircase(staircase_exponents(poly))


def test_criterion_01_alexander_polynomials():
    assert torus_alexander(3, 4) == LaurentPoly.parse("t^6 - t^5 + t^3 - t + 1")
    assert torus_alexander(4, 5) == LaurentPoly.parse(
        "t^12 - t^11 + t^8 - t^6 + t^4 - t + 1"
    )
    assert cable_alexander(torus_alexander(2, 3), 2, 3) == LaurentPoly.parse(
        "t^6 - t^5 + t^3 - t + 1"
    )


def test_criterion_02_staircase_exponent_prefixes():
    # T(p, p+1) staircases
    fam1 = {
        3: (6, 5, 3, 1),
        4: (12, 11, 8, 6),
        5: (20, 19, 15, 13),
        6: (30, 29, 24, 22),
    }
    for p, prefix in fam1.items():
        exps = staircase_exponents(torus_alexander(p, p + 1))
        assert tuple(exps[:4]) == prefix
    # (p, p+1) cables of the trefoil
    fam2 = {
        2: (6, 5, 3),
        3: (12, 11, 8),
        4: (20, 19, 15),
        5: (30, 29, 24),
    }
    for p, prefix in fam2.items():
        poly = cable_alexander(torus_alexander(2, 3), p, p + 1)
        assert tuple(staircase_exponents(poly)[:3]) == prefix
    # (2, 2m+1) cables of T(p, p+1)
    fam3 = {
        (2, 5): (14, 13, 10),
        (3, 7): (26, 25, 20),
        (3, 11): (34, 33, 28),
    }
    for (p, m), prefix in fam3.items():
        poly = cable_alexander(torus_alexander(p, p + 1), 2, 2 * m + 1)
        assert tuple(staircase_exponents(poly)[:3]) == prefix


def test_criterion_03_tau_on_torus_staircases():
    for p, q in COPRIME_GRID:
        assert tau(torus_staircase(p, q)) == (p - 1) * (q - 1) // 2


def test_criterion_04_epsilon_signs_and_oracle():
    staircases = [torus_staircase(p, q) for p, q in COPRIME_GRID]
    staircases += [
        cable_staircase(2, 3, p, p + 1) for p in (2, 3, 4)
    ]
    staircases += [cable_staircase(p, p + 1, 2, 15) for p in (2, 3)]
    touched = []
    for c in staircases:
        assert epsilon(c) == 1
        assert epsilon(dual(c)) == -1
        touched += [c, dual(c)]
    u = unknot_complex()
    assert epsilon(u) == 0
    touched.append(u)
    for c in [
        trefoil_complex(),
        torus_staircase(3, 4),
        torus_staircase(4, 5),
        cable_staircase(2, 3, 2, 3),
    ]:
        difference = reduce(tensor(c, dual(c)))
        assert epsilon(difference) == 0
        touched.append(difference)
    for c in touched:
        assert epsilon_oracle(c) == epsilon(c)


def test_criterion_05_a_invariants_by_formula_and_search():
    def both_routes(c, exps):
        formula = staircase_a_invariants(exps)
        search = (a1(c), a2(c))
        assert formula == search
        return search

    for p in (2, 3, 4, 5):
        exps = staircase_exponents(torus_alexander(p, p + 1))
        assert both_routes(staircase(exps), exps) == (1, p - 1)
    for p in (2, 3, 4):
        exps = staircase_exponents(cable_alexander(torus_alexander(2, 3), p, p + 1))
        assert both_routes(staircase(exps), exps) == (1, p)
    for p, m in [(2, 5), (3, 7)]:
        exps = staircase_exponents(
            cable_alexander(torus_alexander(p, p + 1), 2, 2 * m + 1)
        )
        assert both_routes(staircase(exps), exps) == (1, 2 * p - 1)


def test_criterion_06_sum_invariants():
    for p in (2, 3, 4):
        difference = reduce(
            tensor(cable_staircase(2, 3, p, p + 1), dual(torus_staircase(p, p + 1)))
        )
        assert tau(difference) == p
        assert epsilon(difference) == 1
        assert a1(difference) == 1
        assert a2(difference) == p
        # same class through the expression pipeline
        rep = class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})"))
        assert (a1(rep.complex), a2(rep.complex)) == (1, p)


def test_criterion_07_sum_family_certificate():
    reps = [
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})"))
        for p in (2, 3, 4)
    ]
    cert = independence_certificate(reps)
    assert [(e.a1, e.a2) for e in cert.entries] == [(1, 4), (1, 3), (1, 2)]
    assert [e.expression for e in cert.entries] == [
        "C(D;4,5) + -T(4,5)",
        "C(D;3,4) + -T(3,4)",
        "C(D;2,3) + -T(2,3)",
    ]
    assert [l.criterion for l in cert.links] == ["larger-a2", "larger-a2"]
    assert recheck_certificate(Certificate.from_json(cert.to_json())) is True


def test_criterion_08_torus_and_cable_certificates():
    torus_reps = [class_complex(parse(f"T({i},{i + 1})")) for i in (2, 3, 4)]
    cert = independence_certificate(torus_reps)
    assert [(e.a1, e.a2) for e in cert.entries] == [(1, 3), (1, 2), (1, 1)]
    assert recheck_certificate(Certificate.from_json(cert.to_json())) is True

    cable_reps = [
        class_complex(parse(f"C(T({i},{i + 1});2,23)")) for i in (2, 3, 4)
    ]
    cable_cert = independence_certificate(cable_reps)
    assert [(e.a1, e.a2) for e in cable_cert.entries] == [(1, 7), (1, 5), (1, 3)]
    assert [e.expression for e in cable_cert.entries] == [
        "C(T(4,5);2,23)",
        "C(T(3,4);2,23)",
        "C(T(2,3);2,23)",
    ]
    assert recheck_certificate(Certificate.from_json(cable_cert.to_json())) is True


def test_criterion_09_dominance_evidence():
    result = dominance_evidence(
        ClassRep(torus_staircase(3, 4)), ClassRep(trefoil_complex()), max_multiple=3
    )
    assert result == DominanceEvidence(True, 3)


def test_criterion_10_randomized_properties():
    rng = random.Random(SEED)
    cases = randomized_corpus(rng)
    genus_one = cases[75:90]
    assert len(cases) >= 100

    for c in cases:
        assert validate(unmarked(c)).ok
        assert validate(unmarked(dual(c))).ok
        assert validate(unmarked(reduce(c))).ok
        assert dual(dual(c)) == c
        assert reduce(reduce(c)) == reduce(c)

        t, e = tau(c), epsilon(c)
        assert tau(reduce(c)) == t
        assert epsilon(reduce(c)) == e
        if e == 0:
            assert t == 0
        assert epsilon(dual(c)) == -e
        assert epsilon_oracle(c) == e
        assert not (f_map_trivial(c, t) and g_map_trivial(c, t))
        assert f_map_trivial(c, t + 1) and not f_map_trivial(c, t - 1)
        assert g_map_trivial(c, t - 1) and not g_map_trivial(c, t + 1)

    # invariants survive reduction and extra square summands
    for c in cases[:20]:
        padded = with_random_squares(rng, c, 1, max_alex=1)
        assert tau(padded) == tau(c)
        assert epsilon(padded) == epsilon(c)
        if epsilon(c) == 1:
            assert a1(padded) == a1(c) == a1(reduce(c))
            assert a2(padded) == a2(c) == a2(reduce(c))

    # tau adds over tensor products of staircases
    for _ in range(10):
        s1 = random_staircase(rng, max_steps=2, max_len=2)
        s2 = random_staircase(rng, max_steps=2, max_len=2)
        assert tau(reduce(tensor(s1, s2))) == tau(s1) + tau(s2)

    # a1/a2 unchanged by tensoring with a difference class of the J # -J form
    j = trefoil_complex()
    null = reduce(tensor(j, dual(j)))
    for c in [trefoil_complex(), torus_staircase(3, 4)]:
        shifted = reduce(tensor(c, null))
        assert (a1(shifted), a2(shifted)) == (a1(c), a2(c))

    # order transitivity and translation invariance on sampled triples
    sign = {Ordering.GT: 1, Ordering.EQ: 0, Ordering.LT: -1}
    pool = [ClassRep(random_staircase(rng, max_steps=2, max_len=2)) for _ in range(6)]
    pool += [ClassRep(dual(r.complex)) for r in pool[:3]]
    shift = trefoil_complex()
    for _ in range(12):
        x, y, z = rng.sample(pool, 3)
        xy, yz, xz = sign[class_cmp(x, y)], sign[class_cmp(y, z)], sign[class_cmp(x, z)]
        if xy == 0:
            assert xz == yz
        elif yz == 0 or yz == xy:
            assert xz == xy
        shifted_x = ClassRep(reduce(tensor(x.complex, shift)))
        shifted_y = ClassRep(reduce(tensor(y.complex, shift)))
        assert sign[class_cmp(shifted_x, shifted_y)] == xy

    # genus-one complexes with epsilon +1 pin both a-invariants to 1
    for c in genus_one:
        assert max(g.alexander for g in c.generators) == 1
        if epsilon(c) == 1:
            assert a1(c) != 1 or (a1(c) == 1 and a2(c) == 1)
            assert (a1(c), a2(c)) == (1, 1)


def test_criterion_11_model_check():
    rejected = check_whitehead_model(trefoil_complex())
    assert not rejected.table_ok
    assert not rejected.passed

    candidate = direct_sum(trefoil_complex(), square_complex(1, 1, 0, -1, prefix="p"))
    candidate = direct_sum(candidate, square_complex(1, 1, 0, -2, prefix="q"))
    candidate = direct_sum(candidate, square_complex(1, 1, 0, -2, prefix="r"))
    accepted = check_whitehead_model(candidate)
    assert accepted.table_ok
    assert accepted.local_invariants_ok
    assert accepted.class_matches_trefoil
    assert accepted.passed
    assert accepted.table == WHITEHEAD_RANK_TABLE
    assert WHITEHEAD_RANK_TABLE == {
        (1, 0): 2,
        (1, -1): 2,
        (0, -1): 3,
        (0, -2): 4,
        (-1, -2): 2,
        (-1, -3): 2,
    }
    assert json.loads(accepted.to_json())["passed"] is True
