"""Frozen values and cross-checks for tau, epsilon, a1, a2 and the model
screen.

Every named value below was computed by hand from the defining complexes
before being frozen here; the region search and the staircase closed forms
are checked against each other on a grid of torus staircases.
"""

from __future__ import annotations

import functools
import gc
import json
import weakref

import pytest

from cfkcalc import (
    Arrow,
    CfkComplex,
    Column0,
    EpsilonNotOne,
    FullHook,
    GHook,
    Generator,
    HookWithTail,
    RankNotOne,
    StaircaseExponents,
    TooShort,
    TruncatedHook,
    WHITEHEAD_RANK_TABLE,
    a1,
    a2,
    check_whitehead_model,
    class_complex,
    direct_sum,
    dual,
    epsilon,
    epsilon_oracle,
    f_map_trivial,
    g_map_trivial,
    hfk_table,
    homology_data,
    parse,
    reduce,
    region_complex,
    square_complex,
    staircase_a_invariants,
    staircase_exponents,
    tau,
    tensor,
    torus_alexander,
    unknot_complex,
    vertical_class,
)
from cfkcalc import invariants
from conftest import (
    figure_eight_like,
    random_basis_change,
    random_staircase,
    torus_staircase,
    trefoil_complex,
    with_random_squares,
)


def trefoil_connect_inverse() -> CfkComplex:
    c = trefoil_complex()
    return reduce(tensor(c, dual(c)))


# ---------------------------------------------------------------------------
# frozen invariant values


def test_trefoil_invariants():
    c = trefoil_complex()
    assert tau(c) == 1
    assert epsilon(c) == 1
    assert a1(c) == 1
    assert a2(c) == 1


def test_mirrored_trefoil_invariants():
    c = dual(trefoil_complex())
    assert tau(c) == -1
    assert epsilon(c) == -1


def test_torus_3_4_invariants():
    c = torus_staircase(3, 4)
    assert tau(c) == 3
    assert epsilon(c) == 1
    assert a1(c) == 1
    assert a2(c) == 2


def test_torus_4_5_invariants():
    c = torus_staircase(4, 5)
    assert tau(c) == 6
    assert epsilon(c) == 1
    assert a1(c) == 1
    assert a2(c) == 3


def test_unknot_invariants():
    c = unknot_complex()
    assert tau(c) == 0
    assert epsilon(c) == 0


def test_genus_one_model_with_trivial_invariants():
    c = figure_eight_like()
    assert tau(c) == 0
    assert epsilon(c) == 0


def test_connect_sum_with_inverse_has_trivial_invariants():
    c = trefoil_connect_inverse()
    assert tau(c) == 0
    assert epsilon(c) == 0


def test_tau_adds_under_tensor_for_staircases():
    c = trefoil_complex()
    double = reduce(tensor(c, c))
    assert tau(double) == 2
    assert epsilon(double) == 1


def test_square_summands_do_not_move_invariants():
    base = torus_staircase(3, 4)
    padded = direct_sum(base, square_complex(2, 1, -1, 0, prefix="sq"))
    assert tau(padded) == tau(base)
    assert epsilon(padded) == epsilon(base)
    assert a1(padded) == a1(base)
    assert a2(padded) == a2(base)


# ---------------------------------------------------------------------------
# one analysis shared by the four invariants


def test_invariants_in_turn_build_each_region_once(monkeypatch):
    c = torus_staircase(4, 5)
    tau(unknot_complex())  # make sure no analysis of c is left over
    built = []
    real = invariants.region_complex

    def counting(c, region):
        built.append(region)
        return real(c, region)

    monkeypatch.setattr(invariants, "region_complex", counting)
    for _ in range(2):
        assert (tau(c), epsilon(c), a1(c), a2(c)) == (6, 1, 1, 3)
    # after the bare-ray check, a1 = 1 is read off the first width region;
    # a2 = 3 off the tail regions of depth 1, 2 and 4
    assert built == [
        Column0(),
        FullHook(6),
        GHook(6),
        TruncatedHook(6, 0),
        TruncatedHook(6, 1),
        HookWithTail(6, 1, 1),
        HookWithTail(6, 1, 2),
        HookWithTail(6, 1, 4),
    ]


def test_analysis_of_an_earlier_complex_is_released():
    c = torus_staircase(3, 4)
    assert a2(c) == 2
    ref = weakref.ref(invariants._analysis(c))
    assert epsilon(trefoil_complex()) == 1
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# vertical class and the F/G threshold behavior


def test_vertical_class_of_staircases_is_the_top_generator():
    assert vertical_class(trefoil_complex()) == ("x0",)
    assert vertical_class(torus_staircase(4, 5)) == ("x0",)


def test_vertical_class_of_mirrored_trefoil():
    assert vertical_class(dual(trefoil_complex())) == ("x0*",)


def test_vertical_class_is_supported_at_or_below_tau():
    for c in [trefoil_complex(), torus_staircase(3, 5), trefoil_connect_inverse()]:
        t = tau(c)
        assert all(c.alexander_of(name) <= t for name in vertical_class(c))


def test_f_map_threshold_on_trefoil():
    # the class survives every full hook below tau and dies from tau on
    c = trefoil_complex()
    for s in range(-2, 4):
        assert f_map_trivial(c, s) == (s >= 1)


def test_g_map_not_trivial_at_tau_on_trefoil():
    assert not g_map_trivial(trefoil_complex(), 1)


def test_f_and_g_on_mirrored_trefoil_at_tau():
    c = dual(trefoil_complex())
    assert not f_map_trivial(c, -1)
    assert g_map_trivial(c, -1)


def test_f_and_g_disagree_with_each_other_on_epsilon_zero_input():
    c = unknot_complex()
    assert not f_map_trivial(c, 0)
    assert not g_map_trivial(c, 0)


def reference_g_map_trivial(c: CfkComplex, s: int) -> bool:
    """The G map by per-element projection: walk each G-hook cycle, keep the
    elements with u_power == 0 and rebuild the column chain by name."""
    column = region_complex(c, Column0())
    boundaries = homology_data(column).boundary_space
    gh = region_complex(c, GHook(s))
    for cyc in homology_data(gh).cycle_basis:
        kept = [el for k, el in enumerate(gh.elements) if cyc >> k & 1 and el.u_power == 0]
        mask = column.chain([(el.gen, 0) for el in kept])
        assert column.differential(mask) == 0
        if mask not in boundaries:
            return False
    return True


def test_g_map_matches_the_per_element_projection(rng):
    corpus = [with_random_squares(rng, random_staircase(rng), rng.randint(0, 2)) for _ in range(8)]
    corpus += [with_random_squares(rng, dual(random_staircase(rng)), rng.randint(0, 2)) for _ in range(8)]
    for base in [trefoil_complex(), dual(trefoil_complex()), unknot_complex(), figure_eight_like()]:
        corpus.append(random_basis_change(rng, with_random_squares(rng, base, 2)))
    for _ in range(6):
        left = random_staircase(rng, max_steps=2, max_len=2)
        right = random_staircase(rng, max_steps=2, max_len=2)
        corpus.append(reduce(tensor(left, dual(right))))
    for c in corpus:
        alex = [g.alexander for g in c.generators]
        for s in range(min(alex) - 1, max(alex) + 2):
            assert g_map_trivial(c, s) == reference_g_map_trivial(c, s), (c, s)


# ---------------------------------------------------------------------------
# the second epsilon route agrees with the first


EPSILON_CATALOG = [
    trefoil_complex(),
    dual(trefoil_complex()),
    torus_staircase(2, 5),
    torus_staircase(3, 4),
    dual(torus_staircase(3, 4)),
    torus_staircase(4, 5),
    unknot_complex(),
    figure_eight_like(),
]


@pytest.mark.parametrize("index", range(len(EPSILON_CATALOG)))
def test_epsilon_oracle_agrees_on_catalog(index):
    c = EPSILON_CATALOG[index]
    assert epsilon_oracle(c) == epsilon(c)


def test_epsilon_oracle_agrees_after_padding_and_basis_change(rng):
    for base in [trefoil_complex(), dual(torus_staircase(2, 5)), unknot_complex()]:
        c = with_random_squares(rng, base, 2)
        c = random_basis_change(rng, c)
        assert epsilon(c) == epsilon(base)
        assert epsilon_oracle(c) == epsilon(base)


def test_epsilon_oracle_on_connect_sum_with_inverse():
    assert epsilon_oracle(trefoil_connect_inverse()) == 0


# ---------------------------------------------------------------------------
# region search against staircase closed forms


# a2 = 8, 9 and 16 on (9, 10), (10, 11) and (17, 18): on a region size of the
# doubling search, one past it, and on the next size
STAIRCASE_GRID = [
    (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (9, 10), (10, 11), (17, 18),
]


@pytest.mark.parametrize("p,q", STAIRCASE_GRID)
def test_hook_search_matches_staircase_closed_forms(p, q):
    exps = staircase_exponents(torus_alexander(p, q))
    c = torus_staircase(p, q)
    want_a1, want_a2 = staircase_a_invariants(exps)
    assert a1(c) == want_a1
    assert a2(c) == want_a2


def test_region_sizes_double_up_to_the_bound():
    assert list(invariants._region_sizes(0)) == [0]
    assert list(invariants._region_sizes(1)) == [1]
    assert list(invariants._region_sizes(5)) == [1, 2, 4, 5]
    assert list(invariants._region_sizes(8)) == [1, 2, 4, 8]


def class_dies_in(c: CfkComplex, region) -> bool:
    """Whether the class, with j < tau dropped, is a boundary in region."""
    t = tau(c)
    rc = region_complex(c, region)
    names = [x for x in vertical_class(c) if c.alexander_of(x) >= t]
    return homology_data(rc).is_boundary(rc.chain([(x, 0) for x in names]))


def search_span(c: CfkComplex) -> range:
    alex = [g.alexander for g in c.generators]
    return range(1, max(alex) - min(alex) + 1)


def reference_hook_search(c: CfkComplex, region_at, dies: bool) -> int | None:
    """The per-step search: least s from 1 up to the Alexander span at which
    the class is a boundary in region_at(s) exactly when dies is True, with
    one region build and one elimination per s."""
    for s in search_span(c):
        if class_dies_in(c, region_at(s)) == dies:
            return s
    return None


def hook_search_corpus(rng) -> list[CfkComplex]:
    corpus = [with_random_squares(rng, random_staircase(rng), rng.randint(0, 2)) for _ in range(10)]
    for base in [trefoil_complex(), torus_staircase(3, 4), random_staircase(rng)]:
        corpus.append(random_basis_change(rng, with_random_squares(rng, base, 2)))
    for _ in range(8):
        left = random_staircase(rng, max_steps=2, max_len=3)
        right = random_staircase(rng, max_steps=2, max_len=2)
        corpus.append(reduce(tensor(left, right)))
        corpus.append(reduce(tensor(left, dual(right))))
    corpus += [
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex for p in range(2, 7)
    ]
    return [c for c in corpus if epsilon(c) == 1]


def test_a_invariants_match_the_per_step_search(rng):
    corpus = hook_search_corpus(rng)
    assert len(corpus) >= 20
    for c in corpus:
        t = tau(c)
        width = reference_hook_search(c, functools.partial(TruncatedHook, t), dies=True)
        tail = functools.partial(HookWithTail, t, width)
        assert (a1(c), a2(c)) == (width, reference_hook_search(c, tail, dies=False)), c
        # the doubling search relies on both answers being thresholds: once
        # dead at a width, dead at every wider one; once alive at a depth,
        # alive at every deeper one
        dead = [class_dies_in(c, TruncatedHook(t, s)) for s in search_span(c)]
        alive = [not class_dies_in(c, tail(s)) for s in search_span(c)]
        assert dead == sorted(dead) and alive == sorted(alive), c


def test_staircase_closed_forms_on_known_exponents():
    assert staircase_a_invariants(StaircaseExponents((2, 1, 0))) == (1, 1)
    assert staircase_a_invariants(StaircaseExponents((6, 5, 3, 1, 0))) == (1, 2)
    assert staircase_a_invariants(StaircaseExponents((12, 11, 8, 6, 4, 1, 0))) == (1, 3)


def test_staircase_closed_forms_reject_the_one_term_staircase():
    with pytest.raises(TooShort):
        staircase_a_invariants(StaircaseExponents((0,)))


# ---------------------------------------------------------------------------
# error paths


def test_tau_requires_rank_one_column_homology():
    c = CfkComplex([Generator("a", 0, 0), Generator("b", 0, 0)], [])
    with pytest.raises(RankNotOne):
        tau(c)


def test_a1_requires_epsilon_plus_one():
    with pytest.raises(EpsilonNotOne):
        a1(unknot_complex())
    with pytest.raises(EpsilonNotOne):
        a1(dual(trefoil_complex()))


def test_a2_requires_epsilon_plus_one():
    with pytest.raises(EpsilonNotOne):
        a2(dual(torus_staircase(3, 4)))


# ---------------------------------------------------------------------------
# rank tables


def test_hfk_table_of_trefoil():
    assert hfk_table(trefoil_complex()) == {(1, 0): 1, (0, -1): 1, (-1, -2): 1}


def test_hfk_table_ignores_cancellable_pairs():
    c = trefoil_complex()
    assert hfk_table(tensor(c, unknot_complex("pt"))) == hfk_table(c)


# ---------------------------------------------------------------------------
# doubled trefoil model screen


def synthetic_double() -> CfkComplex:
    out = direct_sum(trefoil_complex(), square_complex(1, 1, 0, -1, prefix="p"))
    out = direct_sum(out, square_complex(1, 1, 0, -2, prefix="q"))
    return direct_sum(out, square_complex(1, 1, 0, -2, prefix="r"))


def test_model_screen_accepts_the_synthetic_candidate():
    report = check_whitehead_model(synthetic_double())
    assert report.table_ok
    assert report.local_invariants_ok
    assert report.class_matches_trefoil
    assert report.passed
    assert report.table == WHITEHEAD_RANK_TABLE


def test_model_screen_rejects_the_bare_trefoil_on_the_rank_table():
    report = check_whitehead_model(trefoil_complex())
    assert not report.table_ok
    assert report.local_invariants_ok
    assert report.class_matches_trefoil
    assert not report.passed


def test_model_screen_rejects_the_unknot_everywhere():
    report = check_whitehead_model(unknot_complex())
    assert not report.table_ok
    assert not report.local_invariants_ok
    assert not report.class_matches_trefoil
    assert not report.passed


def test_model_screen_never_raises_on_rank_two_input():
    c = CfkComplex([Generator("a", 0, 0), Generator("b", 0, 0)], [])
    report = check_whitehead_model(c)
    assert not report.local_invariants_ok
    assert not report.passed


def test_model_report_rendering():
    report = check_whitehead_model(synthetic_double())
    text = str(report)
    assert "rank table: ok" in text
    assert "model check: PASS" in text
    failing = check_whitehead_model(trefoil_complex())
    assert "rank table: FAIL" in str(failing)
    assert "model check: FAIL" in str(failing)


def test_model_report_json():
    payload = json.loads(check_whitehead_model(synthetic_double()).to_json())
    assert payload["passed"] is True
    assert payload["table_ok"] is True
    assert payload["table"]["0,-2"] == 4
    assert len(payload["table"]) == len(WHITEHEAD_RANK_TABLE)
