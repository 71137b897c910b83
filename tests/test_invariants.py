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
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from cfkcalc import (
    Arrow,
    Certificate,
    CfkComplex,
    ClassRep,
    Column0,
    EpsilonNotOne,
    FullHook,
    GHook,
    Generator,
    HookWithTail,
    InconsistentInput,
    Ordering,
    RankNotOne,
    Row,
    StaircaseExponents,
    TooShort,
    TruncatedHook,
    WHITEHEAD_RANK_TABLE,
    a1,
    a2,
    check_whitehead_model,
    class_cmp,
    class_complex,
    direct_sum,
    deserialize,
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
    serialize,
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
from cfkcalc import cfk, invariants, regions
from cfkcalc.cli import main
from cfkcalc.gf2 import Gf2Space, kernel_and_image
from conftest import (
    SEED,
    figure_eight_like,
    random_basis_change,
    random_staircase,
    randomized_corpus,
    reference_analysis,
    reference_homology_ranks,
    reference_region_complex,
    shift_maslov,
    signed_leaf_sums,
    tau_additivity_failures,
    torus_staircase,
    trefoil_complex,
    unmarked,
    validate_breakers,
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


def test_tau_of_a_sum_is_the_signed_sum_of_its_leaves_genera():
    assert tau_additivity_failures(signed_leaf_sums(random.Random(SEED), 60, 4)) == []


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

    def counting(c, region, *rest):
        built.append((region, *rest))
        return real(c, region, *rest)

    monkeypatch.setattr(invariants, "region_complex", counting)
    for _ in range(2):
        assert (tau(c), epsilon(c), a1(c), a2(c)) == (6, 1, 1, 3)
    # the column's per-degree ranks find the class's degree 0 without a
    # build, so every build is the degree-0 slice.  After the bare-ray
    # check, a1 = 1 is read off the first width region; a2 = 3 off the tail
    # regions of depth 1, 2 and 4
    assert built == [
        (Column0(), 0),
        (FullHook(6), 0),
        (GHook(6), 0),
        (TruncatedHook(6, 0), 0),
        (TruncatedHook(6, 1), 0),
        (HookWithTail(6, 1, 1), 0),
        (HookWithTail(6, 1, 2), 0),
        (HookWithTail(6, 1, 4), 0),
    ]


def test_invariants_in_turn_eliminate_only_the_column_and_the_g_hook(monkeypatch):
    # the other slices test a class image against their boundaries alone
    c = torus_staircase(4, 5)
    tau(unknot_complex())
    built, eliminated = {}, []
    real_build, real_eliminate = invariants.region_complex, regions.kernel_and_image

    def build(c, region, degree):
        built[region] = real_build(c, region, degree)
        return built[region]

    def eliminate(columns):
        eliminated.append(next(r for r, rc in built.items() if rc.boundary is columns))
        return real_eliminate(columns)

    monkeypatch.setattr(invariants, "region_complex", build)
    monkeypatch.setattr(regions, "kernel_and_image", eliminate)
    assert (tau(c), epsilon(c), a1(c), a2(c)) == (6, 1, 1, 3)
    assert eliminated == [Column0(), GHook(6)]


def test_analysis_of_an_earlier_complex_is_released():
    c = torus_staircase(3, 4)
    assert a2(c) == 2
    ref = weakref.ref(invariants._analysis(c))
    assert epsilon(trefoil_complex()) == 1
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# the F/G threshold behavior


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
    """The G map by per-element projection: walk each cycle of the G-hook
    reference build, keep the elements with u_power == 0 and rebuild the
    column chain by generator."""
    column = reference_region_complex(c, Column0())
    boundaries = Gf2Space(kernel_and_image(column.boundary)[1])
    gh = reference_region_complex(c, GHook(s))
    for cyc in kernel_and_image(gh.boundary)[0]:
        kept = [gh.gen_index[p] for p, u in enumerate(gh.u_power) if cyc >> p & 1 and u == 0]
        mask = column.chain(kept)
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
# the graded builds answer as the full-degree reference


def graded_corpus() -> list[CfkComplex]:
    """The criterion 10 corpus, C(D;p,p+1) - T(p,p+1) for p = 2..6 and
    their mirrors, and every one of them with its Maslov gradings shifted
    by +2, so the class sits in degree 2."""
    corpus = randomized_corpus(random.Random(SEED))
    for p in range(2, 7):
        c = class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex
        corpus += [c, dual(c)]
    return corpus + [shift_maslov(c, 2) for c in corpus]


def test_graded_invariants_match_the_full_degree_reference():
    for c in graded_corpus():
        ref = reference_analysis(c)
        assert (tau(c), epsilon(c), epsilon_oracle(c)) == (ref.tau, ref.epsilon, ref.epsilon), c
        if ref.epsilon == 1:
            assert (a1(c), a2(c)) == (ref.a1, ref.a2), c
        assert {s: f_map_trivial(c, s) for s in ref.f_trivial} == ref.f_trivial, c
        assert {s: g_map_trivial(c, s) for s in ref.g_trivial} == ref.g_trivial, c


def test_an_arrow_breaking_the_maslov_law_is_inconsistent_input():
    # the trefoil with M(x0) raised by 2, so only x1 -> x0 breaks the law
    c = CfkComplex(
        [Generator("x0", 1, 2), Generator("x1", 0, -1), Generator("x2", -1, -2)],
        [Arrow("x1", "x0", 1), Arrow("x1", "x2", 0)],
    )
    with pytest.raises(InconsistentInput, match=r"^arrow x1->x0 u=1: M\(x1\)-1 != M\(x0\)-2u$"):
        tau(c)


# ---------------------------------------------------------------------------
# the class degree recorded by validate, tensor and dual


def validated(c: CfkComplex) -> CfkComplex:
    assert validate(c, knot_class=True).ok, c
    return c


def classes_of(cases: list[CfkComplex]) -> list[CfkComplex]:
    """The cases whose unmarked copy passes validate(knot_class=True), the
    whole check, each carrying a class degree: an unmarked case gives way to
    its checked copy, and a marked one must carry the degree the check found."""
    out = []
    for c in cases:
        fresh = unmarked(c)
        if validate(fresh, knot_class=True).ok:
            assert c._class_degree in (None, fresh._class_degree), c
            out.append(fresh if c._class_degree is None else c)
    return out


def recorded_corpus() -> list[CfkComplex]:
    """Every criterion 10 complex that validates as a class, C(D;p,p+1) -
    T(p,p+1) for p = 2..6, the duals of all of them, pairwise tensor products
    of a few, the difference of p = 3 and p = 2, and one whose class sits in
    degree 2 - 4 = -2: each carries its degree from validate, from staircase,
    or from tensor and dual of marked factors."""
    corpus = classes_of(randomized_corpus(random.Random(SEED)))
    exprs = (f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 7))
    classes = [class_complex(parse(e)).complex for e in exprs]
    corpus += classes
    corpus += [dual(c) for c in corpus]
    small = sorted(corpus, key=len)[::12][:5]
    corpus += [tensor(a, b) for a in small for b in small]
    corpus.append(tensor(classes[1], dual(classes[0])))  # 675 generators, epsilon = +1
    a, b = small[-2:]
    corpus.append(tensor(validated(shift_maslov(a, 2)), dual(validated(shift_maslov(b, 4)))))
    return corpus


def test_recorded_degree_is_the_ranked_degree_and_the_analysis_agrees():
    corpus = recorded_corpus()
    assert corpus[-1]._class_degree == -2
    for c in corpus:
        ranks = reference_homology_ranks(c, Column0())
        assert {k: n for k, n in ranks.items() if n} == {c._class_degree: 1}, c
        answers = []
        for complex_ in (c, deserialize(serialize(c))):  # the copy carries no record
            assert (complex_ is c) == (complex_._class_degree is not None)
            invariants._analysis.cache_clear()  # an equal complex must not share the analysis
            answers.append((tau(complex_), epsilon(complex_)))
            if epsilon(complex_) == 1:
                answers[-1] += (a1(complex_), a2(complex_))
        ref = reference_analysis(c)
        expected = (ref.tau, ref.epsilon) + ((ref.a1, ref.a2) if ref.epsilon == 1 else ())
        assert answers == [expected, expected], c


def test_a_recorded_class_is_not_ranked_again(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a recorded class was validated again")

    invariants._analysis.cache_clear()
    monkeypatch.setattr(invariants, "_class_errors", refuse)
    k, j = (class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")) for p in (3, 2))
    assert dominance_evidence(k, j, 2) == (True, 2)
    assert dominance_evidence(k, j, 3) == (True, 3)
    orders = (class_cmp(k, j), class_cmp(j, k), class_cmp(k, k))
    assert orders == (Ordering.GT, Ordering.LT, Ordering.EQ)
    c = class_complex(parse("T(2,41)")).complex
    assert (tau(c), epsilon(c), a1(c), a2(c)) == (20, 1, 1, 1)
    monkeypatch.undo()
    # an unrecorded complex is validated first, and its first error raised
    rank_two = deserialize("cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\n")
    with pytest.raises(RankNotOne, match=r"^column homology rank 2, expected 1$"):
        tau(rank_two)
    broken = deserialize(serialize(trefoil_complex()).replace("x0 A=1 M=0", "x0 A=1 M=2"))
    with pytest.raises(InconsistentInput, match=r"^arrow x1->x0 u=1: M\(x1\)-1 != M\(x0\)-2u$"):
        tau(broken)


def test_classes_built_from_expressions_are_never_checked_again(monkeypatch):
    # staircase, tensor and dual mark what they build, so neither ClassRep's
    # validate nor the analysis nor a slice runs a grading, d^2 or rank check
    def refuse(*args, **kwargs):
        raise AssertionError("a class the library built was checked again")

    for module in (cfk, invariants):
        monkeypatch.setattr(module, "_class_errors", refuse)
    for module in (cfk, regions):
        monkeypatch.setattr(module, "_math_errors", refuse)
    invariants._analysis.cache_clear()
    family = [f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 13)]
    reps = [class_complex(parse(e)) for e in ["T(2,4001)", "T(400,401)", *family]]
    assert [len(r.complex) for r in reps[:2]] == [4001, 799]
    c = reps[0].complex
    assert (tau(c), epsilon(c), a1(c), a2(c)) == (2000, 1, 1, 1)


def test_the_boundaries_check_each_complex_read_from_text_once(tmp_path, capsys, monkeypatch):
    # a complex read from a certificate or a file carries no mark, so it gets
    # the whole knot-class check, and only once: the slices behind the
    # recheck trust the mark that the check records
    reps = [class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")) for p in (4, 3, 2)]
    cert = Certificate.from_json(independence_certificate(reps).to_json())
    calls = []

    def counted(kind, real):
        return lambda c: calls.append((kind, serialize(c))) or real(c)

    class_errors, math_errors = counted("class", cfk._class_errors), counted("math", cfk._math_errors)
    for module in (cfk, invariants):
        monkeypatch.setattr(module, "_class_errors", class_errors)
    for module in (cfk, regions):
        monkeypatch.setattr(module, "_math_errors", math_errors)
    invariants._analysis.cache_clear()
    assert recheck_certificate(cert) is True
    # one check per factor: the product views of the entries are not checked again
    expected = [(kind, f) for e in cert.entries for f in e.factors for kind in ("class", "math")]
    assert len(expected) == 4 * len(reps) and calls == expected
    calls.clear()
    path, text = tmp_path / "trefoil.cfk", serialize(trefoil_complex())
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path), "--knot-class"]) == 0
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\nok\n"
    assert calls == [("class", text), ("math", text), ("math", text)]


def test_validate_reports_a_marked_class_as_the_full_check_of_its_copy(monkeypatch):
    # validate trusts the class mark and checks nothing, yet its report,
    # symmetry warnings included, is what the whole check gives an unmarked
    # copy.  On the criterion 10 corpus the library marks what it builds: the
    # staircases and their duals with no square beside them, and the reduced
    # products (cases 60-74)
    cases = randomized_corpus(random.Random(SEED))
    squared = [any(g.name.startswith("q") for g in c.generators) for c in cases]
    built = [i for i in range(75) if i >= 60 or i < 45 and not squared[i]]
    assert [i for i, c in enumerate(cases) if c._class_degree is not None] == built
    marked = recorded_corpus() + [cases[i] for i in built]
    assert all(c._class_degree is not None for c in marked)
    pairs = [(c, knot_class) for c in marked for knot_class in (False, True)]
    expected = [validate(unmarked(c), knot_class=knot_class) for c, knot_class in pairs]
    assert all(report.ok for report in expected) and any(r.warnings for r in expected)

    def refuse(c):
        raise AssertionError("validate checked a marked class")

    monkeypatch.setattr(cfk, "_class_errors", refuse)
    monkeypatch.setattr(cfk, "_math_errors", refuse)
    for (c, knot_class), full in zip(pairs, expected):
        report = validate(c, knot_class=knot_class)
        assert report == full and str(report) == str(full), c


def test_a_product_view_refuses_a_factor_without_a_class_mark(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the view's product was analysed")

    marked = class_complex(parse("T(2,3)")).complex
    unmarked = deserialize(serialize(marked))  # equal, but carries no record
    monkeypatch.setattr(invariants, "_class_errors", refuse)
    monkeypatch.setattr(invariants, "region_complex", refuse)
    for factors in ((unmarked,), (marked, unmarked), (unmarked, dual(marked))):
        with pytest.raises(InconsistentInput, match=r"^a product view takes checked classes only$"):
            epsilon(regions._Product(factors))


PAIRS = "".join(
    f"gen a{i} A={i % 5 - 2} M=1\ngen b{i} A={i % 5 - 2} M=0\narr a{i} b{i} u=0\n" for i in range(9)
)


def test_the_knot_class_check_calls_no_reduce(monkeypatch, tmp_path, capsys):
    """The analysis, `cfkcalc invariants FILE` and recheck_certificate read only the
    errors of the knot-class check, so they skip the reduce behind validate's
    symmetry warning; ClassRep still validates."""
    cert = independence_certificate([class_complex(parse(e)) for e in ("T(3,4)", "T(2,3)")])
    text = serialize(trefoil_complex()) + PAIRS
    calls = []
    monkeypatch.setattr(cfk, "reduce", lambda c: calls.append(c) or reduce(c))
    invariants._analysis.cache_clear()
    c = deserialize(text)
    assert (tau(c), epsilon(c)) == (1, 1) and calls == []
    path = tmp_path / "pairs.cfk"
    path.write_text(text)
    assert main(["invariants", str(path)]) == 0 and calls == []
    assert "tau: 1" in capsys.readouterr().out.splitlines()
    assert recheck_certificate(cert) is True and calls == []
    ClassRep(reduce(deserialize(text)))
    assert len(calls) == 1


def test_model_screen_reports_a_product_over_the_limit(monkeypatch):
    # the trefoil beside 9 pairs has 21 generators and reduces to 3: the product
    # with the mirrored trefoil is built from the reduced candidate
    c = deserialize(serialize(trefoil_complex()) + PAIRS)
    monkeypatch.setattr(cfk, "MAX_GENERATORS", 30)
    report = check_whitehead_model(c)
    assert (report.table_ok, report.local_invariants_ok, report.class_matches_trefoil) == (
        False, True, True
    )
    monkeypatch.setattr(cfk, "MAX_GENERATORS", 8)  # 3 x 3 is over even so
    report = check_whitehead_model(deserialize(serialize(trefoil_complex()) + PAIRS))
    assert (report.local_invariants_ok, report.class_matches_trefoil) == (True, False)


INVARIANT_CALLS = {
    "tau": tau,
    "epsilon": epsilon,
    "f_map_trivial": lambda c: f_map_trivial(c, 0),
    "g_map_trivial": lambda c: g_map_trivial(c, 0),
    "epsilon_oracle": epsilon_oracle,
    "a1": a1,
    "a2": a2,
}


@pytest.mark.parametrize("validated_first", [False, True])
@pytest.mark.parametrize("name", INVARIANT_CALLS)
def test_no_invariant_answers_on_a_complex_that_validate_refuses(name, validated_first):
    for breaker in validate_breakers():
        c = CfkComplex(breaker.generators, breaker.arrows)  # no recorded class degree
        report = validate(c, knot_class=True)
        if not validated_first:
            c = CfkComplex(breaker.generators, breaker.arrows)
        kind, message = report.errors[0]
        invariants._analysis.cache_clear()
        with pytest.raises(RankNotOne if kind.endswith("-rank") else InconsistentInput) as info:
            INVARIANT_CALLS[name](c)
        assert str(info.value) == message, breaker
        assert c._class_degree is None


# python -O strips every assert. Epsilon of a complex with an arrow raising A,
# and tau of the trefoil beside a row-only pair, must still raise validate's
# own first error, and the invariants of two classes must not move.
UNDER_O = """
import cfkcalc as k
G, A = k.Generator, k.Arrow
rises = k.CfkComplex([G("a", 0, 0), G("b", 1, -1), G("c", 0, 0)], [A("a", "b", 0)])
trefoil = k.CfkComplex(
    [G("x0", 1, 0), G("x1", 0, -1), G("x2", -1, -2)], [A("x1", "x0", 1), A("x1", "x2", 0)]
)
beside = k.direct_sum(trefoil, k.CfkComplex([G("p", 1, 0), G("q", 0, -1)], [A("p", "q", 0)]))
print(__debug__)
for f, c in ((k.epsilon, rises), (k.tau, beside)):
    print(k.validate(c, knot_class=True).errors[0].message)
    try:
        print(f"{f.__name__} answers {f(c)}")
    except (k.InconsistentInput, k.RankNotOne) as exc:
        print(exc)
for text in ("C(D;3,4) + -T(3,4)", "T(4,5)"):
    c = k.class_complex(k.parse(text)).complex
    print(k.tau(c), k.epsilon(c), k.a1(c), k.a2(c))
"""


def test_under_python_O_the_refusals_and_the_answers_hold():
    src = str(Path(invariants.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-O", "-c", UNDER_O]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    rises, row = "arrow a->b u=0 rises by 1", "row homology rank 3, expected 1"
    assert out.stdout.splitlines() == ["False", rises, rises, row, row, "3 1 1 3", "6 1 1 3"]


def test_model_screen_reports_a_class_beside_a_row_only_pair():
    report = check_whitehead_model(validate_breakers()[-1])
    assert not report.local_invariants_ok and not report.passed


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


def test_a1_memory_follows_the_generators_not_the_step_length():
    # three generators, but the class dies only at width n
    n = 10**6
    exps = StaircaseExponents((2 * n, n, 0))
    c = staircase(exps)
    tracemalloc.start()
    try:
        width = a1(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (width, a2(c)) == staircase_a_invariants(exps) == (n, n)
    assert peak < 5_000_000


def class_dies_in(c: CfkComplex, region) -> bool:
    """Whether the class, with j < tau dropped, is a boundary in the
    reference build of region."""
    t = tau(c)
    rc = reference_region_complex(c, region)
    indices = invariants._analysis(c).class_gens
    point = rc.chain(k for k in indices if c.generators[k].alexander >= t)
    return point in Gf2Space(kernel_and_image(rc.boundary)[1])


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
    assert not report.class_matches_trefoil  # the product view refuses the unmarked candidate
    assert not report.passed


@pytest.mark.parametrize(
    "text",
    [
        # tau raises InconsistentInput on the broken Maslov law
        "cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\narr a b u=0\n",
        # self-loops lie outside the domain reduce needs
        "cfk v1\ngen g0 A=0 M=-1\ngen g1 A=0 M=-1\n"
        "arr g0 g0 u=1\narr g0 g1 u=0\narr g1 g0 u=0\narr g1 g1 u=1\n",
    ],
)
def test_model_screen_reports_invalid_candidates_without_raising(text):
    report = check_whitehead_model(deserialize(text))
    assert not (report.table_ok or report.local_invariants_ok or report.class_matches_trefoil)
    assert report.table == {}


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


# ---------------------------------------------------------------------------
# product views answer as the built tensor product


@functools.cache
def view_classes() -> list[CfkComplex]:
    """Every criterion 10 complex that validates as a class, then the unknot's
    one generator and C(D;p,p+1) - T(p,p+1) for p = 2..6."""
    corpus = classes_of(randomized_corpus(random.Random(SEED)))
    exprs = ["U", *(f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 7))]
    return corpus + [class_complex(parse(e)).complex for e in exprs]


def answers(c) -> tuple:
    """tau and epsilon of c, then a1 and a2 where epsilon = +1."""
    e = epsilon(c)
    return (tau(c), e) + ((a1(c), a2(c)) if e == 1 else ())


def slice_invariants(source, region, degree: int) -> tuple:
    """The sorted (A, M, u) of a slice's members, its columns from above as
    (u, the sorted (A, M, u) they hit), and the ranks of both maps."""
    rc = regions.region_complex(source, region, degree)
    index = regions._index(source)
    members = [(index.alexander[k], index.maslov[k], u) for k, u in zip(rc.gen_index, rc.u_power)]
    above = sorted(
        (u, sorted(members[p] for p in regions._set_bits(column)))
        for u, column in zip(rc.above_u_power, rc.above)
    )
    ranks = (Gf2Space(rc.boundary).dim, Gf2Space(rc.above).dim)
    return sorted(members), above, ranks


def assert_view_matches_the_product(factors: tuple[CfkComplex, ...], wide: bool) -> None:
    """The answers, then the slices at tau of every region shape in degrees
    d - 1, d and d + 1: the finite A ranges of the hooks, the row and the
    tail are where a run over one factor could be cut wrongly.  Not wide:
    Column0 and the two hooks in degree d only."""
    built = factors[0]
    for factor in factors[1:]:
        built = tensor(built, factor)
    view = regions._Product(factors)
    assert view._class_degree == built._class_degree
    expected = answers(built)
    assert answers(view) == expected, factors
    (t, e, *a), d, span = expected, built._class_degree, view.span
    width, depth = (a[0], a[1] or span) if e == 1 else (1, span)
    hooks = (TruncatedHook(t, w) for w in (1, 2, span))
    shapes = (Column0(), FullHook(t), GHook(t), Row(t), *hooks, HookWithTail(t, width, depth))
    degrees = (d - 1, d, d + 1) if wide else (d,)
    cases = [(region, degree) for region in shapes[: 8 if wide else 3] for degree in degrees]
    seen = [slice_invariants(view, *case) for case in cases]  # one index build per source
    for case, got, want in zip(cases, seen, [slice_invariants(built, *case) for case in cases]):
        assert got == want, (factors, case)


@pytest.mark.parametrize("n, stride", [(1, 15), (2, 60)])
def test_product_views_answer_as_the_built_product(n, stride):
    """k against n copies of -j, against the built tensor product: every class
    meets about 106 / stride others on each side, over products of at most
    2,000 generators, so that the test stays in seconds.  Every other case
    puts k last, so the largest factor stands first, last and between; a
    third of the cases of each order compare every shape's slices in three
    degrees."""
    checked, orders = 0, set()
    for i, k in enumerate(view_classes()):
        for m, j in enumerate(view_classes()):
            if (i + m) % stride == 0 and len(k) * len(j) ** n <= 2_000:
                factors = (k, *[dual(j)] * n) if checked % 2 else (*[dual(j)] * n, k)
                sizes = [len(f) for f in factors]
                orders.add(sizes.index(max(sizes)))
                assert_view_matches_the_product(factors, wide=checked % 6 < 2)
                checked += 1
    assert checked >= 2_000 // stride and {0, n} <= orders


def test_class_cmp_is_epsilon_of_the_built_difference():
    reps = [ClassRep(reduce(c)) for c in view_classes()]
    order = {1: ">", 0: "=", -1: "<"}
    for i, k in enumerate(reps):
        for j in reps[i % 30 :: 30]:
            expected = order[epsilon(tensor(k.complex, dual(j.complex)))]
            assert class_cmp(k, j).value == expected, (k, j)
