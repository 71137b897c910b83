"""Total order, domination, certificates, and the cable tau rules.

Ordering facts on the torus staircase catalog are frozen from hand
computation; certificate tests tamper with serialized JSON and expect the
recheck to notice every edit.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest

from cfkcalc import (
    Arrow,
    Certificate,
    CertificateError,
    CfkComplex,
    ClassRep,
    DominanceEvidence,
    Generator,
    InconsistentInput,
    NotAChain,
    NotCoprime,
    Ordering,
    SearchExhausted,
    StaircaseExponents,
    cable_tau,
    class_cmp,
    class_complex,
    direct_sum,
    dominance_evidence,
    dominates_by_invariants,
    dual,
    epsilon,
    independence_certificate,
    parse,
    recheck_certificate,
    reduce,
    staircase,
    tensor,
    unknot_complex,
)
from cfkcalc import invariants, regions
from cfkcalc.cli import main
from cfkcalc.concordance import LARGER_A2, SMALLER_A1, _Summary, _compare_summaries
from conftest import (
    SEED,
    antisymmetric_orders,
    digit_limit_message,
    signed_leaf_sums,
    torus_staircase,
    trefoil_complex,
)

T23 = ClassRep(trefoil_complex())
T34 = ClassRep(torus_staircase(3, 4))
T45 = ClassRep(torus_staircase(4, 5))
UNKNOT = ClassRep(unknot_complex())
MIRROR_T23 = ClassRep(dual(trefoil_complex()))
WIDE = ClassRep(staircase(StaircaseExponents((4, 2, 0))))  # a1 = a2 = 2


# ---------------------------------------------------------------------------
# class representatives


def test_class_rep_rejects_rank_two_complexes():
    c = CfkComplex([Generator("a", 0, 0), Generator("b", 0, 0)], [])
    with pytest.raises(InconsistentInput):
        ClassRep(c)


def test_class_rep_rejects_unreduced_complexes():
    pair = CfkComplex(
        [Generator("p", 0, 0), Generator("q", 0, -1)], [Arrow("p", "q", 0)]
    )
    with pytest.raises(InconsistentInput, match="not reduced"):
        ClassRep(direct_sum(trefoil_complex(), pair))


def test_class_rep_str_without_provenance():
    assert str(T23) == "<class on 3 generators>"


# ---------------------------------------------------------------------------
# the total order


def test_ordering_symbols():
    assert Ordering.LT.value == "<"
    assert Ordering.EQ.value == "="
    assert Ordering.GT.value == ">"


def test_order_against_zero():
    assert class_cmp(T23, UNKNOT) == Ordering.GT
    assert class_cmp(UNKNOT, T23) == Ordering.LT
    assert class_cmp(MIRROR_T23, UNKNOT) == Ordering.LT
    assert class_cmp(UNKNOT, UNKNOT) == Ordering.EQ


def test_order_on_torus_catalog():
    assert class_cmp(T34, T23) == Ordering.GT
    assert class_cmp(T45, T34) == Ordering.GT
    assert class_cmp(T45, T23) == Ordering.GT
    assert class_cmp(T23, T34) == Ordering.LT
    assert class_cmp(T23, T23) == Ordering.EQ


def test_order_is_antisymmetric_on_sampled_pairs():
    flip = {Ordering.GT: Ordering.LT, Ordering.LT: Ordering.GT, Ordering.EQ: Ordering.EQ}
    catalog = [T23, T34, UNKNOT, MIRROR_T23]
    for k in catalog:
        for j in catalog:
            assert class_cmp(j, k) == flip[class_cmp(k, j)]


def test_order_is_antisymmetric_on_seeded_leaf_sums():
    sums = signed_leaf_sums(random.Random(SEED), 30, 2)
    pairs = [(k[0], j[0]) for k, j in zip(sums, sums[1:])]
    pairs += [(text, reversed_text) for text, reversed_text, _ in sums]
    orders = antisymmetric_orders(pairs)
    assert orders[len(sums) - 1 :] == [Ordering.EQ] * len(sums)  # the same class twice
    assert {Ordering.GT, Ordering.LT} <= set(orders)


def _order_axiom_classes(count: int, most: int) -> list[tuple[str, ClassRep]]:
    """(text, class) of count seeded sums of 1..most signed leaves."""
    sums = signed_leaf_sums(random.Random(SEED + most), count, most)
    return [(text, class_complex(parse(text))) for text, _, _ in sums]


def test_epsilon_of_a_sum_follows_the_signs_of_its_summands():
    """epsilon is the sign of a class in a totally ordered group: equal
    nonzero signs add to that sign, and a zero class adds nothing.  The sum
    K # J is read through a product view of K and J."""
    classes = _order_axiom_classes(40, 2)
    checked = Counter()
    for (a, k), (b, j) in zip(classes, classes[1:]):
        ek, ej = epsilon(k.complex), epsilon(j.complex)
        esum = epsilon(regions._Product((k.complex, j.complex)))
        if ek == ej != 0:
            assert esum == ek, (a, b)
            checked["same sign"] += 1
        for zero, other in ((ek, ej), (ej, ek)):
            if zero == 0:
                assert esum == other, (a, b)
                checked["zero"] += 1
    assert min(checked["same sign"], checked["zero"]) >= 3, checked


def test_order_is_transitive_and_translation_invariant_on_seeded_leaf_sums():
    sign = {Ordering.GT: 1, Ordering.EQ: 0, Ordering.LT: -1}
    classes = _order_axiom_classes(14, 2)
    order = {}  # i < j: the sign of class i against class j
    for (i, (_, k)), (j, (_, m)) in itertools.combinations(enumerate(classes), 2):
        order[i, j], order[j, i] = sign[class_cmp(k, m)], sign[class_cmp(m, k)]
    for i, j, m in itertools.permutations(range(len(classes)), 3):
        ij, jm, im = order[i, j], order[j, m], order[i, m]
        if ij >= 0 and jm >= 0:  # K >= J >= M: K >= M, equal only when both are
            assert im == max(ij, jm), (classes[i][0], classes[j][0], classes[m][0])
    assert {-1, 0, 1} <= set(order.values())
    shifts = _order_axiom_classes(12, 1)
    for ((a, k), (b, j)), (text, _) in zip(zip(classes, classes[1:]), shifts):
        k_plus, j_plus = (class_complex(parse(f"({x}) + ({text})")) for x in (a, b))
        assert class_cmp(k_plus, j_plus) == class_cmp(k, j), (a, b, text)


def test_order_is_translation_invariant_on_a_sample():
    shift = trefoil_complex()
    shifted_t34 = ClassRep(reduce(tensor(T34.complex, shift)))
    shifted_t23 = ClassRep(reduce(tensor(T23.complex, shift)))
    assert class_cmp(shifted_t34, shifted_t23) == class_cmp(T34, T23)
    assert class_cmp(shifted_t23, shifted_t34) == Ordering.LT


# ---------------------------------------------------------------------------
# domination from (a1, a2)


def test_domination_by_rising_a2():
    result = dominates_by_invariants(T34, T23)
    assert result.proved
    assert result.criterion == LARGER_A2
    assert "a2 rises from 1 to 2" in result.reason
    assert str(result).startswith("proved")


def test_domination_by_dropping_a1():
    result = dominates_by_invariants(T23, WIDE)
    assert result.proved
    assert result.criterion == SMALLER_A1
    assert result.reason == "a1 drops from 2 to 1"


def test_domination_fails_when_a2_does_not_rise():
    result = dominates_by_invariants(T23, T34)
    assert not result.proved
    assert result.criterion is None
    assert str(result).startswith("unknown")


def test_domination_fails_without_epsilon_plus_one():
    for pair in [(T23, UNKNOT), (UNKNOT, T23), (MIRROR_T23, T23)]:
        result = dominates_by_invariants(*pair)
        assert not result.proved
        assert "epsilon +1" in result.reason


def test_summary_comparison_covers_every_branch():
    assert _compare_summaries(_Summary(1, 1, 1), _Summary(0, None, None)).proved is False
    assert _compare_summaries(_Summary(1, 1, 1), _Summary(1, 2, 1)).criterion == SMALLER_A1
    rising = _compare_summaries(_Summary(1, 2, 9), _Summary(1, 1, 1))
    assert not rising.proved and "a1 rises" in rising.reason
    no_tail = _compare_summaries(_Summary(1, 1, None), _Summary(1, 1, 5))
    assert not no_tail.proved and "no finite a2" in no_tail.reason
    assert _compare_summaries(_Summary(1, 1, 6), _Summary(1, 1, 5)).criterion == LARGER_A2
    tied = _compare_summaries(_Summary(1, 1, 5), _Summary(1, 1, 5))
    assert not tied.proved and "does not rise" in tied.reason


# ---------------------------------------------------------------------------
# multiple-by-multiple evidence


def test_evidence_consistent_for_catalog_pair():
    evidence = dominance_evidence(T34, T23, max_multiple=3)
    assert evidence == DominanceEvidence(True, 3)
    assert str(evidence) == "consistent with domination for all multiples up to 3"


def test_evidence_refuted_at_first_multiple():
    evidence = dominance_evidence(T23, T34, max_multiple=3)
    assert evidence == DominanceEvidence(False, 1)
    assert str(evidence) == "refuted at multiple 1"


def test_evidence_refuted_before_any_multiple():
    evidence = dominance_evidence(T34, UNKNOT, max_multiple=2)
    assert evidence == DominanceEvidence(False, 0)
    assert "not positive" in str(evidence)


def test_evidence_rejects_a_zero_bound():
    with pytest.raises(InconsistentInput):
        dominance_evidence(T34, T23, max_multiple=0)


# ---------------------------------------------------------------------------
# certificates


def chain_certificate() -> Certificate:
    return independence_certificate([T23, WIDE, T34])


def test_certificate_orders_the_chain_by_invariants():
    cert = chain_certificate()
    assert [(e.a1, e.a2) for e in cert.entries] == [(1, 2), (1, 1), (2, 2)]
    assert [l.criterion for l in cert.links] == [LARGER_A2, SMALLER_A1]
    assert [(l.above, l.below) for l in cert.links] == [(0, 1), (1, 2)]


def test_certificate_rechecks_from_its_own_complexes():
    assert recheck_certificate(chain_certificate()) is True


def test_certificate_json_round_trip():
    cert = chain_certificate()
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert recheck_certificate(again) is True


def test_certificate_json_shape():
    payload = json.loads(chain_certificate().to_json())
    assert payload["format"] == "cfk-independence-certificate v1"
    assert set(payload) == {"format", "chain", "links"}
    assert set(payload["chain"][0]) == {"expression", "complex", "a1", "a2", "epsilon"}
    assert payload["chain"][0]["complex"].startswith("cfk v1\n")
    assert payload["links"][0] == {"above": 0, "below": 1, "criterion": LARGER_A2}


def test_certificate_text_rendering():
    text = str(chain_certificate())
    assert text.splitlines()[0] == "independence certificate on 3 classes"
    assert "[0] #0  a1=1  a2=2  epsilon=+1" in text
    assert "#0 dominates #1 (larger-a2)" in text
    assert "#1 dominates #2 (smaller-a1)" in text


def test_single_entry_certificate_has_no_links():
    cert = independence_certificate([T23])
    assert len(cert.entries) == 1 and cert.links == ()
    assert recheck_certificate(cert) is True


def test_certificate_requires_at_least_one_class():
    with pytest.raises(InconsistentInput):
        independence_certificate([])


def test_chain_rejects_entries_without_epsilon_plus_one():
    with pytest.raises(NotAChain) as exc:
        independence_certificate([T23, MIRROR_T23])
    assert exc.value.pair == ("<class on 3 generators>",)


def test_chain_rejects_indistinguishable_neighbors():
    with pytest.raises(NotAChain) as exc:
        independence_certificate([T23, T23])
    assert exc.value.pair == ("#0", "#1")
    assert "does not dominate" in str(exc.value)


def tampered(cert: Certificate, mutate) -> Certificate:
    payload = json.loads(cert.to_json())
    mutate(payload)
    return Certificate.from_json(json.dumps(payload))


def test_recheck_notices_an_edited_invariant():
    cert = tampered(chain_certificate(), lambda p: p["chain"][0].update(a1=7))
    with pytest.raises(CertificateError, match="certificate says"):
        recheck_certificate(cert)


def test_recheck_notices_an_edited_epsilon():
    cert = tampered(chain_certificate(), lambda p: p["chain"][0].update(epsilon=0))
    with pytest.raises(CertificateError, match=r"^entry 0: epsilon is 1, certificate says 0$"):
        recheck_certificate(cert)


def test_recheck_refuses_a_certificate_without_entries():
    with pytest.raises(CertificateError, match=r"^certificate has no chain entries$"):
        recheck_certificate(Certificate((), ()))


def test_recheck_refuses_an_entry_of_column_rank_two():
    rank_two = "cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\n"
    cert = tampered(chain_certificate(), lambda p: p["chain"][1].update(complex=rank_two))
    message = r"^entry 1: not a knot-like complex: column homology rank 2, expected 1$"
    with pytest.raises(CertificateError, match=message):
        recheck_certificate(cert)


def test_recheck_states_a_math_error_of_the_analysis_and_passes_on_any_other(monkeypatch):
    cert = chain_certificate()

    def fail(error):
        def raise_it(self):
            raise error

        monkeypatch.setattr(invariants._Analysis, "a1", property(raise_it))

    fail(SearchExhausted("no hook width killed the class"))
    with pytest.raises(CertificateError) as info:
        recheck_certificate(cert)
    assert str(info.value) == "entry 0: invariants failed: no hook width killed the class"
    fail(RuntimeError("a fault in the library"))  # not a bad certificate
    with pytest.raises(RuntimeError, match="^a fault in the library$"):
        recheck_certificate(cert)


def test_recheck_notices_a_swapped_complex():
    def swap(p):
        p["chain"][0]["complex"], p["chain"][1]["complex"] = (
            p["chain"][1]["complex"],
            p["chain"][0]["complex"],
        )

    with pytest.raises(CertificateError):
        recheck_certificate(tampered(chain_certificate(), swap))


def test_recheck_notices_reordered_links():
    def reverse_links(p):
        for link in p["links"]:
            link["above"], link["below"] = link["below"], link["above"]

    cert = tampered(chain_certificate(), reverse_links)
    with pytest.raises(CertificateError, match="do not chain"):
        recheck_certificate(cert)


def test_recheck_notices_a_wrong_criterion():
    cert = tampered(
        chain_certificate(), lambda p: p["links"][0].update(criterion=SMALLER_A1)
    )
    with pytest.raises(CertificateError, match="does not recheck"):
        recheck_certificate(cert)


def test_recheck_notices_a_broken_embedded_complex():
    cert = tampered(
        chain_certificate(), lambda p: p["chain"][0].update(complex="cfk v1\ngen ???\n")
    )
    with pytest.raises(CertificateError, match="does not parse"):
        recheck_certificate(cert)


def test_from_json_refuses_a_number_past_the_digit_limit(too_many_digits):
    text = chain_certificate().to_json()
    assert '"a1": 1,' in text
    with pytest.raises(CertificateError, match=f"^{digit_limit_message(len(too_many_digits))}$"):
        Certificate.from_json(text.replace('"a1": 1,', f'"a1": {too_many_digits},', 1))


def test_recheck_states_a_number_past_the_digit_limit_in_certificate_terms(
    capsys, tmp_path, too_many_digits
):
    path = tmp_path / "long.json"
    text = chain_certificate().to_json()
    path.write_text(text.replace('"a1": 1,', f'"a1": -{too_many_digits},', 1))
    assert main(["independence", "--recheck", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {digit_limit_message(len(too_many_digits))}\n"
    assert "set_int_max_str_digits" not in captured.err


def test_from_json_rejects_garbage():
    with pytest.raises(CertificateError, match="not valid JSON"):
        Certificate.from_json("{")
    with pytest.raises(CertificateError, match="format tag"):
        Certificate.from_json(json.dumps({"format": "something else"}))
    with pytest.raises(CertificateError, match="malformed"):
        Certificate.from_json(
            json.dumps({"format": "cfk-independence-certificate v1", "chain": [{}], "links": []})
        )


# ---------------------------------------------------------------------------
# cable tau rules


def test_cable_tau_on_positive_companions():
    assert cable_tau(1, 1, 2, 3) == 3
    assert cable_tau(1, 1, 3, 4) == 6
    assert cable_tau(3, 1, 2, 15) == 13
    assert cable_tau(6, 1, 2, 15) == 19


def test_cable_tau_on_negative_companions():
    assert cable_tau(-1, -1, 2, 3) == 0
    assert cable_tau(-1, -1, 2, -3) == -3
    assert cable_tau(-3, -1, 3, -11) == -19


def test_cable_tau_mirror_identity():
    for t, e in [(1, 1), (3, 1), (-2, -1)]:
        for p, q in [(2, 3), (3, 5), (2, -7), (4, 9)]:
            assert cable_tau(-t, -e, p, -q) == -cable_tau(t, e, p, q)


def test_cable_tau_with_epsilon_zero():
    assert cable_tau(0, 0, 3, 4) == 3
    assert cable_tau(0, 0, 3, -4) == -3
    assert cable_tau(0, 0, 2, 1) == 0
    assert cable_tau(0, 0, 2, -1) == 0


def test_cable_tau_input_errors():
    with pytest.raises(InconsistentInput):
        cable_tau(1, 0, 2, 3)  # epsilon 0 forces tau 0
    with pytest.raises(InconsistentInput):
        cable_tau(1, 1, 0, 3)
    with pytest.raises(InconsistentInput):
        cable_tau(1, 5, 2, 3)
    with pytest.raises(NotCoprime):
        cable_tau(1, 1, 2, 4)
