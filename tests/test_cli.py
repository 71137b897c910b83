"""End-to-end command tests through main(argv).

Text outputs are frozen byte for byte, including the lattice diagrams, and
exit codes are checked on the three-way split: 0 success, 1 negative math
result, 2 bad input.
"""

from __future__ import annotations

import ast
import json
import re
import shlex
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from cfkcalc import CfkComplex, Ordering, class_complex, invariants, parse, regions, serialize
from cfkcalc.cli import _ascii_diagram, _diagram_geometry, _layout_offsets, main
from conftest import (
    counted_key_bisections,
    digit_limit_message,
    tampered_certificate,
    trefoil_complex,
    v1_certificate,
)

DATA = Path(__file__).resolve().parent / "data"

T45_INVARIANTS = (
    "expression: T(4,5)\n"
    "generators: 7\n"
    "max alexander grading: 6\n"
    "tau: 6\n"
    "epsilon: +1\n"
    "a1: 1\n"
    "a2: 3\n"
)

UNKNOT_INVARIANTS = (
    "expression: U\n"
    "generators: 1\n"
    "max alexander grading: 0\n"
    "tau: 0\n"
    "epsilon: 0\n"
    "a1: n/a (defined only when epsilon is +1)\n"
    "a2: n/a (defined only when epsilon is +1)\n"
)

TREFOIL_ASCII = "o---o\n    |\n    o\n"

T34_ASCII = (
    "o---o\n"
    "    |\n"
    "    |\n"
    "    |\n"
    "    o-------o\n"
    "            |\n"
    "            o\n"
)

# two vertical segments overlap where line 11 crosses them: the + stays
SUM_ASCII = (
    "o---o\n"
    "|   |\n"
    "o---o---o---o---o\n"
    "    |   |   |   |\n"
    "    o---o---+---o---o\n"
    "        |   |   |   |\n"
    "        o---o---o---o---o\n"
    "                |   |   |\n"
    "                o---o---o---o\n"
    "                    |   |   |\n"
    "                    o---+---o\n"
    "                    |   |   |\n"
    "                    o---o---o\n"
    "                        |   |\n"
    "                        o---o---o\n"
    "                            |   |\n"
    "                            o---o\n"
)

TREFOIL_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="48" height="48" '
    'viewBox="0 0 48 48">\n'
    '<line x1="12" y1="12" x2="36" y2="12" stroke="black" stroke-width="2"/>\n'
    '<line x1="36" y1="36" x2="36" y2="12" stroke="black" stroke-width="2"/>\n'
    '<circle cx="12" cy="12" r="4" fill="black"/>\n'
    '<circle cx="36" cy="36" r="4" fill="black"/>\n'
    '<circle cx="36" cy="12" r="4" fill="black"/>\n'
    "</svg>\n"
)

CHAIN_TEXT = (
    "independence certificate on 3 classes\n"
    "  [0] T(4,5)  a1=1  a2=3  epsilon=+1\n"
    "  [1] T(3,4)  a1=1  a2=2  epsilon=+1\n"
    "  [2] T(2,3)  a1=1  a2=1  epsilon=+1\n"
    "  T(4,5) dominates T(3,4) (larger-a2)\n"
    "  T(3,4) dominates T(2,3) (larger-a2)\n"
)

# C(D;p,p+1) - T(p,p+1) for p = 3 and 2: 45 and 15 generators
FAMILY = ["C(D;3,4) + -T(3,4)", "C(D;2,3) + -T(2,3)"]

# the trefoil beside 4,000 cancellable pairs: reduce, behind validate's
# symmetry warning, is linear in the pairs
TREFOIL_BESIDE_PAIRS = (
    "cfk v1\ngen x0 A=1 M=0\ngen x1 A=0 M=-1\ngen x2 A=-1 M=-2\narr x1 x0 u=1\narr x1 x2 u=0\n"
) + "".join(
    f"gen a{i} A={i % 5 - 2} M=1\ngen b{i} A={i % 5 - 2} M=0\narr a{i} b{i} u=0\n"
    for i in range(4000)
)


def family_certificate(capsys) -> str:
    """What `independence FAMILY --json --recheck` prints."""
    assert main(["independence", *FAMILY, "--json", "--recheck"]) == 0
    return capsys.readouterr().out


def edit_factor(doc: dict, entry: int, k: int, change) -> None:
    factors = doc["chain"][entry]["factors"]
    factors[k] = change(factors[k])


# ---------------------------------------------------------------------------
# invariants


def test_invariants_text(capsys):
    assert main(["invariants", "T(4,5)"]) == 0
    assert capsys.readouterr().out == T45_INVARIANTS


def test_invariants_without_a1_a2(capsys):
    assert main(["invariants", "U"]) == 0
    assert capsys.readouterr().out == UNKNOT_INVARIANTS


def test_invariants_of_a_mirror_needs_the_option_separator(capsys):
    assert main(["invariants", "--", "-T(2,3)"]) == 0
    out = capsys.readouterr().out
    assert "tau: -1\n" in out
    assert "epsilon: -1\n" in out


def test_invariants_json(capsys):
    assert main(["invariants", "T(4,5)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "kind": "expression",
        "source": "T(4,5)",
        "generators": 7,
        "max_alexander": 6,
        "tau": 6,
        "epsilon": 1,
        "a1": 1,
        "a2": 3,
    }


def test_invariants_json_carries_reasons_when_undefined(capsys):
    assert main(["invariants", "U", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a1"] is None
    assert payload["a1_reason"] == "defined only when epsilon is +1"


def test_invariants_from_a_complex_file(tmp_path, capsys):
    path = tmp_path / "trefoil.cfk"
    for text in (serialize(trefoil_complex()), TREFOIL_BESIDE_PAIRS):
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        assert main(["invariants", str(path)]) == 0
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr().out
        assert out.startswith(f"file: {path}\n")
        assert "tau: 1\n" in out and "a2: 1\n" in out


def test_invariants_rejects_an_invalid_complex_file(tmp_path, capsys):
    path = tmp_path / "bad.cfk"
    path.write_text("cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\narr a b u=0\n")
    assert main(["invariants", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_invariants_of_a_file_breaking_the_maslov_law_is_an_input_error(tmp_path, capsys):
    # the trefoil with M(x0) raised by 2: validate refuses it before any region is built
    path = tmp_path / "maslov.cfk"
    path.write_text(
        "cfk v1\ngen x0 A=1 M=2\ngen x1 A=0 M=-1\ngen x2 A=-1 M=-2\n"
        "arr x1 x0 u=1\narr x1 x2 u=0\n",
        encoding="utf-8",
    )
    assert main(["invariants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: arrow x1->x0 u=1: M(x1)-1 != M(x0)-2u\n"


def test_invariants_of_an_empty_complex_file_is_a_math_error(tmp_path, capsys):
    path = tmp_path / "empty.cfk"
    path.write_text("cfk v1\n", encoding="utf-8")
    assert main(["invariants", str(path)]) == 1
    assert capsys.readouterr().err == "error: column homology rank 0, expected 1\n"


def test_invariants_of_a_file_whose_column_has_rank_two_is_a_math_error(tmp_path, capsys):
    # a file carries no class degree, so its column is ranked
    path = tmp_path / "rank2.cfk"
    path.write_text("cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\n", encoding="utf-8")
    assert main(["invariants", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: column homology rank 2, expected 1\n")


def test_invariants_of_a_file_that_is_not_knot_like_is_a_math_error(tmp_path, capsys):
    # column homology has rank one, row homology rank three
    path = tmp_path / "row-rank.cfk"
    path.write_text(
        "cfk v1\ngen x0 A=0 M=0\ngen y A=1 M=0\ngen z A=0 M=-1\narr y z u=0\n",
        encoding="utf-8",
    )
    assert main(["invariants", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row homology rank 3, expected 1\n"


def test_invariants_rejects_a_bad_expression(capsys):
    assert main(["invariants", "T(2 3)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "column 5" in err
    # a superscript digit is a character the parser does not know, not an
    # integer literal past the digit limit
    assert main(["invariants", "T(2,³)"]) == 2
    assert capsys.readouterr() == ("", "error: line 1, column 5: unexpected character '³'\n")


def test_invariants_rejects_non_coprime_parameters(capsys):
    assert main(["invariants", "T(2,4)"]) == 2
    assert "share a factor" in capsys.readouterr().err


def test_invariants_rejects_unsupported_cables(capsys):
    assert main(["invariants", "C(T(2,3);2,-3)"]) == 2
    assert "framing must be positive" in capsys.readouterr().err
    # C(U;3,-2) is the left-handed trefoil, not a staircase
    assert main(["invariants", "C(C(U;3,-2);2,3)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "framing must be positive" in err


@pytest.mark.parametrize(
    "text",
    [
        "C(T(2,3);2,1)",
        "C(D;2,1)",
        "C(T(3,4);3,4)",
        "C(T(4,5);2,15)",
        "C(C(T(2,3);2,1);2,1)",
    ],
)
def test_invariants_rejects_cables_below_the_lspace_bound(text, capsys):
    assert main(["invariants", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "not an L-space knot" in err


@pytest.mark.parametrize(
    "text",
    [
        "(" * 3000 + "U" + ")" * 3000,
        "-" * 5000 + "U",
        " + ".join(["U"] * 600),
        "-" * 500 + "T(2,3)",
    ],
    ids=["parentheses", "mirrors", "sum", "mirrored-torus"],
)
def test_deeply_nested_expressions_are_input_errors(text, capsys):
    assert main(["invariants", "--", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cmp


def test_cmp_all_three_orders(capsys):
    assert main(["cmp", "T(4,5)", "T(3,4)"]) == 0
    assert capsys.readouterr().out == "T(4,5) > T(3,4)\n"
    assert main(["cmp", "T(2,3)", "T(3,4)"]) == 0
    assert capsys.readouterr().out == "T(2,3) < T(3,4)\n"
    assert main(["cmp", "U", "T(2,3) + -T(2,3)"]) == 0
    assert capsys.readouterr().out == "U = T(2,3) + -T(2,3)\n"


def test_cmp_json(capsys):
    assert main(["cmp", "T(4,5)", "T(3,4)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"left": "T(4,5)", "right": "T(3,4)", "order": ">"}


@pytest.mark.parametrize(
    "left, right, order", [("T(2,3)", "T(2,401)", "<"), ("T(2,401)", "T(2,3)", ">")]
)
def test_cmp_runs_over_the_larger_class_in_either_order(monkeypatch, capsys, left, right, order):
    # only the 401-generator staircase's key lists are bisected, never the
    # trefoil's, and twice per run: the trefoil's three generators have three gradings
    calls = counted_key_bisections(monkeypatch)
    assert main(["cmp", left, right]) == 0
    assert capsys.readouterr().out == f"{left} {order} {right}\n"
    assert len(calls) >= 5 and all(0 < len(c) <= 2 * 3 for c in calls)
    assert {size for c in calls for size in c} == {401}


# ---------------------------------------------------------------------------
# dominates


def test_dominates_proved(capsys):
    assert main(["dominates", "T(3,4)", "T(2,3)"]) == 0
    assert capsys.readouterr().out == (
        "T(3,4) dominates T(2,3): proved (larger-a2)\n"
        "  reason: equal a1 = 1, a2 rises from 1 to 2\n"
    )


def test_dominates_not_proved_exits_one(capsys):
    assert main(["dominates", "T(2,3)", "T(3,4)"]) == 1
    assert capsys.readouterr().out == (
        "T(2,3) dominates T(3,4): not proved\n"
        "  reason: equal a1 = 1, a2 does not rise (2 to 1)\n"
    )


def test_dominates_with_evidence(capsys):
    assert main(["dominates", "T(3,4)", "T(2,3)", "--evidence", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("  evidence: consistent with domination for all multiples up to 2\n")


def test_dominates_refuses_evidence_over_the_generator_limit(capsys):
    # multiple 4 would need 45 * 15^4 = 2,278,125 generators
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["dominates", *FAMILY, "--evidence", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: multiple 4 needs 2,278,125 generators, over the limit of 200,000\n"
    )
    assert peak < 20 * 2**20


def test_cmp_refuses_a_difference_over_the_generator_limit(monkeypatch, capsys):
    # T(2,501) against T(2,401) reads a product of 501 * 401 = 200,901 generators
    def built(*args):
        raise AssertionError("a slice or an index was built")

    monkeypatch.setattr(invariants, "region_complex", built)
    monkeypatch.setattr(regions, "region_complex", built)
    monkeypatch.setattr(regions, "_index", built)
    start = time.perf_counter()
    code = main(["cmp", "T(2,501)", "T(2,401)"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a tensor product of 200,901 generators is over the limit of 200,000\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["alexander", "T(2,250001) + T(2,250001)"], "polynomial with 62,500,500,001"),
        (["invariants", "C(T(2,125001);2,250001)"], "leaf polynomials with 31,250,375,001"),
    ],
)
def test_polynomial_products_over_the_limit_exit_2_at_once(capsys, argv, message):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: building the {message} coefficient products is over the limit of 20,000,000\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("T(2,1000001)", "a leaf polynomial of degree 1,000,000 is over the limit of 500,000"),
        (
            " + ".join(["T(2,5)"] * 12),
            "a class of 244,140,625 generators is over the limit of 200,000",
        ),
    ],
    ids=["leaf-degree", "class-size"],
)
def test_classes_over_the_limit_exit_2_at_once(capsys, text, message):
    start = time.perf_counter()
    assert main(["invariants", text]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_later_build_refusal_wins_over_an_earlier_class_without_epsilon_plus_one(capsys):
    # independence builds its classes one at a time, but refuses no class for
    # its epsilon until every class is built
    big = " + ".join(["T(2,5)"] * 12)
    assert main(["independence", "--", "-T(2,3)", big]) == 2
    message = "a class of 244,140,625 generators is over the limit of 200,000"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_literals_past_the_digit_limit_exit_2_without_a_traceback(capsys, tmp_path, too_many_digits):
    digits = too_many_digits
    vertex = tmp_path / "vertex.cfk"
    vertex.write_text(f"cfk v1\ngen x0 A={digits} M=0\n")
    arrow = tmp_path / "arrow.cfk"
    arrow.write_text(f"cfk v1\ngen x0 A=1 M=0\ngen x1 A=0 M=-1\narr x0 x1 u={digits}\n")
    assert main(["independence", "T(2,3)", "--json"]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out.replace('"a1": 1,', f'"a1": {digits},', 1))
    for argv in (
        ["validate", str(vertex)],
        ["invariants", str(vertex)],
        ["validate", str(arrow)],
        ["invariants", str(arrow)],
        ["invariants", f"T(2,{digits})"],
        ["alexander", f"C(T(2,3);{digits},1)"],
        ["independence", "--recheck", str(cert)],
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == "", argv[0]
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, argv[0]
        # one line, worded alike by every reader
        assert captured.err.endswith(f"{digit_limit_message(len(digits))}\n"), argv[0]
        assert captured.err.count("\n") == 1, argv[0]


def test_a_5000_digit_literal_exits_2_with_one_line(tmp_path, capsys):
    # the interpreter's default limit on int(str) is 4,300 digits
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("this interpreter reads an integer of 5,000 digits")
    digits = "1" * 5000
    path = tmp_path / "long.cfk"
    path.write_text(f"cfk v1\ngen x0 A={digits} M=0\n", encoding="utf-8")
    cert = tmp_path / "long.json"
    text = re.sub(r'"a1": \d+', f'"a1": {digits}', family_certificate(capsys), count=1)
    cert.write_text(text, encoding="utf-8")
    for argv, place in (
        (["invariants", f"T(2,{digits})"], "line 1, column 5: "),
        (["validate", str(path)], "line 2, column 10: "),
        (["independence", "--recheck", str(cert)], ""),  # counts the digits, not Python's hint
    ):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr() == ("", f"error: {place}{digit_limit_message(5000)}\n"), argv[0]


def test_dominates_json(capsys):
    assert main(["dominates", "T(3,4)", "T(2,3)", "--evidence", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["proved"] is True
    assert payload["criterion"] == "larger-a2"
    assert payload["evidence"] == {"consistent": True, "checked": 1}
    # the difference class at multiple 2 has 10,125 generators
    assert main(["dominates", *FAMILY, "--evidence", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["evidence"] == {"consistent": True, "checked": 2}


# ---------------------------------------------------------------------------
# independence


def test_independence_chain_text(capsys):
    assert main(["independence", "T(2,3)", "T(3,4)", "T(4,5)"]) == 0
    assert capsys.readouterr().out == CHAIN_TEXT


def test_independence_inline_recheck(capsys):
    assert main(["independence", "T(2,3)", "T(3,4)", "--recheck"]) == 0
    assert capsys.readouterr().out.endswith("recheck: ok\n")


def test_independence_save_and_recheck_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "T(4,5)", "--out", str(path)]) == 0
    assert capsys.readouterr().out.endswith(f"saved: {path}\n")
    saved = path.read_text(encoding="utf-8")
    assert saved.endswith("\n")
    assert json.loads(saved)["format"] == "cfk-independence-certificate v2"

    assert main(["independence", "--recheck", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("independence certificate on 3 classes\n")
    assert out.endswith("recheck: ok\n")


def test_independence_recheck_notices_tampering(tmp_path, capsys):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["chain"][0]["a2"] = 9
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 2
    assert "certificate says" in capsys.readouterr().err


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("field", ["above", "below"])
def test_independence_recheck_refuses_a_link_outside_the_chain(tmp_path, capsys, form, field):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["links"][0][field] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)] + form) == 2
    pair = (99, 1) if field == "above" else (0, 99)
    assert capsys.readouterr() == (
        "",
        f"error: links [{pair}] do not chain the entries in order\n",
    )


def test_independence_recheck_validates_the_embedded_complexes(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(tampered_certificate(), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry 0: not a knot-like complex: arrow ")


@pytest.mark.parametrize(
    "entry,link",
    [
        ({"complex": 5}, {}),
        ({"complex": None}, {}),
        ({"factors": "cfk v1\n"}, {}),
        ({"factors": None}, {}),
        ({"expression": 3}, {}),
        ({"a1": "1"}, {}),
        ({"a1": True}, {}),
        ({"epsilon": True}, {}),
        ({"epsilon": 1.0}, {}),
        ({"a2": "none"}, {}),
        ({}, {"above": "0"}),
        ({}, {"below": 1.5}),
        ({}, {"criterion": 7}),
    ],
    ids=[
        "complex-int",
        "complex-null",
        "factors-str",
        "factors-null",
        "expression-int",
        "a1-str",
        "a1-bool",
        "epsilon-bool",
        "epsilon-float",
        "a2-str",
        "above-str",
        "below-float",
        "criterion-int",
    ],
)
def test_independence_recheck_rejects_mistyped_fields(tmp_path, capsys, entry, link):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text(encoding="utf-8")
    payload = json.loads(v1_certificate(text) if "complex" in entry else text)
    payload["chain"][0].update(entry)
    payload["links"][0].update(link)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed certificate body: ")
    assert "cannot be" in err


@pytest.mark.parametrize(
    "argv",
    [["invariants"], ["validate"], ["independence", "--recheck"]],
    ids=["invariants", "validate", "recheck"],
)
def test_binary_files_are_input_errors(tmp_path, capsys, argv):
    path = tmp_path / "binary.cfk"
    path.write_bytes(b"cfk v1\n\xff\xfe\x00\x81")
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")


def test_independence_recheck_rejects_json_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_independence_rejects_expressions_plus_recheck_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text("{}", encoding="utf-8")
    assert main(["independence", "T(2,3)", "--recheck", str(path)]) == 2
    assert "not both" in capsys.readouterr().err


def test_independence_on_an_unchainable_set_exits_one(capsys):
    assert main(["independence", "T(2,3)", "T(2,3)"]) == 1
    assert "does not dominate" in capsys.readouterr().err


def test_independence_json_output(capsys):
    assert main(["independence", "T(2,3)", "T(3,4)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["expression"] for e in payload["chain"]] == ["T(3,4)", "T(2,3)"]
    assert payload["links"] == [{"above": 0, "below": 1, "criterion": "larger-a2"}]


def test_independence_json_with_recheck_pipes_into_a_recheck(tmp_path, capsys):
    path, copy = tmp_path / "cert.json", tmp_path / "copy.json"
    path.write_text(family_certificate(capsys), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 0
    assert capsys.readouterr().out.endswith("recheck: ok\n")
    assert main(["independence", "--recheck", str(path), "--out", str(copy)]) == 0
    assert capsys.readouterr().out.endswith(f"recheck: ok\nsaved: {copy}\n")
    assert main(["independence", "--recheck", str(copy)]) == 0
    assert capsys.readouterr().out.endswith("recheck: ok\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d["links"][0].update(above=99),
            "links [(99, 1)] do not chain the entries in order",
        ),
        (lambda d: d["chain"][0].update(epsilon=0), "entry 0: epsilon is 1, certificate says 0"),
        (
            lambda d: d["chain"][0].update(a2=9),
            "entry 0: (a1, a2) is (1, 3), certificate says (1, 9)",
        ),
        (  # still a knot class with the same invariants, but not the leaf the expression names
            lambda d: edit_factor(d, 0, 0, lambda text: re.sub(r"\bx0\b", "y0", text)),
            "entry 0: factors are not the leaves of C(D;3,4) + -T(3,4)",
        ),
        (
            lambda d: edit_factor(d, 0, 1, lambda text: re.sub(r"M=(-?\d+)", "M=7", text, count=1)),
            "entry 0: not a knot-like complex: arrow x0*->x1* u=1: M(x0*)-1 != M(x1*)-2u",
        ),
        (  # C(D;3,4) alone has (epsilon, a1, a2) = (1, 1, 3) too
            lambda d: d["chain"][0]["factors"].pop(),
            "entry 0: factors are not the leaves of C(D;3,4) + -T(3,4)",
        ),
        (
            lambda d: d["chain"][0].update(factors=d["chain"][1]["factors"]),
            "entry 0: factors are not the leaves of C(D;3,4) + -T(3,4)",
        ),
        (
            lambda d: d["chain"][1].update(expression="T(2,4)"),
            "entry 1: factors are not the leaves of T(2,4): torus parameters (2, 4) share a factor",
        ),
    ],
    ids=[
        "link-outside-the-chain",
        "epsilon-edited",
        "a2-edited",
        "factor-renamed",
        "factor-maslov-raised",
        "factor-dropped",
        "factors-swapped",
        "expression-unbuildable",
    ],
)
def test_recheck_refuses_an_edited_difference_class_certificate(tmp_path, capsys, edit, message):
    # the family certificate holds each class as its two leaves
    payload = json.loads(family_certificate(capsys))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_frozen_v1_certificate_rechecks_and_upgrades_to_v2(tmp_path, capsys):
    # tests/data/family_v1.json is what `independence FAMILY --out` wrote in
    # format v1: one built complex per entry
    path, copy = DATA / "family_v1.json", tmp_path / "copy.json"
    text = path.read_text(encoding="utf-8")
    assert json.loads(text)["format"] == "cfk-independence-certificate v1"
    assert main(["independence", *FAMILY]) == 0
    chain = capsys.readouterr().out
    assert main(["independence", "--recheck", str(path)]) == 0
    assert capsys.readouterr().out == chain + "recheck: ok\n"
    assert main(["independence", "--recheck", str(path), "--out", str(copy)]) == 0
    assert capsys.readouterr().out == chain + f"recheck: ok\nsaved: {copy}\n"
    upgraded, old = json.loads(copy.read_text(encoding="utf-8")), json.loads(text)
    assert upgraded["format"] == "cfk-independence-certificate v2"
    assert upgraded["links"] == old["links"]
    # a v1 expression is an unchecked label of a built product, so it is dropped
    assert len(upgraded["chain"]) == len(old["chain"]) == 2
    for new, entry in zip(upgraded["chain"], old["chain"]):
        factors = [entry.pop("complex")]
        assert new == {**entry, "expression": None, "factors": factors}
    assert main(["independence", "--recheck", str(copy)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("independence certificate on 2 classes\n  [0] #0  a1=1  a2=3")
    assert out.endswith("#0 dominates #1 (larger-a2)\nrecheck: ok\n")


def test_independence_recheck_file_json(tmp_path, capsys):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["independence", "--recheck", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(path.read_text(encoding="utf-8"))


def test_independence_recheck_file_saves_a_copy(tmp_path, capsys):
    path, copy = tmp_path / "chain.json", tmp_path / "copy.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["independence", "--recheck", str(path), "--out", str(copy)]) == 0
    assert capsys.readouterr().out.endswith(f"recheck: ok\nsaved: {copy}\n")
    assert main(["independence", "--recheck", str(copy)]) == 0
    assert capsys.readouterr().out.endswith("recheck: ok\n")
    assert main(["independence", "--recheck", str(path), "--json"]) == 0
    assert copy.read_text(encoding="utf-8") == capsys.readouterr().out


def test_independence_json_with_out_prints_the_saved_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--json", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    json.loads(out)
    assert out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["independence", "T(2,3)", "T(3,4)"],
        ["independence", "T(2,3)", "T(3,4)", "--json"],
        ["show", "T(2,3)"],
    ],
    ids=["independence", "independence-json", "show"],
)
def test_a_failed_save_leaves_stdout_empty(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


def test_independence_without_arguments_is_an_input_error(capsys):
    assert main(["independence"]) == 2
    assert "no expressions" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# alexander


def test_alexander_text(capsys):
    assert main(["alexander", "T(3,4)"]) == 0
    assert capsys.readouterr().out == "t^6 - t^5 + t^3 - t + 1\n"
    assert main(["alexander", "C(D;2,7)"]) == 0
    assert capsys.readouterr().out == "t^6 - t^5 + t^4 - t^3 + t^2 - t + 1\n"


def test_alexander_json(capsys):
    assert main(["alexander", "U", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"expression": "U", "alexander": "1"}


def test_alexander_refuses_a_polynomial_over_the_degree_limit(capsys):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["alexander", "T(2,1000001)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: an Alexander polynomial of degree 1,000,000 is over the limit of 500,000\n"
    )
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# show


def test_show_ascii_trefoil(capsys):
    assert main(["show", "T(2,3)"]) == 0
    assert capsys.readouterr().out == TREFOIL_ASCII


def test_show_ascii_two_step_staircase(capsys):
    assert main(["show", "T(3,4)"]) == 0
    assert capsys.readouterr().out == T34_ASCII


def test_show_ascii_keeps_a_crossing_under_overlapping_segments(capsys):
    assert main(["show", "T(2,5) + -T(4,5)"]) == 0
    assert capsys.readouterr().out == SUM_ASCII


def test_show_svg_trefoil(capsys):
    assert main(["show", "T(2,3)", "--format", "svg"]) == 0
    assert capsys.readouterr().out == TREFOIL_SVG


def test_show_writes_files(tmp_path, capsys):
    path = tmp_path / "trefoil.svg"
    assert main(["show", "T(2,3)", "--format", "svg", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"saved: {path}\n"
    assert path.read_text(encoding="utf-8") == TREFOIL_SVG


def test_show_refuses_an_oversized_ascii_diagram(capsys):
    tracemalloc.start()
    try:
        assert main(["show", "T(2,4001)"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: an ASCII diagram of 8001 x 4001 characters ")
    assert captured.err.endswith("use --format svg\n")
    assert peak < 20 * 2**20
    assert main(["show", "T(2,4001)", "--format", "svg"]) == 0
    assert capsys.readouterr().out.endswith("</svg>\n")


LAYOUT_CORPUS = [
    "U",
    "D",
    "T(2,3)",
    "T(3,4)",
    "T(2,5)",
    "-T(4,5)",
    "C(D;2,3)",
    "C(T(2,3);2,3)",
    "C(C(T(2,3);2,3);2,11)",
    "T(2,3) + T(2,3)",
    "T(2,3) + -T(2,3)",
    "T(3,4) + -T(2,5)",
    "-(T(2,3) + T(3,4))",
    "T(2,3) + T(2,3) + -T(3,4)",
] + [f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 8)]


@pytest.mark.parametrize("text", LAYOUT_CORPUS)
def test_every_arrow_of_a_class_is_drawn_as_a_segment(text):
    c = class_complex(parse(text)).complex
    offsets = _layout_offsets(c)
    assert all(offsets[t] == offsets[s] + u for s, t, u in c.triples)
    _diagram_geometry(c)  # asserts that every arrow is horizontal or vertical


def test_every_crossing_without_a_dot_is_drawn_as_a_plus():
    crossed = 0
    for text in LAYOUT_CORPUS + ["T(2,5) + -T(4,5)"]:
        dots, hsegs, vsegs = _diagram_geometry(class_complex(parse(text)).complex)
        rows = _ascii_diagram(dots, hsegs, vsegs).split("\n")
        top = max(j for _, j in dots)
        inside = {
            (i, j) for i1, i2, j in hsegs for i, j1, j2 in vsegs if i1 < i < i2 and j1 < j < j2
        }
        for i, j in inside - set(dots):  # 4 columns by 2 rows per lattice unit
            assert rows[(top - j) * 2][i * 4] == "+", (text, i, j)
            crossed += 1
    assert crossed > 0



# ---------------------------------------------------------------------------
# the library reads a complex's generator columns, never its Generator tuples


def test_no_command_builds_generator_tuples(tmp_path, monkeypatch, capsys):
    # each command prints, saves and exits as it does when generators may be read
    pairs, broken = tmp_path / "pairs.cfk", tmp_path / "broken.cfk"
    pairs.write_text(TREFOIL_BESIDE_PAIRS, encoding="utf-8")
    broken.write_text("cfk v1\ngen a A=1 M=0\ngen b A=0 M=-1\narr b a u=0\n", encoding="utf-8")
    certificate = tmp_path / "family.json"
    argvs = [
        ["invariants", "T(4,5)"],
        ["invariants", "--", "-T(2,3) + T(2,5)"],
        ["invariants", "T(4,5)", "--json"],
        ["invariants", str(pairs)],
        ["show", "T(2,5) + -T(4,5)"],
        ["cmp", *FAMILY],
        ["dominates", *FAMILY, "--evidence", "2"],
        ["independence", *FAMILY, "--out", str(certificate)],
        ["independence", "--recheck", str(certificate)],
        ["validate", str(pairs), "--knot-class"],
        ["validate", str(broken)],
    ]

    def outcomes() -> list[tuple]:
        seen = [(argv, main(argv), *capsys.readouterr()) for argv in argvs]
        seen.append(certificate.read_text(encoding="utf-8"))
        certificate.unlink()
        return seen

    today = outcomes()
    assert [code for _, code, *_ in today[:-1]] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def refuse(c: CfkComplex):
        raise AssertionError("a library path built the Generator tuples")

    monkeypatch.setattr(CfkComplex, "generators", property(refuse))
    assert outcomes() == today


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_file(tmp_path, capsys):
    path = tmp_path / "trefoil.cfk"
    for text in (serialize(trefoil_complex()), TREFOIL_BESIDE_PAIRS):
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert main(["validate", str(path), "--knot-class"]) == 0
        assert capsys.readouterr().out == "ok\n"


def test_validate_flags_a_broken_differential(tmp_path, capsys):
    path = tmp_path / "bad.cfk"
    path.write_text(
        "cfk v1\n"
        "gen a A=1 M=0\n"
        "gen b A=0 M=-1\n"
        "gen c A=0 M=0\n"
        "arr b a u=1\n"
        "arr c a u=1\n",
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error ")


def test_validate_knot_class_gate(tmp_path, capsys):
    path = tmp_path / "pair.cfk"
    path.write_text("cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(path), "--knot-class"]) == 1
    assert "error" in capsys.readouterr().out


def test_validate_json(tmp_path, capsys):
    path = tmp_path / "trefoil.cfk"
    path.write_text(serialize(trefoil_complex()), encoding="utf-8")
    assert main(["validate", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": True, "errors": [], "warnings": []}


def test_validate_unparsable_file(tmp_path, capsys):
    path = tmp_path / "garbage.cfk"
    path.write_text("not a complex\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# tau-cable


def test_tau_cable_value(capsys):
    assert main(["tau-cable", "3", "4", "--tau", "1", "--epsilon", "1"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_tau_cable_json(capsys):
    assert main(["tau-cable", "2", "15", "--tau", "3", "--epsilon", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"p": 2, "q": 15, "tau": 3, "epsilon": 1, "cable_tau": 13}


def test_tau_cable_rejects_shared_factors(capsys):
    assert main(["tau-cable", "2", "4", "--tau", "1", "--epsilon", "1"]) == 2
    assert "share a factor" in capsys.readouterr().err


def test_tau_cable_rejects_epsilon_zero_with_nonzero_tau(capsys):
    assert main(["tau-cable", "2", "3", "--tau", "1", "--epsilon", "0"]) == 2
    assert "forces tau 0" in capsys.readouterr().err


def test_tau_cable_requires_its_options():
    with pytest.raises(SystemExit):
        main(["tau-cable", "2", "3"])


# ---------------------------------------------------------------------------
# determinism


def run_capture(capsys, argv) -> str:
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_identical_invocations_are_byte_identical(capsys):
    for argv in [
        ["invariants", "T(4,5)"],
        ["independence", "T(2,3)", "T(3,4)", "T(4,5)", "--json"],
        ["show", "T(3,4)"],
        ["show", "T(3,4)", "--format", "svg"],
    ]:
        first = run_capture(capsys, argv)
        second = run_capture(capsys, argv)
        assert first == second


# ---------------------------------------------------------------------------
# README transcripts and the Library example


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
TRANSCRIPTS = re.findall(r"^```\n\$ (cfkcalc [^\n]*)\n(.*?)^```$", README, re.M | re.S)
LIBRARY = re.search(r"^## Library\n\n```python\n(.*?)^```$", README, re.M | re.S)[1]


def test_readme_shows_every_subcommand():
    assert {shlex.split(command)[1] for command, _ in TRANSCRIPTS} == {
        "invariants", "cmp", "dominates", "independence", "alexander", "show", "validate",
        "tau-cable",
    }


@pytest.mark.parametrize("command,stdout", TRANSCRIPTS, ids=range(len(TRANSCRIPTS)))
def test_readme_transcripts_are_byte_identical(command, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    trefoil = serialize(class_complex(parse("T(2,3)")).complex)
    (tmp_path / "trefoil.cfk").write_text(trefoil, encoding="utf-8")
    assert main(shlex.split(command)[1:]) in (0, 1)  # dominates says "not proved"
    assert capsys.readouterr().out == stdout


def test_readme_library_block_gives_what_its_comments_state():
    namespace, shown = {}, []  # the value of each expression statement, in order
    for node in ast.parse(LIBRARY).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert re.findall(r"# (.*)", LIBRARY) == [
        "(3, 1, 1, 3)", "raises CertificateError on any defect", "Ordering.GT",
    ]
    assert shown == [(3, 1, 1, 3), True, Ordering.GT]
