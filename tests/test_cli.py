"""End-to-end command tests through main(argv).

Text outputs are frozen byte for byte, including the lattice diagrams, and
exit codes are checked on the three-way split: 0 success, 1 negative math
result, 2 bad input.
"""

from __future__ import annotations

import json
import re
import shlex
import time
import tracemalloc
from pathlib import Path

import pytest

from cfkcalc import class_complex, parse, serialize
from cfkcalc.cli import _diagram_geometry, _layout_offsets, main
from conftest import digit_limit_message, tampered_certificate, trefoil_complex

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
    path.write_text(serialize(trefoil_complex()), encoding="utf-8")
    assert main(["invariants", str(path)]) == 0
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
    tracemalloc.start()
    try:
        code = main(["dominates", "C(D;3,4) + -T(3,4)", "C(D;2,3) + -T(2,3)", "--evidence", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: multiple 4 needs 2,278,125 generators, over the limit of 200,000\n"
    )
    assert peak < 20 * 2**20


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


def test_dominates_json(capsys):
    assert main(["dominates", "T(3,4)", "T(2,3)", "--evidence", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["proved"] is True
    assert payload["criterion"] == "larger-a2"
    assert payload["evidence"] == {"consistent": True, "checked": 1}


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
    assert json.loads(saved)["format"] == "cfk-independence-certificate v1"

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
    payload = json.loads(path.read_text(encoding="utf-8"))
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
    family = ["C(D;3,4) + -T(3,4)", "C(D;2,3) + -T(2,3)"]
    assert main(["independence", *family, "--json", "--recheck"]) == 0
    path = tmp_path / "cert.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["independence", "--recheck", str(path)]) == 0
    assert capsys.readouterr().out.endswith("recheck: ok\n")


def test_independence_recheck_file_json(tmp_path, capsys):
    path = tmp_path / "chain.json"
    assert main(["independence", "T(2,3)", "T(3,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["independence", "--recheck", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(path.read_text(encoding="utf-8"))


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
    tracemalloc.start()
    try:
        code = main(["alexander", "T(2,1000001)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_file(tmp_path, capsys):
    path = tmp_path / "trefoil.cfk"
    path.write_text(serialize(trefoil_complex()), encoding="utf-8")
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
# README transcripts


README = Path(__file__).resolve().parent.parent / "README.md"
TRANSCRIPTS = re.findall(
    r"^```\n\$ (cfkcalc [^\n]*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)


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
