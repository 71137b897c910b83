"""Seeded fuzz of the CLI's exit code contract.

Expressions are drawn from the grammar with integers up to 5 and at most
two summands, so every class complex stays small.  Whatever the input,
main must return 0, 1 or 2, let no exception escape, and start stderr with
"error:" whenever it returns non-zero (validate reports an invalid complex
on stdout instead).  An error leaves stdout empty; otherwise, with --json,
stdout is exactly one JSON document.  File inputs go through the commands
that read files.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from cfkcalc import (
    StaircaseExponents,
    class_complex,
    dual,
    independence_certificate,
    invariants,
    parse,
    regions,
    serialize,
    staircase,
    staircase_exponents,
    torus_alexander,
)
from cfkcalc.cli import main
from cfkcalc.knots import MAX_DEPTH
from conftest import tampered_certificate

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

SMALL = st.integers(min_value=-1, max_value=5)
POSITIVE = st.integers(min_value=1, max_value=5)
ATOMS = st.one_of(
    st.sampled_from(["U", "D"]),
    st.builds("T({},{})".format, POSITIVE, POSITIVE),
)
TERMS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        inner.map("-{}".format),
        inner.map("({})".format),
        st.builds("C({};{},{})".format, inner, POSITIVE, SMALL),
    ),
    max_leaves=3,
)
EXPRS = st.one_of(
    TERMS,
    st.builds("{} + {}".format, TERMS, TERMS),
    st.builds("-({} + {})".format, TERMS, TERMS),
    st.builds("C({} + {};2,{})".format, TERMS, TERMS, SMALL),
)

ADVERSARIAL = [
    "-" * MAX_DEPTH + "T(2,3)",
    "-" * (MAX_DEPTH + 1) + "T(2,3)",
    "(" * MAX_DEPTH + "U" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "U" + ")" * (MAX_DEPTH + 1),
    "C(" * MAX_DEPTH + "U" + ";1,1)" * MAX_DEPTH,
    "C(" * (MAX_DEPTH + 1) + "U" + ";1,1)" * (MAX_DEPTH + 1),
    "T(0,3)",
    "T(-2,3)",
    "T(2,4)",
    "T(2,3",
    "T(2,,3)",
    "T(2,3)) + U",
    "C(T(2,3);0,3)",
    "C(T(2,3);2,1)",
    "C(D;2,1)",
    "C(T(3,4);3,4)",
    "C(T(4,5);2,15)",
    "C(C(T(2,3);2,1);2,1)",
    "",
    "+",
    "X",
    "C(C(U;3,-2);2,3)",
    # 5^12 generators: refused before any staircase is built
    " + ".join(["T(2,5)"] * 12),
]


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1 and argv[0] == "validate":  # an invalid complex: the report lists why
        assert out.getvalue().startswith("error "), (argv, out.getvalue())
    elif code != 0:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    if err.getvalue():
        assert out.getvalue() == "", (argv, out.getvalue())
    elif "--json" in argv:
        json.loads(out.getvalue())


def run_with_and_without_json(argv: list[str]) -> None:
    run(argv)
    run(argv[:1] + ["--json"] + argv[1:])


def check_single(text: str) -> None:
    run_with_and_without_json(["invariants", "--", text])
    run_with_and_without_json(["alexander", "--", text])
    run(["show", "--", text])


@FUZZ
@given(EXPRS)
def test_single_expression_commands_keep_the_exit_contract(text):
    check_single(text)


@FUZZ
@given(TERMS, TERMS)
def test_cmp_keeps_the_exit_contract(left, right):
    run_with_and_without_json(["cmp", "--", left, right])


@pytest.mark.parametrize("text", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
def test_adversarial_expressions_keep_the_exit_contract(text):
    check_single(text)
    run_with_and_without_json(["cmp", "--", text, "T(2,3)"])


BIG_STEP = 10**9


def edited_certificate(edit) -> str:
    """The format v2 certificate of C(D;3,4) - T(3,4) > C(D;2,3) - T(2,3)
    with edit applied to its first entry."""
    reps = [class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")) for p in (3, 2)]
    payload = json.loads(independence_certificate(reps).to_json())
    edit(payload["chain"][0])
    return json.dumps(payload, indent=2)


def raise_a_maslov_grading(entry: dict) -> None:
    text = entry["factors"][0]
    entry["factors"][0] = re.sub(r"M=(-?\d+)", lambda m: f"M={int(m[1]) + 7}", text, count=1)


def oversized_certificate() -> str:
    """One unlabelled entry whose factors, the leaves of T(2,501) and
    -T(2,401), have a product of 200,901 generators."""
    t501, t401 = (staircase(staircase_exponents(torus_alexander(2, q))) for q in (501, 401))
    entry = {"expression": None, "factors": [serialize(t501), serialize(dual(t401))]}
    entry.update(a1=1, a2=None, epsilon=1)
    return json.dumps({"format": "cfk-independence-certificate v2", "chain": [entry], "links": []})

FILES = {
    "empty.cfk": lambda: "cfk v1\n",
    "rank-two.cfk": lambda: "cfk v1\ngen a A=0 M=0\ngen b A=0 M=0\n",
    "row-rank-three.cfk": lambda: (
        "cfk v1\ngen x0 A=0 M=0\ngen y A=1 M=0\ngen z A=0 M=-1\narr y z u=0\n"
    ),
    "big-step.cfk": lambda: serialize(
        staircase(StaircaseExponents((2 * BIG_STEP, BIG_STEP, 0)))
    ),
    "tampered.json": tampered_certificate,
    "factors-empty.json": lambda: edited_certificate(lambda e: e.update(factors=[])),
    "factors-int.json": lambda: edited_certificate(lambda e: e.update(factors=[5])),
    "factors-str.json": lambda: edited_certificate(lambda e: e.update(factors="cfk v1\n")),
    "factors-null.json": lambda: edited_certificate(lambda e: e.update(factors=None)),
    "factor-maslov.json": lambda: edited_certificate(raise_a_maslov_grading),
    "oversized.json": oversized_certificate,
}


@pytest.mark.parametrize("name", FILES)
def test_file_inputs_keep_the_exit_contract(name, tmp_path):
    path = tmp_path / name
    path.write_text(FILES[name](), encoding="utf-8")
    for command in (
        ["invariants"],
        ["invariants", "--json"],
        ["validate", "--knot-class"],
        ["independence", "--recheck"],
    ):
        run(command + [str(path)])


@pytest.mark.parametrize("name", [name for name in FILES if name.endswith(".json")])
def test_defective_certificates_exit_2(name, tmp_path):
    path = tmp_path / name
    path.write_text(FILES[name](), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["independence", "--recheck", str(path)])
    assert (code, out.getvalue(), err.getvalue()[:7]) == (2, "", "error: ")


def test_a_certificate_over_the_generator_limit_is_refused_before_any_slice(tmp_path, monkeypatch):
    def built(*args):
        raise AssertionError("a slice or an index was built")

    monkeypatch.setattr(invariants, "region_complex", built)
    monkeypatch.setattr(regions, "region_complex", built)
    monkeypatch.setattr(regions, "_index", built)
    path = tmp_path / "oversized.json"
    path.write_text(oversized_certificate(), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["independence", "--recheck", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == (
        "error: entry 0: a tensor product of 200,901 generators is over the limit of 200,000\n"
    )
