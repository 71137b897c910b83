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

import pytest
from hypothesis import given, settings, strategies as st

from cfkcalc import StaircaseExponents, serialize, staircase
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
