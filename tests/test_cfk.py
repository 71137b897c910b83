"""Complexes: construction, tensor, dual, reduction, serialization."""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cfkcalc
from cfkcalc import cfk
from cfkcalc import (
    MAX_GENERATORS,
    Arrow,
    CfkComplex,
    Generator,
    Mirror,
    ParseError,
    Sum,
    UnsupportedExpression,
    class_complex,
    deserialize,
    direct_sum,
    dual,
    epsilon,
    parse,
    reduce,
    serialize,
    square_complex,
    tau,
    tensor,
    unknot_complex,
    validate,
)
from conftest import (
    SEED,
    digit_limit_message,
    random_basis_change,
    random_staircase,
    randomized_corpus,
    reference_change_basis,
    reference_deserialize,
    reference_named_tensor,
    reference_reduce,
    reference_tensor,
    reference_validate,
    shift_maslov,
    torus_staircase,
    trefoil_complex,
    unmarked,
    validate_breakers,
    with_flat_pairs,
    with_random_squares,
)

TREFOIL_TEXT = """cfk v1
gen x2 A=-1 M=-2
gen x1 A=0 M=-1
gen x0 A=1 M=0
arr x1 x0 u=1
arr x1 x2 u=0
"""


def test_construction_sorts_and_indexes():
    c = trefoil_complex()
    assert [g.name for g in c.generators] == ["x2", "x1", "x0"]
    assert c.generators[0] == Generator("x2", -1, -2)
    assert c.generators[2].alexander == 1
    assert c.arrows == (Arrow("x1", "x0", 1), Arrow("x1", "x2", 0))
    # the arrows leaving k are triples[offsets[k]:offsets[k + 1]]
    for x in [c, unknot_complex(), torus_staircase(3, 7), *randomized_corpus(random.Random(SEED))]:
        sources = [k for k in range(len(x)) for _ in range(x.offsets[k], x.offsets[k + 1])]
        assert x.offsets[0] == 0 and [s for s, _, _ in x.triples] == sources, x


def test_one_name_or_grading_apart_is_unequal():
    gens = [Generator("x0", 1, 0), Generator("x1", 0, -1), Generator("x2", -1, -2)]
    c = CfkComplex(gens, [Arrow("x1", "x0", 1), Arrow("x1", "x2", 0)])
    for k, g in enumerate(gens):
        for other in (g._replace(name=g.name + "'"), g._replace(alexander=g.alexander + 1),
                      g._replace(maslov=g.maslov + 1)):
            names = {g.name: other.name}
            arrows = [Arrow(names.get(a.source, a.source), names.get(a.target, a.target), a.u_exp)
                      for a in c.arrows]
            d = CfkComplex([*gens[:k], other, *gens[k + 1 :]], arrows)
            # the same order and triples: one entry of one column tells them apart
            assert d.triples == c.triples and d.offsets == c.offsets, other
            assert sum(x != y for x, y in zip(d._columns(), c._columns())) == 1, other
            assert d != c and c != d, other


def test_the_columns_are_the_generators():
    corpus = randomized_corpus(random.Random(SEED))
    corpus += [dual(c) for c in corpus]
    corpus += [tensor(c, d) for c, d in zip(corpus[:12], corpus[1:13])]
    corpus += [reduce(with_flat_pairs(random.Random(k), c, 2)) for k, c in enumerate(corpus[::5])]
    corpus += [deserialize(serialize(class_complex(parse(text)).complex)) for text in GOLDEN_DIGESTS]
    for c in corpus:
        assert all(type(x) is tuple for x in c._columns()), c
        assert list(zip(c.alexander, c.maslov, c.names)) == sorted(zip(c.alexander, c.maslov, c.names))
        assert c.generators == tuple(map(Generator, c.names, c.alexander, c.maslov)), c
        gens = [f"gen {g.name} A={g.alexander} M={g.maslov}" for g in c.generators]
        arrows = [f"arr {a.source} {a.target} u={a.u_exp}" for a in c.arrows]
        assert serialize(c) == "\n".join(["cfk v1", *gens, *arrows]) + "\n", c


def test_construction_rejects_bad_input():
    g = [Generator("a", 0, 0)]
    with pytest.raises(ValueError):
        CfkComplex([Generator("", 0, 0)])
    with pytest.raises(ValueError):
        CfkComplex([Generator("a b", 0, 0)])
    with pytest.raises(ValueError):
        CfkComplex(g + g)
    with pytest.raises(ValueError):
        CfkComplex(g, [Arrow("a", "zz", 0)])
    with pytest.raises(ValueError):
        CfkComplex(g, [Arrow("a", "a", -1)])


def test_duplicate_arrows_cancel_mod_2():
    g = [Generator("a", 1, 0), Generator("b", 0, -1)]
    c = CfkComplex(g, [Arrow("b", "a", 0), Arrow("b", "a", 0)])
    assert c.arrows == ()
    c = CfkComplex(g, [Arrow("b", "a", 0)] * 3)
    assert c.arrows == (Arrow("b", "a", 0),)


def test_shuffled_input_builds_the_ordered_complex():
    # _store takes a strictly ascending A or triples as proof of order and sorts
    # the rest: shuffled generators and arrows give what the ordered ones give
    rng = random.Random(SEED)
    family = [
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex for p in range(2, 6)
    ]
    assert all(len(set(c.alexander)) < len(c) for c in family)  # A has ties
    gens, arrows = trefoil_complex().generators, trefoil_complex().arrows
    once, twice, thrice = Arrow("x0", "x2", 4), arrows[1], arrows[0]
    cancelled = CfkComplex(gens, [thrice, once])
    cases = [(c, list(c.generators), list(c.arrows)) for c in randomized_corpus(rng) + family]
    cases.append((cancelled, list(gens), sorted([once, *[twice] * 2, *[thrice] * 3])))
    for c, gens, arrows in cases:
        for shuffle in (False, True):
            if shuffle:
                rng.shuffle(gens)
                rng.shuffle(arrows)
            built = CfkComplex(gens, arrows)
            assert built._columns() == c._columns() and built.triples == c.triples, c
            assert built.offsets == c.offsets and hash(built) == hash(c) and built == c, c


def test_grading_table():
    assert trefoil_complex().grading_table() == {(1, 0): 1, (0, -1): 1, (-1, -2): 1}


def test_validate_flags_violations():
    g = [Generator("a", 0, 0), Generator("b", 0, 0)]
    report = validate(CfkComplex(g, [Arrow("b", "a", 0)]))
    assert not report.ok
    assert any(v.kind == "maslov" for v in report.errors)
    g = [Generator("a", 5, 1), Generator("b", 0, 0)]
    report = validate(CfkComplex(g, [Arrow("a", "b", 0)]))
    assert report.ok  # vertical arrow dropping 5 levels is legal

    g = [Generator("a", 0, 1), Generator("b", 3, 0)]
    report = validate(CfkComplex(g, [Arrow("a", "b", 0)]))
    assert any(v.kind == "j-drop" for v in report.errors)


def test_validate_d_squared():
    gens = [
        Generator("a", 1, 1),
        Generator("b", 0, 0),
        Generator("c", 1, 0),
        Generator("d", 0, -1),
    ]
    arrows = [Arrow("a", "b", 0), Arrow("a", "c", 0), Arrow("b", "d", 0), Arrow("c", "d", 0)]
    assert validate(CfkComplex(gens, arrows)).ok
    report = validate(CfkComplex(gens, arrows[:3]))
    assert any(v.kind == "d-squared" for v in report.errors)


def test_validate_knot_class_flag():
    assert validate(trefoil_complex(), knot_class=True).ok
    two = CfkComplex([Generator("a", 0, 0), Generator("b", 1, 1)])
    report = validate(two, knot_class=True)
    assert not report.ok


def asymmetric_ascending() -> list[CfkComplex]:
    """Lawful complexes whose Alexander column strictly ascends but whose grading
    table is not symmetric: T(2,5) with A raised by one, which breaks A[k] =
    -A[n - 1 - k], and the trefoil beside an arrow from (2, 4) to (-2, 3), whose
    A keeps that law but whose M - A is no palindrome."""
    t25 = torus_staircase(2, 5)
    raised = [g._replace(alexander=g.alexander + 1) for g in t25.generators]
    shifted = CfkComplex(raised, t25.arrows)
    pair = CfkComplex([Generator("p", 2, 4), Generator("q", -2, 3)], [Arrow("p", "q", 0)])
    return [shifted, direct_sum(trefoil_complex(), pair)]


def test_validate_matches_the_check_by_check_reference():
    corpus = randomized_corpus(random.Random(SEED))
    classes = [
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex for p in range(2, 7)
    ]
    shifted, beside = asymmetric = asymmetric_ascending()
    for c in asymmetric:  # each reduced already, with warnings but no error
        report = validate(unmarked(c))
        assert reduce(c) is c and list(c.alexander) == sorted(set(c.alexander)), c
        assert report.ok and report.warnings, c
    assert shifted.alexander != tuple(-a for a in reversed(shifted.alexander))
    assert beside.alexander == tuple(-a for a in reversed(beside.alexander))
    kinds = set()
    for c in corpus + [dual(c) for c in corpus] + classes + asymmetric + validate_breakers():
        for knot_class in (False, True):
            fresh = CfkComplex(c.generators, c.arrows)  # no recorded class degree
            report = validate(fresh, knot_class=knot_class)
            expected, degree = reference_validate(fresh, knot_class=knot_class)
            assert report == expected and str(report) == str(expected), c
            assert fresh._class_degree == (degree if knot_class else None), c
            kinds |= {v.kind for v in report.errors + report.warnings}
    assert kinds == {"j-drop", "maslov", "d-squared", "column-rank", "row-rank", "symmetry"}


def test_validate_records_the_class_degree_only_on_an_error_free_report():
    c = trefoil_complex()
    assert c._class_degree is None
    assert validate(c, knot_class=True).ok and c._class_degree == 0
    for bad in validate_breakers():  # the last has column rank one, row rank 3
        assert not validate(bad, knot_class=True).ok
        assert bad._class_degree is None, bad


def test_a_class_breaking_the_maslov_law_gets_its_error_and_no_rank():
    # a flat arrow between two generators of one degree: ranked without the law, {0: 2}
    flat = CfkComplex([Generator("a", 0, 0), Generator("b", 0, 0)], [Arrow("a", "b", 0)])
    # the trefoil with M(x0) raised by 2: ranked without the law, rank one in degree 2
    raised = CfkComplex(
        [Generator("x0", 1, 2), Generator("x1", 0, -1), Generator("x2", -1, -2)],
        [Arrow("x1", "x0", 1), Arrow("x1", "x2", 0)],
    )
    for c, src, tgt, u in ((flat, "a", "b", 0), (raised, "x1", "x0", 1)):
        message = f"arrow {src}->{tgt} u={u}: M({src})-1 != M({tgt})-2u"
        assert validate(c, knot_class=True).errors == (cfk.Violation("maslov", message),)
        assert c._class_degree is None
        with pytest.raises(cfkcalc.InconsistentInput) as info:
            tau(c)
        assert str(info.value) == message


def test_only_validate_staircase_tensor_dual_and_reduce_record_a_class_degree(rng):
    assert random_staircase(rng)._class_degree == 0
    padded = with_flat_pairs(rng, trefoil_complex(), 2)
    assert reduce(padded)._class_degree is None  # nothing to keep
    assert validate(padded, knot_class=True).ok and padded._class_degree == 0
    reduced = reduce(padded)
    assert reduced == trefoil_complex() and reduced._class_degree == 0
    summed = direct_sum(padded, square_complex(prefix="s"))
    assert summed._class_degree is None
    assert deserialize(serialize(padded))._class_degree is None
    assert tensor(padded, trefoil_complex())._class_degree is None  # one factor unrecorded
    assert tensor(padded, dual(padded))._class_degree == 0


def test_reduce_keeps_the_class_degree_that_validate_finds(rng):
    corpus = randomized_corpus(random.Random(SEED))
    corpus += [with_flat_pairs(rng, c, rng.randint(1, 3)) for c in corpus]
    corpus += [shift_maslov(c, 2) for c in corpus[::7]]  # classes in degree 2
    for c in corpus:
        marked = CfkComplex(c.generators, c.arrows)
        assert validate(marked, knot_class=True).ok, c
        reduced = reduce(marked)
        fresh = CfkComplex(reduced.generators, reduced.arrows)
        assert validate(fresh, knot_class=True).ok, c
        assert reduced._class_degree == fresh._class_degree == marked._class_degree, c


def test_a_class_degree_keeps_equality_hash_and_copies():
    c = shift_maslov(class_complex(parse("T(3,4)")).complex, 2)
    assert validate(c, knot_class=True).ok and c._class_degree == 2
    product = tensor(c, c)
    plain = deserialize(serialize(product))
    assert product._class_degree == 4 and plain._class_degree is None
    assert product == plain and hash(product) == hash(plain)
    for twin in (pickle.loads(pickle.dumps(product)), copy.deepcopy(product)):
        assert twin == product and hash(twin) == hash(product)
        assert twin._class_degree == 4
        assert (tau(twin), epsilon(twin)) == (6, 1)
    assert product.generators  # a copy rebuilds from the columns, not from the Generator cache
    for original in (product, plain, dual(product), class_complex(parse("T(2,5)")).complex):
        for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert twin == original and hash(twin) == hash(original)
            assert twin._class_degree == original._class_degree
            assert twin.names == original.names and twin.offsets == original.offsets
            assert twin.generators == original.generators


def test_an_unpickled_complex_hashes_under_the_loading_seed():
    # the string-hash seeds differ, so a hash carried in the pickle would not
    # be the loading interpreter's hash of an equal complex
    src = str(Path(cfkcalc.__file__).resolve().parent.parent)
    build = "import pickle, sys; from cfkcalc import class_complex, parse; "
    build += "c = class_complex(parse('T(2,3)')).complex"
    dump = build + "; hash(c); sys.stdout.buffer.write(pickle.dumps(c))"
    load = build + "; print(pickle.load(sys.stdin.buffer) in {c})"

    def run(seed: str, code: str, data: bytes | None = None) -> bytes:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        argv = [sys.executable, "-c", code]
        return subprocess.run(argv, env=env, input=data, capture_output=True, check=True).stdout

    assert run("2", load, run("1", dump)).strip() == b"True"


def test_serialize_golden_and_round_trip():
    c = trefoil_complex()
    assert serialize(c) == TREFOIL_TEXT
    assert deserialize(serialize(c)) == c


_HEAD = "cfk v1\n"
_GEN_A = "gen a A=0 M=0\n"
_HEADER_MESSAGE = "expected 'cfk v1' header"

# (text, message, line, column) of every refusal the reader makes
DESERIALIZE_ERRORS = [
    # a missing or wrong header
    ("", _HEADER_MESSAGE, 1, 1),
    ("\n \t\n", _HEADER_MESSAGE, 1, 1),
    ("cfk v2\n", _HEADER_MESSAGE, 1, 1),
    ("\n\ncfk\n", _HEADER_MESSAGE, 3, 1),
    ("cfk  v1\n", _HEADER_MESSAGE, 1, 1),
    ("CFK v1\n", _HEADER_MESSAGE, 1, 1),
    (_GEN_A, _HEADER_MESSAGE, 1, 1),
    # a missing or extra field
    (_HEAD + "gen a A=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a\n", "malformed gen line", 2, 1),
    (_HEAD + "gen\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a M=0 A=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=0 M=0 x\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=0 M=0 gen b A=1 M=2\n", "malformed gen line", 2, 1),
    (_HEAD + _GEN_A + "arr a a\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a u=0\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a a u=0 u=0\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a a u=0 arr a a u=0\n", "malformed arr line", 3, 1),
    # integers: an optional '-' and decimal digits, none for u
    (_HEAD + "gen a A=x M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=+1 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=1_0 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=--1 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A= M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=0 M=-\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=1.0 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "gen a A=³ M=0\n", "malformed gen line", 2, 1),  # superscript three
    (_HEAD + "gen a a=0 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + _GEN_A + "arr a a u=-1\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a a u=-0\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a a u=+0\n", "malformed arr line", 3, 1),
    (_HEAD + _GEN_A + "arr a a U=0\n", "malformed arr line", 3, 1),
    # a directive with more letters is malformed, not unknown
    (_HEAD + "genx a A=0 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + "generator a A=0 M=0\n", "malformed gen line", 2, 1),
    (_HEAD + _GEN_A + "arrow a a u=0\n", "malformed arr line", 3, 1),
    # names: a duplicate generator, an unknown source or target, at their column
    (_HEAD + _GEN_A + "gen a A=1 M=1\n", "duplicate generator 'a'", 3, 5),
    (_HEAD + _GEN_A + "gen\t  a A=1 M=1\n", "duplicate generator 'a'", 3, 7),
    (_HEAD + _GEN_A + "arr b a u=0\n", "unknown generator 'b'", 3, 5),
    (_HEAD + _GEN_A + "arr a  b u=0\n", "unknown generator 'b'", 3, 8),
    (_HEAD + _GEN_A + "arr\tb\tc u=0\n", "unknown generator 'b'", 3, 5),
    (_HEAD + "arr a b u=0\n" + _GEN_A + "gen b A=1 M=0\n", "unknown generator 'a'", 2, 5),
    # CRLF line endings count lines as LF does
    ("cfk v1\r\n\r\ngen a A=x M=0\r\n", "malformed gen line", 3, 1),
    # an unknown directive, and a line that does not start at column 1
    (_HEAD + "foo\n", "unknown directive 'foo'", 2, 1),
    (_HEAD + "Gen a A=0 M=0\n", "unknown directive 'Gen'", 2, 1),
    (_HEAD + _GEN_A + "cfk v1\n", "unknown directive 'cfk'", 3, 1),
    (_HEAD + "  gen a A=0 M=0\n", "unexpected leading whitespace", 2, 1),
    (_HEAD + _GEN_A + "\tarr a a u=0\n", "unexpected leading whitespace", 3, 1),
    (_HEAD + " foo\n", "unexpected leading whitespace", 2, 1),
]


def _digit_limit_errors(digits: str) -> list[tuple[str, str, int, int]]:
    """Literals past the digit limit in A, M and u, each at its column; a
    duplicate or unknown name is found before them, and A before M."""
    message = digit_limit_message(len(digits))
    return [
        (_HEAD + f"gen a A={digits} M=0\n", message, 2, 9),
        (_HEAD + f"gen a A=0 M=-{digits}\n", message, 2, 13),
        (_HEAD + f"gen\ta\tA={digits}\tM={digits}\n", message, 2, 9),
        (_HEAD + f"gen a A=1 M=0\ngen b A=0 M=-1\narr a b u={digits}\n", message, 4, 11),
        (_HEAD + _GEN_A + f"gen a A={digits} M=0\n", "duplicate generator 'a'", 3, 5),
        (_HEAD + _GEN_A + f"arr a z u={digits}\n", "unknown generator 'z'", 3, 7),
    ]


def _outcome(read, text: str):
    """read(text), or the message, line and column of its ParseError."""
    try:
        return read(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def test_deserialize_errors():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    cases = DESERIALIZE_ERRORS + (_digit_limit_errors("1" * (limit + 1)) if limit else [])
    for text, message, line, column in cases:
        expected = (f"line {line}, column {column}: {message}", line, column)
        assert _outcome(deserialize, text) == expected, text


# (text, the complex it reads) of the grammar's freedoms
DESERIALIZE_ACCEPTED = [
    (TREFOIL_TEXT, trefoil_complex()),
    ("  cfk v1 \t\n" + TREFOIL_TEXT[7:], trefoil_complex()),
    ("\n \ncfk v1\n" + TREFOIL_TEXT[7:], trefoil_complex()),
    (_HEAD + TREFOIL_TEXT[7:].replace(" ", "\t"), trefoil_complex()),
    (_HEAD + TREFOIL_TEXT[7:].replace(" ", "  \t "), trefoil_complex()),
    (_HEAD + TREFOIL_TEXT[7:].replace(" ", "\u00a0\u3000"), trefoil_complex()),
    (TREFOIL_TEXT.replace("\n", " \t\n"), trefoil_complex()),
    (TREFOIL_TEXT.replace("\n", "\r\n"), trefoil_complex()),
    (TREFOIL_TEXT.replace("\n", "\r\n\r\n  \r\n"), trefoil_complex()),
    (TREFOIL_TEXT.rstrip("\n"), trefoil_complex()),
    (
        "cfk v1\ngen x1 A=0 M=-1\ngen x2 A=-1 M=-2\narr x1 x2 u=0\ngen x0 A=1 M=0\narr x1 x0 u=1\n",
        trefoil_complex(),
    ),
    (  # all of the above at once: tabs, runs of spaces, trailing whitespace,
        # CRLF, a blank line, and gen and arr lines interleaved
        "cfk v1\r\ngen x1\tA=0   M=-1\r\n\r\ngen x2 A=-1 M=-2 \t\r\narr x1 x2 u=0\r\n"
        "gen x0\tA=1\tM=0\r\narr x1 x0 u=1\r\n",
        trefoil_complex(),
    ),
    (
        TREFOIL_TEXT + "arr x1 x2 u=0\narr x1 x2 u=0\narr x1 x0 u=1\n",
        CfkComplex(trefoil_complex().generators, [Arrow("x1", "x2", 0)]),
    ),
    (
        "cfk v1\ngen a A=٣ M=-١٠\ngen b A=２ M=0\narr a b u=१\n",
        CfkComplex([Generator("a", 3, -10), Generator("b", 2, 0)], [Arrow("a", "b", 1)]),
    ),
    ("cfk v1\ngen x|y* A=-0 M=007\n", CfkComplex([Generator("x|y*", 0, 7)])),
    ("cfk v1\n", CfkComplex([])),
]


def test_deserialize_accepted_grammar():
    for text, expected in DESERIALIZE_ACCEPTED:
        c = deserialize(text)
        assert c == expected and c.generators == expected.generators, text
        assert c._class_degree is None
        assert serialize(c) == serialize(expected)


# the pieces a mutation puts into a line: fields, broken fields, separators
_MUTATION_TOKENS = [
    "gen", "arr", "genx", "cfk", "v1", "A=0", "M=-1", "u=0", "u=2", "A=", "A=+1", "A=1_0",
    "A=--1", "M=٣", "M=-０", "u=-1", "u=٢", "A=³", "x", "-", "=",
]
_SEPARATORS = ["\t", "  ", " \t", " ", "　", "\x1f"]


def _mutant(rng: random.Random, lines: list[str]) -> str:
    """lines with one token-level or line-level edit, joined by LF or CRLF."""
    lines = list(lines)
    k = rng.randrange(len(lines))
    words = lines[k].split(" ")
    op = rng.randrange(14)
    if op == 0 and len(words) > 1:
        del words[rng.randrange(len(words))]
    elif op == 1:
        j = rng.randrange(len(words))
        words.insert(j, words[j])
    elif op == 2 and len(words) > 1:
        j = rng.randrange(len(words) - 1)
        words[j], words[j + 1] = words[j + 1], words[j]
    elif op == 3:
        words[rng.randrange(len(words))] = rng.choice(_MUTATION_TOKENS)
    elif op == 4:
        words.insert(rng.randrange(len(words) + 1), rng.choice(_MUTATION_TOKENS))
    elif op == 5:  # one separator, or the line's end, becomes other whitespace
        j = rng.randrange(len(words))
        words[j] += rng.choice(_SEPARATORS)
    elif op == 6:
        words[0] = rng.choice(_SEPARATORS) + words[0]
    elif op == 7 and k + 1 < len(lines):  # two records on one line
        words += lines.pop(k + 1).split(" ")
    elif op == 8:
        del lines[k]
        return "\n".join(lines)
    elif op == 9:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif op == 10:  # a line moved earlier: an arrow before its generator
        lines.insert(rng.randrange(k + 1), lines.pop(k))
    elif op == 11:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t\t"]))
    elif op == 12:  # a digit of a field becomes another script's digit
        j = rng.randrange(len(words))
        words[j] = words[j].replace("1", rng.choice("١१１")).replace("0", rng.choice("٠०０"))
    else:
        words[rng.randrange(len(words))] += rng.choice(["1", "x", "=", "-", "_1"])
    lines[k] = " ".join(words)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def test_deserialize_matches_the_line_regex_reader_on_mutated_files():
    rng = random.Random(SEED)
    texts = [TREFOIL_TEXT] + [
        serialize(class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex)
        for p in range(2, 7)
    ]
    # and the factors a certificate stores, the second a dual with '*' names
    texts += map(serialize, class_complex(parse("C(D;3,4) + -T(3,4)")).factors)
    refused = 0
    for k in range(504):
        text = _mutant(rng, texts[k % len(texts)].splitlines())
        expected, got = _outcome(reference_deserialize, text), _outcome(deserialize, text)
        if isinstance(expected, tuple):
            refused += 1
            assert got == expected, f"mutant {k}"
        else:
            assert got == expected and got.generators == expected.generators, f"mutant {k}"
            assert got._class_degree is None
    assert 150 < refused < 450  # both readings meet many files


def test_deserialize_round_trips_every_golden():
    for text in [TREFOIL_TEXT] + [
        serialize(class_complex(parse(expr)).complex) for expr in sorted(GOLDEN_DIGESTS)
    ]:
        assert serialize(deserialize(text)) == text
        assert deserialize(text) == reference_deserialize(text)


def test_deserialize_refuses_a_literal_past_the_digit_limit_at_its_field(too_many_digits):
    for text, line, column in [
        (f"cfk v1\ngen a A={too_many_digits} M=0\n", 2, 9),
        (f"cfk v1\ngen a A=0 M=-{too_many_digits}\n", 2, 13),
        (f"cfk v1\ngen a A=1 M=0\ngen b A=0 M=-1\narr a b u={too_many_digits}\n", 4, 11),
    ]:
        message = f"^line {line}, column {column}: {digit_limit_message(len(too_many_digits))}$"
        with pytest.raises(ParseError, match=message) as exc:
            deserialize(text)
        assert (exc.value.line, exc.value.column) == (line, column)


def test_deserialize_reads_generator_names_of_any_digit_count():
    # only integer fields meet the digit limit: a name of 5,000 digits is a name
    name = "1" * 5000
    c = deserialize(f"cfk v1\ngen {name} A=1 M=0\ngen b A=0 M=-1\narr {name} b u=0\n")
    assert [g.name for g in c.generators] == ["b", name]
    assert c.arrows == (Arrow(name, "b", 0),)
    assert deserialize(serialize(c)) == c


def test_deserialize_cancels_duplicate_arrows():
    text = "cfk v1\ngen a A=1 M=0\ngen b A=0 M=-1\narr b a u=0\narr b a u=0\n"
    assert deserialize(text).arrows == ()


def test_tensor_structure():
    t = trefoil_complex()
    s = tensor(t, t)
    assert len(s.generators) == 9
    assert len(s.arrows) == 2 * 3 + 3 * 2
    assert validate(s).ok
    table = s.grading_table()
    assert table[(2, 0)] == 1  # x0 | x0
    assert table[(-2, -4)] == 1  # x2 | x2
    assert table[(1, -1)] == 2


def test_tensor_with_unknot_preserves_shape():
    t = trefoil_complex()
    s = tensor(t, unknot_complex("u"))
    assert s.grading_table() == t.grading_table()
    assert len(s.arrows) == len(t.arrows)
    assert tau(s) == tau(t) and epsilon(s) == epsilon(t)


def test_tensor_refuses_a_product_over_the_generator_limit():
    assert MAX_GENERATORS == 200_000
    left, right = torus_staircase(2, 501), torus_staircase(2, 401)  # 501 * 401 = 200,901
    message = r"^a tensor product of 200,901 generators is over the limit of 200,000$"
    with pytest.raises(UnsupportedExpression, match=message):
        tensor(left, right)
    assert len(tensor(left, trefoil_complex())) == 501 * 3


def test_dual_negates_and_reverses():
    t = trefoil_complex()
    d = dual(t)
    assert d.grading_table() == {(-1, 0): 1, (0, 1): 1, (1, 2): 1}
    assert d.arrows == (Arrow("x0*", "x1*", 1), Arrow("x2*", "x1*", 0))
    assert dual(d) == t


def test_dual_involution_random(rng):
    for _ in range(10):
        c = with_random_squares(rng, random_staircase(rng), rng.randint(0, 2))
        assert dual(dual(c)) == c
        assert validate(unmarked(dual(c))).ok


def test_dual_refuses_names_that_collide_or_vanish():
    # 'a' and 'a**' both dualize to 'a*'; '*' dualizes to the empty name
    with pytest.raises(ValueError, match="^generator names collide under dualization$"):
        dual(CfkComplex([Generator("a", 0, 0), Generator("a**", 1, 0)]))
    with pytest.raises(ValueError, match="^unusable generator name ''$"):
        dual(CfkComplex([Generator("*", 0, 0)]))


def test_reduce_cancels_synthetic_pair():
    gens = [
        Generator("a", 1, 0),
        Generator("b", 0, -1),
        Generator("p", 0, 0),
        Generator("q", 0, -1),
        Generator("r", 1, 0),
        Generator("s", -1, -1),
    ]
    # p -> q is the only bidegree-(0,0) arrow; r hits q and p hits s, so
    # cancellation must reroute r through the pair onto s
    arrows = [
        Arrow("b", "a", 1),
        Arrow("p", "q", 0),
        Arrow("p", "s", 0),
        Arrow("r", "q", 0),
    ]
    c = CfkComplex(gens, arrows)
    assert validate(c).ok
    r = reduce(c)
    assert len(r.generators) == 4
    assert r.arrows == (Arrow("b", "a", 1), Arrow("r", "s", 0))
    assert validate(r).ok
    assert reduce(r) is r


def test_reduce_identity_on_reduced():
    t = trefoil_complex()
    assert reduce(t) == t
    r = reduce(tensor(t, dual(t)))
    assert reduce(r) == r


def test_reduce_idempotent_random(rng):
    for _ in range(8):
        c = with_random_squares(rng, random_staircase(rng), rng.randint(0, 2))
        c = random_basis_change(rng, c)
        r = reduce(c)
        assert validate(unmarked(r)).ok
        assert reduce(r) is r


def test_square_complex_validates():
    for w, h in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        sq = square_complex(w, h, 0, -1)
        assert validate(sq).ok
        assert len(sq.generators) == 4
    with pytest.raises(ValueError):
        square_complex(0, 1)


def test_direct_sum_rejects_name_clash():
    with pytest.raises(ValueError):
        direct_sum(trefoil_complex(), trefoil_complex())


def perturbable_complex() -> CfkComplex:
    # pure staircases admit no filtered change of basis at all (no pair
    # satisfies both grading constraints), so adjoin a square summand
    return direct_sum(trefoil_complex(), square_complex(1, 1, 0, -1))


# reference_change_basis makes the basis-change cases of the randomized
# corpus, so these pin that its moves are filtered isomorphisms


def test_change_basis_preserves_complex():
    c = perturbable_complex()
    out = reference_change_basis(c, "x1", "sqb", 0)
    assert out != c
    assert validate(out).ok
    assert out.grading_table() == c.grading_table()
    assert tau(out) == tau(c) and epsilon(out) == epsilon(c)


def test_change_basis_rejects_bad_requests():
    c = perturbable_complex()
    with pytest.raises(ValueError):
        reference_change_basis(c, "x1", "x1", 0)
    with pytest.raises(ValueError):
        reference_change_basis(c, "x1", "sqb", 1)  # Maslov mismatch
    with pytest.raises(ValueError):
        reference_change_basis(c, "x2", "sqa", 1)  # would raise the filtration
    with pytest.raises(ValueError):
        reference_change_basis(c, "x1", "sqb", -2)
    with pytest.raises(KeyError):
        reference_change_basis(c, "x1", "nowhere", 0)


def test_change_basis_round_trip_is_identity():
    c = perturbable_complex()
    once = reference_change_basis(c, "x1", "sqb", 0)
    twice = reference_change_basis(once, "x1", "sqb", 0)
    assert twice == c


def test_reduce_matches_reference_on_randomized_corpus():
    # the corpus is reduced by construction, so flat pairs tangled in by
    # basis changes give reduce something to cancel and reroute
    rng = random.Random(SEED)
    cancelled = 0
    # cancelling in index order, b -> e first, would leave d: sources go by name
    gens = [Generator("a", 0, 0)] + [Generator(x, 0, -1) for x in "bcd"] + [Generator("e", 0, -2)]
    arrows = [Arrow("a", x, 0) for x in "bcd"] + [Arrow("b", "e", 0), Arrow("d", "e", 0)]
    order = CfkComplex(gens, arrows)
    survivor = (Generator("c", 0, -1),)
    assert reduce(order).generators == reference_reduce(order).generators == survivor
    for c in randomized_corpus(random.Random(SEED)):
        tangled = with_flat_pairs(rng, c, rng.randint(1, 3))
        for _ in range(3):
            tangled = random_basis_change(rng, tangled)
        cases = [c, tensor(c, c), with_random_squares(rng, c, 2), random_basis_change(rng, c)]
        cases += [tangled, tensor(tangled, tangled), random_basis_change(rng, tensor(tangled, c))]
        for x in cases:
            assert validate(unmarked(x)).ok
            r = reduce(x)
            assert serialize(r) == serialize(reference_reduce(x))
            assert reduce(r) is r
            cancelled += r is not x
    assert cancelled >= 300


def test_reduce_scales_linearly_in_cancellable_pairs():
    text = TREFOIL_TEXT + "".join(
        f"gen a{i} A={i % 5 - 2} M=1\ngen b{i} A={i % 5 - 2} M=0\narr a{i} b{i} u=0\n"
        for i in range(40_000)
    )
    c = deserialize(text)
    start = time.perf_counter()
    r = reduce(c)
    assert time.perf_counter() - start < 3.0
    assert r == trefoil_complex()


def test_reduce_accepts_catalog(rng):
    for _ in range(5):
        c = tensor(random_staircase(rng), dual(random_staircase(rng)))
        r = reduce(c)
        assert validate(unmarked(r), knot_class=True).ok
        assert reduce(r) is r


def test_tensor_and_dual_keep_classes_reduced(rng):
    # the class algebra skips reduce after tensor and dual: on reduced
    # inputs reduce must hand back the very object it was given
    pool = [random_staircase(rng) for _ in range(4)]
    pool += [dual(random_staircase(rng)) for _ in range(3)]
    pool += [tensor(random_staircase(rng, 2, 2), random_staircase(rng, 2, 2)) for _ in range(3)]
    pool += [
        class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex for p in (2, 3, 4)
    ]
    for a in pool:
        assert reduce(a) is a
        d = dual(a)
        assert reduce(d) is d
    for _ in range(12):
        a, b = rng.sample(pool, 2)
        c = tensor(a, b)
        assert reduce(c) is c


# ---------------------------------------------------------------------------
# serialized classes stay byte-identical, and tensor matches the name-keyed
# reference


GOLDEN_DIGESTS = {
    "T(4,5)": "6679d83ba4e3f0c4fae3f44ce56f559f4fda436253ec81f115a85b843b726b40",
    "T(2,3) + T(2,3)": "39fbeec893ec0cb483bd360264a985a96a880ebcd5d241193ab43343dca94108",
    "(T(2,3) + T(2,3)) + T(2,3)": (
        "8edbc12f17d14eef0548e6335a3a327c85354669e2e73a767c6614b4af418646"
    ),
    "-(C(D;2,3) + -T(2,3))": "11ec8aa346fd456ec331136d6e66ef0e4482fa896ea5ac32e76726fcb3a6ced1",
    "C(D;3,4) + -T(3,4)": "2be27c80142ecf241cd5b058468413fef3a523cdd2450fe22fa58d1d01e4e4a4",
    "(T(2,3) + -T(2,5)) + (T(2,3) + (-T(2,3) + T(3,4)))": (
        "4485cacc0ba03a4f6a151fcf2b11c12bc856b5359f57427d27c310dcdcca70c9"
    ),
}


def _digest(c: CfkComplex) -> str:
    return hashlib.sha256(serialize(c).encode()).hexdigest()


@pytest.mark.parametrize("text", sorted(GOLDEN_DIGESTS))
def test_serialized_classes_match_golden_digests(text):
    assert _digest(class_complex(parse(text)).complex) == GOLDEN_DIGESTS[text]


def test_tensor_names_ties_in_pair_order():
    # A class never needs a '#n' tie: every name in one factor of a sum has
    # the same number of '|'.  Names with different counts force ties.
    left = CfkComplex(
        [Generator("a", 0, 0), Generator("a|b", 1, 1), Generator("a|b|c", 1, 1)],
        [Arrow("a|b", "a", 1), Arrow("a|b|c", "a", 0)],
    )
    right = CfkComplex(
        [
            Generator("b|c", 0, 0),
            Generator("c", 0, 0),
            Generator("b|c|c", -1, -1),
            Generator("s", 2, 3),
        ],
        [Arrow("s", "s", 1), Arrow("b|c", "b|c|c", 0)],
    )
    product = tensor(left, right)
    assert product == reference_tensor(left, right) == reference_named_tensor(left, right)
    names = {g.name for g in product.generators}
    assert {"a|b|c", "a|b|c#2", "a|b|c|c", "a|b|c|c#2"} <= names
    assert _digest(product) == "9533fce4ce1a52688261313a369d4884eb94df2ded7bc5634a43bac84816831c"
    # the two ways to act on a pair of self-loops cancel mod 2
    loop = CfkComplex([Generator("l", 2, 3)], [Arrow("l", "l", 1)])
    assert tensor(loop, loop).arrows == ()
    assert tensor(right, loop) == reference_tensor(right, loop)


def test_tensor_matches_reference_on_randomized_corpus():
    corpus = randomized_corpus(random.Random(SEED))
    for c, d in zip(corpus, corpus[1:] + corpus[:1]):
        assert tensor(c, d) == reference_tensor(c, d) == reference_named_tensor(c, d)
        assert tensor(c, dual(d)) == reference_tensor(c, dual(d))


def _assert_same_tensor(c: CfkComplex, d: CfkComplex) -> None:
    product, expected = tensor(c, d), reference_tensor(c, d)
    assert product.generators == expected.generators
    assert product.triples == expected.triples
    assert product.offsets == expected.offsets


def test_tensor_ranking_triples_as_made_matches_the_list_build():
    rng = random.Random(SEED)
    corpus = randomized_corpus(random.Random(SEED))
    for c, d in zip(corpus, corpus[1:] + corpus[:1]):
        tangled = random_basis_change(rng, with_flat_pairs(rng, c, 2))
        for x, y in [(c, c), (c, dual(c)), (c, d), (tangled, d), (dual(d), tangled)]:
            _assert_same_tensor(x, y)
    # '#2' name ties, and a pair of self-loops whose two product arrows
    # coincide and cancel mod 2 while the other arrows stay
    left = CfkComplex(
        [Generator("a", 0, 0), Generator("a|b", 1, 1), Generator("a|b|c", 1, 1)],
        [Arrow("a|b", "a", 1), Arrow("a|b|c", "a", 0)],
    )
    right = CfkComplex([Generator("b|c", 0, 0), Generator("c", 0, 0)], [])
    assert "a|b|c#2" in {g.name for g in tensor(left, right).generators}
    _assert_same_tensor(left, right)
    loop = CfkComplex([Generator("l", 2, 3), Generator("m", 1, 2)], [Arrow("l", "l", 1)])
    tied = CfkComplex([Generator("l", 0, 0), Generator("n", 1, 2)], [Arrow("l", "l", 1)])
    product = tensor(loop, tied)
    assert product.arrows == (Arrow("l|n", "l|n", 1), Arrow("m|l", "m|l", 1))
    _assert_same_tensor(loop, tied)
    _assert_same_tensor(loop, loop)


@pytest.mark.parametrize("p", range(2, 7))
def test_tensor_matches_reference_on_difference_classes(p):
    above = class_complex(parse(f"C(D;{p},{p + 1})")).complex
    below = dual(class_complex(parse(f"T({p},{p + 1})")).complex)
    expected = reference_tensor(above, below)
    assert tensor(above, below) == expected
    assert class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")).complex == expected


def _reference_class(e) -> CfkComplex:
    if isinstance(e, Sum):
        return reference_tensor(_reference_class(e.left), _reference_class(e.right))
    if isinstance(e, Mirror):
        return dual(_reference_class(e.inner))
    return class_complex(e).complex


NESTED_SUMS = [
    "(T(2,3) + T(2,3)) + T(2,3)",
    "T(2,3) + (T(2,3) + T(2,3))",
    "-(T(2,3) + T(2,3)) + T(2,3)",
    "T(2,5) + -(T(2,3) + -T(3,4))",
    "(T(2,3) + -T(2,3)) + (T(2,3) + -T(2,3))",
]


@pytest.mark.parametrize("text", NESTED_SUMS)
def test_tensor_matches_reference_on_nested_sums_and_duals(text):
    for expr in (text, f"-({text})"):
        e = parse(expr)
        assert class_complex(e).complex == _reference_class(e)
