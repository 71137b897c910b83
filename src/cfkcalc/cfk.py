"""Bifiltered chain complexes over F2[U, 1/U] with two filtration gradings.

A complex is a finite free module with one basis element per generator.  The
generator x is the plane element at (i, j) = (0, A(x)) and its translate
U^k x sits at (-k, A(x) - k), so the whole U-orbit is the diagonal
j - i = A(x).  An arrow (x, y, n) records the differential component
d(x) = U^n y + ...; coefficients live in F2, so arrows are a set and equal
triples cancel in pairs.

Every structural operation here (tensor, dual, reduce, text round trip)
is exact and deterministic.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import Counter
from itertools import chain, islice, repeat
from operator import eq
from typing import Iterable, NamedTuple

from ._value import Value
from .errors import ParseError, UnsupportedExpression, parse_int
from .regions import Column0, Row, homology_ranks

__all__ = [
    "Generator",
    "Arrow",
    "CfkComplex",
    "Violation",
    "ValidationReport",
    "validate",
    "tensor",
    "dual",
    "reduce",
    "serialize",
    "deserialize",
    "unknot_complex",
    "square_complex",
    "direct_sum",
    "MAX_GENERATORS",
]


class Generator:
    """Basis element with Alexander and Maslov gradings; immutable."""

    __slots__ = ("name", "alexander", "maslov")

    def __init__(self, name: str, alexander: int, maslov: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alexander", alexander)
        object.__setattr__(self, "maslov", maslov)

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.alexander, self.maslov))

    def __repr__(self) -> str:
        return "Generator(name={!r}, alexander={!r}, maslov={!r})".format(*self.__reduce__()[1])

    __setattr__ = __delattr__ = Value.__setattr__

    def __reduce__(self) -> tuple:
        return Generator, (self.name, self.alexander, self.maslov)


class Arrow(NamedTuple):
    """Differential component d(source) = U^u_exp * target + ..."""

    source: str
    target: str
    u_exp: int


def _gen_key(g: Generator) -> tuple[int, int, str]:
    return (g.alexander, g.maslov, g.name)


def _odd(keys: Iterable[tuple]) -> set[tuple]:
    """The keys that occur an odd number of times: their sum over F2."""
    return {k for k, n in Counter(keys).items() if n % 2}


_NAME = re.compile(r"\S+")

MAX_GENERATORS = 200_000  # the largest tensor product built


class CfkComplex:
    """Immutable complex: generators plus an F2 set of arrows.

    Generators are sorted by (alexander, maslov, name).  Each arrow is kept
    once, as a sorted triple (src, tgt, u) of generator indices and U power:
    the arrows leaving generator k are ``triples[offsets[k]:offsets[k + 1]]``.

    The constructor checks structure only (names usable and unique, arrow
    endpoints present, U-exponents nonnegative) in the order given; _store
    sorts once and cancels duplicate triples mod 2.  validate() checks the rest.
    _class_degree, the degree of the rank-one column homology or None, is set
    only by validate, tensor and dual, and is not part of equality.
    """

    __slots__ = ("generators", "triples", "offsets", "_hash", "_class_degree")

    def __init__(self, generators: Iterable[Generator], arrows: Iterable[Arrow] = ()):
        gens = list(generators)
        index: dict[str, int] = {}
        for k, g in enumerate(gens):
            if not _NAME.fullmatch(g.name):
                raise ValueError(f"unusable generator name {g.name!r}")
            if g.name in index:
                raise ValueError(f"duplicate generator name {g.name!r}")
            index[g.name] = k
        triples = []
        for a in arrows:
            if a.u_exp < 0:
                raise ValueError(f"negative U-exponent on arrow {a}")
            if a.source not in index or a.target not in index:
                raise ValueError(f"arrow {a} references a missing generator")
            triples.append((index[a.source], index[a.target], a.u_exp))
        self._store(gens, triples)

    def _store(self, gens: list[Generator], triples: Iterable[tuple[int, int, int]]) -> None:
        """Sort gens, rank the triples to match as read, cancel equal ones mod 2."""
        order = sorted(range(len(gens)), key=lambda k: _gen_key(gens[k]))
        rank = sorted(range(len(gens)), key=order.__getitem__)  # order's inverse
        triples = sorted((rank[s], rank[t], u) for s, t, u in triples)
        if any(map(eq, triples, islice(triples, 1, None))):  # equal triples are neighbours
            triples = sorted(_odd(triples))
        self.generators = tuple(gens[k] for k in order)
        self.triples = tuple(triples)
        self.offsets = tuple(bisect_left(triples, (k,)) for k in range(len(gens) + 1))
        self._hash = self._class_degree = None

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """Named arrows in (source, target, u_exp) order, built on each access."""
        names = [g.name for g in self.generators]
        return tuple(Arrow(*k) for k in sorted((names[s], names[t], u) for s, t, u in self.triples))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CfkComplex):
            return NotImplemented
        return self.generators == other.generators and self.triples == other.triples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.generators, self.triples))
        return self._hash

    def __len__(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"CfkComplex({len(self.generators)} generators, {len(self.triples)} arrows)"

    def grading_table(self) -> dict[tuple[int, int], int]:
        """Generator count per (alexander, maslov) pair."""
        return dict(Counter((g.alexander, g.maslov) for g in self.generators))


# ---------------------------------------------------------------------------
# validation


class Violation(NamedTuple):
    kind: str
    message: str


class ValidationReport(NamedTuple):
    errors: tuple[Violation, ...]
    warnings: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "ok"
        lines = []
        for v in self.errors:
            lines.append(f"error {v.kind}: {v.message}")
        for v in self.warnings:
            lines.append(f"warning {v.kind}: {v.message}")
        if self.ok:
            lines.insert(0, "ok")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "errors": [v._asdict() for v in self.errors],
                "warnings": [v._asdict() for v in self.warnings],
            },
            indent=2,
        )


def _d_squared_witnesses(c: CfkComplex) -> list[tuple[str, str, int]]:
    tr, off = c.triples, c.offsets
    paths = _odd((s, z, u + v) for s, t, u in tr for _, z, v in tr[off[t] : off[t + 1]])
    names = [g.name for g in c.generators]
    return sorted((names[s], names[z], n) for s, z, n in paths)


def _math_errors(c: CfkComplex) -> list[Violation]:
    gens = c.generators
    bad = []
    for s, t, u in c.triples:
        gs, gt = gens[s], gens[t]
        drop = gs.alexander - gt.alexander + u
        maslov_ok = gs.maslov - 1 == gt.maslov - 2 * u
        if drop < 0 or not maslov_ok:
            bad.append(((gs.name, gt.name, u), drop, maslov_ok))
    errors: list[Violation] = []
    for (src, tgt, u), drop, maslov_ok in sorted(bad):
        if drop < 0:
            errors.append(Violation("j-drop", f"arrow {src}->{tgt} u={u} rises by {-drop}"))
        if not maslov_ok:
            message = f"arrow {src}->{tgt} u={u}: M({src})-1 != M({tgt})-2u"
            errors.append(Violation("maslov", message))
    for src, tgt, power in _d_squared_witnesses(c):
        errors.append(
            Violation("d-squared", f"d^2 sends {src} to U^{power} {tgt} with odd multiplicity")
        )
    return errors


def validate(c: CfkComplex, knot_class: bool = False) -> ValidationReport:
    """Report every grading or d^2 violation; never raises on bad math.

    With knot_class=True also requires column and row homology of rank one,
    and when the column's is, records its degree on c for the invariants.
    A symmetry warning compares generator counts of the reduced complex at
    (s, m) and (-s, m - 2s); it is only attempted on error-free complexes.
    """
    warnings: list[Violation] = []
    errors = _math_errors(c)
    if knot_class and not errors:
        # the Maslov law holds here, so homology_ranks raises on no arrow
        for kind, region in (("column", Column0()), ("row", Row(0))):
            ranks = homology_ranks(c, region)
            rank, degree = sum(ranks.values()), max(ranks, key=ranks.__getitem__, default=None)
            del ranks  # not held while the row is ranked
            if rank != 1:
                errors.append(Violation(f"{kind}-rank", f"{kind} homology rank {rank}, expected 1"))
            elif kind == "column":
                c._class_degree = degree
    if not errors:
        table = reduce(c).grading_table()
        for (s, m), count in sorted(table.items()):
            other = table.get((-s, m - 2 * s), 0)
            if count != other:
                message = f"{count} generators at (A, M) = ({s}, {m}) but "
                message += f"{other} at ({-s}, {m - 2 * s})"
                warnings.append(Violation("symmetry", message))
    return ValidationReport(tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# operations


def _indexed(gens: list[Generator], triples: Iterable, degree: int | None = None) -> CfkComplex:
    """Complex on gens (usable, unique names) and (src, tgt, u) triples over
    their list order, recording degree as its class degree."""
    c = CfkComplex.__new__(CfkComplex)
    c._store(gens, triples)
    c._class_degree = degree
    return c


def tensor(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """Tensor product; gradings add and the differential obeys the
    Leibniz rule, so every arrow acts on one factor and fixes the other,
    keeping its U power and Alexander drop: a tensor product of reduced
    complexes is reduced, like the dual of one.  Column0 of the product is
    the product of the columns, so by Kuenneth class degrees d1, d2 give d1 + d2.

    The pair (x1, x2) is named 'x1|x2', plus '#2', '#3', ... when an earlier
    pair took that name.  A product of more than MAX_GENERATORS generators
    raises UnsupportedExpression before anything is built.
    """
    size = len(c1) * len(c2)
    if size > MAX_GENERATORS:
        raise UnsupportedExpression(
            f"a tensor product of {size:,} generators is over the limit of {MAX_GENERATORS:,}"
        )
    gens: list[Generator] = []
    used: set[str] = set()
    for g1 in c1.generators:
        for g2 in c2.generators:
            base = candidate = f"{g1.name}|{g2.name}"
            tie = 2
            while candidate in used:
                candidate = f"{base}#{tie}"
                tie += 1
            used.add(candidate)
            gens.append(Generator(candidate, g1.alexander + g2.alexander, g1.maslov + g2.maslov))
    # the pair (k1, k2) sits at k1 * n2 + k2; _store ranks triples as they are made
    n2 = len(c2.generators)
    runs = chain(
        (zip(range(s * n2, s * n2 + n2), range(t * n2, t * n2 + n2), repeat(u))
         for s, t, u in c1.triples),
        (zip(range(s, size, n2), range(t, size, n2), repeat(u)) for s, t, u in c2.triples),
    )
    d1, d2 = c1._class_degree, c2._class_degree
    return _indexed(gens, chain.from_iterable(runs), None if None in (d1, d2) else d1 + d2)


def _dual_name(name: str) -> str:
    return name[:-1] if name.endswith("*") else name + "*"


def dual(c: CfkComplex) -> CfkComplex:
    """Mirror complex: gradings negate, arrows reverse with the same power.

    Names gain or lose a trailing '*' so that dual(dual(c)) == c.  The
    column of the dual is the dual of the column: class degree d becomes -d.
    """
    gens = [Generator(_dual_name(g.name), -g.alexander, -g.maslov) for g in c.generators]
    names = {g.name for g in gens}
    if len(names) != len(gens):
        raise ValueError("generator names collide under dualization")
    if "" in names:  # the dual of '*'
        raise ValueError("unusable generator name ''")
    d = c._class_degree
    return _indexed(gens, [(t, s, u) for s, t, u in c.triples], None if d is None else -d)


def reduce(c: CfkComplex) -> CfkComplex:
    """Cancel every arrow with u_exp = 0 and Alexander drop 0.

    Cancelling x -> y removes both generators and, for every w -> y (power
    n1) and x -> z (power n2), toggles w -> z with power n1 + n2, at a cost
    of in-degree times out-degree.  Sources are visited once, in name order,
    each cancelling its flat target of least name.  When no arrow raises the
    Alexander filtration (validate() checks it), a new flat w -> z needs a
    flat w -> y, so w comes after x: a source once passed never gets a flat
    arrow again, and each pair cancelled is the least flat arrow by (source,
    target) name.  When nothing cancels, c itself is returned.
    """
    gens = c.generators
    alex = [g.alexander for g in gens]
    if not any(u == 0 and alex[s] == alex[t] for s, t, u in c.triples):
        return c
    out: list[set[tuple[int, int]]] = [set() for _ in gens]
    into: list[set[tuple[int, int]]] = [set() for _ in gens]
    for s, t, u in c.triples:
        out[s].add((t, u))
        into[t].add((s, u))
    names = [g.name for g in gens]
    dead: set[int] = set()  # arrows touching a dead generator are stale, not removed
    for x in sorted(range(len(gens)), key=names.__getitem__):
        flat = [t for t, u in out[x] if u == 0 and alex[t] == alex[x] and t not in dead]
        if x in dead or not flat:
            continue
        y = min(flat, key=names.__getitem__)
        dead.update((x, y))
        into_y = [(w, n) for w, n in into[y] if w not in dead]
        out_x = [(z, n) for z, n in out[x] if z not in dead]
        for w, z, n in _odd((w, z, n1 + n2) for w, n1 in into_y for z, n2 in out_x):
            out[w] ^= {(z, n)}
            into[z] ^= {(w, n)}
    live = [k for k in range(len(gens)) if k not in dead]
    new = {k: i for i, k in enumerate(live)}
    triples = [(new[s], new[t], u) for s in live for t, u in out[s] if t not in dead]
    return _indexed([gens[k] for k in live], triples)


# ---------------------------------------------------------------------------
# constructors used across the test suites


def unknot_complex(name: str = "x0") -> CfkComplex:
    """One generator at (A, M) = (0, 0) with zero differential."""
    return CfkComplex([Generator(name, 0, 0)])


def square_complex(
    width: int = 1,
    height: int = 1,
    alexander: int = 0,
    maslov: int = 0,
    prefix: str = "sq",
) -> CfkComplex:
    """Acyclic box summand on four generators a, b, c, d.

    d(b) = U^width a + c and d(c) = U^width d, d(a) = d (vertical); width is
    the horizontal arrow length and height the vertical one.  (alexander,
    maslov) places the corner generator b.
    """
    if width < 1 or height < 1:
        raise ValueError("square sides must be at least 1")
    a, m = alexander, maslov
    gens = [
        Generator(prefix + "b", a, m),
        Generator(prefix + "a", a + width, m - 1 + 2 * width),
        Generator(prefix + "c", a - height, m - 1),
        Generator(prefix + "d", a + width - height, m - 2 + 2 * width),
    ]
    arrows = [
        Arrow(prefix + "b", prefix + "a", width),
        Arrow(prefix + "b", prefix + "c", 0),
        Arrow(prefix + "a", prefix + "d", 0),
        Arrow(prefix + "c", prefix + "d", width),
    ]
    return CfkComplex(gens, arrows)


def direct_sum(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """Disjoint union; generator names must not collide."""
    overlap = set(g.name for g in c1.generators) & set(g.name for g in c2.generators)
    if overlap:
        raise ValueError(f"direct summands share names: {sorted(overlap)}")
    n1 = len(c1)
    shifted = [(s + n1, t + n1, u) for s, t, u in c2.triples]
    return _indexed([*c1.generators, *c2.generators], [*c1.triples, *shifted])


# ---------------------------------------------------------------------------
# text format


_HEADER = "cfk v1"
_GEN_RE = re.compile(r"^gen\s+(\S+)\s+A=(-?\d+)\s+M=(-?\d+)\s*$")
_ARR_RE = re.compile(r"^arr\s+(\S+)\s+(\S+)\s+u=(\d+)\s*$")


def serialize(c: CfkComplex) -> str:
    """Canonical text: header, generators by (A, M, name), arrows sorted."""
    lines = [_HEADER]
    names = [g.name for g in c.generators]
    for g in c.generators:
        lines.append(f"gen {g.name} A={g.alexander} M={g.maslov}")
    for src, tgt, u in sorted((names[s], names[t], u) for s, t, u in c.triples):
        lines.append(f"arr {src} {tgt} u={u}")
    return "\n".join(lines) + "\n"


def _field(m: re.Match, k: int, lineno: int) -> int:
    """Integer group k of m; past the digit limit, ParseError at its column."""
    try:
        return int(m[k])
    except ValueError:
        return parse_int(m[k], lineno, m.start(k) + 1)


def deserialize(text: str) -> CfkComplex:
    """Parse the cfk v1 format; structural problems raise ParseError.

    Grading violations are accepted here and left to validate(); an arrow
    naming an unknown generator is structural and rejected.  Names map to
    generator indices as lines are read, so each arrow line becomes one
    index triple.  Duplicate arrow lines cancel mod 2.
    """
    lines = text.splitlines()
    gens: list[Generator] = []
    seen: dict[str, int] = {}  # name -> generator index
    triples: list[tuple[int, int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != _HEADER:
                raise ParseError(f"expected {_HEADER!r} header", line=lineno, column=1)
            header_seen = True
            continue
        if line.startswith("gen"):
            m = _GEN_RE.match(line)
            if m is None:
                raise ParseError("malformed gen line", line=lineno, column=1)
            name = m.group(1)
            if name in seen:
                message = f"duplicate generator {name!r}"
                raise ParseError(message, line=lineno, column=m.start(1) + 1)
            seen[name] = len(gens)
            gens.append(Generator(name, _field(m, 2, lineno), _field(m, 3, lineno)))
        elif line.startswith("arr"):
            m = _ARR_RE.match(line)
            if m is None:
                raise ParseError("malformed arr line", line=lineno, column=1)
            for k in (1, 2):
                if m.group(k) not in seen:
                    message = f"unknown generator {m.group(k)!r}"
                    raise ParseError(message, line=lineno, column=m.start(k) + 1)
            triples.append((seen[m[1]], seen[m[2]], _field(m, 3, lineno)))
        else:
            raise ParseError(f"unknown directive {line.split()[0]!r}", line=lineno, column=1)
    if not header_seen:
        raise ParseError(f"expected {_HEADER!r} header", line=1, column=1)
    return _indexed(gens, triples)
