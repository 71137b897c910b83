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
import math
import re
from collections import Counter
from functools import partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, itemgetter, ne
from typing import Iterable, NamedTuple

from .errors import InternalInconsistency, ParseError, UnsupportedExpression, parse_int
from .gf2 import block_ranks

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


class Generator(NamedTuple):
    """Basis element with Alexander and Maslov gradings."""

    name: str
    alexander: int
    maslov: int


class Arrow(NamedTuple):
    """Differential component d(source) = U^u_exp * target + ..."""

    source: str
    target: str
    u_exp: int


def _odd(keys: Iterable[tuple]) -> set[tuple]:
    """The keys that occur an odd number of times: their sum over F2."""
    return {k for k, n in Counter(keys).items() if n % 2}


_NAME = re.compile(r"\S+")
_GEN_KEY = itemgetter(1, 2, 0)  # a generator's (alexander, maslov, name)
_generator = partial(tuple.__new__, Generator)  # Generator((name, A, M)) in C, for bulk builds

MAX_GENERATORS = 200_000  # the largest tensor product built or indexed


class CfkComplex:
    """Immutable complex: generators plus an F2 set of arrows.

    Generators are sorted by (alexander, maslov, name).  Each arrow is kept
    once, as a sorted triple (src, tgt, u) of generator indices and U power:
    the arrows leaving generator k are ``triples[offsets[k]:offsets[k + 1]]``.

    The constructor checks structure only (names usable and unique, arrow
    endpoints present, U-exponents nonnegative) in the order given; _store
    sorts once and cancels duplicate triples mod 2.  validate() checks the rest.
    _class_degree marks a knot class by the column's homology degree: one
    that _class_errors, the knot-class check of validate, passed, a staircase,
    or one that tensor, dual or reduce made of such.  It is None on any other
    complex, and it is not part of equality.
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
        order = sorted(range(len(gens)), key=lambda k: _GEN_KEY(gens[k]))
        if any(map(ne, order, count())):  # gens not already sorted
            rank = sorted(range(len(gens)), key=order.__getitem__)  # order's inverse
            triples = ((rank[s], rank[t], u) for s, t, u in triples)
            gens = map(gens.__getitem__, order)
        triples = sorted(triples)
        if any(map(eq, triples, islice(triples, 1, None))):  # equal triples are neighbours
            triples = sorted(_odd(triples))
        self.generators = tuple(gens)
        self.triples = tuple(triples)
        # the arrows leaving k start after those leaving 0 .. k - 1
        leaving = Counter(map(itemgetter(0), triples))
        self.offsets = tuple(accumulate(map(leaving.get, range(len(order)), repeat(0)), initial=0))
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

    def __reduce__(self) -> tuple:
        # rebuilt, not restored: the cached hash depends on the string-hash seed
        return _indexed, (list(self.generators), self.triples, self._class_degree)

    def __repr__(self) -> str:
        return f"CfkComplex({len(self.generators)} generators, {len(self.triples)} arrows)"

    def grading_table(self) -> dict[tuple[int, int], int]:
        """Generator count per (alexander, maslov) pair."""
        return dict(Counter(map(itemgetter(1, 2), self.generators)))


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
        lines = ["ok"] if self.ok else []
        lines += [f"error {v.kind}: {v.message}" for v in self.errors]
        lines += [f"warning {v.kind}: {v.message}" for v in self.warnings]
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


def _math_errors(c: CfkComplex) -> list[Violation]:
    """Errors of the arrows raising the Alexander grading or breaking the Maslov
    law, in (source, target, u) name order, sorted only when one fails; then
    each (source, target, U power) that d^2 reaches an odd number of times."""
    gens, tr, off, errors = c.generators, c.triples, c.offsets, []
    alexander, maslov = [g.alexander for g in gens], [g.maslov for g in gens]
    if not all(alexander[s] + u >= alexander[t] and maslov[s] + 2 * u == maslov[t] + 1
               for s, t, u in tr):
        for src, tgt, u, s, t in sorted((gens[s].name, gens[t].name, u, s, t) for s, t, u in tr):
            if alexander[s] + u < alexander[t]:
                rise = alexander[t] - alexander[s] - u
                errors.append(Violation("j-drop", f"arrow {src}->{tgt} u={u} rises by {rise}"))
            if maslov[s] - 1 != maslov[t] - 2 * u:
                message = f"arrow {src}->{tgt} u={u}: M({src})-1 != M({tgt})-2u"
                errors.append(Violation("maslov", message))
    paths = _odd((s, z, u + v) for s, t, u in tr for _, z, v in tr[off[t] : off[t + 1]])
    for src, tgt, n in sorted((gens[s].name, gens[z].name, n) for s, z, n in paths):
        message = f"d^2 sends {src} to U^{n} {tgt} with odd multiplicity"
        errors.append(Violation("d-squared", message))
    return errors


def _degree_ranks(c: CfkComplex, slope: int) -> dict[int, int]:
    """Homology rank per degree of the complex with one element per generator in
    degree M - slope * A, whose differential is the arrows lowering that degree by
    one: by the Maslov law, those with u = 0 for slope 0 (the vertical complex) and
    no Alexander drop for slope 2 (the horizontal one).  Bit j names the j-th
    element of a degree, and the cost is the sum of squared degree sizes."""
    degree = [g.maslov - slope * g.alexander for g in c.generators]
    sizes, slot = {}, []  # elements per degree; place of each in its degree
    for k in degree:
        slot.append(sizes.get(k, 0))
        sizes[k] = slot[-1] + 1
    masks = [0] * len(degree)
    for s, t, _ in c.triples:
        if degree[s] - degree[t] == 1:
            masks[s] |= 1 << slot[t]
    ranks = block_ranks(compress(zip(degree, masks), masks))
    return {k: n - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, n in sizes.items()}


def _class_errors(c: CfkComplex) -> list[Violation]:
    """The errors of validate(c, knot_class=True): _math_errors(c), else a rank
    error for vertical or horizontal homology of rank other than one.  With no
    error, records the vertical class degree on c."""
    errors = _math_errors(c)
    if errors:
        return errors  # the ranks below need the Maslov law
    for kind, slope in (("column", 0), ("row", 2)):
        ranks = _degree_ranks(c, slope)
        rank, degree = sum(ranks.values()), max(ranks, key=ranks.__getitem__, default=None)
        del ranks  # not held while the row is ranked
        if rank != 1:
            errors.append(Violation(f"{kind}-rank", f"{kind} homology rank {rank}, expected 1"))
        elif kind == "column":
            column_degree = degree
    if not errors:
        c._class_degree = column_degree
    return errors


def validate(c: CfkComplex, knot_class: bool = False) -> ValidationReport:
    """Report every grading or d^2 violation; never raises on bad math.

    With knot_class=True also requires column and row homology of rank one,
    and when the report has no error, records the column's degree on c.  A
    complex with that mark is trusted: it has no error, and none is sought.
    A symmetry warning compares generator counts of the reduced complex at
    (s, m) and (-s, m - 2s); it is only attempted on error-free complexes.
    """
    marked = c._class_degree is not None
    errors = [] if marked else _class_errors(c) if knot_class else _math_errors(c)
    warnings: list[Violation] = []
    if not errors:
        table = reduce(c).grading_table()
        for (s, m), n in sorted(table.items()):
            other = table.get((-s, m - 2 * s), 0)
            if n != other:
                message = f"{n} generators at (A, M) = ({s}, {m}) but "
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


def _product_size(factors: tuple[CfkComplex, ...]) -> int:
    """The size of the factors' tensor product, refused over MAX_GENERATORS."""
    if (size := math.prod(map(len, factors))) > MAX_GENERATORS:
        limit = f"is over the limit of {MAX_GENERATORS:,}"
        raise UnsupportedExpression(f"a tensor product of {size:,} generators {limit}")
    return size


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
    size = _product_size((c1, c2))
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
            gens.append(_generator((candidate, g1.alexander + g2.alexander, g1.maslov + g2.maslov)))
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
    gens = [_generator((_dual_name(g.name), -g.alexander, -g.maslov)) for g in c.generators]
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
    target) name.  When nothing cancels, c itself is returned.  The ends of
    a flat arrow share a lattice point in every region: the class degree stays.
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
    return _indexed([gens[k] for k in live], triples, c._class_degree)


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


def _refuse(line: str, lineno: int, seen: dict[str, int]) -> None:
    """Raise the ParseError of a line the split reading refused, placed by the regexes."""
    if line.startswith("gen"):
        m = _GEN_RE.match(line)
        if m is None:
            raise ParseError("malformed gen line", line=lineno, column=1)
        if m[1] in seen:
            raise ParseError(f"duplicate generator {m[1]!r}", line=lineno, column=m.start(1) + 1)
        fields = (2, 3)
    elif line.startswith("arr"):
        m = _ARR_RE.match(line)
        if m is None:
            raise ParseError("malformed arr line", line=lineno, column=1)
        for k in (1, 2):
            if m[k] not in seen:
                raise ParseError(f"unknown generator {m[k]!r}", line=lineno, column=m.start(k) + 1)
        fields = (3,)
    elif line[0].isspace():
        raise ParseError("unexpected leading whitespace", line=lineno, column=1)
    else:
        raise ParseError(f"unknown directive {line.split()[0]!r}", line=lineno, column=1)
    for k in fields:  # all that is left to refuse: a literal past the digit limit
        parse_int(m[k], lineno, m.start(k) + 1)
    raise InternalInconsistency(f"line {lineno}: the split reading refuses what the regexes read")


def deserialize(text: str) -> CfkComplex:
    """Parse the cfk v1 format; structural problems raise ParseError.

    Grading violations are left to validate().  Each line is split at
    whitespace and read to the grammar of _GEN_RE and _ARR_RE, which place the
    error of a line the split reading refuses, such as an arrow naming an
    unknown generator; duplicate arrow lines cancel mod 2.
    """
    lines = enumerate(text.splitlines(), start=1)
    lineno, header = next(((k, line) for k, line in lines if line.strip()), (1, ""))
    if header.strip() != _HEADER:  # the first nonblank line
        raise ParseError(f"expected {_HEADER!r} header", line=lineno, column=1)
    gens, seen, triples = [], {}, []  # generators; name -> index; (source, target, u) triples
    for lineno, line in lines:
        fields = line.split()
        if not fields:
            continue
        try:  # an integer is an optional '-' (not in u) and decimal digits, as -?\d+ reads
            kind, first, second, last = fields  # the kind at column 1
            a, m = second[2:], last[2:]
            if kind == "arr" and line[0] == "a" and last[:2] == "u=" and m.isdecimal():
                triples.append((seen[first], seen[second], int(m)))
                continue
            if (kind == "gen" and line[0] == "g" and first not in seen
                    and second[:2] == "A=" and a.removeprefix("-").isdecimal()
                    and last[:2] == "M=" and m.removeprefix("-").isdecimal()):
                gens.append(_generator((first, int(a), int(m))))
                seen[first] = len(gens) - 1
                continue
        except (KeyError, ValueError):  # a missing name, a literal past the digit limit
            pass
        _refuse(line, lineno, seen)
    return _indexed(gens, triples)
