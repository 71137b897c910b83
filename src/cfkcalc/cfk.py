"""Bifiltered chain complexes over F2[U, 1/U] with two filtration gradings.

A complex is a finite free module with one basis element per generator.  The
generator x is the plane element at (i, j) = (0, A(x)) and its translate
U^k x sits at (-k, A(x) - k), so the whole U-orbit is the diagonal
j - i = A(x).  An arrow (x, y, n) records the differential component
d(x) = U^n y + ...; coefficients live in F2, so arrows are a set and equal
triples cancel in pairs.

A complex keeps its generators as name, Alexander and Maslov columns and its
arrows as index triples; every operation here is exact and deterministic.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, gt, itemgetter, lt, neg, sub
from typing import Iterable, NamedTuple

from .errors import ParseError, UnsupportedExpression, parse_int
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

MAX_GENERATORS = 200_000  # the largest tensor product built or indexed


class CfkComplex:
    """Immutable complex: generators plus an F2 set of arrows.

    Generator k is entry k of the tuples names, alexander and maslov, sorted by
    (alexander, maslov, name); the generators property makes Generators of these
    columns when first read.  Each arrow is kept once, as a sorted triple (src,
    tgt, u) of generator indices and U power: the arrows leaving k are
    ``triples[offsets[k]:offsets[k + 1]]``.  Equality reads columns and triples.

    The constructor checks structure only (names usable and unique, arrow
    endpoints present, U-exponents nonnegative) in the order given; _store sorts
    columns that do not ascend and cancels equal triples mod 2, comparing no key
    tuple when A strictly ascends and no triple when the triples strictly ascend;
    validate() checks the rest.  _class_degree marks a knot class by the column's
    homology degree: one that _class_errors, the knot-class check of validate,
    passed, a staircase, or one that tensor, dual or reduce made of such, else None.
    """

    __slots__ = ("names", "alexander", "maslov", "triples", "offsets", "_hash", "_class_degree",
                 "_generators")

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
        self._store(*(zip(*gens) if gens else ((), (), ())), triples)

    def _store(self, names, alexander, maslov, triples: Iterable[tuple[int, int, int]],
               offsets: Iterable[int] | None = None) -> None:
        """Sort the columns by (A, M, name), rank the triples to match, cancel equal ones mod 2.
        A strictly ascending A column is in order, and strictly ascending triples are sorted
        with no two equal; offsets, when given, are those of such triples."""
        keys = zip(alexander, maslov, names)
        rises = all(map(lt, alexander, islice(alexander, 1, None)))
        if not rises and any(map(gt, keys, islice(zip(alexander, maslov, names), 1, None))):
            alexander, maslov, names, order = zip(*sorted(zip(alexander, maslov, names, count())))
            rank = sorted(range(len(order)), key=order.__getitem__)  # order's inverse
            triples = ((rank[s], rank[t], u) for s, t, u in triples)
        if not all(map(lt, triples := tuple(triples), islice(triples, 1, None))):
            triples = sorted(triples)
            if any(map(eq, triples, islice(triples, 1, None))):  # equal triples are neighbours
                triples = sorted(_odd(triples))
        self.names, self.alexander, self.maslov = tuple(names), tuple(alexander), tuple(maslov)
        self.triples = tuple(triples)
        if offsets is None:  # the arrows leaving k start after those leaving 0 .. k - 1
            leaving = Counter(map(itemgetter(0), triples))
            offsets = accumulate(map(leaving.get, range(len(self)), repeat(0)), initial=0)
        self.offsets = tuple(offsets)
        self._hash = self._class_degree = self._generators = None

    @property
    def generators(self) -> tuple[Generator, ...]:
        """The generators in stored order, built on first access and kept."""
        if self._generators is None:
            self._generators = tuple(map(Generator, self.names, self.alexander, self.maslov))
        return self._generators

    @property
    def arrows(self) -> tuple[Arrow, ...]:
        """Named arrows in (source, target, u_exp) order, built on each access."""
        names = self.names
        return tuple(Arrow(*k) for k in sorted((names[s], names[t], u) for s, t, u in self.triples))

    def _columns(self) -> tuple[tuple, tuple, tuple]:
        return self.names, self.alexander, self.maslov

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CfkComplex):
            return NotImplemented
        return self.triples == other.triples and self._columns() == other._columns()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._columns(), self.triples))
        return self._hash

    def __len__(self) -> int:
        return len(self.names)

    def __reduce__(self) -> tuple:
        # rebuilt, not restored: the cached hash depends on the string-hash seed
        return _indexed, (*self._columns(), self.triples, self._class_degree)

    def __repr__(self) -> str:
        return f"CfkComplex({len(self)} generators, {len(self.triples)} arrows)"

    def grading_table(self) -> dict[tuple[int, int], int]:
        """Generator count per (alexander, maslov) pair."""
        return dict(Counter(zip(self.alexander, self.maslov)))


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
    (names, alexander, maslov), tr, off, errors = c._columns(), c.triples, c.offsets, []
    if not all(alexander[s] + u >= alexander[t] and maslov[s] + 2 * u == maslov[t] + 1
               for s, t, u in tr):
        for src, tgt, u, s, t in sorted((names[s], names[t], u, s, t) for s, t, u in tr):
            if alexander[s] + u < alexander[t]:
                rise = alexander[t] - alexander[s] - u
                errors.append(Violation("j-drop", f"arrow {src}->{tgt} u={u} rises by {rise}"))
            if maslov[s] - 1 != maslov[t] - 2 * u:
                message = f"arrow {src}->{tgt} u={u}: M({src})-1 != M({tgt})-2u"
                errors.append(Violation("maslov", message))
    paths = _odd((s, z, u + v) for s, t, u in tr for _, z, v in tr[off[t] : off[t + 1]])
    for src, tgt, n in sorted((names[s], names[z], n) for s, z, n in paths):
        message = f"d^2 sends {src} to U^{n} {tgt} with odd multiplicity"
        errors.append(Violation("d-squared", message))
    return errors


def _degree_ranks(c: CfkComplex, slope: int) -> dict[int, int]:
    """Homology rank per degree of the complex with one element per generator in
    degree M - slope * A, whose differential is the arrows lowering that degree by
    one: by the Maslov law, those with u = 0 for slope 0 (the vertical complex) and
    no Alexander drop for slope 2 (the horizontal one).  Bit j names the j-th
    element of a degree, and the cost is the sum of squared degree sizes."""
    degree = [m - slope * a for a, m in zip(c.alexander, c.maslov)]
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


def _plainly_symmetric(c: CfkComplex) -> bool:
    """Whether A strictly ascends, holding each (A, M) once, and the grading table is
    symmetric: then exactly when A[k] = -A[n - 1 - k] and M - A is a palindrome."""
    a, shift = c.alexander, list(map(sub, c.maslov, c.alexander))
    rises = all(map(lt, a, islice(a, 1, None)))
    return rises and all(map(eq, a, map(neg, reversed(a)))) and shift == shift[::-1]


def validate(c: CfkComplex, knot_class: bool = False) -> ValidationReport:
    """Report every grading or d^2 violation; never raises on bad math.

    With knot_class=True also requires column and row homology of rank one,
    and when the report has no error, records the column's degree on c.  A
    complex with that mark is trusted: it has no error, and none is sought.
    A symmetry warning compares generator counts of the reduced complex at
    (s, m) and (-s, m - 2s); it is only attempted on error-free complexes, and
    reads no table when _plainly_symmetric (a staircase or its dual) holds.
    """
    marked = c._class_degree is not None
    errors = [] if marked else _class_errors(c) if knot_class else _math_errors(c)
    warnings: list[Violation] = []
    if not errors and not _plainly_symmetric(r := reduce(c)):
        table = r.grading_table()
        for (s, m), n in sorted(table.items()):
            other = table.get((-s, m - 2 * s), 0)
            if n != other:
                message = f"{n} generators at (A, M) = ({s}, {m}) but "
                message += f"{other} at ({-s}, {m - 2 * s})"
                warnings.append(Violation("symmetry", message))
    return ValidationReport(tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# operations


def _indexed(names, alexander, maslov, triples: Iterable, degree: int | None = None,
             offsets: Iterable[int] | None = None) -> CfkComplex:
    """Complex on the generator columns (usable, unique names) and (src, tgt, u)
    triples over their order, recording degree as its class degree; offsets as in _store."""
    c = CfkComplex.__new__(CfkComplex)
    c._store(names, alexander, maslov, triples, offsets)
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
    names: list[str] = []
    used: set[str] = set()
    for base in (f"{x1}|{x2}" for x1 in c1.names for x2 in c2.names):
        candidate, tie = base, 2
        while candidate in used:
            candidate, tie = f"{base}#{tie}", tie + 1
        used.add(candidate)
        names.append(candidate)
    alexander = [a1 + a2 for a1 in c1.alexander for a2 in c2.alexander]
    maslov = [m1 + m2 for m1 in c1.maslov for m2 in c2.maslov]
    # the pair (k1, k2) sits at k1 * n2 + k2; _store ranks triples as they are made
    n2 = len(c2)
    runs = chain(
        (zip(range(s * n2, s * n2 + n2), range(t * n2, t * n2 + n2), repeat(u))
         for s, t, u in c1.triples),
        (zip(range(s, size, n2), range(t, size, n2), repeat(u)) for s, t, u in c2.triples),
    )
    degree = None if None in (ds := (c1._class_degree, c2._class_degree)) else sum(ds)
    return _indexed(names, alexander, maslov, chain.from_iterable(runs), degree)


def _dual_name(name: str) -> str:
    return name[:-1] if name.endswith("*") else name + "*"


def dual(c: CfkComplex) -> CfkComplex:
    """Mirror complex: gradings negate, arrows reverse with the same power.

    Names gain or lose a trailing '*' so that dual(dual(c)) == c.  The
    column of the dual is the dual of the column: class degree d becomes -d.
    Generator k of the dual is c's generator n - 1 - k: a staircase's dual comes sorted.
    """
    names, last = list(map(_dual_name, reversed(c.names))), len(c) - 1
    if len(set(names)) != len(names):
        raise ValueError("generator names collide under dualization")
    if "" in names:  # the dual of '*'
        raise ValueError("unusable generator name ''")
    d, flip = c._class_degree, [(last - t, last - s, u) for s, t, u in c.triples]
    gradings = (list(map(neg, reversed(x))) for x in (c.alexander, c.maslov))
    return _indexed(names, *gradings, flip, None if d is None else -d)


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
    names, alex = c.names, c.alexander
    if not any(u == 0 and alex[s] == alex[t] for s, t, u in c.triples):
        return c
    out, into = [set() for _ in names], [set() for _ in names]  # (target, u), (source, u) sets
    for s, t, u in c.triples:
        out[s].add((t, u))
        into[t].add((s, u))
    dead: set[int] = set()  # arrows touching a dead generator are stale, not removed
    for x in sorted(range(len(names)), key=names.__getitem__):
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
    live = [k for k in range(len(names)) if k not in dead]
    new = {k: i for i, k in enumerate(live)}
    triples = [(new[s], new[t], u) for s in live for t, u in out[s] if t not in dead]
    return _indexed(*([x[k] for k in live] for x in c._columns()), triples, c._class_degree)


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
    overlap = set(c1.names) & set(c2.names)
    if overlap:
        raise ValueError(f"direct summands share names: {sorted(overlap)}")
    n1 = len(c1)
    shifted = [(s + n1, t + n1, u) for s, t, u in c2.triples]
    return _indexed(*map(tuple.__add__, c1._columns(), c2._columns()), [*c1.triples, *shifted])


# ---------------------------------------------------------------------------
# text format


_HEADER = "cfk v1"
_GEN_RE = re.compile(r"^gen\s+(\S+)\s+A=(-?\d+)\s+M=(-?\d+)\s*$")
_ARR_RE = re.compile(r"^arr\s+(\S+)\s+(\S+)\s+u=(\d+)\s*$")


def serialize(c: CfkComplex) -> str:
    """Canonical text: header, generators by (A, M, name), arrows sorted."""
    names, lines = c.names, [_HEADER, *map("gen {} A={} M={}".format, *c._columns())]
    for src, tgt, u in sorted((names[s], names[t], u) for s, t, u in c.triples):
        lines.append(f"arr {src} {tgt} u={u}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> CfkComplex:
    """Parse the cfk v1 format; structural problems raise ParseError.

    Grading violations are left to validate().  Each gen or arr line is one match of
    _GEN_RE or _ARR_RE, which places its error at column 1 or at the field at fault;
    blank lines are skipped, and duplicate arrow lines cancel mod 2.
    """
    lines = enumerate(text.splitlines(), start=1)
    lineno, header = next(((k, line) for k, line in lines if line.strip()), (1, ""))
    if header.strip() != _HEADER:  # the first nonblank line
        raise ParseError(f"expected {_HEADER!r} header", line=lineno, column=1)
    names, alexander, maslov, seen, triples = [], [], [], {}, []  # seen: name -> index
    for lineno, line in lines:
        if line.startswith("arr"):
            match = _ARR_RE.match(line)
            if match is None:
                raise ParseError("malformed arr line", line=lineno, column=1)
            source, target, u = match.groups()
            if source not in seen or target not in seen:  # the source is named first
                k, name = (1, source) if source not in seen else (2, target)
                raise ParseError(f"unknown generator {name!r}", lineno, match.start(k) + 1)
            u = parse_int(u, lineno, match.start(3) + 1)
            triples.append((seen[source], seen[target], u))
        elif line.startswith("gen"):
            match = _GEN_RE.match(line)
            if match is None:
                raise ParseError("malformed gen line", line=lineno, column=1)
            name, a, m = match.groups()
            if name in seen:  # a name before its literals, and A before M
                raise ParseError(f"duplicate generator {name!r}", lineno, match.start(1) + 1)
            seen[name] = len(names)
            names.append(name)
            alexander.append(parse_int(a, lineno, match.start(2) + 1))
            maslov.append(parse_int(m, lineno, match.start(3) + 1))
        elif line and not line.isspace():  # blank lines are skipped
            if line[0].isspace():
                raise ParseError("unexpected leading whitespace", line=lineno, column=1)
            raise ParseError(f"unknown directive {line.split()[0]!r}", line=lineno, column=1)
    return _indexed(names, alexander, maslov, triples)
