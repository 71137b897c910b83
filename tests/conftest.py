"""Shared builders for the test suite.

Catalog complexes are built once per session; random material is always
driven by explicit seeds so failures replay exactly.  A terminal summary
hook prints one PASS/FAIL line per acceptance criterion at the end of the
run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
from collections import Counter
from itertools import accumulate, repeat
from operator import itemgetter

import pytest

from cfkcalc import (
    Arrow,
    CfkComplex,
    Column0,
    FullHook,
    Generator,
    GHook,
    HookWithTail,
    Ordering,
    ParseError,
    RankNotOne,
    Row,
    TruncatedHook,
    StaircaseExponents,
    class_cmp,
    class_complex,
    direct_sum,
    dual,
    independence_certificate,
    parse,
    reduce,
    square_complex,
    staircase,
    tau,
    tensor,
    torus_alexander,
    staircase_exponents,
    unknot_complex,
)
from cfkcalc.cfk import ValidationReport, Violation, _odd
from cfkcalc.errors import parse_int
from cfkcalc.gf2 import Gf2Space, kernel_and_image

SEED = 20260823


def trefoil_complex() -> CfkComplex:
    return CfkComplex(
        [Generator("x0", 1, 0), Generator("x1", 0, -1), Generator("x2", -1, -2)],
        [Arrow("x1", "x0", 1), Arrow("x1", "x2", 0)],
    )


def torus_staircase(p: int, q: int) -> CfkComplex:
    return staircase(staircase_exponents(torus_alexander(p, q)))


def validate_breakers() -> list[CfkComplex]:
    """One complex per way validate refuses, and a class beside a row-only pair."""
    rises = CfkComplex([Generator("a", 0, 0), Generator("b", 1, -1)], [Arrow("a", "b", 0)])
    maslov = CfkComplex(  # the trefoil with M(x0) raised by 2
        [Generator("x0", 1, 2), Generator("x1", 0, -1), Generator("x2", -1, -2)],
        [Arrow("x1", "x0", 1), Arrow("x1", "x2", 0)],
    )
    odd = CfkComplex(
        [Generator("a", 0, 0), Generator("b", 0, -1), Generator("c", 0, -2)],
        [Arrow("a", "b", 0), Arrow("b", "c", 0)],
    )
    rank2 = CfkComplex([Generator("a", 0, 0), Generator("b", 0, 0)])
    pair = CfkComplex([Generator("p", 1, 0), Generator("q", 0, -1)], [Arrow("p", "q", 0)])
    return [rises, maslov, odd, rank2, square_complex(), direct_sum(trefoil_complex(), pair)]


def figure_eight_like() -> CfkComplex:
    """Genus-one model with trivial invariants: unknot summand plus one
    square."""
    return direct_sum(unknot_complex("z"), square_complex(1, 1, 0, -1, prefix="sq"))


def random_exponents(
    rng: random.Random, max_steps: int = 3, max_len: int = 3
) -> StaircaseExponents:
    """Exponents with palindromic step lengths, so the vector is a valid
    symmetric sequence."""
    steps = rng.randint(1, max_steps)
    half = [rng.randint(1, max_len) for _ in range(steps)]
    diffs = half + half[::-1]
    exps = [sum(diffs[i:]) for i in range(len(diffs))] + [0]
    return StaircaseExponents(tuple(exps))


def random_staircase(rng: random.Random, max_steps: int = 3, max_len: int = 3) -> CfkComplex:
    """Staircase on random_exponents."""
    return staircase(random_exponents(rng, max_steps, max_len))


def with_random_squares(
    rng: random.Random, base: CfkComplex, count: int, max_alex: int = 2
) -> CfkComplex:
    out = base
    taken = {g.name for g in base.generators}
    k = 0
    for _ in range(count):
        # repeated padding must not reuse a prefix already in the base
        while f"q{k}_a" in taken:
            k += 1
        out = direct_sum(
            out,
            square_complex(
                rng.randint(1, 2),
                rng.randint(1, 2),
                rng.randint(-max_alex, max_alex),
                rng.randint(-3, 1),
                prefix=f"q{k}_",
            ),
        )
        k += 1
    return out


def basis_change_candidates(c: CfkComplex) -> list[tuple[str, str, int]]:
    """Every filtered change of basis (target, donor, power) with power < 4."""
    gens = c.generators
    candidates = []
    for t in gens:
        for d in gens:
            if d.name == t.name:
                continue
            for k in range(0, 4):
                if d.maslov - 2 * k == t.maslov and d.alexander - k <= t.alexander:
                    candidates.append((t.name, d.name, k))
    return candidates


def random_basis_change(rng: random.Random, c: CfkComplex, tries: int = 4) -> CfkComplex:
    """Apply one random filtered change of basis when any is available."""
    candidates = basis_change_candidates(c)
    if not candidates:
        return c
    for _ in range(tries):
        target, donor, k = candidates[rng.randrange(len(candidates))]
        out = reference_change_basis(c, target, donor, k)
        if out != c:
            return out
    return c


def with_flat_pairs(rng: random.Random, base: CfkComplex, count: int) -> CfkComplex:
    """base plus count acyclic pairs p -> q with u = 0 on one Alexander level:
    summands that reduce must cancel."""
    gens, arrows = list(base.generators), list(base.arrows)
    for k in range(count):
        a, m = rng.randint(-2, 2), rng.randint(-3, 1)
        gens += [Generator(f"f{k}_p", a, m), Generator(f"f{k}_q", a, m - 1)]
        arrows.append(Arrow(f"f{k}_p", f"f{k}_q", 0))
    return CfkComplex(gens, arrows)


def randomized_corpus(rng: random.Random) -> list[CfkComplex]:
    """The 100 knot-like complexes of acceptance criterion 10: staircases
    and their duals padded with squares (cases 0-44), basis changes (45-59),
    reduced tensor products (60-74), trefoils plus squares (75-89) and
    unknots plus a square (90-99)."""
    cases = []
    for _ in range(30):
        cases.append(with_random_squares(rng, random_staircase(rng), rng.randint(0, 2)))
    for _ in range(15):
        cases.append(with_random_squares(rng, dual(random_staircase(rng)), rng.randint(0, 2)))
    for _ in range(15):
        base = rng.choice(
            [trefoil_complex(), unknot_complex(), figure_eight_like()]
        )
        cases.append(random_basis_change(rng, with_random_squares(rng, base, 1)))
    for _ in range(15):
        left = random_staircase(rng, max_steps=2, max_len=2)
        right = random_staircase(rng, max_steps=2, max_len=2)
        cases.append(reduce(tensor(left, dual(right))))
    for k in range(15):
        c = trefoil_complex()
        for n in range(rng.randint(1, 2)):
            c = direct_sum(c, square_complex(1, 1, 0, rng.randint(-3, -1), prefix=f"g{k}_{n}_"))
        cases.append(c)
    for k in range(10):
        c = unknot_complex("z")
        c = direct_sum(c, square_complex(1, 1, 0, rng.randint(-3, -1), prefix=f"u{k}_"))
        cases.append(c)
    return cases


def tampered_certificate() -> str:
    """Certificate JSON for C(D;3,4) - T(3,4) > C(D;2,3) - T(2,3) whose first
    embedded complex has one Maslov grading raised by 7.

    The invariants it states still recompute, so only validating the
    embedded complex notices the edit.
    """
    reps = [class_complex(parse(f"C(D;{p},{p + 1}) + -T({p},{p + 1})")) for p in (3, 2)]
    payload = json.loads(independence_certificate(reps).to_json())
    entry = payload["chain"][0]
    entry["complex"] = re.sub(
        r"^(gen \S+ A=-?\d+ M=)(-?\d+)",
        lambda m: m.group(1) + str(int(m.group(2)) + 7),
        entry["complex"],
        count=1,
        flags=re.M,
    )
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# oracles independent of the staircase, tensor and region code

# The genus of each leaf from closed forms: (p-1)(q-1)/2 for T(p,q), and
# p g(K) + (p-1)(q-1)/2 for the (p, q) cable of K; D, the doubled trefoil, has
# genus 1.  tau = g on every leaf: on the L-space knots, on D (tau(D) = 1), and
# on C(D;2,3), since epsilon(D) = +1 gives tau of a cable of D by the same form.
ORACLE_LEAVES = {
    "U": 0,
    "D": 1,
    "T(2,3)": 1,
    "T(2,5)": 2,
    "T(3,4)": 3,
    "T(3,5)": 4,
    "T(2,7)": 3,
    "C(T(2,3);2,5)": 4,
    "C(D;2,3)": 3,
}

FLIP = {Ordering.GT: Ordering.LT, Ordering.LT: Ordering.GT, Ordering.EQ: Ordering.EQ}


def signed_leaf_sums(rng: random.Random, count: int, most: int) -> list[tuple[str, str, int]]:
    """count seeded sums of 1..most signed ORACLE_LEAVES, about a quarter of
    them mirrored whole: (text, the same sum with its terms reversed, the
    signed sum of the leaves' genera)."""
    out, leaves = [], list(ORACLE_LEAVES)
    for _ in range(count):
        terms = [(rng.choice((1, -1)), rng.choice(leaves)) for _ in range(rng.randint(1, most))]
        texts = [
            " + ".join(("-" if s < 0 else "") + leaf for s, leaf in order)
            for order in (terms, terms[::-1])
        ]
        genus = sum(s * ORACLE_LEAVES[leaf] for s, leaf in terms)
        if rng.random() < 0.25:
            texts, genus = [f"-({text})" for text in texts], -genus
        out.append((texts[0], texts[1], genus))
    return out


def tau_additivity_failures(sums: list[tuple[str, str, int]]) -> list[tuple[str, int, int]]:
    """(text, tau, genus sum) of each sum whose tau is not the signed sum of
    its leaves' genera: tau is additive, and tau = g on every leaf."""
    taus = [(text, tau(class_complex(parse(text)).complex), genus) for text, _, genus in sums]
    return [row for row in taus if row[1] != row[2]]


def antisymmetric_orders(pairs: list[tuple[str, str]]) -> list[Ordering]:
    """class_cmp(k, j) for each pair of expression texts, each checked against
    the flip of class_cmp(j, k)."""
    orders = []
    for left, right in pairs:
        k, j = class_complex(parse(left)), class_complex(parse(right))
        order = class_cmp(k, j)
        assert class_cmp(j, k) == FLIP[order], (left, right)
        orders.append(order)
    return orders


# ---------------------------------------------------------------------------
# name-keyed references for the index-based fast paths


def reference_staircase(exps: StaircaseExponents) -> CfkComplex:
    """Staircase built by name, as before it was built on index triples: one
    Arrow per step, through the name-keyed constructor."""
    n = exps.exponents
    g = exps.genus
    maslov = [0] * len(n)
    for i in range(1, len(n)):
        if i % 2 == 1:
            maslov[i] = maslov[i - 1] + 1 - 2 * (n[i - 1] - n[i])
        else:
            maslov[i] = maslov[i - 1] - 1
    gens = [Generator(f"x{i}", n[i] - g, maslov[i]) for i in range(len(n))]
    arrows = []
    for i in range(1, len(n), 2):
        arrows.append(Arrow(f"x{i}", f"x{i - 1}", n[i - 1] - n[i]))
        arrows.append(Arrow(f"x{i}", f"x{i + 1}", 0))
    return CfkComplex(gens, arrows)


def reference_tensor(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """Tensor product as built before triples were ranked as they are made:
    every unranked triple in one list, ranked through a dict, duplicates
    found with a set and offsets counted from the sorted triples."""
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
    size, n2 = len(c1) * len(c2), len(c2.generators)
    triples: list[tuple[int, int, int]] = []
    for s, t, u in c1.triples:
        triples.extend(zip(range(s * n2, s * n2 + n2), range(t * n2, t * n2 + n2), repeat(u)))
    for s, t, u in c2.triples:
        triples.extend(zip(range(s, size, n2), range(t, size, n2), repeat(u)))
    keys = [(g.alexander, g.maslov, g.name) for g in gens]
    order = sorted(range(len(gens)), key=keys.__getitem__)
    rank = {k: r for r, k in enumerate(order)}
    triples = sorted((rank[s], rank[t], u) for s, t, u in triples)
    if len(set(triples)) != len(triples):
        triples = sorted(_odd(triples))
    counts = Counter(map(itemgetter(0), triples))
    c = CfkComplex.__new__(CfkComplex)
    c.generators = tuple(gens[k] for k in order)
    c.triples = tuple(triples)
    c.offsets = tuple(accumulate(map(counts.__getitem__, range(len(gens))), initial=0))
    c._hash = c._class_degree = None
    return c


def reference_named_tensor(c1: CfkComplex, c2: CfkComplex) -> CfkComplex:
    """Tensor product built pair by pair from generator names."""
    name: dict[tuple[str, str], str] = {}
    used: set[str] = set()
    for g1 in c1.generators:
        for g2 in c2.generators:
            base = f"{g1.name}|{g2.name}"
            candidate = base
            tie = 2
            while candidate in used:
                candidate = f"{base}#{tie}"
                tie += 1
            used.add(candidate)
            name[(g1.name, g2.name)] = candidate
    gens = [
        Generator(name[(g1.name, g2.name)], g1.alexander + g2.alexander, g1.maslov + g2.maslov)
        for g1 in c1.generators
        for g2 in c2.generators
    ]
    arrows = []
    for a in c1.arrows:
        for g2 in c2.generators:
            arrows.append(Arrow(name[(a.source, g2.name)], name[(a.target, g2.name)], a.u_exp))
    for a in c2.arrows:
        for g1 in c1.generators:
            arrows.append(Arrow(name[(g1.name, a.source)], name[(g1.name, a.target)], a.u_exp))
    return CfkComplex(gens, arrows)


def reference_reduce(c: CfkComplex) -> CfkComplex:
    """Cancel every arrow with u_exp = 0 and Alexander drop 0.

    Cancelling x -> y removes both generators and, for every w -> y (power
    n1) and x -> z (power n2), toggles w -> z with power n1 + n2.  Arrows
    are cancelled in (source, target) order, so the result is deterministic.
    When nothing cancels, c itself is returned.
    """
    alex = [g.alexander for g in c.generators]
    if not any(u == 0 and alex[s] == alex[t] for s, t, u in c.triples):
        return c
    gens = {g.name: g for g in c.generators}
    arrows = {(a.source, a.target, a.u_exp) for a in c.arrows}
    while True:
        flat = [(s, t) for s, t, u in arrows if u == 0 and gens[s].alexander == gens[t].alexander]
        if not flat:
            break
        x, y = min(flat)
        into_y = [(w, n) for (w, t, n) in arrows if t == y and w != x]
        out_x = [(z, n) for (s, z, n) in arrows if s == x and z != y]
        arrows = {(s, t, u) for (s, t, u) in arrows if s not in (x, y) and t not in (x, y)}
        arrows ^= _odd((w, z, n1 + n2) for w, n1 in into_y for z, n2 in out_x)
        del gens[x], gens[y]
    return CfkComplex(gens.values(), (Arrow(*k) for k in arrows))


def reference_change_basis(c: CfkComplex, target: str, donor: str, power: int = 0) -> CfkComplex:
    """Filtered change of basis replacing target by target + U^power donor.

    Requires power >= 0, M(donor) - 2*power == M(target) and
    A(donor) - power <= A(target), so the new element is homogeneous and
    filtration-compatible.  Gradings and d^2 = 0 are preserved; the result
    usually differs arrow-wise but is the same complex up to isomorphism.
    """
    if target == donor:
        raise ValueError("target and donor must differ")
    named = {g.name: g for g in c.generators}
    gt, gd = named[target], named[donor]
    if power < 0:
        raise ValueError("power must be nonnegative")
    if gd.maslov - 2 * power != gt.maslov:
        raise ValueError("gradings incompatible with this basis change")
    if gd.alexander - power > gt.alexander:
        raise ValueError("basis change would raise the filtration")
    # the constructor adds the new arrows to the old ones mod 2
    arrows = c.arrows
    toggles = [Arrow(target, a.target, a.u_exp + power) for a in arrows if a.source == donor]
    toggles += [Arrow(a.source, donor, a.u_exp + power) for a in arrows if a.target == target]
    return CfkComplex(c.generators, arrows + tuple(toggles))


@dataclasses.dataclass(frozen=True)
class ReferenceRegionComplex:
    gen_index: tuple[int, ...]
    u_power: tuple[int, ...]
    degree: tuple[int, ...]
    position: list[int | None]
    boundary: tuple[int, ...]

    def chain(self, gens) -> int:
        return sum(1 << self.position[k] for k in gens)

    def chain_elements(self, mask: int) -> list[int]:
        return [k for p, k in enumerate(self.gen_index) if mask >> p & 1]

    def differential(self, mask: int) -> int:
        out = 0
        for p, column in enumerate(self.boundary):
            if mask >> p & 1:
                out ^= column
        return out

    def homology_ranks(self) -> dict[int, int]:
        """Homology rank per degree: each element adds one to its degree,
        and each boundary column independent of the earlier ones, over all
        degrees at once, takes one from the degree of its element and one
        from the degree below."""
        ranks, space = Counter(self.degree), Gf2Space()
        for k, column in zip(self.degree, self.boundary):
            if space.add(column):
                ranks[k] -= 1
                ranks[k - 1] -= 1
        return dict(ranks)


def u_power(region, a: int) -> int | None:
    """The U power of the region's point on the diagonal j - i = a, read from
    its pieces(), or None when the region misses that diagonal."""
    for low, high, slope, shift in region.pieces():
        if low <= a <= high:
            return slope * a + shift
    return None


def reference_region_complex(c: CfkComplex, region) -> ReferenceRegionComplex:
    """Region complex over every degree, built element by element: one per
    generator whose diagonal meets the region, in degree M - 2u, with
    boundary targets looked up by (generator index, U power) from the named
    arrows, as masks over all its elements."""
    index: dict[tuple[int, int], int] = {}
    for k, g in enumerate(c.generators):
        u = u_power(region, g.alexander)
        if u is not None:
            index[(k, u)] = len(index)
    number = {g.name: k for k, g in enumerate(c.generators)}
    outgoing: dict[int, list[Arrow]] = {k: [] for k in range(len(c))}
    for a in c.arrows:
        outgoing[number[a.source]].append(a)
    boundary = []
    for k, u in index:
        mask = 0
        for a in outgoing[k]:
            hit = index.get((number[a.target], u + a.u_exp))
            if hit is not None:
                mask |= 1 << hit
        boundary.append(mask)
    position: list[int | None] = [None] * len(c)
    for (k, _), p in index.items():
        position[k] = p
    degree = tuple(c.generators[k].maslov - 2 * u for k, u in index)
    return ReferenceRegionComplex(
        tuple(k for k, _ in index), tuple(u for _, u in index), degree, position, tuple(boundary)
    )


def reference_homology_ranks(c: CfkComplex, region) -> dict[int, int]:
    """Homology rank per degree of the reference build."""
    return reference_region_complex(c, region).homology_ranks()


@dataclasses.dataclass(frozen=True)
class ReferenceAnalysis:
    tau: int
    epsilon: int
    a1: int | None
    a2: int | None
    f_trivial: dict[int, bool]  # level -> whether F is trivial there
    g_trivial: dict[int, bool]


def reference_analysis(c: CfkComplex) -> ReferenceAnalysis:
    """tau, epsilon, a1, a2 and the F/G maps at every level from min A - 1
    to max A + 1, from the total homology of reference region builds: one
    elimination over every degree, with no Maslov grading used anywhere.

    a1 and a2 are searched one width or depth at a time, straight from
    their definitions.
    """
    low, high = c.generators[0].alexander, c.generators[-1].alexander

    def homology(rc):
        kernel, image = kernel_and_image(rc.boundary)
        return kernel, Gf2Space(image)

    column = reference_region_complex(c, Column0())
    cycles, boundaries = homology(column)
    if len(cycles) - boundaries.dim != 1:
        raise RankNotOne("reference column homology rank is not 1")
    z = boundaries.reduce(next(z for z in cycles if z not in boundaries))
    class_gens = column.chain_elements(z)
    t = c.generators[class_gens[-1]].alexander

    def dies(region, level: int) -> bool:
        rc = reference_region_complex(c, region)
        point = rc.chain(k for k in class_gens if c.generators[k].alexander >= level)
        return point in homology(rc)[1]

    def g_trivial(level: int) -> bool:
        rc = reference_region_complex(c, GHook(level))
        return all(
            column.chain(k for k in rc.chain_elements(cyc) if rc.u_power[rc.position[k]] == 0)
            in boundaries
            for cyc in homology(rc)[0]
        )

    f = {s: dies(FullHook(s), s) for s in range(low - 1, high + 2)}
    g = {s: g_trivial(s) for s in range(low - 1, high + 2)}
    eps = 1 if f[t] else -1 if g[t] else 0
    width = depth = None
    if eps == 1:
        width = next(w for w in range(1, high - low + 1) if dies(TruncatedHook(t, w), t))
        depth = next(
            (d for d in range(1, high - low + 1) if not dies(HookWithTail(t, width, d), t)),
            None,
        )
    return ReferenceAnalysis(t, eps, width, depth, f, g)


def unmarked(c: CfkComplex) -> CfkComplex:
    """An equal copy of c without the class mark, which validate trusts: a
    check of the copy runs every grading, d^2 and rank test."""
    return CfkComplex(c.generators, c.arrows)


def shift_maslov(c: CfkComplex, shift: int) -> CfkComplex:
    """c with every Maslov grading raised by shift (even, so the arrows keep
    the Maslov law)."""
    return CfkComplex(
        [Generator(g.name, g.alexander, g.maslov + shift) for g in c.generators], c.arrows
    )


# ---------------------------------------------------------------------------
# the line-regex reader and the check-by-check validation, as references


_REFERENCE_GEN_RE = re.compile(r"^gen\s+(\S+)\s+A=(-?\d+)\s+M=(-?\d+)\s*$")
_REFERENCE_ARR_RE = re.compile(r"^arr\s+(\S+)\s+(\S+)\s+u=(\d+)\s*$")


def reference_deserialize(text: str) -> CfkComplex:
    """The cfk v1 reader that matches one regex per line: every field is a
    group of it, and each ParseError is placed at its group's column.  Its one
    change from the first such reader is the message for a line with leading
    whitespace, once 'unknown directive' naming its first word."""

    def field(m: re.Match, k: int, lineno: int) -> int:
        try:
            return int(m[k])
        except ValueError:
            return parse_int(m[k], lineno, m.start(k) + 1)

    gens: list[Generator] = []
    arrows: list[Arrow] = []
    seen: set[str] = set()
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if not header_seen:
            if line.strip() != "cfk v1":
                raise ParseError("expected 'cfk v1' header", line=lineno, column=1)
            header_seen = True
            continue
        if line.startswith("gen"):
            m = _REFERENCE_GEN_RE.match(line)
            if m is None:
                raise ParseError("malformed gen line", line=lineno, column=1)
            if m[1] in seen:
                message = f"duplicate generator {m[1]!r}"
                raise ParseError(message, line=lineno, column=m.start(1) + 1)
            seen.add(m[1])
            gens.append(Generator(m[1], field(m, 2, lineno), field(m, 3, lineno)))
        elif line.startswith("arr"):
            m = _REFERENCE_ARR_RE.match(line)
            if m is None:
                raise ParseError("malformed arr line", line=lineno, column=1)
            for k in (1, 2):
                if m[k] not in seen:
                    message = f"unknown generator {m[k]!r}"
                    raise ParseError(message, line=lineno, column=m.start(k) + 1)
            arrows.append(Arrow(m[1], m[2], field(m, 3, lineno)))
        elif line[0].isspace():
            raise ParseError("unexpected leading whitespace", line=lineno, column=1)
        else:
            raise ParseError(f"unknown directive {line.split()[0]!r}", line=lineno, column=1)
    if not header_seen:
        raise ParseError("expected 'cfk v1' header", line=1, column=1)
    return CfkComplex(gens, arrows)


def reference_validate(
    c: CfkComplex, knot_class: bool = False
) -> tuple[ValidationReport, int | None]:
    """validate(c, knot_class) check by check, with the class degree it
    records on an error-free report: each arrow's Alexander drop and Maslov
    law from its generators, d^2 from every path of two arrows, the column
    and row ranks from the reference builds, and the symmetry of the
    reference reduction."""
    gens, names = c.generators, [g.name for g in c.generators]
    bad = []
    for s, t, u in c.triples:
        drop = gens[s].alexander - gens[t].alexander + u
        maslov_ok = gens[s].maslov - 1 == gens[t].maslov - 2 * u
        if drop < 0 or not maslov_ok:
            bad.append(((names[s], names[t], u), drop, maslov_ok))
    errors = []
    for (src, tgt, u), drop, maslov_ok in sorted(bad):
        if drop < 0:
            errors.append(Violation("j-drop", f"arrow {src}->{tgt} u={u} rises by {-drop}"))
        if not maslov_ok:
            message = f"arrow {src}->{tgt} u={u}: M({src})-1 != M({tgt})-2u"
            errors.append(Violation("maslov", message))
    out: dict[int, list[tuple[int, int]]] = {}
    for s, t, u in c.triples:
        out.setdefault(s, []).append((t, u))
    paths = [(s, z, u + v) for s, t, u in c.triples for z, v in out.get(t, ())]
    for src, tgt, power in sorted((names[s], names[z], n) for s, z, n in _odd(paths)):
        message = f"d^2 sends {src} to U^{power} {tgt} with odd multiplicity"
        errors.append(Violation("d-squared", message))
    degree = None
    if knot_class and not errors:
        for kind, region in (("column", Column0()), ("row", Row(0))):
            ranks = reference_homology_ranks(c, region)
            rank = sum(ranks.values())
            if rank != 1:
                errors.append(Violation(f"{kind}-rank", f"{kind} homology rank {rank}, expected 1"))
            elif kind == "column":
                degree = next(k for k, n in ranks.items() if n)
        if errors:  # a row rank other than one: nothing is recorded
            degree = None
    warnings = []
    if not errors:
        table = reference_reduce(c).grading_table()
        for (s, m), count in sorted(table.items()):
            other = table.get((-s, m - 2 * s), 0)
            if count != other:
                message = f"{count} generators at (A, M) = ({s}, {m}) but "
                message += f"{other} at ({-s}, {m - 2 * s})"
                warnings.append(Violation("symmetry", message))
    return ValidationReport(tuple(errors), tuple(warnings)), degree


# ---------------------------------------------------------------------------
# acceptance summary


_ACCEPTANCE_RESULTS: dict[int, str] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _ACCEPTANCE_RESULTS[number] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[number] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"  criterion {number:02d}: {outcome}")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


@pytest.fixture
def too_many_digits() -> str:
    """An integer literal one digit past the interpreter's limit on int(str)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter puts no limit on the digits of an integer")
    return "1" * (limit + 1)


def digit_limit_message(digits: int) -> str:
    """What every reader says of an integer literal of this many digits (the
    sign not counted) past the interpreter's limit on int(str)."""
    return f"an integer of {digits:,} digits is over the limit of {sys.get_int_max_str_digits():,}"
