"""Region shapes, region complexes, and their homology."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from cfkcalc import cfk, regions
from cfkcalc import (
    CfkComplex,
    Column0,
    FullHook,
    GHook,
    HookWithTail,
    InconsistentInput,
    Region,
    Row,
    TruncatedHook,
    class_complex,
    direct_sum,
    dual,
    homology_data,
    parse,
    region_complex,
    square_complex,
    tau,
    tensor,
)
from conftest import (
    SEED,
    random_staircase,
    random_basis_change,
    randomized_corpus,
    reference_homology_ranks,
    reference_region_complex,
    torus_staircase,
    trefoil_complex,
    u_power,
    validate_breakers,
    with_flat_pairs,
    with_random_squares,
)

ALL_REGIONS = [
    Column0(),
    FullHook(0),
    FullHook(1),
    FullHook(-2),
    GHook(0),
    GHook(1),
    GHook(-1),
    TruncatedHook(1, 0),
    TruncatedHook(1, 2),
    TruncatedHook(-1, 3),
    HookWithTail(1, 1, 1),
    HookWithTail(2, 2, 3),
    HookWithTail(0, 1, 2),
    Row(0),
    Row(2),
    Row(-3),
]


def _shapes_at(level: int, span: int):
    yield Column0()
    yield FullHook(level)
    yield GHook(level)
    yield Row(level)
    for width in sorted({0, 1, 2, span}):
        yield TruncatedHook(level, width)
        for depth in sorted({1, 2, span + 1}):
            yield HookWithTail(level, width, depth)


# every shape above, and every shape the slice checks build at a level,
# with widths 0..span and tails deeper than the span
AT_LEVELS = [r for level in (-3, 0, 2) for span in (0, 3) for r in _shapes_at(level, span)]
SHAPES = list(dict.fromkeys(ALL_REGIONS + AT_LEVELS))


def reference_contains(region, i: int, j: int) -> bool:
    """Membership written from each shape's definition, independent of
    u_power."""
    if isinstance(region, Column0):
        return i == 0
    if isinstance(region, FullHook):
        return (i == 0 and j >= region.level) or (j == region.level and i >= 0)
    if isinstance(region, GHook):
        return (i == 0 and j <= region.level) or (j == region.level and i <= 0)
    if isinstance(region, HookWithTail):
        if reference_contains(TruncatedHook(region.level, region.width), i, j):
            return True
        return i == region.width and region.level - region.depth <= j < region.level
    if isinstance(region, TruncatedHook):
        if i == 0 and j >= region.level:
            return True
        return j == region.level and 0 <= i <= region.width
    if isinstance(region, Row):
        return j == region.level
    raise TypeError(f"no reference shape for {region!r}")


def contains(region, i: int, j: int) -> bool:
    """Membership read from u_power: the region's point on the diagonal
    j - i is U^u at (-u, j - i - u)."""
    return u_power(region, j - i) == -i


def named(c, rc) -> list[tuple[str, int]]:
    """(generator name, U power) of each element, in position order."""
    return [(c.generators[k].name, u) for k, u in zip(rc.gen_index, rc.u_power)]


def gens(c, *names: str) -> list[int]:
    """Generator indices of the given names."""
    order = [g.name for g in c.generators]
    return [order.index(x) for x in names]


def homology_rank(data) -> int:
    return len(data.cycle_basis) - data.boundary_space.dim


def brute_diagonal(region, a: int, window: int = 12) -> set[tuple[int, int]]:
    return {
        (i, a + i)
        for i in range(-window, window + 1)
        if reference_contains(region, i, a + i)
    }


def test_column_contains():
    col = Column0()
    assert contains(col, 0, 5) and contains(col, 0, -5)
    assert not contains(col, 1, 0) and not contains(col, -1, 0)


def test_full_hook_shape():
    hook = FullHook(1)
    assert contains(hook, 0, 1) and contains(hook, 0, 4)
    assert not contains(hook, 0, 0)  # below the level the column is cut
    assert contains(hook, 3, 1)
    assert not contains(hook, -1, 1)
    assert not contains(hook, 2, 2)


def test_g_hook_shape():
    hook = GHook(1)
    assert contains(hook, 0, 1) and contains(hook, 0, -4)
    assert not contains(hook, 0, 2)
    assert contains(hook, -3, 1)
    assert not contains(hook, 1, 1)


def test_truncated_hook_shape():
    hook = TruncatedHook(1, 2)
    assert contains(hook, 0, 1) and contains(hook, 0, 6)
    assert contains(hook, 1, 1) and contains(hook, 2, 1)
    assert not contains(hook, 3, 1)
    assert not contains(hook, 0, 0)


def test_hook_with_tail_shape():
    hook = HookWithTail(1, 2, 2)
    assert contains(hook, 2, 1)
    assert contains(hook, 2, 0) and contains(hook, 2, -1)
    assert not contains(hook, 2, -2)
    assert not contains(hook, 1, 0)


@pytest.mark.parametrize("make", [
    lambda: TruncatedHook(1, -1),
    lambda: HookWithTail(1, -1, 2),
    lambda: HookWithTail(1, 1, -1),
])
def test_hooks_refuse_a_negative_width_or_depth(make):
    # HookWithTail(1, -1, 2) would have a tail overlapping its column
    with pytest.raises(ValueError, match="width and depth must be nonnegative"):
        make()


def test_hooks_of_width_and_depth_zero_stay_legal():
    # the a1 search builds the bare ray TruncatedHook(tau, 0)
    c = trefoil_complex()
    assert region_complex(c, TruncatedHook(1, 0), 0).gen_index == (2,)
    assert region_complex(c, HookWithTail(1, 0, 0), 0).gen_index == (2,)


def test_row_shape():
    row = Row(2)
    assert contains(row, -5, 2) and contains(row, 5, 2)
    assert not contains(row, 0, 1)


@pytest.mark.parametrize("region", SHAPES, ids=repr)
def test_diagonal_hits_match_brute_force(region):
    """The pieces name the one point of the region on each diagonal, or None,
    as u_power reads them and as each piece covering the diagonal does: at
    most three pieces, disjoint and in ascending A."""
    pieces = region.pieces()
    assert len(pieces) <= 3 and all(slope in (0, 1) for _, _, slope, _ in pieces)
    assert all(p[1] < q[0] for p, q in zip(pieces, pieces[1:]))
    # the bounded piece ends lie within the shape's span (width + depth)
    # below its level: look 2 past it on either side
    level = getattr(region, "level", 0)
    reach = abs(level) + getattr(region, "width", 0) + getattr(region, "depth", 0) + 2
    for a in range(-6 - reach, 7 + reach):
        hits = brute_diagonal(region, a, window=12 + 2 * reach)
        u = u_power(region, a)
        assert hits == (set() if u is None else {(-u, a - u)})
        on = [slope * a + shift for low, high, slope, shift in pieces if low <= a <= high]
        assert hits == {(-u, a - u) for u in on}


@pytest.mark.parametrize("region", ALL_REGIONS, ids=repr)
def test_regions_are_order_convex(region):
    window = range(-4, 5)
    for i in window:
        for j in window:
            assert contains(region, i, j) == reference_contains(region, i, j)
    points = [(i, j) for i in window for j in window if contains(region, i, j)]
    inside = set(points)
    for (i1, j1) in points:
        for (i2, j2) in points:
            if i1 <= i2 and j1 <= j2:
                for i in range(i1, i2 + 1):
                    for j in range(j1, j2 + 1):
                        assert (i, j) in inside or not contains(region, i, j)
                        if contains(region, i, j):
                            continue
                        assert False, f"gap at {(i, j)} between {(i1, j1)} and {(i2, j2)}"


def slices(c, region) -> dict:
    """The region's slice at every degree of its elements, and one beyond
    each end."""
    powers = [(g, u_power(region, g.alexander)) for g in c.generators]
    degrees = [g.maslov - 2 * u for g, u in powers if u is not None]
    if not degrees:
        return {}
    return {d: region_complex(c, region, d) for d in range(min(degrees) - 1, max(degrees) + 2)}


def total_homology_rank(c, region) -> int:
    return sum(homology_rank(homology_data(rc)) for rc in slices(c, region).values())


def test_column_complex_of_trefoil():
    c = trefoil_complex()
    s = slices(c, Column0())
    assert [named(c, s[d]) for d in (-2, -1, 0)] == [[("x2", 0)], [("x1", 0)], [("x0", 0)]]
    # a boundary is a mask over the degree below, in that slice's order
    x1 = s[-1].chain(gens(c, "x1"))
    assert s[-1].differential(x1) == s[-2].chain(gens(c, "x2"))
    assert s[0].differential(s[0].chain(gens(c, "x0"))) == 0
    assert s[-2].above == (s[-2].chain(gens(c, "x2")),)
    assert total_homology_rank(c, Column0()) == 1


def test_full_hook_complex_of_trefoil():
    c = trefoil_complex()
    s = slices(c, FullHook(1))
    assert [named(c, s[d]) for d in (0, 1, 2)] == [[("x0", 0)], [("x1", -1)], [("x2", -2)]]
    # the translated x1 sits on the row and its differential keeps only x0
    x1 = s[1].chain(gens(c, "x1"))
    assert s[1].differential(x1) == s[0].chain(gens(c, "x0"))
    assert total_homology_rank(c, FullHook(1)) == 1
    assert s[0].chain(gens(c, "x0")) in homology_data(s[0]).boundary_space


def test_g_hook_complex_of_trefoil():
    c = trefoil_complex()
    s = slices(c, GHook(1))
    assert [named(c, s[d]) for d in (-2, -1, 0)] == [[("x2", 0)], [("x1", 0)], [("x0", 0)]]
    # inside the G-hook the horizontal arrow leaves the region
    x1 = s[-1].chain(gens(c, "x1"))
    assert s[-1].differential(x1) == s[-2].chain(gens(c, "x2"))
    assert total_homology_rank(c, GHook(1)) == 1
    assert s[0].chain(gens(c, "x0")) not in homology_data(s[0]).boundary_space


def test_row_complex_sees_horizontal_arrows_only():
    c = trefoil_complex()
    s = slices(c, Row(1))
    assert [named(c, s[d]) for d in (0, 1, 2)] == [[("x0", 0)], [("x1", -1)], [("x2", -2)]]
    x1 = s[1].chain(gens(c, "x1"))
    assert s[1].differential(x1) == s[0].chain(gens(c, "x0"))
    assert total_homology_rank(c, Row(1)) == 1


def test_truncated_hook_search_shape_on_trefoil():
    c = trefoil_complex()
    # width 0 is the bare ray: x0 survives
    rc0 = region_complex(c, TruncatedHook(1, 0), 0)
    assert rc0.chain(gens(c, "x0")) not in homology_data(rc0).boundary_space
    # width 1 brings in the translated x1 whose differential is exactly x0
    rc1 = region_complex(c, TruncatedHook(1, 1), 0)
    assert rc1.chain(gens(c, "x0")) in homology_data(rc1).boundary_space


def test_hook_with_tail_revives_trefoil_class():
    c = trefoil_complex()
    rc = region_complex(c, HookWithTail(1, 1, 1), 0)
    # the tail admits the translated x2 beside x0, which restores
    # d(x1) = x0 + x2 from one degree up
    assert named(c, rc) == [("x2", -1), ("x0", 0)]
    assert rc.above == (rc.chain(gens(c, "x0", "x2")),)
    assert rc.chain(gens(c, "x0")) not in homology_data(rc).boundary_space


def test_cycle_and_boundary_membership():
    c = trefoil_complex()
    s = slices(c, Column0())
    x0 = s[0].chain(gens(c, "x0"))
    x2 = s[-2].chain(gens(c, "x2"))
    assert s[0].differential(x0) == 0 and x0 not in homology_data(s[0]).boundary_space
    assert s[-2].differential(x2) == 0 and x2 in homology_data(s[-2]).boundary_space
    assert s[-1].differential(s[-1].chain(gens(c, "x1"))) != 0


def brute_chain_elements(rc, mask: int) -> list[int]:
    return [k for p, k in enumerate(rc.gen_index) if mask >> p & 1]


def brute_differential(rc, mask: int) -> int:
    out = 0
    for k, column in enumerate(rc.boundary):
        if mask >> k & 1:
            out ^= column
    return out


def test_differential_squares_to_zero_everywhere(rng):
    samples = [
        trefoil_complex(),
        dual(trefoil_complex()),
        tensor(trefoil_complex(), dual(trefoil_complex())),
        with_random_squares(rng, random_staircase(rng), 2),
        # more than 64 elements, so masks span several machine words
        torus_staircase(2, 141),
    ]
    for c in samples:
        for region in ALL_REGIONS:
            for rc in slices(c, region).values():
                # d^2 = 0 from one degree up to one degree down
                for column in rc.above:
                    assert rc.differential(column) == 0
                n = len(rc)
                masks = [0]
                if n:
                    masks += [1 << (n - 1)] + [rng.getrandbits(n) for _ in range(6)]
                for mask in masks:
                    assert rc.chain_elements(mask) == brute_chain_elements(rc, mask)
                    assert rc.differential(mask) == brute_differential(rc, mask)


# ---------------------------------------------------------------------------
# every slice is the reference build cut to its degree


def _reindex(mask: int, index: dict[int, int]) -> int:
    """mask over reference positions, as a mask over the positions of one
    degree (bit index[p] for bit p); a bit outside that degree fails."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << index[low.bit_length() - 1]
        mask ^= low
    return out


def _assert_slices_match_reference(c, region) -> None:
    """Every slice holding an element or a column from above or below (one
    empty slice when the region is empty) equals the reference build cut to
    its degree and re-indexed, and its homology rank is the reference's in
    that degree."""
    ref = reference_region_complex(c, region)
    ranks = ref.homology_ranks()
    blocks: dict[int, list[int]] = {}
    for p, k in enumerate(ref.degree):
        blocks.setdefault(k, []).append(p)
    index = {k: {p: i for i, p in enumerate(block)} for k, block in blocks.items()}
    for d in sorted({k + e for k in blocks for e in (-1, 0, 1)} or {0}):
        rc = region_complex(c, region, d)
        keep, above = blocks.get(d, []), blocks.get(d + 1, [])
        below_index, keep_index = index.get(d - 1, {}), index.get(d, {})
        assert rc.gen_index == tuple(ref.gen_index[p] for p in keep), (region, d)
        assert rc.u_power == tuple(ref.u_power[p] for p in keep), (region, d)
        boundary = tuple(_reindex(ref.boundary[p], below_index) for p in keep)
        assert rc.boundary == boundary, (region, d)
        assert rc.above == tuple(_reindex(ref.boundary[p], keep_index) for p in above), (region, d)
        assert rc.above_u_power == tuple(ref.u_power[p] for p in above), (region, d)
        # gen_index rises, so chain finds each of the slice's generators at its place
        assert all(a < b for a, b in zip(rc.gen_index, rc.gen_index[1:])), (region, d)
        assert [rc.chain([k]) for k in rc.gen_index] == [1 << p for p in range(len(rc))], (region, d)
        assert homology_rank(homology_data(rc)) == ranks.get(d, 0), (region, d)


def _assert_builds_match_reference(c) -> None:
    low, high = c.generators[0].alexander, c.generators[-1].alexander
    levels = range(low - 1, high + 2)
    # Column0 is the same region at every level: check each region once
    for region in dict.fromkeys(r for s in levels for r in _shapes_at(s, high - low)):
        _assert_slices_match_reference(c, region)


def test_region_builds_match_reference_on_randomized_corpus():
    for c in randomized_corpus(random.Random(SEED)):
        _assert_builds_match_reference(c)
        _assert_builds_match_reference(dual(c))


@pytest.mark.parametrize(
    "text",
    [f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 7)]
    + ["(T(2,3) + T(2,3)) + T(2,3)", "-((T(2,3) + T(2,3)) + T(2,3))", "T(2,5) + -(T(2,3) + T(3,4))"],
)
def test_region_builds_match_reference_on_classes(text):
    _assert_builds_match_reference(class_complex(parse(text)).complex)


def test_boundary_entries_lower_the_degree_by_one():
    # each slice's columns fit the slices one and two degrees down
    for c in randomized_corpus(random.Random(SEED)):
        for region in ALL_REGIONS:
            s = slices(c, region)
            for d, rc in s.items():
                below = len(s[d - 1]) if d - 1 in s else 0
                assert all(column >> below == 0 for column in rc.boundary)
                assert all(column >> len(rc) == 0 for column in rc.above)
                assert len(rc.above) == (len(s[d + 1]) if d + 1 in s else 0)


class Counted(Region):
    """A region that answers as inner does and records each query made of it."""

    inner: Region
    queries: list

    def pieces(self):
        self.queries.append("pieces")
        return self.inner.pieces()


def test_a_slice_queries_its_region_in_proportion_to_its_own_elements():
    # T(2,4001) has 4,001 generators at 4,001 Alexander gradings; the slice
    # of the narrowest truncated hook at tau holds a handful of them
    c = class_complex(parse("T(2,4001)")).complex
    region = Counted(TruncatedHook(tau(c), 1), [])
    rc = region_complex(c, region, 0)
    assert 0 < len(rc) + len(rc.above) < 10
    assert region.queries == ["pieces"]  # the arrows' targets need no query
    assert rc.gen_index == region_complex(c, region.inner, 0).gen_index


def test_a_product_view_slice_reads_each_maslov_grading_once(monkeypatch):
    # the family's --evidence 2 product, never built: M is read once per
    # element, for its U power, and never per arrow
    k = class_complex(parse("C(D;3,4) + -T(3,4)")).complex
    minus_j = dual(class_complex(parse("C(D;2,3) + -T(2,3)")).complex)
    reads, read = [], regions._Digit.__getitem__

    def counted(self, key):
        reads.append(key)
        return read(self, key)

    monkeypatch.setattr(regions._Digit, "__getitem__", counted)
    rc = region_complex(regions._Product((k, minus_j, minus_j)), Column0(), 0)
    assert len(rc) > 600 and len(rc.above) > 600
    assert len(reads) == len(rc) + len(rc.above)


def test_a_slice_is_refused_exactly_when_the_grading_check_refuses():
    # the grading laws and d^2 = 0 are checked once, by cfk._math_errors, when
    # an unmarked complex is indexed: the A-raising, Maslov-break and odd-d^2
    # complexes are refused at every degree with validate's first message
    refused = []
    for c in validate_breakers():
        errors = cfk._math_errors(c)
        for region in (Column0(), Row(1), FullHook(0)):
            if not errors:  # rank 2, the square, the trefoil beside a pair
                _assert_slices_match_reference(c, region)
                continue
            degrees = reference_region_complex(c, region).degree
            for d in range(min(degrees) - 1, max(degrees) + 2):
                with pytest.raises(InconsistentInput, match=f"^{re.escape(errors[0].message)}$"):
                    region_complex(c, region, d)
        refused += [errors[0].kind] if errors else []
    assert refused == ["j-drop", "maslov", "d-squared"]


def test_chain_raises_exactly_outside_the_shape_or_the_slice():
    seen = set()
    for c in randomized_corpus(random.Random(SEED)):
        assert all(abs(g.alexander) < 40 for g in c.generators)
        for region in ALL_REGIONS:
            alexander = {g.alexander for g in c.generators}
            hits = {a: brute_diagonal(region, a, window=50) for a in alexander}
            for degree in (-1, 0):
                rc = region_complex(c, region, degree)
                for k, g in enumerate(c.generators):
                    hit = hits[g.alexander]
                    u = -next(iter(hit))[0] if hit else None
                    inside = u is not None and g.maslov - 2 * u == degree
                    seen.add((u is None, inside))
                    if inside:
                        p = rc.gen_index.index(k)
                        assert rc.u_power[p] == u and rc.chain([k]) == 1 << p
                    else:
                        assert k not in rc.gen_index
                        with pytest.raises(KeyError):
                            rc.chain([k])
    # generators outside the shape, outside the slice's degree only, and inside
    assert seen == {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# the per-degree homology ranks of validate's knot-class check, against the build


def _ranks_cases(rng: random.Random):
    for k, c in enumerate(randomized_corpus(random.Random(SEED))):
        tangled = with_flat_pairs(rng, c, rng.randint(1, 3))
        for _ in range(3):
            tangled = random_basis_change(rng, tangled)
        square = square_complex(rng.randint(1, 2), rng.randint(1, 2), 0, -1, prefix=f"s{k}_")
        yield from (c, dual(c), tensor(c, c), tensor(c, dual(c)), tangled, direct_sum(c, square))


def test_homology_ranks_match_the_full_build():
    """The knot-class check ranks the vertical complex (graded by M) and the
    horizontal one (by M - 2A) unbuilt: per degree, as the reference builds
    of Column0 and Row(0), and it records the vertical class's degree."""
    rng = random.Random(SEED)
    largest = 0
    for c in _ranks_cases(rng):
        vertical, horizontal = (cfk._degree_ranks(c, slope) for slope in (0, 2))
        assert vertical == reference_homology_ranks(c, Column0())
        assert horizontal == reference_homology_ranks(c, Row(0))
        fresh = CfkComplex(c.generators, c.arrows)  # no recorded class degree
        assert cfk._class_errors(fresh) == [], c
        assert {k: n for k, n in vertical.items() if n} == {fresh._class_degree: 1}, c
        assert [n for n in horizontal.values() if n] == [1], c
        # column degree blocks of several elements: bits name places in a block
        largest = max(largest, max(Counter(g.maslov for g in c.generators).values()))
    assert largest >= 8


@pytest.mark.parametrize(
    "text", [f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 6)] + ["T(2,5) + T(3,4)"]
)
def test_homology_ranks_of_classes_have_rank_one_in_degree_0(text):
    c = class_complex(parse(text)).complex
    assert cfk._degree_ranks(c, 0) == reference_homology_ranks(c, Column0())
    assert cfk._degree_ranks(c, 2) == reference_homology_ranks(c, Row(0))
    for region in (Column0(), Row(0), Row(3), Row(-2)):
        ranks = reference_homology_ranks(c, region)
        (degree,) = [k for k, r in ranks.items() if r]
        assert ranks[degree] == 1
        # the slice in that degree has the same homology as the full build
        data = homology_data(region_complex(c, region, degree))
        assert len(data.cycle_basis) - data.boundary_space.dim == 1
    assert {k: r for k, r in reference_homology_ranks(c, Column0()).items() if r} == {0: 1}
    assert c._class_degree == 0
