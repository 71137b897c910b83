"""Region shapes, region complexes, and their homology."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from cfkcalc import (
    Column0,
    FullHook,
    GHook,
    HookWithTail,
    Row,
    TruncatedHook,
    class_complex,
    direct_sum,
    dual,
    homology_data,
    homology_ranks,
    parse,
    region_complex,
    square_complex,
    tensor,
)
from cfkcalc.gf2 import Gf2Space
from conftest import (
    SEED,
    random_staircase,
    random_basis_change,
    randomized_corpus,
    reference_homology_ranks,
    reference_region_complex,
    torus_staircase,
    trefoil_complex,
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
    return region.u_power(j - i) == -i


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


def test_row_shape():
    row = Row(2)
    assert contains(row, -5, 2) and contains(row, 5, 2)
    assert not contains(row, 0, 1)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=repr)
def test_diagonal_hits_match_brute_force(region):
    """u_power names the one point of the region on each diagonal, or None."""
    for a in range(-6, 7):
        u = region.u_power(a)
        assert brute_diagonal(region, a) == (set() if u is None else {(-u, a - u)})


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


def test_column_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, Column0())
    assert named(c, rc) == [
        ("x2", 0),
        ("x1", 0),
        ("x0", 0),
    ]
    x1 = rc.chain(gens(c, "x1"))
    assert rc.differential(x1) == rc.chain(gens(c, "x2"))
    assert rc.differential(rc.chain(gens(c, "x0"))) == 0
    assert homology_rank(homology_data(rc)) == 1


def test_full_hook_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, FullHook(1))
    assert named(c, rc) == [
        ("x2", -2),
        ("x1", -1),
        ("x0", 0),
    ]
    # the translated x1 sits on the row and its differential keeps only x0
    x1 = rc.chain(gens(c, "x1"))
    assert rc.differential(x1) == rc.chain(gens(c, "x0"))
    data = homology_data(rc)
    assert homology_rank(data) == 1
    assert rc.chain(gens(c, "x0")) in data.boundary_space


def test_g_hook_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, GHook(1))
    assert named(c, rc) == [
        ("x2", 0),
        ("x1", 0),
        ("x0", 0),
    ]
    # inside the G-hook the horizontal arrow leaves the region
    x1 = rc.chain(gens(c, "x1"))
    assert rc.differential(x1) == rc.chain(gens(c, "x2"))
    data = homology_data(rc)
    assert homology_rank(data) == 1
    assert rc.chain(gens(c, "x0")) not in data.boundary_space


def test_row_complex_sees_horizontal_arrows_only():
    c = trefoil_complex()
    rc = region_complex(c, Row(1))
    assert named(c, rc) == [
        ("x2", -2),
        ("x1", -1),
        ("x0", 0),
    ]
    x1 = rc.chain(gens(c, "x1"))
    assert rc.differential(x1) == rc.chain(gens(c, "x0"))
    assert homology_rank(homology_data(rc)) == 1


def test_truncated_hook_search_shape_on_trefoil():
    c = trefoil_complex()
    # width 0 is the bare ray: x0 survives
    rc0 = region_complex(c, TruncatedHook(1, 0))
    assert rc0.chain(gens(c, "x0")) not in homology_data(rc0).boundary_space
    # width 1 brings in the translated x1 whose differential is exactly x0
    rc1 = region_complex(c, TruncatedHook(1, 1))
    assert rc1.chain(gens(c, "x0")) in homology_data(rc1).boundary_space


def test_hook_with_tail_revives_trefoil_class():
    c = trefoil_complex()
    rc = region_complex(c, HookWithTail(1, 1, 1))
    # the tail admits the translated x2, which restores d(x1) = x0 + x2
    assert {("x2", -1), ("x1", -1)} <= set(named(c, rc))
    assert rc.chain(gens(c, "x0")) not in homology_data(rc).boundary_space


def test_cycle_and_boundary_membership():
    c = trefoil_complex()
    rc = region_complex(c, Column0())
    data = homology_data(rc)
    x0 = rc.chain(gens(c, "x0"))
    x2 = rc.chain(gens(c, "x2"))
    assert rc.differential(x0) == 0 and x0 not in data.boundary_space
    assert rc.differential(x2) == 0 and x2 in data.boundary_space
    assert rc.differential(rc.chain(gens(c, "x1"))) != 0


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
            rc = region_complex(c, region)
            n = len(rc)
            for idx in range(n):
                once = rc.differential(1 << idx)
                assert rc.differential(once) == 0
            masks = [0]
            if n:
                masks += [1 << (n - 1)] + [rng.getrandbits(n) for _ in range(6)]
            for mask in masks:
                assert rc.chain_elements(mask) == brute_chain_elements(rc, mask)
                assert rc.differential(mask) == brute_differential(rc, mask)
                assert rc.differential(rc.differential(mask)) == 0


# ---------------------------------------------------------------------------
# the build matches a reference keyed by (generator index, U power)


def _shapes_at(level: int, span: int):
    yield Column0()
    yield FullHook(level)
    yield GHook(level)
    yield Row(level)
    for width in sorted({0, 1, 2, span}):
        yield TruncatedHook(level, width)
        for depth in sorted({1, 2, span + 1}):
            yield HookWithTail(level, width, depth)


def _assert_builds_match_reference(c) -> None:
    low, high = c.generators[0].alexander, c.generators[-1].alexander
    for level in range(low - 1, high + 2):
        for region in _shapes_at(level, high - low):
            rc = region_complex(c, region)
            ref = reference_region_complex(c, region)
            assert rc.gen_index == ref.gen_index, region
            assert rc.u_power == ref.u_power, region
            assert rc.position == ref.position, region
            assert rc.boundary == ref.boundary, region


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


# ---------------------------------------------------------------------------
# builds cut to a window of degrees


def test_boundary_entries_lower_the_degree_by_one():
    for c in randomized_corpus(random.Random(SEED)):
        for region in ALL_REGIONS:
            rc = region_complex(c, region)
            for p, column in enumerate(rc.boundary):
                assert {rc.degree[q] for q in range(len(rc)) if column >> q & 1} <= {
                    rc.degree[p] - 1
                }


def test_a_windowed_build_is_the_full_build_cut_to_its_degrees():
    window = range(-1, 2)
    for c in randomized_corpus(random.Random(SEED)):
        for region in ALL_REGIONS:
            full = region_complex(c, region)
            rc = region_complex(c, region, window)
            keep = [p for p, k in enumerate(full.degree) if k in window]
            assert rc.u_power == tuple(full.u_power[p] for p in keep)
            assert rc.gen_index == tuple(full.gen_index[p] for p in keep)
            assert rc.degree == tuple(full.degree[p] for p in keep)
            for new, old in enumerate(keep):
                cut = [q for q, p in enumerate(keep) if full.boundary[old] >> p & 1]
                assert rc.boundary[new] == sum(1 << q for q in cut)
            # homology is reported in degree 0 only, where it equals the
            # degree-0 homology of the full build
            data = homology_data(rc)
            on_degree_0 = sum(1 << q for q, k in enumerate(rc.degree) if k == 0)
            assert all(z & ~on_degree_0 == 0 for z in data.cycle_basis)
            r0, r1 = (
                Gf2Space(b for b, k in zip(full.boundary, full.degree) if k == d).dim
                for d in (0, 1)
            )
            assert homology_rank(data) == full.degree.count(0) - r0 - r1


def test_position_is_none_exactly_outside_the_shape_or_the_window():
    seen = set()
    for c in randomized_corpus(random.Random(SEED)):
        assert all(abs(g.alexander) < 40 for g in c.generators)
        for region in ALL_REGIONS:
            alexander = {g.alexander for g in c.generators}
            hits = {a: brute_diagonal(region, a, window=50) for a in alexander}
            for degrees in (None, range(-1, 2)):
                rc = region_complex(c, region, degrees)
                for k, g in enumerate(c.generators):
                    hit = hits[g.alexander]
                    u = -next(iter(hit))[0] if hit else None
                    inside = u is not None and (degrees is None or g.maslov - 2 * u in degrees)
                    seen.add((u is None, inside))
                    p = rc.position[k]
                    if inside:
                        assert (rc.gen_index[p], rc.u_power[p]) == (k, u)
                        assert rc.chain([k]) == 1 << p
                    else:
                        assert p is None
                        with pytest.raises(KeyError):
                            rc.chain([k])
    # generators outside the shape, outside the window only, and inside
    assert seen == {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# per-degree homology ranks without a build


def _ranks_cases(rng: random.Random):
    for k, c in enumerate(randomized_corpus(random.Random(SEED))):
        tangled = with_flat_pairs(rng, c, rng.randint(1, 3))
        for _ in range(3):
            tangled = random_basis_change(rng, tangled)
        square = square_complex(rng.randint(1, 2), rng.randint(1, 2), 0, -1, prefix=f"s{k}_")
        yield from (c, dual(c), tensor(c, c), tensor(c, dual(c)), tangled, direct_sum(c, square))


def test_homology_ranks_match_the_full_build():
    rng = random.Random(SEED)
    largest = 0
    for c in _ranks_cases(rng):
        low, high = c.generators[0].alexander, c.generators[-1].alexander
        levels = sorted({low - 1, low, 0, (low + high) // 2, high + 1})
        for region in [Column0(), *map(Row, levels)]:
            assert homology_ranks(c, region) == reference_homology_ranks(c, region), region
        # column degree blocks of several elements: bits name places in a block
        largest = max(largest, max(Counter(g.maslov for g in c.generators).values()))
    assert largest >= 8


@pytest.mark.parametrize(
    "text", [f"C(D;{p},{p + 1}) + -T({p},{p + 1})" for p in range(2, 6)] + ["T(2,5) + T(3,4)"]
)
def test_homology_ranks_of_classes_have_rank_one_in_degree_0(text):
    c = class_complex(parse(text)).complex
    for region in (Column0(), Row(0), Row(3), Row(-2)):
        ranks = homology_ranks(c, region)
        assert ranks == reference_homology_ranks(c, region)
        assert [r for r in ranks.values() if r] == [1]
    assert {k: r for k, r in homology_ranks(c, Column0()).items() if r} == {0: 1}


def test_homology_ranks_refuse_a_region_that_misses_a_diagonal():
    with pytest.raises(ValueError, match="misses a diagonal"):
        homology_ranks(trefoil_complex(), TruncatedHook(1, 0))
