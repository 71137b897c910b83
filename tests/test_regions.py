"""Region shapes, region complexes, and their homology."""

from __future__ import annotations

import pytest

from cfkcalc import (
    Column0,
    FullHook,
    GHook,
    HookWithTail,
    Row,
    TruncatedHook,
    dual,
    homology_data,
    homology_rank,
    region_complex,
    tensor,
)
from conftest import random_staircase, trefoil_complex, with_random_squares

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
    diagonal_hits (from which the library derives contains)."""
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


def brute_diagonal(region, a: int, window: int = 12) -> set[tuple[int, int]]:
    return {
        (i, a + i)
        for i in range(-window, window + 1)
        if reference_contains(region, i, a + i)
    }


def test_column_contains():
    col = Column0()
    assert col.contains(0, 5) and col.contains(0, -5)
    assert not col.contains(1, 0) and not col.contains(-1, 0)


def test_full_hook_shape():
    hook = FullHook(1)
    assert hook.contains(0, 1) and hook.contains(0, 4)
    assert not hook.contains(0, 0)  # below the level the column is cut
    assert hook.contains(3, 1)
    assert not hook.contains(-1, 1)
    assert not hook.contains(2, 2)


def test_g_hook_shape():
    hook = GHook(1)
    assert hook.contains(0, 1) and hook.contains(0, -4)
    assert not hook.contains(0, 2)
    assert hook.contains(-3, 1)
    assert not hook.contains(1, 1)


def test_truncated_hook_shape():
    hook = TruncatedHook(1, 2)
    assert hook.contains(0, 1) and hook.contains(0, 6)
    assert hook.contains(1, 1) and hook.contains(2, 1)
    assert not hook.contains(3, 1)
    assert not hook.contains(0, 0)


def test_hook_with_tail_shape():
    hook = HookWithTail(1, 2, 2)
    assert hook.contains(2, 1)
    assert hook.contains(2, 0) and hook.contains(2, -1)
    assert not hook.contains(2, -2)
    assert not hook.contains(1, 0)


def test_row_shape():
    row = Row(2)
    assert row.contains(-5, 2) and row.contains(5, 2)
    assert not row.contains(0, 1)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=repr)
def test_diagonal_hits_match_brute_force(region):
    for a in range(-6, 7):
        hits = region.diagonal_hits(a)
        assert len(set(hits)) == len(hits)
        assert set(hits) == brute_diagonal(region, a)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=repr)
def test_regions_are_order_convex(region):
    window = range(-4, 5)
    for i in window:
        for j in window:
            assert region.contains(i, j) == reference_contains(region, i, j)
    points = [(i, j) for i in window for j in window if region.contains(i, j)]
    inside = set(points)
    for (i1, j1) in points:
        for (i2, j2) in points:
            if i1 <= i2 and j1 <= j2:
                for i in range(i1, i2 + 1):
                    for j in range(j1, j2 + 1):
                        assert (i, j) in inside or not region.contains(i, j)
                        if region.contains(i, j):
                            continue
                        assert False, f"gap at {(i, j)} between {(i1, j1)} and {(i2, j2)}"


def test_column_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, Column0())
    assert [(e.gen, e.u_power) for e in rc.elements] == [
        ("x2", 0),
        ("x1", 0),
        ("x0", 0),
    ]
    x1 = rc.chain([("x1", 0)])
    assert rc.differential(x1) == rc.chain([("x2", 0)])
    assert rc.differential(rc.chain([("x0", 0)])) == 0
    assert homology_rank(rc) == 1


def test_full_hook_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, FullHook(1))
    assert [(e.gen, e.u_power) for e in rc.elements] == [
        ("x2", -2),
        ("x1", -1),
        ("x0", 0),
    ]
    # the translated x1 sits on the row and its differential keeps only x0
    x1 = rc.chain([("x1", -1)])
    assert rc.differential(x1) == rc.chain([("x0", 0)])
    data = homology_data(rc)
    assert data.rank == 1
    assert data.is_boundary(rc.chain([("x0", 0)]))


def test_g_hook_complex_of_trefoil():
    c = trefoil_complex()
    rc = region_complex(c, GHook(1))
    assert [(e.gen, e.u_power) for e in rc.elements] == [
        ("x2", 0),
        ("x1", 0),
        ("x0", 0),
    ]
    # inside the G-hook the horizontal arrow leaves the region
    x1 = rc.chain([("x1", 0)])
    assert rc.differential(x1) == rc.chain([("x2", 0)])
    data = homology_data(rc)
    assert data.rank == 1
    assert not data.is_boundary(rc.chain([("x0", 0)]))


def test_row_complex_sees_horizontal_arrows_only():
    c = trefoil_complex()
    rc = region_complex(c, Row(1))
    assert [(e.gen, e.u_power) for e in rc.elements] == [
        ("x2", -2),
        ("x1", -1),
        ("x0", 0),
    ]
    x1 = rc.chain([("x1", -1)])
    assert rc.differential(x1) == rc.chain([("x0", 0)])
    assert homology_rank(rc) == 1


def test_truncated_hook_search_shape_on_trefoil():
    c = trefoil_complex()
    # width 0 is the bare ray: x0 survives
    rc0 = region_complex(c, TruncatedHook(1, 0))
    assert not homology_data(rc0).is_boundary(rc0.chain([("x0", 0)]))
    # width 1 brings in the translated x1 whose differential is exactly x0
    rc1 = region_complex(c, TruncatedHook(1, 1))
    assert homology_data(rc1).is_boundary(rc1.chain([("x0", 0)]))


def test_hook_with_tail_revives_trefoil_class():
    c = trefoil_complex()
    rc = region_complex(c, HookWithTail(1, 1, 1))
    # the tail admits the translated x2, which restores d(x1) = x0 + x2
    assert (("x2", -1) in rc.index) and (("x1", -1) in rc.index)
    assert not homology_data(rc).is_boundary(rc.chain([("x0", 0)]))


def test_cycle_and_boundary_membership():
    c = trefoil_complex()
    rc = region_complex(c, Column0())
    data = homology_data(rc)
    x0 = rc.chain([("x0", 0)])
    x2 = rc.chain([("x2", 0)])
    assert rc.differential(x0) == 0 and not data.is_boundary(x0)
    assert rc.differential(x2) == 0 and data.is_boundary(x2)
    assert rc.differential(rc.chain([("x1", 0)])) != 0


def test_differential_squares_to_zero_everywhere(rng):
    samples = [
        trefoil_complex(),
        dual(trefoil_complex()),
        tensor(trefoil_complex(), dual(trefoil_complex())),
        with_random_squares(rng, random_staircase(rng), 2),
    ]
    for c in samples:
        for region in ALL_REGIONS:
            rc = region_complex(c, region)
            for idx in range(len(rc.elements)):
                once = rc.differential(1 << idx)
                assert rc.differential(once) == 0
