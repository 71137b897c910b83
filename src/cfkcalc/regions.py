"""Lattice regions in the (i, j) plane and the complexes they carve out.

The U-orbit of a generator x is the diagonal j - i = A(x); the element
U^k x sits at (-k, A(x) - k).  A region picks out, for each diagonal, the
lattice point it contains, if any, as its U power; the region complex keeps
one element per such point, so each generator has at most one element and
the region layer names elements by generator index.  A boundary entry
connects U^k1 x to U^k2 y when some arrow x -> y with power n satisfies
k2 = k1 + n and both endpoints lie inside the region.

All regions here are order-convex (p <= q <= r coordinatewise with p, r in
the region forces q in), which makes every intermediate element of every
differential path between two region elements lie in the region: the
region complex therefore still squares to zero.

Region complexes are graded: U^k x sits in degree M(x) - 2k, and by the
Maslov law every boundary entry lowers it by one.  The invariants read
homology in one degree d, so a build is one slice: the degree-d elements
with their boundaries over degree d - 1, and the boundaries of the degree
d + 1 elements over degree d, so every chain is a mask over one degree.
The knot-class check of validate ranks the column and the row without a
region, in cfk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._value import Value
from .errors import InconsistentInput
from .gf2 import Gf2Space, kernel_and_image

if TYPE_CHECKING:
    from .cfk import CfkComplex

__all__ = [
    "Region",
    "Column0",
    "FullHook",
    "GHook",
    "TruncatedHook",
    "HookWithTail",
    "Row",
    "RegionComplex",
    "region_complex",
    "HomologyData",
    "homology_data",
]

_INF = float("inf")


class Region(Value):
    """A subset of the lattice queried along diagonals: every shape meets
    each diagonal j - i = a at most once, at (-u, a - u) for u = u_power(a).
    pieces() gives the shape as at most three disjoint pieces (low, high, slope,
    shift) in ascending A, meeting the diagonals low <= a <= high at u = slope *
    a + shift: a column piece (slope 0, u constant) or a row piece (u = a - level)."""

    def pieces(self) -> tuple[tuple[float, float, int, int], ...]:
        raise NotImplementedError

    def u_power(self, a: int) -> int | None:
        """The U power of the region's point on the diagonal j - i = a, or
        None when the region misses that diagonal."""
        for low, high, slope, shift in self.pieces():
            if low <= a <= high:
                return slope * a + shift
        return None


class Column0(Region):
    """The column i = 0; one element per generator, at (0, A(x))."""

    def pieces(self):
        return ((-_INF, _INF, 0, 0),)


class FullHook(Region):
    """{i = 0, j >= level} united with {j = level, i >= 0}."""

    level: int

    def pieces(self):
        return ((-_INF, self.level - 1, 1, -self.level), (self.level, _INF, 0, 0))


class GHook(Region):
    """{i = 0, j <= level} united with {j = level, i <= 0}."""

    level: int

    def pieces(self):
        return ((-_INF, self.level, 0, 0), (self.level + 1, _INF, 1, -self.level))


class TruncatedHook(Region):
    """{i = 0, j >= level} united with {j = level, 0 <= i <= width}."""

    level: int
    width: int

    def __post_init__(self) -> None:
        if min(self._values()[1:]) < 0:  # the width, and a tail's depth
            raise ValueError(f"{self!r}: width and depth must be nonnegative")

    def pieces(self):
        return ((self.level - self.width, self.level - 1, 1, -self.level), (self.level, _INF, 0, 0))


class HookWithTail(TruncatedHook):
    """A truncated hook plus the tail {i = width, level - depth <= j < level}."""

    depth: int

    def pieces(self):
        top = self.level - self.width - 1  # the tail's diagonals all lie below the hook's
        return ((top + 1 - self.depth, top, 0, -self.width), *super().pieces())


class Row(Region):
    """The row j = level; one element per generator."""

    level: int

    def pieces(self):
        return ((-_INF, _INF, 1, -self.level),)


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=1)
def _index(c: CfkComplex) -> tuple[list[int], list[int], tuple]:
    """A and M per generator, and per slope s the generator indices sorted by
    (M - 2sA, index) beside their sorted M - 2sA; for the last complex only.
    A piece of slope s and shift b holds the degree-D elements with M - 2sA =
    D + 2b, so those with k0 <= k < k1 are one run of the order for s."""
    alexander = [g.alexander for g in c.generators]
    maslov = [g.maslov for g in c.generators]
    gens, orders = list(range(len(maslov))), []
    for key in (maslov, [m - 2 * a for a, m in zip(alexander, maslov)]):
        order = sorted(gens, key=key.__getitem__)
        orders.append(([key[k] for k in order], order))
    return alexander, maslov, tuple(orders)


class RegionComplex:
    """One Maslov-degree slice of a region complex.

    Position p holds U^u_power[p] of generator gen_index[p], the degree-d
    elements in generator order (a generator has at most one element in a
    region, so gen_index is sorted).  boundary[p] is the boundary of element
    p as a mask over the degree d - 1 elements (bit j = j-th in generator
    order), and above[q] that of the q-th degree d + 1 element,
    U^above_u_power[q], as a mask over positions.  A boundary entry that
    does not land one degree down raises InconsistentInput.  A slice costs its
    own elements and arrows: each degree is cut from the complex's _index.
    """

    __slots__ = ("gen_index", "u_power", "boundary", "above", "above_u_power")

    def __init__(self, source: CfkComplex, region: Region, degree: int):
        alexander, maslov, orders = _index(source)
        below, members, above = [], [], []  # the degree d - 1, d, d + 1 elements
        for low, high, slope, shift in region.pieces():
            k0, k1 = bisect_left(alexander, low), bisect_right(alexander, high)
            if k0 < k1:  # the runs of M - 2sA = d - 1 + 2b, d + 2b, d + 1 + 2b
                (key, order), m = orders[slope], degree - 1 + 2 * shift
                r0, r1 = bisect_left(key, m), bisect_left(key, m + 1)
                r2, r3 = bisect_left(key, m + 2, r1), bisect_left(key, m + 3, r1)
                below += order[bisect_left(order, k0, r0, r1) : bisect_left(order, k1, r0, r1)]
                members += order[bisect_left(order, k0, r1, r2) : bisect_left(order, k1, r1, r2)]
                above += order[bisect_left(order, k0, r2, r3) : bisect_left(order, k1, r2, r3)]
        gens, tr, off = source.generators, source.triples, source.offsets
        parts = []  # boundaries and U powers of the degree d, then d + 1, elements
        for d, lower, block in ((degree, below, members), (degree + 1, members, above)):
            out, power, place = [], [], {k: p for p, k in enumerate(lower)}
            for k in block:  # its boundary over the degree d - 1 elements, lower
                mask, target, pk = 0, maslov[k] - 1, (maslov[k] - d) >> 1  # M - 2u is the degree
                for _, t, u in tr[off[k] : off[k + 1]]:
                    if maslov[t] - 2 * u == target:  # the law holds: in the region iff in lower
                        if t in place:
                            mask |= 1 << place[t]
                    elif region.u_power(alexander[t]) == pk + u:
                        name = f"{gens[k].name}->{gens[t].name} u={u}"
                        raise InconsistentInput(f"arrow {name} breaks the Maslov law")
                out.append(mask)
                power.append(pk)
            parts += tuple(out), tuple(power)
        self.gen_index = tuple(members)
        self.boundary, self.u_power, self.above, self.above_u_power = parts

    def __len__(self) -> int:
        return len(self.gen_index)

    def chain(self, gens: Iterable[int]) -> int:
        """Bit mask of the elements of the given generator indices; a
        generator outside the slice raises KeyError."""
        mask = 0
        for k in gens:
            p = bisect_left(self.gen_index, k)
            if self.gen_index[p : p + 1] != (k,):
                raise KeyError(f"generator {k} is not in the region complex")
            mask |= 1 << p
        return mask

    def chain_elements(self, mask: int) -> list[int]:
        """Generator indices of the elements in mask, in position order."""
        return [self.gen_index[p] for p in _set_bits(mask)]

    def differential(self, mask: int) -> int:
        """Boundary of a chain, as a mask over the degree d - 1 elements."""
        out = 0
        for idx in _set_bits(mask):
            out ^= self.boundary[idx]
        return out


def region_complex(c: CfkComplex, region: Region, degree: int) -> RegionComplex:
    """The Maslov-degree slice of c's region complex at degree.  The degree is
    required: no build holds every degree.  A boundary entry that does not
    land one degree down raises InconsistentInput."""
    return RegionComplex(c, region, degree)


class HomologyData(NamedTuple):
    """Cycle basis and boundary space of a region complex slice."""

    cycle_basis: tuple[int, ...]
    boundary_space: Gf2Space


def homology_data(rc: RegionComplex) -> HomologyData:
    """Cycles of the slice (the kernel of its boundary) and boundaries (the
    span of the columns from one degree up), both as masks over positions."""
    cycles, _ = kernel_and_image(rc.boundary)
    return HomologyData(tuple(cycles), Gf2Space(rc.above))

