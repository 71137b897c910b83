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
homology_ranks ranks Column0 and Row in every degree without a build.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._value import Value
from .errors import InconsistentInput
from .gf2 import Gf2Space, block_ranks, kernel_and_image

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
    "homology_ranks",
]


class Region(Value):
    """A subset of the lattice queried along diagonals: every shape meets
    each diagonal j - i = a at most once, at (-u, a - u) for u = u_power(a)."""

    def u_power(self, a: int) -> int | None:
        """The U power of the region's point on the diagonal j - i = a, or
        None when the region misses that diagonal."""
        raise NotImplementedError


class Column0(Region):
    """The column i = 0; one element per generator, at (0, A(x))."""

    def u_power(self, a: int) -> int | None:
        return 0


class FullHook(Region):
    """{i = 0, j >= level} united with {j = level, i >= 0}."""

    level: int

    def u_power(self, a: int) -> int | None:
        return 0 if a >= self.level else a - self.level


class GHook(Region):
    """{i = 0, j <= level} united with {j = level, i <= 0}."""

    level: int

    def u_power(self, a: int) -> int | None:
        return 0 if a <= self.level else a - self.level


class TruncatedHook(Region):
    """{i = 0, j >= level} united with {j = level, 0 <= i <= width}."""

    level: int
    width: int

    def u_power(self, a: int) -> int | None:
        if a >= self.level:
            return 0
        return a - self.level if self.level - self.width <= a else None


class HookWithTail(TruncatedHook):
    """A truncated hook plus the tail {i = width, level - depth <= j < level}."""

    depth: int

    def u_power(self, a: int) -> int | None:
        # the tail's diagonals all lie below the hook's, so a tail point is
        # the only one on its diagonal
        if self.level - self.depth <= a + self.width < self.level:
            return -self.width
        return super().u_power(a)


class Row(Region):
    """The row j = level; one element per generator."""

    level: int

    def u_power(self, a: int) -> int | None:
        return a - self.level


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RegionComplex:
    """One Maslov-degree slice of a region complex.

    Position p holds U^u_power[p] of generator gen_index[p], the degree-d
    elements in generator order (a generator has at most one element in a
    region, so gen_index is sorted).  boundary[p] is the boundary of element
    p as a mask over the degree d - 1 elements (bit j = j-th in generator
    order), and above[q] that of the q-th degree d + 1 element,
    U^above_u_power[q], as a mask over positions.  A boundary entry that
    does not land one degree down raises InconsistentInput.
    """

    __slots__ = ("gen_index", "u_power", "boundary", "above", "above_u_power")

    def __init__(self, source: CfkComplex, region: Region, degree: int):
        gens = source.generators
        power: list = [None] * len(gens)  # U power per generator; None outside the region
        place: list = [None] * len(gens)  # place among its degree's elements, d - 1..d + 1
        members: list[int] = []
        above: list[int] = []
        blocks = {degree - 1: [], degree: members, degree + 1: above}
        alexander = None
        for k, g in enumerate(gens):
            if g.alexander != alexander:  # generators are sorted by A: one query per run
                alexander, u = g.alexander, region.u_power(g.alexander)
            if u is not None:
                power[k] = u
                block = blocks.get(g.maslov - 2 * u)
                if block is not None:
                    place[k] = len(block)
                    block.append(k)
        tr, off = source.triples, source.offsets

        def columns(block: list[int], target: int) -> tuple[int, ...]:
            out = []
            for k in block:
                mask, pk = 0, power[k]
                for _, t, u in tr[off[k] : off[k + 1]]:
                    if power[t] == pk + u:
                        if gens[t].maslov - 2 * power[t] != target:
                            name = f"{gens[k].name}->{gens[t].name} u={u}"
                            raise InconsistentInput(f"arrow {name} breaks the Maslov law")
                        mask |= 1 << place[t]
                out.append(mask)
            return tuple(out)

        self.gen_index = tuple(members)
        self.u_power = tuple(power[k] for k in members)
        self.boundary = columns(members, degree - 1)
        self.above = columns(above, degree)
        self.above_u_power = tuple(power[k] for k in above)

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


def homology_ranks(c: CfkComplex, region: Region) -> dict[int, int]:
    """Homology rank per degree of a region meeting every diagonal, unbuilt: an arrow
    breaking the Maslov law raises InconsistentInput, so a boundary lands one degree
    down, bit j names the j-th element there, and the cost is the sum of squared block sizes."""
    power = [region.u_power(g.alexander) for g in c.generators]
    if None in power:
        raise ValueError(f"{region} misses a diagonal of the complex")
    degree = [g.maslov - 2 * u for g, u in zip(c.generators, power)]
    sizes, slot = {}, []  # elements per degree; place of each in its degree
    for k in degree:
        slot.append(sizes.get(k, 0))
        sizes[k] = slot[-1] + 1
    masks = [0] * len(degree)
    for s, t, u in c.triples:
        if degree[s] - degree[t] != 1 + 2 * (power[t] - power[s] - u):  # M(s) - 1 != M(t) - 2u
            name = f"{c.generators[s].name}->{c.generators[t].name} u={u}"
            raise InconsistentInput(f"arrow {name} breaks the Maslov law")
        if power[t] == power[s] + u:
            masks[s] |= 1 << slot[t]
    ranks = block_ranks(zip(degree, masks))
    return {k: n - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, n in sizes.items()}
