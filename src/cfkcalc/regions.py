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
Maslov law every boundary entry lowers it by one.  A build may keep only the
degrees in a window; homology_data then reports the degrees whose two
neighbours the window holds; homology_ranks ranks Column0 and Row unbuilt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Iterable, Iterator, NamedTuple

from ._value import Value
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
    """Elements of a region in generator order (only those in the window of
    degrees, when one is given), with the induced boundary as bit columns.

    A generator has at most one element in a region, so its index names
    it: position p holds U^u_power[p] of generator gen_index[p], in degree
    degree[p], and position[k] is the position of generator k, or None when
    k is outside the build.
    """

    __slots__ = ("gen_index", "u_power", "degree", "boundary", "position", "window")

    def __init__(self, source: CfkComplex, region: Region, degrees: Container[int] | None = None):
        gens = source.generators
        # position and U power per generator; None outside the build
        pos: list = [None] * len(gens)
        power: list = [None] * len(gens)
        members, alexander = [], None
        for k, g in enumerate(gens):
            if g.alexander != alexander:  # generators are sorted by A: one query per run
                alexander, u = g.alexander, region.u_power(g.alexander)
            if u is not None and (degrees is None or g.maslov - 2 * u in degrees):
                pos[k], power[k] = len(members), u
                members.append(k)
        self.gen_index = tuple(members)
        self.u_power = tuple(power[k] for k in members)
        self.degree = tuple(gens[k].maslov - 2 * power[k] for k in members)
        self.position = pos
        self.window = degrees
        tr, off = source.triples, source.offsets
        boundary = []
        for k in members:
            mask = 0
            for _, t, u in tr[off[k] : off[k + 1]]:
                if power[t] == power[k] + u:
                    mask |= 1 << pos[t]
            boundary.append(mask)
        self.boundary = tuple(boundary)

    def __len__(self) -> int:
        return len(self.gen_index)

    def chain(self, gens: Iterable[int]) -> int:
        """Bit mask of the elements of the given generator indices; a
        generator outside the build raises KeyError."""
        mask = 0
        for k in gens:
            if self.position[k] is None:
                raise KeyError(f"generator {k} is not in the region complex")
            mask |= 1 << self.position[k]
        return mask

    def chain_elements(self, mask: int) -> list[int]:
        """Generator indices of the elements in mask, in position order."""
        return [self.gen_index[p] for p in _set_bits(mask)]

    def differential(self, mask: int) -> int:
        out = 0
        for idx in _set_bits(mask):
            out ^= self.boundary[idx]
        return out


def region_complex(c: CfkComplex, region: Region, degrees=None) -> RegionComplex:
    return RegionComplex(c, region, degrees)


class HomologyData(NamedTuple):
    """Cycle basis and boundary space of a region complex."""

    cycle_basis: tuple[int, ...]
    boundary_space: Gf2Space


def homology_data(rc: RegionComplex) -> HomologyData:
    """Cycle basis and boundary space in the degrees whose neighbours the
    build holds (every degree of a full build), eliminated one degree at a
    time; the kernel masks are over region positions, so they are chains."""

    def reported(k: int) -> bool:
        return rc.window is None or (k - 1 in rc.window and k + 1 in rc.window)

    blocks: dict[int, list[int]] = {}
    for p, k in enumerate(rc.degree):
        blocks.setdefault(k, []).append(p)
    cycles, image = [], []
    for k, positions in blocks.items():
        if reported(k) or reported(k - 1):
            kernel, columns = kernel_and_image([rc.boundary[p] for p in positions], positions)
            cycles += kernel if reported(k) else []
            image += columns if reported(k - 1) else []
    return HomologyData(tuple(cycles), Gf2Space(image))


def homology_ranks(c: CfkComplex, region: Region) -> dict[int, int]:
    """Homology rank per degree of a region meeting every diagonal, unbuilt: by
    the Maslov law (c must obey it) a boundary lands one degree down, so bit j
    names the j-th element there, and the cost is the sum of squared block sizes."""
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
        if power[t] == power[s] + u:
            masks[s] |= 1 << slot[t]
    ranks = block_ranks(zip(degree, masks))
    return {k: n - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, n in sizes.items()}
