"""Lattice regions in the (i, j) plane and the complexes they carve out.

The U-orbit of a generator x is the diagonal j - i = A(x); the element
U^k x sits at (-k, A(x) - k).  A region picks out, for each diagonal, the
finitely many lattice points it contains, and the region complex keeps one
element per such point.  A boundary entry connects (x, k1) to (y, k2) when
some arrow x -> y with power n satisfies k2 = k1 + n and both endpoints lie
inside the region.

All regions here are order-convex (p <= q <= r coordinatewise with p, r in
the region forces q in), which makes every intermediate element of every
differential path between two region elements lie in the region: the
region complex therefore still squares to zero.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

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
    "RegionElement",
    "RegionComplex",
    "region_complex",
    "HomologyData",
    "homology_data",
    "homology_rank",
]


class Region:
    """A subset of the lattice queried along diagonals."""

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        """All (i, j) in the region with j - i = a."""
        raise NotImplementedError

    def contains(self, i: int, j: int) -> bool:
        return (i, j) in self.diagonal_hits(j - i)


@dataclasses.dataclass(frozen=True)
class Column0(Region):
    """The column i = 0; one element per generator, at (0, A(x))."""

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        return ((0, a),)


@dataclasses.dataclass(frozen=True)
class FullHook(Region):
    """{i = 0, j >= level} united with {j = level, i >= 0}."""

    level: int

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        if a >= self.level:
            return ((0, a),)
        return ((self.level - a, self.level),)


@dataclasses.dataclass(frozen=True)
class GHook(Region):
    """{i = 0, j <= level} united with {j = level, i <= 0}."""

    level: int

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        if a <= self.level:
            return ((0, a),)
        return ((self.level - a, self.level),)


@dataclasses.dataclass(frozen=True)
class TruncatedHook(Region):
    """{i = 0, j >= level} united with {j = level, 0 <= i <= width}."""

    level: int
    width: int

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        if a >= self.level:
            return ((0, a),)
        if self.level - self.width <= a:
            return ((self.level - a, self.level),)
        return ()


@dataclasses.dataclass(frozen=True)
class HookWithTail(TruncatedHook):
    """A truncated hook plus the tail {i = width, level - depth <= j < level}."""

    depth: int

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        j = a + self.width
        if self.level - self.depth <= j < self.level:
            # the tail's diagonals all lie below the hook's, so this is the
            # only hit
            return ((self.width, j),)
        return super().diagonal_hits(a)


@dataclasses.dataclass(frozen=True)
class Row(Region):
    """The row j = level; one element per generator."""

    level: int

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        return ((self.level - a, self.level),)


@dataclasses.dataclass(frozen=True)
class RegionElement:
    """U^u_power generator, pinned at pos = (-u_power, A - u_power)."""

    gen: str
    u_power: int
    pos: tuple[int, int]


class RegionComplex:
    """Elements of a region with the induced boundary as bit columns."""

    __slots__ = ("source", "region", "elements", "index", "boundary")

    def __init__(self, source: CfkComplex, region: Region):
        self.source = source
        self.region = region
        elements: list[RegionElement] = []
        index: dict[tuple[str, int], int] = {}
        for g in source.generators:
            for (i, j) in region.diagonal_hits(g.alexander):
                el = RegionElement(g.name, -i, (i, j))
                index[(g.name, -i)] = len(elements)
                elements.append(el)
        self.elements = tuple(elements)
        self.index = index
        boundary = []
        for el in elements:
            mask = 0
            for a in source.arrows_from(el.gen):
                hit = index.get((a.target, el.u_power + a.u_exp))
                if hit is not None:
                    mask |= 1 << hit
            boundary.append(mask)
        self.boundary = tuple(boundary)

    def __len__(self) -> int:
        return len(self.elements)

    def chain(self, parts: list[tuple[str, int]]) -> int:
        """Bit mask of the given (generator, u_power) elements."""
        mask = 0
        for key in parts:
            mask |= 1 << self.index[key]
        return mask

    def chain_elements(self, mask: int) -> list[RegionElement]:
        out = []
        idx = 0
        while mask:
            if mask & 1:
                out.append(self.elements[idx])
            mask >>= 1
            idx += 1
        return out

    def differential(self, mask: int) -> int:
        out = 0
        idx = 0
        while mask:
            if mask & 1:
                out ^= self.boundary[idx]
            mask >>= 1
            idx += 1
        return out


def region_complex(c: CfkComplex, region: Region) -> RegionComplex:
    return RegionComplex(c, region)


@dataclasses.dataclass(frozen=True)
class HomologyData:
    """Cycle and boundary bases of a region complex, with boundary membership."""

    cycle_basis: tuple[int, ...]
    boundary_basis: tuple[int, ...]
    rank: int
    _boundary_space: Gf2Space = dataclasses.field(repr=False, compare=False)

    def is_boundary(self, mask: int) -> bool:
        return mask in self._boundary_space


def homology_data(rc: RegionComplex) -> HomologyData:
    """Kernel basis, image basis and homology rank of the boundary map.

    The boundary matrix is indexed by region elements on both sides, so
    kernel combination masks are themselves chains: the cycle basis.
    """
    kernel, image = kernel_and_image(rc.boundary)
    space = Gf2Space(image)
    return HomologyData(tuple(kernel), tuple(image), len(kernel) - space.dim, space)


def homology_rank(rc: RegionComplex) -> int:
    return homology_data(rc).rank
