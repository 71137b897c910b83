"""Lattice regions in the (i, j) plane and the complexes they carve out.

The U-orbit of a generator x is the diagonal j - i = A(x); the element
U^k x sits at (-k, A(x) - k).  A region picks out, for each diagonal, the
lattice point it contains, if any, and the region complex keeps one element
per such point.  A boundary entry connects (x, k1) to (y, k2) when
some arrow x -> y with power n satisfies k2 = k1 + n and both endpoints lie
inside the region.

All regions here are order-convex (p <= q <= r coordinatewise with p, r in
the region forces q in), which makes every intermediate element of every
differential path between two region elements lie in the region: the
region complex therefore still squares to zero.

Region complexes are graded: U^k x sits in degree M(x) - 2k, and by the
Maslov law every boundary entry lowers it by one.  A build may keep only the
degrees in a window; homology_data then reports the degrees whose two
neighbours the window holds.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Container, Iterator, NamedTuple

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
]


class Region:
    """A subset of the lattice queried along diagonals; every shape meets
    each diagonal at most once."""

    def diagonal_hits(self, a: int) -> tuple[tuple[int, int], ...]:
        """The (i, j) in the region with j - i = a: none or one."""
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


class RegionElement(NamedTuple):
    """U^u_power generator; it sits at (-u_power, A - u_power)."""

    gen: str
    u_power: int


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RegionComplex:
    """Elements of a region in generator order (only those in the window of
    degrees, when one is given), with the induced boundary as bit columns.
    Element p is generator gen_index[p] in degree degree[p]."""

    __slots__ = ("elements", "index", "boundary", "gen_index", "degree", "window")

    def __init__(self, source: CfkComplex, region: Region, degrees: Container[int] | None = None):
        gens = source.generators
        # element position and U power per generator; None outside the build
        pos: list = [None] * len(gens)
        power: list = [None] * len(gens)
        members, alexander = [], None
        for k, g in enumerate(gens):
            if g.alexander != alexander:  # generators are sorted by A: one query per run
                alexander, hits = g.alexander, region.diagonal_hits(g.alexander)
            if hits and (degrees is None or g.maslov + 2 * hits[0][0] in degrees):
                pos[k], power[k] = len(members), -hits[0][0]
                members.append(k)
        self.elements = tuple(RegionElement(gens[k].name, power[k]) for k in members)
        self.index = {el: p for p, el in enumerate(self.elements)}
        self.gen_index = tuple(members)
        self.degree = tuple(gens[k].maslov - 2 * power[k] for k in members)
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
        return len(self.elements)

    def chain(self, parts: list[tuple[str, int]]) -> int:
        """Bit mask of the given (generator, u_power) elements."""
        mask = 0
        for key in parts:
            mask |= 1 << self.index[key]
        return mask

    def chain_elements(self, mask: int) -> list[RegionElement]:
        return [self.elements[idx] for idx in _set_bits(mask)]

    def differential(self, mask: int) -> int:
        out = 0
        for idx in _set_bits(mask):
            out ^= self.boundary[idx]
        return out


def region_complex(c: CfkComplex, region: Region, degrees=None) -> RegionComplex:
    return RegionComplex(c, region, degrees)


@dataclasses.dataclass(frozen=True)
class HomologyData:
    """Cycle basis and boundary space of a region complex."""

    cycle_basis: tuple[int, ...]
    boundary_space: Gf2Space

    @property
    def rank(self) -> int:
        return len(self.cycle_basis) - self.boundary_space.dim


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
