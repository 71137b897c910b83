"""Lattice regions in the (i, j) plane and the complexes they carve out.

The U-orbit of a generator x is the diagonal j - i = A(x); the element
U^k x sits at (-k, A(x) - k).  A region picks out, for each diagonal, the
lattice point it contains, if any, as its U power; the region complex keeps
one element per such point, so each generator has at most one element and
the region layer names elements by generator index (a product view, which
reads a tensor product without building it, by element key).  A boundary
entry connects U^k1 x to U^k2 y when some arrow x -> y with power n
satisfies k2 = k1 + n and both endpoints lie inside the region.

All regions here are order-convex (p <= q <= r coordinatewise with p, r in
the region forces q in), which makes every intermediate element of every
differential path between two region elements lie in the region: the
region complex therefore still squares to zero.

Region complexes are graded: U^k x sits in degree M(x) - 2k, and by the
Maslov law every boundary entry lowers it by one.  The invariants read
homology in one degree d, so a build is one slice: the degree-d elements
with their boundaries over degree d - 1, and the boundaries of the degree
d + 1 elements over degree d, so every chain is a mask over one degree.
A slice costs its own elements and arrows plus a few bisections per piece
(two per group of the other factors, in a product view): its index cuts the
runs and gives their boundary masks.  The slices trust the grading laws and
d^2 = 0, which _index checks once (cfk._math_errors) on an unmarked complex;
validate ranks column and row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._value import Value
from .cfk import _math_errors, _product_size
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
    each diagonal j - i = a at most once, at (-u, a - u) for its U power u.
    pieces() gives the shape as at most three disjoint pieces (low, high, slope,
    shift) in ascending A, meeting the diagonals low <= a <= high at u = slope *
    a + shift: a column piece (slope 0, u constant) or a row piece (u = a - level)."""

    def pieces(self) -> tuple[tuple[float, float, int, int], ...]:
        raise NotImplementedError


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


class _Sorted:
    """A complex's slice index: A and M per generator, its triples and offsets,
    and per slope s the generator indices sorted by (M - 2sA, index), so the
    generators of one key and one A range are one run, cut by bisection."""

    def __init__(self, c: CfkComplex):
        self.triples, self.offsets = c.triples, c.offsets
        self.alexander, self.maslov, ks = c.alexander, c.maslov, list(range(len(c)))  # shared ints
        self.span, self.orders = c.alexander[-1] - c.alexander[0] if len(c) else 0, []
        for key in (self.maslov, [m - 2 * a for a, m in zip(self.alexander, self.maslov)]):
            order = sorted(ks, key=key.__getitem__)
            self.orders.append(([key[k] for k in order], order))

    def runs(self, slope: int, key: int, low: float, high: float) -> tuple[list[int], ...]:
        """The runs of keys key, key + 1 and key + 2 and of low <= A <= high."""
        keys, order = self.orders[slope]
        k0, k1 = bisect_left(self.alexander, low), bisect_right(self.alexander, high)
        r0, r1 = bisect_left(keys, key), bisect_left(keys, key + 1)
        r2, r3 = bisect_left(keys, key + 2, r1), bisect_left(keys, key + 3, r1)
        return (order[bisect_left(order, k0, r0, r1) : bisect_left(order, k1, r0, r1)],
                order[bisect_left(order, k0, r1, r2) : bisect_left(order, k1, r1, r2)],
                order[bisect_left(order, k0, r2, r3) : bisect_left(order, k1, r2, r3)])

    def masks(self, block: list[int], place: dict[int, int]) -> Iterator[int]:
        """Each boundary as a mask over place (the Maslov law puts every target one degree down)."""
        tr, off = self.triples, self.offsets
        for k in block:
            mask = 0
            for _, t, _ in tr[off[k] : off[k + 1]]:
                if t in place:
                    mask |= 1 << place[t]
            yield mask


class _Digit:
    """A grading read off a product element's key: key // div % radix + low."""

    def __init__(self, div: int, radix: int, low: int):
        self.div, self.radix, self.low = div, radix, low

    def __getitem__(self, key: int) -> int:
        return key // self.div % self.radix + self.low


class _Product:
    """The tensor product of checked classes, read by slices and never built.

    An element is one generator k_i per factor, with code sum k_i * stride_i;
    A and M add, and the key ((A - a0) * w + M - m0) * size + code orders the
    elements A-major.  heads groups the partial key sums of all factors but the
    largest (the first on a tie) by (A, M); a run costs a group two bisections
    of the largest's sorted keys plus its generators in the three key runs, so
    O(log n) on a staircase (one generator per key run at most).  An arrow acts
    on one factor (Leibniz) and moves the key by a step of its own, kept per
    generator.  The class degree is the sum (Kuenneth)."""

    def __init__(self, factors: tuple[CfkComplex, ...]):
        self.size = size = _product_size(factors)  # tensor's refusal, before any index
        if any(c._class_degree is None for c in factors):
            raise InconsistentInput("a product view takes checked classes only")
        self._class_degree = sum(c._class_degree for c in factors)
        a0, a1 = (sum(c.alexander[i] for c in factors) for i in (0, -1))
        m0, m1 = (sum(map(f, (c.maslov for c in factors))) for f in (min, max))
        self.span, w = a1 - a0, m1 - m0 + 1
        self.alexander, self.maslov = _Digit(w * size, self.span + 1, a0), _Digit(size, w, m0)
        run = max(range(len(factors)), key=lambda i: len(factors[i]))  # max keeps the first
        self.heads, self.steps, stride = {(0, 0): [-(a0 * w + m0) * size]}, [], 1
        for i, c in enumerate(factors):
            tr, off, gradings = c.triples, c.offsets, list(zip(c.alexander, c.maslov))
            key = [(a * w + m) * size + k * stride for k, (a, m) in enumerate(gradings)]
            steps = [[key[t] - key[s] for s, t, _ in tr[o:p]] for o, p in zip(off, off[1:])]
            self.steps.append((stride, len(c), steps))
            if i == run:
                self.largest, self.keys = _Sorted(c), key
            else:
                heads, self.heads = self.heads, defaultdict(list)
                for (a, m), vs in heads.items():
                    for (a2, m2), x in zip(gradings, key):
                        self.heads[a + a2, m + m2] += map(x.__add__, vs)
            stride *= len(c)

    def runs(self, slope: int, key: int, low: float, high: float) -> list[list[int]]:
        out, part, alexander = [[], [], []], self.keys, self.largest.alexander
        keys, order = self.largest.orders[slope]
        for (a, m), vs in self.heads.items():
            base = key - m + 2 * slope * a
            r = bisect_left(keys, base)
            for p in range(r, bisect_left(keys, base + 3, r)):
                if low - a <= alexander[k := order[p]] <= high - a:
                    out[keys[p] - base] += map(part[k].__add__, vs)
        return [sorted(block) for block in out]

    def masks(self, block: list[int], place: dict[int, int]) -> Iterator[int]:
        for k in block:  # as _Sorted's, with the arrows read off the factors' key steps
            mask, code = 0, k % self.size
            for s, n, moves in self.steps:
                for step in moves[code // s % n]:
                    if (t := k + step) in place:
                        mask |= 1 << place[t]
            yield mask


@lru_cache(maxsize=1)
def _index(source: CfkComplex | _Product) -> _Sorted | _Product:
    """The slice index of the last source; a product view is its own.  An
    unmarked complex that _math_errors refuses raises InconsistentInput."""
    if source._class_degree is None and (errors := _math_errors(source)):
        raise InconsistentInput(errors[0].message)  # equal complexes, equal errors
    return source if isinstance(source, _Product) else _Sorted(source)


class RegionComplex:
    """One Maslov-degree slice of a region complex.

    Position p holds U^u_power[p] of generator gen_index[p] (an element key
    in a product view), the degree-d elements in that A-major order: a
    generator has at most one element in a region, so gen_index is sorted.
    boundary[p] is the boundary of element p as a mask over the degree d - 1
    elements (bit j = j-th in order), and above[q] that of the q-th degree
    d + 1 element, U^above_u_power[q], as a mask over positions.  The _index
    vouches for the Maslov law and gives the runs and their boundary masks.
    """

    __slots__ = ("gen_index", "u_power", "boundary", "above", "above_u_power")

    def __init__(self, source: CfkComplex | _Product, region: Region, degree: int):
        index = _index(source)
        blocks = below, members, above = [], [], []  # the degree d - 1, d, d + 1 elements
        for low, high, slope, shift in region.pieces():  # of M - 2sA = d - 1 + 2b, ...
            for block, run in zip(blocks, index.runs(slope, degree - 1 + 2 * shift, low, high)):
                block += run
        parts, maslov = [], index.maslov  # boundaries and U powers of the degree d, then d + 1
        for d, lower, block in ((degree, below, members), (degree + 1, members, above)):
            place = {k: p for p, k in enumerate(lower)}
            parts += tuple(index.masks(block, place)), tuple((maslov[k] - d) >> 1 for k in block)
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
    required: no build holds every degree.  A complex that validate refuses
    for its gradings or d^2 raises InconsistentInput with the first message."""
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

