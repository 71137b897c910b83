"""Dense GF(2) linear algebra on Python ints used as bit vectors.

Bit i of a vector is the coefficient of basis element i.  All spans are kept
in echelon form keyed by the highest set bit, which makes membership tests a
short reduction loop and keeps every operation deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["Gf2Space", "kernel_and_image", "block_ranks"]


class Gf2Space:
    """Echelonized span of bit vectors with exact membership queries."""

    def __init__(self, vectors: Iterable[int] = ()):
        self._pivots: dict[int, int] = {}  # highest set bit -> vector
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Residual of v after eliminating every pivot bit.

        The residual is 0 exactly when v lies in the span.  Otherwise its
        highest set bit is the minimum achievable over v plus the span,
        because each elimination step strictly lowers the top bit.
        """
        while v:
            top = v.bit_length() - 1
            pivot = self._pivots.get(top)
            if pivot is None:
                break
            v ^= pivot
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True when the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def pivot_vectors(self) -> list[int]:
        """Basis in echelon form, sorted by pivot bit."""
        return [self._pivots[p] for p in sorted(self._pivots)]


def kernel_and_image(columns: Sequence[int]) -> tuple[list[int], list[int]]:
    """Kernel and image bases of the map sending basis vector i to columns[i].

    Kernel vectors are combination masks, with bit i for column i.  The
    image basis is returned in echelon form.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    image: list[int] = []
    for idx, col in enumerate(columns):
        vec, track = col, 1 << idx
        while vec:
            top = vec.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                break
            vec ^= hit[0]
            track ^= hit[1]
        if vec == 0:
            kernel.append(track)
        else:
            pivots[top] = (vec, track)
            image.append(vec)
    return kernel, image


def block_ranks(columns: Iterable[tuple[object, int]]) -> dict[object, int]:
    """Rank per block of (block, vector) columns, over one pivot table keyed
    by (block, top bit); blocks are independent, and zero blocks left out."""
    pivots: dict[tuple[object, int], int] = {}
    ranks: dict[object, int] = {}
    for block, vec in columns:
        while vec and (key := (block, vec.bit_length() - 1)) in pivots:
            vec ^= pivots[key]
        if vec:
            pivots[key] = vec
            ranks[block] = ranks.get(block, 0) + 1
    return ranks
