"""Bitset linear algebra over GF(2)."""

from __future__ import annotations

import random

from cfkcalc.gf2 import Gf2Space, kernel_and_image


def brute_span(vectors: list[int]) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def test_add_and_contains_small():
    space = Gf2Space()
    assert space.add(0b101)
    assert space.add(0b011)
    assert not space.add(0b110)
    assert 0b110 in space
    assert 0b101 in space
    assert 0 in space
    assert 0b100 not in space
    assert space.dim == 2


def test_reduce_returns_residual_outside_span():
    space = Gf2Space([0b1100, 0b0011])
    assert space.reduce(0b1111) == 0
    residual = space.reduce(0b1010)
    assert residual != 0
    assert (0b1010 ^ residual) in space


def test_reduce_minimizes_top_bit():
    # 0b1000 reduces against the pivot at bit 3, leaving support below it
    space = Gf2Space([0b1010])
    assert space.reduce(0b1000) == 0b0010


def test_pivot_vectors_sorted_and_echelon():
    space = Gf2Space([0b111, 0b110, 0b100])
    pivots = space.pivot_vectors()
    tops = [v.bit_length() - 1 for v in pivots]
    assert tops == sorted(tops)
    assert len(set(tops)) == len(tops)


def test_kernel_and_image_known_matrix():
    # columns: c0 = e0, c1 = e0, c2 = e1, c3 = e0 + e1
    columns = [0b01, 0b01, 0b10, 0b11]
    kernel, image = kernel_and_image(columns)
    assert Gf2Space(image).dim == 2
    assert len(kernel) == 2
    for combo in kernel:
        out = 0
        for idx in range(4):
            if combo >> idx & 1:
                out ^= columns[idx]
        assert out == 0


def test_rank_counts_independent_vectors():
    assert Gf2Space([]).dim == 0
    assert Gf2Space([0]).dim == 0
    assert Gf2Space([0b1, 0b10, 0b11]).dim == 2


def test_membership_matches_brute_force_span():
    rng = random.Random(7)
    for _ in range(40):
        vectors = [rng.getrandbits(8) for _ in range(rng.randint(0, 6))]
        span = brute_span(vectors)
        space = Gf2Space(vectors)
        assert space.dim == len(span).bit_length() - 1
        for probe in range(64):
            assert (probe in space) == (probe in span)


def test_kernel_dimension_theorem_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        columns = [rng.getrandbits(6) for _ in range(n)]
        kernel, image = kernel_and_image(columns)
        assert len(kernel) + Gf2Space(image).dim == n
        assert all(k != 0 for k in kernel)
        # kernel combinations really annihilate: already checked above for a
        # fixed matrix; repeat on random data
        for combo in kernel:
            out = 0
            for idx in range(n):
                if combo >> idx & 1:
                    out ^= columns[idx]
            assert out == 0
