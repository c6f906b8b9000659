"""Shared corpora and independent oracles for the test suite.

The random corpus is seeded and memoized per session; oracles here are kept
deliberately naive (labeled brute force, Fraction elimination, GF(2) xor
elimination) so they share no code path with the library implementations.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rankforge.codes import rowspace_distance2_max
from rankforge.constructions import (
    extremal_triangle_free,
    odd_subset_incidence_graph,
    subset_incidence_graph,
)
from rankforge.graphs import Graph, cycle_graph, from_edges, path_graph, reduce_graph

CORPUS_SEED = 20250817
CORPUS_SIZE = 520


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


@pytest.fixture(scope="session")
def reduced_corpus() -> list[Graph]:
    """>= 500 random reduced graphs with 2 <= n <= 12."""
    rng = random.Random(CORPUS_SEED)
    out: list[Graph] = []
    while len(out) < CORPUS_SIZE:
        n = rng.randint(4, 12)
        p = rng.choice([0.15, 0.25, 0.4, 0.55])
        g = reduce_graph(random_graph(rng, n, p))
        if g.n >= 2:
            out.append(g)
    return out


@pytest.fixture(scope="session")
def uncut_length6_optimum():
    """``rowspace_distance2_max(6)`` without the proven-bound cutoff, about
    55 s on 2 vCPUs: computed once for the tests that check it."""
    return rowspace_distance2_max(6, use_theorem_cutoff=False)


@pytest.fixture(scope="session")
def named_graphs() -> dict[str, Graph]:
    return {
        "path5": path_graph(5),
        "cycle5": cycle_graph(5),
        "cycle6": cycle_graph(6),
        "two_edges": from_edges(4, [(0, 1), (2, 3)]),
        "star4": from_edges(5, [(0, i) for i in range(1, 5)]),
        "B2": subset_incidence_graph(2),
        "B3": subset_incidence_graph(3),
        "O3": odd_subset_incidence_graph(3),
        "C6": extremal_triangle_free(6).graph,
        "C7": extremal_triangle_free(7).graph,
        "C8": extremal_triangle_free(8).graph,
    }


@pytest.fixture(scope="session")
def random_codes():
    """Random (length, words) pairs with distinct words, lengths 2..8."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for _ in range(400):
        n = rng.randint(2, 8)
        size = rng.randint(2, min(2 ** n, 20))
        words = tuple(sorted(rng.sample(range(1 << n), size)))
        out.append((n, words))
    return out


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def fraction_rank(m) -> int:
    """Plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank]
        for i in range(nrows):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / lead[c]
                a[i] = [x - f * y for x, y in zip(a[i], lead)]
        rank += 1
    return rank


def gf2_rank(rows: list[int]) -> int:
    """Bit-xor elimination over GF(2); rows are bitmasks."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def leibniz_det(m) -> int:
    """Determinant by the Leibniz sum, sign(p) times the product of m[i][p(i)]
    over the permutations p. A permutation is built row by row, its sign
    flipped for each value already used that is above the one appended (an
    inversion), and one with a zero factor is dropped as soon as it has one,
    so sparse matrices of order 8 stay cheap."""
    n = len(m)
    nonzero = [[j for j in range(n) if row[j]] for row in m]

    def rec(i: int, used: int) -> int:
        if i == n:
            return 1
        total = 0
        for j in nonzero[i]:
            if not used >> j & 1:
                term = m[i][j] * rec(i + 1, used | 1 << j)
                total += -term if (used >> j).bit_count() % 2 else term
        return total

    return rec(0, 0)


def brute_independence(g: Graph) -> tuple[int, list[int]]:
    """(alpha, all maximum independent sets as masks) by scanning all subsets."""
    best = 0
    sets: list[int] = [0]
    for mask in range(1, 1 << g.n):
        ok = True
        mm = mask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            if g.adj[v] & mask:
                ok = False
                break
            mm ^= low
        if not ok:
            continue
        size = mask.bit_count()
        if size > best:
            best = size
            sets = [mask]
        elif size == best:
            sets.append(mask)
    return best, sets


def all_independent_sets(g: Graph, min_size: int = 2):
    """Yield every independent set of size >= min_size (masks)."""

    def rec(cur: int, size: int, pool: int):
        if size >= min_size:
            yield cur
        m = pool
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            yield from rec(cur | low, size + 1, m & ~g.adj[v])

    yield from rec(0, 0, (1 << g.n) - 1)


def labeled_graphs(n: int):
    """All labeled graphs on n vertices (use only for n <= 6)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def combinations_masks(n: int, k: int):
    for combo in combinations(range(n), k):
        m = 0
        for v in combo:
            m |= 1 << v
        yield m
