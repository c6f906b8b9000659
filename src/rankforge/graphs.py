"""Simple undirected graphs on at most 64 vertices, stored as bitmask rows.

Vertex subsets are plain ints (bit v set == vertex v in the set), which keeps
neighborhood algebra (intersection, symmetric difference, independence tests)
down to single machine-word operations for every graph this toolkit handles.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

MAX_VERTICES = 64


class CapacityError(ValueError):
    """A construction or conversion would exceed the 64-vertex word width."""


class InternalError(RuntimeError):
    """A soundness re-check failed: a bug in rankforge, not in its input."""


class CapExceededError(RuntimeError):
    """An enumeration cap was hit before the search finished."""

    def __init__(self, partial_count: int, cap: int):
        super().__init__(
            f"enumeration cap {cap} exceeded ({partial_count} results so far)"
        )
        self.partial_count = partial_count
        self.cap = cap


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[int, ...]


class Graph(_GraphFields):
    """Immutable simple graph: ``adj[v]`` is the bitmask of N(v).

    ``__new__`` checks the rows on every path that builds one: the
    constructor, ``_make`` (overridden below) and ``_replace``, which calls
    it, and copying and unpickling, which call ``__new__`` from pickle
    protocol 2 on."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row ^= low
        return tuple.__new__(cls, (n, adj))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield (v, u)


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def add_vertex(g: Graph, neighbors: int) -> Graph:
    """Append a vertex adjacent to ``neighbors`` (a mask over existing vertices)."""
    if neighbors >> g.n:
        raise ValueError("neighbor mask references nonexistent vertices")
    if g.n + 1 > MAX_VERTICES:
        raise CapacityError("graph already at the 64-vertex capacity")
    new = g.n
    rows = [row | (1 << new if neighbors >> v & 1 else 0) for v, row in enumerate(g.adj)]
    rows.append(neighbors)
    return Graph(g.n + 1, tuple(rows))


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Induced subgraph on ``keep``; vertex order follows ascending original index."""
    if keep & ~g.vertices_mask:
        raise ValueError("keep mask references nonexistent vertices")
    kept = list(bits(keep))
    pos = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = 0
        for u in bits(g.adj[v] & keep):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(kept), tuple(rows))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"no edge between {u} and {v}")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def permute_mask(perm, mask: int) -> int:
    """The image of the vertex set ``mask`` when vertex v goes to ``perm[v]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def relabel(g: Graph, perm) -> Graph:
    """Relabel vertices: vertex v becomes ``perm[v]``."""
    rows = [0] * g.n
    for v in range(g.n):
        rows[perm[v]] = permute_mask(perm, g.adj[v])
    return Graph(g.n, tuple(rows))


def symmetric_difference(g: Graph, u: int, v: int) -> int:
    """N(u) xor N(v) as a vertex mask."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError("vertex index out of range")
    return g.adj[u] ^ g.adj[v]


def is_triangle_free(g: Graph) -> bool:
    for v in range(g.n):
        for u in bits(g.adj[v] >> (v + 1) << (v + 1)):
            if g.adj[v] & g.adj[u]:
                return False
    return True


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.vertices_mask


Colouring = list[tuple[int, int]]


def add_to_colouring(colouring: Colouring, vbit: int, nbrs: int) -> Colouring | None:
    """2-colouring after adding the vertex ``vbit`` with neighbour mask ``nbrs``.

    A colouring is a list of (side, other side) vertex-mask pairs, one per
    component. Every component the new vertex touches merges into one,
    oriented so its neighbours share a side; None means some component has
    neighbours on both sides, so the new graph has an odd cycle.
    """
    side, other = 0, vbit
    out = []
    for a, b in colouring:
        if a & nbrs:
            if b & nbrs:
                return None
            side, other = side | a, other | b
        elif b & nbrs:
            side, other = side | b, other | a
        else:
            out.append((a, b))
    out.append((side, other))
    return out


def two_colouring(adj: tuple[int, ...]) -> Colouring | None:
    """``add_to_colouring`` folded over the vertices of the graph with
    adjacency rows ``adj`` in index order; None at the first odd cycle."""
    colouring: Colouring | None = []
    for v, row in enumerate(adj):
        colouring = add_to_colouring(colouring, 1 << v, row & ((1 << v) - 1))
        if colouring is None:
            return None
    return colouring


def bipartition(g: Graph) -> Optional[tuple[int, int]]:
    """Two-color each component, or None if some component has an odd cycle.

    The component root (its smallest vertex) lands in the first part, so
    isolated vertices always sit in the first part.
    """
    colouring = two_colouring(g.adj)
    if colouring is None:
        return None
    first = second = 0
    for side, other in colouring:
        component = side | other
        if component & -component & other:
            side, other = other, side
        first |= side
        second |= other
    return first, second


def duplication_classes(g: Graph) -> list[int]:
    """Masks of maximal vertex sets (size >= 2) sharing one open neighborhood."""
    groups: dict[int, int] = {}
    for v in range(g.n):
        groups[g.adj[v]] = groups.get(g.adj[v], 0) | (1 << v)
    classes = [m for m in groups.values() if m.bit_count() >= 2]
    classes.sort(key=lambda m: (m & -m).bit_length())
    return classes


def is_reduced(g: Graph) -> bool:
    if any(row == 0 for row in g.adj):
        return False
    return not duplication_classes(g)


def reduce_graph(g: Graph) -> Graph:
    """Drop isolated vertices and all but the smallest member of each twin class.

    Iterates to a fixpoint; the result is reduced (or empty) and has the same
    adjacency rank as the input.
    """
    while True:
        keep = mask_of(v for v in range(g.n) if g.adj[v])
        for twins in duplication_classes(g):
            keep &= ~(twins & (twins - 1))
        if keep == g.vertices_mask:
            return g
        g = induced_subgraph(g, keep)


def _clique_cover_bound(adj: Sequence[int], pool: int) -> int:
    """Greedy clique cover size of ``pool``: an upper bound on its independence number.

    Each clique starts at the lowest uncovered vertex and takes, in ascending
    order, every uncovered vertex adjacent to all its members, so the cliques
    are the first-fit colour classes of the complement. ``adj`` must have no
    loops: a vertex in its own row would never leave the candidate mask.
    """
    count = 0
    rem = pool
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        count += 1
        cand = rem & adj[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            rem &= ~(1 << u)
            cand &= adj[u]
    return count


def _largest_independent_sets(adj: Sequence[int], held: list[int], keep: int) -> list[int]:
    """Independent sets of the largest size found, at most ``keep + 1`` of them.

    ``held`` seeds the search with sets of one size (an incumbent). Branch and
    bound over all vertices: branch on a maximum-degree vertex of the pool,
    taking it in, then leaving it out, and drop a subtree whose greedy clique
    cover cannot reach the held size, or cannot beat it once more than
    ``keep`` sets are held. A result of more than ``keep`` sets means more
    exist; otherwise it holds every maximum independent set.
    """
    best = held[0].bit_count() if held else 0

    def expand(cur: int, size: int, pool: int):
        nonlocal best
        if pool == 0:
            if size > best:
                best = size
                held[:] = [cur]
            elif size == best and len(held) <= keep:
                held.append(cur)
            return
        need = best - size + (len(held) > keep)
        if pool.bit_count() < need or _clique_cover_bound(adj, pool) < need:
            return
        v = max(bits(pool), key=lambda u: (adj[u] & pool).bit_count())
        expand(cur | (1 << v), size + 1, pool & ~(adj[v] | (1 << v)))
        expand(cur, size, pool & ~(1 << v))

    expand(0, 0, (1 << len(adj)) - 1)
    return held


def independence_number(g: Graph) -> tuple[int, int]:
    """Exact independence number with one maximum independent set as witness.

    The search keeps no ties (``keep = 0``) and starts from a greedy
    min-degree set, so it only looks for larger sets.
    """
    adj = g.adj
    seed = 0
    pool = g.vertices_mask
    while pool:
        v = min(bits(pool), key=lambda u: (adj[u] & pool).bit_count())
        seed |= 1 << v
        pool &= ~(adj[v] | (1 << v))
    (witness,) = _largest_independent_sets(adj, [seed], 0)
    return witness.bit_count(), witness


def maximum_independent_sets(g: Graph, cap: int = 100_000) -> list[int]:
    """All independent sets of maximum size, as masks in lexicographic order.

    Raises CapExceededError (carrying the partial count, ``cap + 1``) if more
    than ``cap`` sets exist.
    """
    found = _largest_independent_sets(g.adj, [], cap)
    if len(found) > cap:
        raise CapExceededError(len(found), cap)
    return sorted(found, key=lambda m: tuple(bits(m)))
