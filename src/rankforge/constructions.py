"""Deterministic builders for the named graph families and the bound functions.

Vertex numbering of every builder is fixed: ground elements first (ascending),
then subset vertices in binary-counter order of their masks, then any special
vertices in documented order, so serialized golden outputs are stable.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import (
    CapacityError,
    Graph,
    add_vertex,
    bits,
    cycle_graph,
    delete_edge,
    from_edges,
    independence_number,
    mask_of,
    path_graph,
)


class BoundsTable(NamedTuple):
    """Exact order bounds for reduced graphs of a given rank.

    Fields are None where the bound is undefined (tree/bipartite bounds need
    even rank; the triangle-free bound needs rank >= 4).
    """

    rank: int
    max_order: int                             # 2^r - 1, any reduced graph
    construction_order: Optional[int]          # mu(r), the doubling construction
    tree_max_order: Optional[int]              # t(r) = 3r/2 - 1, even r
    bipartite_max_order: Optional[int]         # b(r) = 2^(r/2) + r/2 - 1, even r
    triangle_free_max_order: Optional[int]     # c(r) = 3*2^(floor(r/2)-2) + floor(r/2)


def mu_bound(r: int) -> Optional[int]:
    if r % 2 == 0:
        return 2 ** ((r + 2) // 2) - 2
    if r > 1:
        return 5 * 2 ** ((r - 3) // 2) - 2
    return None


def b_bound(r: int) -> Optional[int]:
    if r % 2:
        return None
    return 2 ** (r // 2) + r // 2 - 1


def t_bound(r: int) -> Optional[int]:
    if r % 2:
        return None
    return 3 * r // 2 - 1


def c_bound(r: int) -> Optional[int]:
    if r < 4:
        return None
    return 3 * 2 ** (r // 2 - 2) + r // 2


def bounds(r: int) -> BoundsTable:
    if r < 2:
        raise ValueError("bounds are defined for rank >= 2")
    return BoundsTable(
        rank=r,
        max_order=2 ** r - 1,
        construction_order=mu_bound(r),
        tree_max_order=t_bound(r),
        bipartite_max_order=b_bound(r),
        triangle_free_max_order=c_bound(r),
    )


def incidence_graph(n: int, family) -> Graph:
    """Bipartite incidence graph of a ground set and a family of its subsets.

    Vertices 0..n-1 are the ground elements; vertex n+i is family[i]. Element x
    and set X are adjacent iff x is a member of X. Family members may be given
    as iterables of ints or as bitmasks.
    """
    if n < 1:
        raise ValueError("ground set must be nonempty")
    masks = []
    for member in family:
        m = member if isinstance(member, int) else mask_of(member)
        if m >> n:
            raise ValueError(f"family member {m:#x} not a subset of the ground set")
        masks.append(m)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate family members")
    total = n + len(masks)
    if total > 64:
        raise CapacityError(f"incidence graph on {total} vertices exceeds capacity")
    edges = []
    for i, m in enumerate(masks):
        for x in bits(m):
            edges.append((x, n + i))
    return from_edges(total, edges)


def subset_incidence_graph(n: int) -> Graph:
    """Incidence graph of an n-element ground set with all its nonempty subsets.

    Reduced, bipartite, rank 2n, order 2^n + n - 1.
    """
    if not 1 <= n <= 5:
        raise CapacityError("subset incidence graph supported for 1 <= n <= 5")
    return incidence_graph(n, range(1, 1 << n))


def odd_subset_incidence_graph(n: int) -> Graph:
    """Incidence graph of an n-element ground set with its odd-size subsets."""
    if not 1 <= n <= 5:
        raise CapacityError("odd subset incidence graph supported for 1 <= n <= 5")
    return incidence_graph(n, (m for m in range(1, 1 << n) if m.bit_count() % 2))


class LabeledConstruction(NamedTuple):
    """A constructed graph together with the role each special vertex plays.

    Role keys: "x", "x_prime", "y", "z", "N", "N_prime", "M", "M_prime",
    "ground", "family"; values are vertex masks. Only the roles a given parity
    uses are present.
    """

    graph: Graph
    roles: dict


def extremal_triangle_free(r: int) -> LabeledConstruction:
    """The extremal reduced triangle-free graph of rank r (non-bipartite for r >= 5).

    Start from the subset incidence graph on floor(r/2)-1 ground elements, fix
    ground element x = 0, let N be the subsets containing x and M the rest.
    Even rank: duplicate x and every vertex of M, then append y joined to
    {x, z} and M, and z joined to y only. Odd rank: duplicate every vertex of
    N, then append y joined to {z} and N, and z joined to N' and y.
    Order is 3*2^(floor(r/2)-2) + floor(r/2); rank is r.
    """
    if r < 4:
        raise ValueError("extremal triangle-free construction needs rank >= 4")
    if r > 12:
        raise CapacityError("rank above 12 exceeds the 64-vertex capacity")
    m = r // 2 - 1
    g = subset_incidence_graph(m)
    ground = (1 << m) - 1
    family = g.vertices_mask & ~ground
    x = 0
    n_mask = g.adj[x]
    m_mask = family & ~n_mask
    roles = {"x": 1 << x, "ground": ground, "family": family, "N": n_mask, "M": m_mask}

    if r % 2 == 0:
        g = add_vertex(g, n_mask)                       # x'
        roles["x_prime"] = 1 << (g.n - 1)
        m_prime = 0
        for u in bits(m_mask):
            g = add_vertex(g, g.adj[u])                 # twin of each M vertex
            m_prime |= 1 << (g.n - 1)
        roles["M_prime"] = m_prime
        g = add_vertex(g, (1 << x) | m_mask)            # y ~ {x} + M (z follows)
        y = g.n - 1
        g = add_vertex(g, 1 << y)                       # z ~ y
        roles["y"], roles["z"] = 1 << y, 1 << (g.n - 1)
    else:
        n_prime = 0
        for u in bits(n_mask):
            g = add_vertex(g, g.adj[u])                 # twin of each N vertex
            n_prime |= 1 << (g.n - 1)
        roles["N_prime"] = n_prime
        g = add_vertex(g, n_mask)                       # y ~ N (z follows)
        y = g.n - 1
        g = add_vertex(g, n_prime | (1 << y))           # z ~ N' + y
        roles["y"], roles["z"] = 1 << y, 1 << (g.n - 1)
    return LabeledConstruction(graph=g, roles=roles)


def extremal_triangle_free_recursive(r: int) -> Graph:
    """The same extremal family built by the doubling recursion.

    Bases: rank 4 is the 5-vertex path, rank 5 the 5-cycle. The step from
    r-2 to r duplicates each vertex of a chosen independent set A (the
    lexicographically smallest distance-3 pair for r=6, distance-2 pair for
    r=7, and the maximum independent set for r >= 8) and appends u joined to
    {v} and A, then v joined to u.
    """
    if r < 4:
        raise ValueError("extremal triangle-free construction needs rank >= 4")
    if r > 12:
        raise CapacityError("rank above 12 exceeds the 64-vertex capacity")
    if r == 4:
        return path_graph(5)
    if r == 5:
        return cycle_graph(5)
    prev = extremal_triangle_free_recursive(r - 2)
    if r == 6:
        a_mask = mask_of((0, 3))   # distance-3 pair in the 5-path
    elif r == 7:
        a_mask = mask_of((0, 2))   # distance-2 pair in the 5-cycle
    else:
        _, a_mask = independence_number(prev)
    g = prev
    for v in bits(a_mask):
        g = add_vertex(g, g.adj[v])                     # twin of each A vertex
    g = add_vertex(g, a_mask)                           # u ~ A (v follows)
    g = add_vertex(g, 1 << (g.n - 1))                   # v ~ u
    return g


def bipartite_remark_graph(r: int) -> Graph:
    """For odd r, the extremal triangle-free graph of rank r minus its y-z edge.

    The result is a reduced bipartite graph of rank r-1 and order c(r-1) whose
    smaller part has (r+1)/2 vertices, witnessing that the bipartite minimum
    part-size theorem needs its order hypothesis.
    """
    if r % 2 == 0:
        raise ValueError("remark graph is defined for odd rank only")
    if not 7 <= r <= 11:
        raise ValueError("remark graph supported for r in {7, 9, 11}")
    built = extremal_triangle_free(r)
    y = (built.roles["y"]).bit_length() - 1
    z = (built.roles["z"]).bit_length() - 1
    return delete_edge(built.graph, y, z)
