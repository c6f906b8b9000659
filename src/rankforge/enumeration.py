"""Isomorph-free enumeration of reduced rank-r graphs via nonsingular cores.

A reduced graph of rank r always contains r vertices whose principal adjacency
minor is nonsingular (the core). Every remaining vertex is determined by its
0/1 neighborhood vector b into the core: keeping the bordered symmetric matrix
at rank r forces the missing block to B^T A^{-1} B, so b must satisfy
b^T A^{-1} b = 0 and the entry between two extension vertices is forced to
b^T A^{-1} b'. Integerized through the adjugate (y = adj(A) b, entries tested
against 0 and det A) this closes the search without any rational arithmetic.

Cores are generated once per isomorphism class by vertex-by-vertex orderly
augmentation with canonical-augmentation rejection (McKay 1998): a child is
kept when its new vertex shares an orbit with the last canonical position.
It is dropped unlabeled when that vertex is outside the last cell of the
root refinement: labeling puts each root cell on its own interval of
positions and automorphisms map each root cell onto itself, so the orbit of
the last position lies in that cell. Generation is one uncached stream that
labels only graphs that may grow into cores (see ``gen_cores``). Per core, a
branch-and-bound clique search over pairwise-compatible extension vectors
finds the maximum completions.

A graph has many cores, and one is enough to find it, so two core-choice
rules cut the redundancy (proofs in ``gen_cores`` and ``_swap_gains_edges``).
In the non-bipartite class only non-bipartite cores are searched: every such
graph has one, grown from its shortest odd cycle. And a candidate b is
dropped when swapping some core vertex u for it gives a nonsingular core
(y_u != 0) with more edges: a graph is then found in full from a core with
the most edges, whose candidates keep all of its vertices.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
from enum import Enum
from functools import partial
from itertools import repeat
from operator import add
from typing import NamedTuple

from .canonical import _refine, canonical_form, canonical_graph, from_graph6, orbits, to_graph6
from .graphs import (
    Colouring,
    Graph,
    InternalError,
    _clique_cover_bound,
    add_to_colouring,
    bipartition,
    bits,
    is_connected,
    is_reduced,
    is_triangle_free,
    mask_of,
    permute_mask,
    two_colouring,
)
from .linalg import adjacency_matrix, det_adjugate, rank_exact

# Not called here (gen_cores takes det and adjugate from one det_adjugate
# elimination), but perfbench/traced.py wraps both by name on this module.
from .linalg import adjugate, det_exact  # noqa: F401

DEFAULT_MAX_RANK = 9
MIN_RANK = 4


def max_rank_guard() -> int:
    """Enumeration rank ceiling; RANKFORGE_MAX_R raises it explicitly."""
    env = os.environ.get("RANKFORGE_MAX_R")
    if env:
        try:
            return max(DEFAULT_MAX_RANK, int(env))
        except ValueError:
            raise ValueError(f"RANKFORGE_MAX_R must be an integer, got {env!r}") from None
    return DEFAULT_MAX_RANK


class GraphClass(Enum):
    ALL = "all"
    TRIANGLE_FREE = "triangle-free"
    BIPARTITE = "bipartite"
    TRIANGLE_FREE_NONBIPARTITE = "triangle-free-nonbipartite"

    @property
    def triangle_constrained(self) -> bool:
        return self is not GraphClass.ALL

    @property
    def bipartite(self) -> bool | None:
        """True if class graphs must be bipartite, False if they must not be
        (the one class rule that is not hereditary), None if it does not matter."""
        return {GraphClass.BIPARTITE: True, GraphClass.TRIANGLE_FREE_NONBIPARTITE: False}.get(self)

    def conflicts(self, adj):
        """Per vertex v of a graph with adjacency rows ``adj`` in the class's
        hereditary closure, the vertices that may not share the neighbourhood
        of a new vertex with v if the grown graph is to stay in the closure:
        adjacent vertices would close a triangle, and opposite sides of one
        component an odd cycle."""
        if not self.triangle_constrained:
            return [0] * len(adj)
        if not self.bipartite:
            return adj
        out = [0] * len(adj)
        for side, other in two_colouring(adj):
            for v in bits(side):
                out[v] = other
            for v in bits(other):
                out[v] = side
        return out

    def final_predicate(self, g: Graph) -> bool:
        # A bipartite graph is triangle-free, so the bipartite class needs
        # only the colouring.
        if self.bipartite is not None and self.bipartite != (two_colouring(g.adj) is not None):
            return False
        return self.bipartite or not self.triangle_constrained or is_triangle_free(g)


# ---------------------------------------------------------------------------
# Orderly generation with canonical-augmentation rejection
# ---------------------------------------------------------------------------


def _admissible(k: int, conflicts) -> list[int]:
    """Every vertex mask over k vertices with no two conflicting members, in
    ascending order. The family is closed under subsets, so it grows one
    vertex at a time: the masks over vertices < v, then each of them that
    admits v with v added (all larger than the first part)."""
    out = [0]
    for v in range(k):
        bit, clash = 1 << v, conflicts[v]
        out += [m | bit for m in out if not m & clash]
    return out


def _children(cls: GraphClass, parents, keep=None):
    """Each accepted child of ``parents`` (one level of graphs with their
    canonical forms) in the hereditary closure of ``cls``, with its canonical
    form, in level order. After the root-cell test (see the module
    docstring), ``keep``, an isomorphism-invariant test on the child's
    adjacency rows, drops whole classes before labeling. A child is built as
    a ``Graph`` only for labeling."""
    for parent, pform in parents:
        n = parent.n
        bit, full = 1 << n, (1 << n + 1) - 1
        degrees = [row.bit_count() for row in parent.adj]
        top = max(degrees)
        top_mask = sum(1 << v for v, d in enumerate(degrees) if d == top)
        # Only neighbourhoods that keep the child in the class, and only those
        # that can pass the orbit test below: refinement first orders cells by
        # ascending degree, so the last canonical position has maximum degree,
        # and orbits keep degrees, so the added vertex must have the child's
        # maximum degree (each vertex in nb gains one). Both tests are
        # invariant under Aut(parent), so an orbit passes or fails them as a
        # whole, and its first member, the smallest, stands for it.
        masks = (
            nb
            for nb in _admissible(n, cls.conflicts(parent.adj))
            if nb.bit_count() >= top + bool(nb & top_mask)
        )
        for _, orbit in orbits(masks, pform.generators, permute_mask):
            nb = orbit[0]
            rows = (*(row | bit if nb >> v & 1 else row for v, row in enumerate(parent.adj)), nb)
            root = _refine(rows, [full], [full])
            if not root[-1] >> n:
                continue  # the new vertex is not in the last root cell
            if keep is not None and not keep(rows):
                continue
            child = Graph(n + 1, rows)
            cf = canonical_form(child, root)
            # Accept the child only when the added vertex sits in the same
            # orbit as the canonical deletion vertex (last canonical position).
            vstar = cf.labeling.index(n)
            if cf.orbits[vstar] == cf.orbits[n]:
                yield child, cf


def _level(cls: GraphClass, n: int, keep=None):
    """All graphs on exactly n vertices in the hereditary closure of ``cls``,
    one per isomorphism class, each with its canonical form, streamed; with
    ``keep`` (see ``_children``), only those that pass it with every ancestor."""
    if n == 1:
        k1 = Graph(1, (0,))  # in every class
        if keep is None or keep(k1.adj):
            yield k1, canonical_form(k1)
    else:
        yield from _children(cls, _level(cls, n - 1, keep), keep)


def graphs_of_order(n: int, cls: GraphClass) -> tuple[Graph, ...]:
    """Isomorph-free list of all n-vertex graphs in the hereditary closure of
    ``cls`` (triangle-free graphs for the non-bipartite class)."""
    return tuple(g for g, _ in _level(cls, n))


class Core(NamedTuple):
    """An r-vertex graph with nonsingular adjacency, plus det and adjugate,
    and generators of its automorphism group."""

    graph: Graph
    det: int
    adjug: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]


def _rank_range_check(r: int):
    if not MIN_RANK <= r <= max_rank_guard():
        raise ValueError(
            f"rank {r} outside the guarded range {MIN_RANK}..{max_rank_guard()} "
            "(set RANKFORGE_MAX_R to raise the ceiling)"
        )


def gen_cores(r: int, cls: GraphClass):
    """One core per isomorphism class: class graphs on r vertices with
    nonsingular adjacency matrix; in the non-bipartite class, only the
    non-bipartite ones.

    Generation is one stream, cached nowhere. A child is labeled only when
    it is in the last root cell (see the module docstring) and passes an
    isomorphism-invariant test: below level r the rank screen, at level r
    ``may_be_core``. Only accepted level-r children reach ``det_adjugate``,
    one elimination that gives det and adjugate and rejects singular ones.

    Rank screen. A graph on n < r vertices is kept iff its rank is at least
    2n - r (nullity at most r - n). Appending a row and then a column raises
    a rank by at most 1 each, so each vertex still to come raises it by at
    most 2: every induced subgraph of a core, each canonical parent in its
    chain included, meets the bound, and the screen, a test on whole
    isomorphism classes, keeps each core generated once. It passes at once
    when 2n - r <= 0; otherwise it needs 2n - r distinct nonzero rows (the
    rank is at most their number), exact for 2n - r <= 2 since an edge
    gives rank 2, and ``rank_exact`` runs only above that.

    Non-bipartite core rule. Every graph G of that class has a non-bipartite
    core. G is triangle-free with an odd cycle, so its shortest odd cycle C
    is induced (a chord would split it into a shorter odd cycle), and an odd
    cycle's adjacency matrix is nonsingular (its eigenvalues 2 cos(2 pi j/n)
    are never 0 for odd n). A nonsingular principal submatrix A of a
    symmetric matrix M of rank r extends to one of order r: the Schur
    complement of A in M is symmetric of rank r - |A|, so it has a
    nonsingular principal submatrix of that order, and the principal
    submatrix of M on both index sets has determinant det A times its
    determinant. That r-vertex core contains C, so it is not bipartite.
    """
    _rank_range_check(r)

    def screen(rows) -> bool:
        # Rank at least 2n - r (above), first bounded by the rows.
        n = len(rows)
        need = 2 * n - r
        return need <= 0 or len(set(rows) - {0}) >= need and (
            need <= 2 or rank_exact([[row >> j & 1 for j in range(n)] for row in rows]) >= need
        )

    def may_be_core(rows) -> bool:
        # No zero row or two equal rows (singular), nor skipped by the rule above.
        return 0 not in rows and len(set(rows)) == r and (
            cls.bipartite is not False or two_colouring(rows) is None
        )

    for g, form in _children(cls, _level(cls, r - 1, screen), may_be_core):
        d, adjug = det_adjugate(adjacency_matrix(g))
        if d:
            yield Core(graph=g, det=d, adjug=tuple(map(tuple, adjug)), generators=form.generators)


# ---------------------------------------------------------------------------
# Extension closure
# ---------------------------------------------------------------------------


class ExtensionCandidate(NamedTuple):
    """A 0/1 core-neighborhood vector b with its adjugate image y = adj(A) b."""

    vector: int
    image: tuple[int, ...]


def _swap_gains_edges(core: Core, cls: GraphClass):
    """Edge-maximum core rule: a predicate on (b, y = adj(A) b), true when
    swapping some core vertex u for an extension vertex with core
    neighbourhood b gives a core of the class with more edges. ``candidates``
    drops such b.

    The bordered matrix N of core + b has rank r (b^T adj(A) b = 0) and null
    vector z = (y, -det A), so adj(N) = c z z^T. Its principal minor without
    the new vertex is det A = c det(A)^2, so the minor without u, the swapped
    core's, is y_u^2 / det A: the swap is nonsingular iff y_u != 0. It changes
    the edge count by |b minus u| - deg(u).

    Let C be a core of a class graph G with the most edges among the cores
    of G that ``gen_cores`` can list (the nonsingular r-vertex induced
    subgraphs, non-bipartite ones in the non-bipartite class). Every vertex of
    G outside C has some vector b, and a nonsingular swap of it for u is an
    induced subgraph of G: a core of G in a hereditary class, and in the
    non-bipartite class when it keeps an odd cycle, so only those swaps count
    there. Each such core has at most C's edges, so C keeps every vertex of G
    as a candidate, and the search from C finds G whole.
    """
    g = core.graph
    r = g.n
    degrees = [row.bit_count() for row in g.adj]
    # below[k]: the core vertices of degree < k, so a swap of u for b gains
    # edges iff u is in below[|b|] outside b or in below[|b| - 1] inside it.
    below = [mask_of(u for u in range(r) if degrees[u] < k) for k in range(r + 1)]
    # rest[u]: None when every swap for u stays in the class, otherwise the
    # 2-colouring of core - u (u isolated), which b must break; built on
    # first use.
    rest: dict[int, Colouring | None] = {} if cls.bipartite is False else dict.fromkeys(range(r))

    def stays(u: int, b: int) -> bool:
        if u not in rest:
            rows = tuple(0 if v == u else row & ~(1 << u) for v, row in enumerate(g.adj))
            rest[u] = two_colouring(rows)
        return rest[u] is None or add_to_colouring(rest[u], 1 << r, b & ~(1 << u)) is None

    def gains(b: int, y: tuple[int, ...]) -> bool:
        k = b.bit_count()
        return any(y[u] and stays(u, b) for u in bits(below[k] & ~b | below[k - 1] & b))

    return gains


def candidates(core: Core, cls: GraphClass) -> tuple[ExtensionCandidate, ...]:
    """All nonzero b (not equal to a core row) with b^T adj(A) b == 0 and no
    swap that gains edges (``_swap_gains_edges``), in ascending vector order;
    in a triangle-constrained class only the b that are independent in the
    core."""
    g = core.graph
    rows = set(g.adj)
    gains = _swap_gains_edges(core, cls)
    # A core triangle through an extension needs two adjacent core vertices
    # in b, so triangle-constrained candidates must be independent sets.
    conflicts = g.adj if cls.triangle_constrained else [0] * g.n
    # b -> (y, q) with y = adj(A) b and q = b^T y, built from b minus its
    # lowest vertex i: y gains column i, which is row i (adj(A) is
    # symmetric), and q gains 2 y_i + adj(A)_ii.
    forms = {0: ((0,) * g.n, 0)}
    out = []
    for b in _admissible(g.n, conflicts)[1:]:
        low = b & -b
        i = low.bit_length() - 1
        y, q = forms[b ^ low]
        q += 2 * y[i] + core.adjug[i][i]
        y = tuple(map(add, y, core.adjug[i]))
        forms[b] = y, q
        if q == 0 and b not in rows and not gains(b, y):
            out.append(ExtensionCandidate(vector=b, image=y))
    return tuple(out)


def compatible(core: Core, a: ExtensionCandidate, b: ExtensionCandidate):
    """Forced adjacency bit between two extension vertices, or None if the pair
    cannot coexist at rank r (symmetric in its arguments)."""
    if a.vector == b.vector:
        raise ValueError("extension candidates must be distinct")
    dot = sum(b.image[i] for i in bits(a.vector))
    if dot == 0:
        return 0
    if dot == core.det:
        return 1
    return None


def complete(core: Core, cands) -> Graph:
    """The completed graph: core plus the given pairwise-compatible extensions."""
    cands = list(cands)
    r = core.graph.n
    rows = list(core.graph.adj)
    for p, cand in enumerate(cands):
        rows.append(cand.vector)
        for i in bits(cand.vector):
            rows[i] |= 1 << (r + p)
    for p in range(len(cands)):
        for q in range(p + 1, len(cands)):
            if compatible(core, cands[p], cands[q]) == 1:
                rows[r + p] |= 1 << (r + q)
                rows[r + q] |= 1 << (r + p)
    return Graph(r + len(cands), tuple(rows))


def _extension_sets(core: Core, cls: GraphClass, floor: int, maximize: bool):
    """Per-core branch-and-bound over pairwise-compatible extension sets:
    (candidates, valid sets as candidate tuples in search order, nodes).

    One rule serves both callers: record every valid set of size >= floor,
    and prune a subtree when its size plus the greedy clique cover of the
    pool in the incompatibility graph is < floor (a compatible set takes at
    most one vertex of each clique). With ``maximize`` the floor rises to
    each larger set found, dropping smaller records, so every largest set
    (ties included) survives. The chosen set is one mask over candidate
    indices, and the pool holds only indices above the last one chosen, so
    its bits ascend in the order they were chosen. Candidate i is vertex
    r + i of the completion, whose 2-colouring is carried down the recursion
    in the bipartite class.

    The core must fit the class's bipartiteness rule (ValueError otherwise).
    Every completion of a non-bipartite core keeps its odd cycle, so the
    non-bipartite search is the triangle-free one.
    """
    triangle_free, bipartite = cls.triangle_constrained, cls.bipartite
    colouring = None if bipartite is None else two_colouring(core.graph.adj)
    if bipartite is not None and (colouring is not None) != bipartite:
        need = "bipartite" if bipartite else "non-bipartite"
        raise ValueError(f"a {cls.value} search needs a {need} core")
    cands = candidates(core, cls)
    k = len(cands)
    compat = [0] * k
    forced1 = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            bit = compatible(core, cands[i], cands[j])
            if bit is None:
                continue
            if bit == 1 and triangle_free and cands[i].vector & cands[j].vector:
                continue  # a shared core neighbor would close a triangle
            compat[i] |= 1 << j
            compat[j] |= 1 << i
            if bit == 1:
                forced1[i] |= 1 << j
                forced1[j] |= 1 << i
    full = (1 << k) - 1
    incompat = [full & ~c & ~(1 << i) for i, c in enumerate(compat)]
    shift = core.graph.n
    found: list[int] = []
    nodes = 0

    def rec(chosen: int, pool: int, colouring: Colouring | None):
        nonlocal floor, nodes
        nodes += 1
        size = chosen.bit_count()
        if maximize and size > floor:
            floor = size
            found.clear()
        if size >= floor:
            found.append(chosen)
        if size + _clique_cover_bound(incompat, pool) < floor:
            return
        m = pool
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            ones = forced1[v] & chosen
            if triangle_free and any(forced1[u] & ones for u in bits(ones)):
                continue  # v and two adjacent chosen extensions form a triangle
            child = colouring
            if colouring is not None:
                child = add_to_colouring(
                    colouring, 1 << (shift + v), cands[v].vector | ones << shift
                )
                if child is None:
                    continue  # bipartiteness is hereditary: no superset recovers
            rec(chosen | low, pool & compat[v] & ~((low << 1) - 1), child)

    rec(0, full, colouring)
    return cands, [tuple(cands[i] for i in bits(s)) for s in found], nodes


class ExtensionResult(NamedTuple):
    size: int
    optimal_sets: tuple[tuple[ExtensionCandidate, ...], ...]
    candidate_count: int
    nodes: int


def max_extension(core: Core, cls: GraphClass) -> ExtensionResult:
    """Every largest extension set whose completion satisfies the class
    predicate (ties included, in search order)."""
    cands, sets, nodes = _extension_sets(core, cls, 0, True)
    return ExtensionResult(
        size=len(sets[0]),
        optimal_sets=tuple(sets),
        candidate_count=len(cands),
        nodes=nodes,
    )


def all_extensions(core: Core, cls: GraphClass, min_size: int = 0):
    """Every valid extension set with |S| >= min_size, as tuples of candidates;
    used by the completeness oracle and the part-size theorem."""
    return _extension_sets(core, cls, min_size, False)[1]


# ---------------------------------------------------------------------------
# Extremal-order reports and theorem verification
# ---------------------------------------------------------------------------


class EnumerationReport(NamedTuple):
    rank: int
    graph_class: GraphClass
    shards: int  # 1 and 0 for an unsharded or merged report
    shard_index: int
    max_order: int
    extremal: tuple[str, ...]  # canonical graph6
    cores_processed: int
    candidates_total: int
    nodes_explored: int
    elapsed_ms: int

    def to_payload(self) -> dict:
        """The report as a JSON object, keys in ``_REPORT_KEYS`` order."""
        return {
            **dict(zip(_REPORT_KEYS, self)),
            "class": self.graph_class.value,
            "extremal": list(self.extremal),
        }


# The payload keys: the field names in order, with ``graph_class`` renamed.
_REPORT_KEYS = tuple("class" if f == "graph_class" else f for f in EnumerationReport._fields)


def report_from_payload(payload) -> EnumerationReport:
    """Inverse of ``to_payload``; ValueError unless ``payload`` is a report that
    an enumeration could write: an object with exactly the report keys,
    integer counters (none negative, the rank at least ``MIN_RANK``), a
    ``GraphClass`` name, and extremal graphs, present iff ``max_order`` > 0,
    sorted and distinct, that are canonical graph6 of ``max_order`` vertices
    each and pass the emission re-check against the report's rank and class."""
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    names = set(_REPORT_KEYS)
    if payload.keys() != names:
        missing, unknown = sorted(names - payload.keys()), sorted(payload.keys() - names)
        raise ValueError(f"report keys: missing {missing}, unknown {unknown}")
    report = EnumerationReport(*map(payload.get, _REPORT_KEYS))
    counters = {
        f: v for f, v in zip(report._fields, report) if f not in ("graph_class", "extremal")
    }
    if not (
        all(type(v) is int for v in counters.values())
        and type(report.extremal) is list
        and all(type(v) is str for v in [report.graph_class, *report.extremal])
    ):
        raise ValueError("report has a value of the wrong type")
    report = report._replace(
        graph_class=GraphClass(report.graph_class), extremal=tuple(report.extremal)
    )
    if not 0 <= report.shard_index < report.shards:
        raise ValueError(f"report shard index {report.shard_index} not in 0..{report.shards - 1}")
    low = [f for f, v in counters.items() if v < (MIN_RANK if f == "rank" else 0)]
    if low:
        raise ValueError(f"report values out of range: {low}")
    if bool(report.extremal) != (report.max_order > 0):
        raise ValueError(
            f"report has max order {report.max_order} and {len(report.extremal)} extremal graphs"
        )
    if list(report.extremal) != sorted(set(report.extremal)):
        raise ValueError("report extremal graphs are not sorted and distinct")
    for g6 in report.extremal:
        try:
            g = from_graph6(g6)
        except ValueError as exc:
            raise ValueError(f"report extremal graph {g6!r}: {exc}") from None
        if g.n != report.max_order or g6 != to_graph6(canonical_graph(g)):
            raise ValueError(
                f"report extremal graph {g6!r} is not a canonical graph of order "
                f"{report.max_order}"
            )
        fault = _fault(g, report.rank, report.graph_class)
        if fault:
            raise ValueError(
                f"report extremal graph {g6!r} {fault} "
                f"(rank {report.rank}, class {report.graph_class.value})"
            )
    return report


def merge_reports(reports: list[EnumerationReport]) -> EnumerationReport:
    """Merge shard reports of one run: max order wins, extremal lists of the
    winning shards union (deduplicated, sorted), counters add. The reports
    must share one shard count K and hold the indices 0..K-1 once each; the
    merged report is unsharded (1 and 0).

    ``elapsed_ms`` adds too, so in a merged report it is the sum of the shard
    times, the work done, not the wall time of shards that ran in parallel."""
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    run = (first.rank, first.graph_class, first.shards)
    if any((r.rank, r.graph_class, r.shards) != run for r in reports):
        raise ValueError("shard reports disagree on rank or class, or on the shard count")
    indices = [r.shard_index for r in reports]
    missing = sorted(set(range(first.shards)) - set(indices))
    repeated = sorted({i for i in indices if indices.count(i) > 1})
    if missing or repeated:
        raise ValueError(
            f"merge needs shard indices 0..{first.shards - 1} once each: "
            f"missing {missing}, repeated {repeated}"
        )
    max_order = max(r.max_order for r in reports)
    extremal = {g6 for r in reports if r.max_order == max_order for g6 in r.extremal}
    return EnumerationReport(
        rank=first.rank,
        graph_class=first.graph_class,
        shards=1,
        shard_index=0,
        max_order=max_order,
        extremal=tuple(sorted(extremal)),
        cores_processed=sum(r.cores_processed for r in reports),
        candidates_total=sum(r.candidates_total for r in reports),
        nodes_explored=sum(r.nodes_explored for r in reports),
        elapsed_ms=sum(r.elapsed_ms for r in reports),
    )


def _fault(g: Graph, r: int, cls: GraphClass) -> str | None:
    """The first of the checks every emitted graph passes that ``g`` fails,
    named, or None: rank r, reduced, the class predicate."""
    if rank_exact(adjacency_matrix(g)) != r:
        return "has wrong rank"
    if not is_reduced(g):
        return "is not reduced"
    if not cls.final_predicate(g):
        return "violates its class predicate"
    return None


def _assert_sound(g: Graph, r: int, cls: GraphClass):
    """Re-check an emitted graph; raises InternalError (also under python -O)."""
    fault = _fault(g, r, cls)
    if fault:
        raise InternalError(f"emitted graph {fault}")


def _orbit_firsts(core: Core, sets):
    """The first set of each orbit of Aut(core) on ``sets``, in order.

    An automorphism s of the core maps candidates to candidates: it keeps
    b^T adj(A) b, independence in the core and the core rows, and the
    edge-maximum rule, since y(s(b)) is y(b) permuted by s, s keeps degrees,
    and swapping s(u) for s(b) gives the image under s of swapping u for b
    (same edge count, same bipartiteness). It also maps a valid set
    S to a valid set s(S) of the same size, with complete(core, S) isomorphic
    to complete(core, s(S)); so ``sets``, all valid sets of some sizes, is a
    union of orbits, and one completion per orbit stands for all of them. A
    set is keyed by the int with bit b set for each vector b in it."""
    if not sets:
        return
    r, adj = core.graph.n, core.graph.adj
    images = []  # per generator: the image of every core vertex mask
    for perm in core.generators:
        img = [permute_mask(perm, m) for m in range(1 << r)]
        if any(img[adj[v]] != adj[perm[v]] for v in range(r)):
            raise InternalError("core generator is not an automorphism")
        images.append(img)
    keys = (mask_of(cand.vector for cand in s) for s in sets)
    for i, _ in orbits(keys, images, permute_mask):
        yield sets[i]


def _emitted(r: int, cls: GraphClass, per_core) -> dict[str, Graph]:
    """Canonical graph6 -> canonical graph of the completions of every
    (core, extension sets) pair, one completion per Aut(core) orbit, each
    labeled once; each distinct graph is re-checked after canonicalization,
    as it is written out."""
    out: dict[str, Graph] = {}
    for core, sets in per_core:
        for s in _orbit_firsts(core, sets):
            cg = canonical_graph(complete(core, s))
            out[to_graph6(cg)] = cg
    for g in out.values():
        _assert_sound(g, r, cls)
    return out


def enumerate_extremal(
    r: int,
    cls: GraphClass,
    jobs: int | None = None,
    progress: bool = False,
    shards: int | None = None,
    shard_index: int | None = None,
) -> EnumerationReport:
    """Maximum order of reduced rank-r graphs in the class, with every extremal
    graph in canonical graph6. Deterministic for any job count. With
    ``shards`` and ``shard_index`` (both or neither) only the cores whose index
    is ``shard_index`` mod ``shards`` are searched.
    """
    if (shards is None) != (shard_index is None):
        raise ValueError("shards and shard index must be given together")
    if shards is not None and not 0 <= shard_index < shards:
        raise ValueError("shard index out of range")
    t0 = time.monotonic()
    cores = list(gen_cores(r, cls))
    if shards is not None:
        cores = [c for i, c in enumerate(cores) if i % shards == shard_index]
    results: list[ExtensionResult] = []
    with contextlib.ExitStack() as stack:
        if jobs and jobs > 1 and len(cores) > 1:
            import multiprocessing  # only here: it slows the package import

            # Pool forks every worker at once: no more than there are cores.
            context = multiprocessing.get_context("fork")
            pool = stack.enter_context(context.Pool(min(jobs, len(cores))))
            it = pool.imap(partial(max_extension, cls=cls), cores, chunksize=4)
        else:
            it = map(max_extension, cores, repeat(cls))
        best_size = -1
        for i, res in enumerate(it):
            results.append(res)
            best_size = max(best_size, res.size)
            if progress:
                print(f"core {i + 1}/{len(cores)}: best so far {r + best_size}", file=sys.stderr)

    winners = [(core, res) for core, res in zip(cores, results) if res.size == best_size]
    extremal = _emitted(r, cls, ((c, res.optimal_sets) for c, res in winners))
    max_order = r + best_size if best_size >= 0 else 0
    return EnumerationReport(
        rank=r,
        graph_class=cls,
        shards=shards or 1,
        shard_index=shard_index or 0,
        max_order=max_order,
        extremal=tuple(sorted(extremal)),
        cores_processed=len(cores),
        candidates_total=sum(res.candidate_count for res in results),
        nodes_explored=sum(res.nodes for res in results),
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


def enumerate_all(r: int, cls: GraphClass, min_order: int = 0) -> tuple[Graph, ...]:
    """Every reduced rank-r class graph of order >= min_order, one canonical
    representative per isomorphism class, sorted by graph6."""
    min_size = max(0, min_order - r)
    per_core = (
        (core, all_extensions(core, cls, min_size=min_size)) for core in gen_cores(r, cls)
    )
    out = _emitted(r, cls, per_core)
    return tuple(out[k] for k in sorted(out))


class TheoremVerification(NamedTuple):
    theorem: str
    rank: int
    passed: bool
    message: str
    counterexamples: tuple[str, ...] = ()
    report: EnumerationReport | None = None


def _verify_unique_extremal(
    which: str, r: int, cls: GraphClass, expected_graph: Graph, want: int, jobs, progress
) -> TheoremVerification:
    """Pass iff the class's extremal order is ``want`` and its only extremal
    graph is ``expected_graph``; every other extremal graph is a counterexample
    (all of them when the order itself is wrong)."""
    report = enumerate_extremal(r, cls, jobs=jobs, progress=progress)
    expected = to_graph6(canonical_graph(expected_graph))
    passed = report.max_order == want and report.extremal == (expected,)
    msg = (
        f"max order {report.max_order} (expected {want}); "
        f"{len(report.extremal)} extremal graph(s)"
    )
    if report.max_order != want:
        bad = report.extremal
    else:
        bad = tuple(g6 for g6 in report.extremal if g6 != expected)
    return TheoremVerification(which, r, passed, msg, bad, report)


def verify_theorem(
    which: str, r: int, jobs: int | None = None, progress: bool = False
) -> TheoremVerification:
    """Check one of the headline statements at desk scale.

    main:   extremal reduced triangle-free non-bipartite graphs of rank r
            (5 <= r <= 9) have order c(r) and are unique. The uniqueness
            part is false at r = 7 (README "Findings"): rank 7 has two
            extremal graphs of order 9, and the check fails with the
            counterexample ``H@Tcd?N``.
    bi:     extremal reduced bipartite graphs of rank r (r in 4,6,8) have order
            b(r) and are unique.
    bigen:  every reduced bipartite rank-r graph of order above c(r) has
            minimum part size exactly r/2 (r in 6, 8).
    remark: for odd r in 7..11, the extremal graph minus its y-z edge is a
            reduced bipartite graph of rank r-1, order c(r-1), min part (r+1)/2;
            ``bipartite_remark_graph`` refuses any other r.
    """
    from .constructions import (
        b_bound,
        bipartite_remark_graph,
        c_bound,
        extremal_triangle_free,
        subset_incidence_graph,
    )

    if which == "main":
        if r < 5:
            raise ValueError("main theorem check supports r >= 5")
        _rank_range_check(r)
        return _verify_unique_extremal(
            "main", r, GraphClass.TRIANGLE_FREE_NONBIPARTITE,
            extremal_triangle_free(r).graph, c_bound(r), jobs, progress,
        )

    if which == "bi":
        if r not in (4, 6, 8):
            raise ValueError("bipartite extremal check supports r in {4, 6, 8}")
        return _verify_unique_extremal(
            "bi", r, GraphClass.BIPARTITE,
            subset_incidence_graph(r // 2), b_bound(r), jobs, progress,
        )

    if which == "bigen":
        if r not in (6, 8):
            raise ValueError("part-size check supports r in {6, 8}")
        threshold = c_bound(r)
        graphs = enumerate_all(r, GraphClass.BIPARTITE, min_order=threshold + 1)
        bad = []
        for g in graphs:
            if not is_connected(g):
                bad.append(to_graph6(g))
                continue
            parts = bipartition(g)  # not None: _assert_sound checked the class
            if min(parts[0].bit_count(), parts[1].bit_count()) != r // 2:
                bad.append(to_graph6(g))
        passed = not bad and bool(graphs)
        msg = (
            f"{len(graphs)} reduced bipartite rank-{r} graphs of order > {threshold}; "
            f"{len(bad)} with minimum part != {r // 2}"
        )
        return TheoremVerification("bigen", r, passed, msg, tuple(bad))

    if which == "remark":
        h = bipartite_remark_graph(r)
        failures = []
        if not is_reduced(h):
            failures.append("not reduced")
        parts = bipartition(h)
        if parts is None:
            failures.append("not bipartite")
        rank = rank_exact(adjacency_matrix(h))
        if rank != r - 1:
            failures.append(f"rank {rank} != {r - 1}")
        if h.n != c_bound(r - 1):
            failures.append(f"order {h.n} != {c_bound(r - 1)}")
        if parts is not None:
            small = min(parts[0].bit_count(), parts[1].bit_count())
            if small != (r + 1) // 2:
                failures.append(f"min part {small} != {(r + 1) // 2}")
        passed = not failures
        msg = "all properties hold" if passed else "; ".join(failures)
        bad = () if passed else (to_graph6(h),)
        return TheoremVerification("remark", r, passed, msg, bad)

    raise ValueError(f"unknown theorem {which!r}")
