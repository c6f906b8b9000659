import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import rankforge
from rankforge.canonical import (
    _refine,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    from_graph6,
    orbits,
    to_graph6,
)
from rankforge.constructions import (
    b_bound,
    c_bound,
    extremal_triangle_free,
    subset_incidence_graph,
)
from rankforge.enumeration import (
    Core,
    ExtensionCandidate,
    GraphClass,
    _admissible,
    _children,
    _level,
    all_extensions,
    candidates,
    compatible,
    complete,
    enumerate_all,
    enumerate_extremal,
    gen_cores,
    graphs_of_order,
    max_extension,
    merge_reports,
    report_from_payload,
    verify_theorem,
)
from rankforge.graphs import (
    Graph,
    add_vertex,
    bipartition,
    bits,
    cycle_graph,
    is_reduced,
    is_triangle_free,
    mask_of,
    permute_mask,
    two_colouring,
)
from rankforge.linalg import adjacency_matrix, adjugate, det_exact, rank_exact

from conftest import fraction_rank, group_elements, labeled_graphs, leibniz_det


# ---------------------------------------------------------------------------
# Orderly generation
# ---------------------------------------------------------------------------


def _dedup_oracle_level(pred, n):
    """Independent isomorph-free generator: grow every level from all parents
    with every neighborhood, deduplicating by canonical certificate only."""
    from rankforge.graphs import Graph, add_vertex

    level = {canonical_form(Graph(1, (0,))).cert: Graph(1, (0,))}
    for _ in range(n - 1):
        nxt = {}
        for parent in level.values():
            for nb in range(1 << parent.n):
                child = add_vertex(parent, nb)
                if not pred(child):
                    continue
                cert = canonical_form(child).cert
                if cert not in nxt:
                    nxt[cert] = child
        level = nxt
    return set(level)


# Per class value, the predicate of the class's hereditary closure: the
# non-bipartite class grows through triangle-free graphs.
_CLOSURE_PREDICATES = {
    "all": lambda g: True,
    "triangle-free": is_triangle_free,
    "bipartite": lambda g: bipartition(g) is not None,
    "triangle-free-nonbipartite": is_triangle_free,
}


@pytest.mark.parametrize(
    "name,pred",
    [
        ("all", lambda g: True),
        ("triangle-free", is_triangle_free),
        ("bipartite", lambda g: bipartition(g) is not None),
    ],
)
def test_generation_matches_labeled_brute_force(name, pred):
    for n in range(1, 6):
        gen = graphs_of_order(n, GraphClass(name))
        brute = {canonical_form(g).cert for g in labeled_graphs(n) if pred(g)}
        certs = {canonical_form(g).cert for g in gen}
        assert len(certs) == len(gen)  # no isomorph emitted twice
        assert certs == brute


@pytest.mark.parametrize("n", (6, 7, 8))
def test_generation_matches_dedup_oracle(n):
    gen = {canonical_form(g).cert for g in graphs_of_order(n, GraphClass.TRIANGLE_FREE)}
    oracle = _dedup_oracle_level(is_triangle_free, n)
    assert gen == oracle


def test_generation_matches_dedup_oracle_nine_vertices():
    # covers the level the rank-7 finding lives on
    gen = {canonical_form(g).cert for g in graphs_of_order(9, GraphClass.TRIANGLE_FREE)}
    oracle = _dedup_oracle_level(is_triangle_free, 9)
    assert gen == oracle


def test_triangle_free_counts_to_nine():
    # matches the published isomorph counts for triangle-free graphs
    got = [len(graphs_of_order(n, GraphClass.TRIANGLE_FREE)) for n in range(1, 10)]
    assert got == [1, 2, 3, 7, 14, 38, 107, 410, 1897]


@pytest.mark.extended
def test_triangle_free_count_at_ten():
    assert len(graphs_of_order(10, GraphClass.TRIANGLE_FREE)) == 12172  # OEIS A006785


@pytest.mark.extended
def test_triangle_free_count_at_eleven():
    # Counted from the stream of accepted children, as gen_cores streams its
    # top level: level 11 is never cached.
    tf = GraphClass.TRIANGLE_FREE
    assert sum(1 for _ in _children(tf, _level(tf, 10))) == 105071  # OEIS A006785


@pytest.mark.parametrize(
    "name,counts",
    [
        ("bipartite", [1, 2, 3, 7, 13, 35, 88, 303]),  # OEIS A033995
        ("all", [1, 2, 4, 11, 34, 156, 1044]),  # OEIS A000088
    ],
)
def test_published_counts_of_the_other_classes(name, counts):
    got = [len(graphs_of_order(n, GraphClass(name))) for n in range(1, len(counts) + 1)]
    assert got == counts


_NX_PREDICATES = {
    "all": lambda nx, h: True,
    "triangle-free": lambda nx, h: not any(nx.triangles(h).values()),
    "bipartite": lambda nx, h: nx.is_bipartite(h),
}


@pytest.mark.filterwarnings("ignore:The hashes produced")
@pytest.mark.parametrize("name", sorted(_NX_PREDICATES))
def test_generation_matches_networkx_atlas(name):
    # Independent of rankforge certificates: networkx's atlas of all graphs
    # on at most 7 vertices, its own class predicates and its own isomorphism
    # test, with Weisfeiler-Lehman hashes only to bucket candidates.
    nx = pytest.importorskip("networkx")
    wl = nx.weisfeiler_lehman_graph_hash
    pred = _NX_PREDICATES[name]
    for n in range(1, 8):
        buckets: dict[str, list] = {}
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() == n and pred(nx, h):
                buckets.setdefault(wl(h), []).append(h)
        matched = set()
        gen = graphs_of_order(n, GraphClass(name))
        for g in gen:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            hits = [id(a) for a in buckets.get(wl(h), ()) if nx.is_isomorphic(h, a)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == len(gen) == sum(len(b) for b in buckets.values())


def _subset_orbit_reps(k, gens):
    """Smallest member of each orbit of the group generated by ``gens`` on
    all 2^k vertex subsets of a k-vertex graph, in ascending order."""
    reps = []
    seen = set()
    for m in range(1 << k):
        if m in seen:
            continue
        reps.append(m)
        seen.add(m)
        stack = [m]
        while stack:
            cur = stack.pop()
            for g in gens:
                img = mask_of(g[v] for v in bits(cur))
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


@pytest.mark.parametrize(
    "name,top", [("all", 7), ("triangle-free", 8), ("bipartite", 7)]
)
def test_degree_pretest_rejects_only_what_the_orbit_test_rejects(name, top):
    # Reference: the level built with a full canonical labeling of every
    # child that passes the class predicate, over one neighbourhood per orbit
    # of all 2^k subsets, without the conflict rule, the degree pre-test and
    # the root-cell test.
    cls, pred = GraphClass(name), _CLOSURE_PREDICATES[name]
    for n in range(2, top + 1):
        accepted = []
        for parent, pform in _level(cls, n - 1):
            for nb in _subset_orbit_reps(parent.n, pform.generators):
                child = add_vertex(parent, nb)
                if not pred(child):
                    continue
                cf = canonical_form(child)
                vstar = cf.labeling.index(child.n - 1)
                passes = cf.orbits[vstar] == cf.orbits[child.n - 1]
                # The pre-test drops a child whose added vertex is below the
                # child's maximum degree: the orbit test must drop it too.
                if child.adj[-1].bit_count() < max(r.bit_count() for r in child.adj):
                    assert not passes
                # So does the root-cell test, for an added vertex outside the
                # last cell of the root refinement.
                full = (1 << child.n) - 1
                if not _refine(child.adj, [full], [full])[-1] >> parent.n:
                    assert not passes
                if passes:
                    accepted.append((child, cf))
        assert tuple(_level(cls, n)) == tuple(accepted)


@pytest.mark.parametrize("name", sorted(_CLOSURE_PREDICATES))
def test_admissible_masks_are_the_neighbourhoods_the_predicate_accepts(name):
    # Brute force: every mask over each parent with at most 6 vertices,
    # filtered by the predicate of the class's hereditary closure on the
    # whole child.
    cls, pred = GraphClass(name), _CLOSURE_PREDICATES[name]
    for n in range(1, 7):
        for parent, _ in _level(cls, n):
            brute = [m for m in range(1 << n) if pred(add_vertex(parent, m))]
            assert _admissible(n, cls.conflicts(parent.adj)) == brute, parent


def test_level_certificates_match_golden_digest():
    # SHA-256 over the certificate, labeling and generators of every
    # triangle-free and every bipartite graph on 8 vertices: graph6 output
    # and golden reports depend on them, so a speedup may not change them.
    h = hashlib.sha256()
    for name in ("triangle-free", "bipartite"):
        for _, cf in _level(GraphClass(name), 8):
            h.update(f"{cf.cert.hex()} {cf.labeling} {cf.generators}\n".encode())
    assert h.hexdigest() == (
        "4d45ff008376421ce87a1122fcc1336e78000fbcd884c72fc2c131f7fed2fa13"
    )


# ---------------------------------------------------------------------------
# Cores and the extension closure
# ---------------------------------------------------------------------------


def test_gen_cores_rank5_count_matches_brute_force():
    cores = list(gen_cores(5, GraphClass.ALL))
    brute = {
        canonical_form(g).cert
        for g in labeled_graphs(5)
        if det_exact(adjacency_matrix(g)) != 0
    }
    assert {canonical_form(c.graph).cert for c in cores} == brute
    assert len(cores) == len(brute)


def _cores_from_whole_level(r, cls):
    """Reference cores: the whole level r, generated without the rank screen
    and then filtered, with det and adjugate of every graph that may be a
    core."""
    out = []
    for g, form in _level(cls, r):
        if 0 in g.adj or len(set(g.adj)) < r:
            continue
        if cls.bipartite is False and two_colouring(g.adj) is not None:
            continue
        a = adjacency_matrix(g)
        d = det_exact(a)
        if d:
            adjug = tuple(tuple(row) for row in adjugate(a))
            out.append(Core(graph=g, det=d, adjug=adjug, generators=form.generators))
    return out


@pytest.mark.parametrize(
    "r, cls",
    [(r, cls) for r in range(4, 9) for cls in GraphClass]
    + [(9, GraphClass.TRIANGLE_FREE), (9, GraphClass.TRIANGLE_FREE_NONBIPARTITE)],
)
def test_streamed_cores_match_the_filtered_cached_level(r, cls):
    """Same cores in the same order, with the same det, adjugate and
    generators."""
    streamed = list(gen_cores(r, cls))
    assert streamed == _cores_from_whole_level(r, cls)


@pytest.mark.parametrize("r, cls", [(r, cls) for r in range(4, 9) for cls in GraphClass])
def test_rank_screen_rejects_only_graphs_whose_children_are_all_singular(monkeypatch, r, cls):
    # Record every graph, on any n < r vertices, that gen_cores' rank screen
    # rejects, then grow each by every admissible neighbourhood. A rejected
    # graph must have rank below 2n - r, and each of its children rank below
    # 2(n + 1) - r: by induction every r-vertex descendant is singular. The
    # rejected graphs' rank comes from the Fraction oracle; the children's,
    # tens of thousands at r = 8, from Bareiss (checked against that oracle
    # in test_linalg).
    from rankforge import enumeration

    real = enumeration._children
    rejected = []

    def recording(graph_class, parents, keep=None):
        def screen(rows):
            kept = keep(rows)
            if not kept and len(rows) < r:
                rejected.append(Graph(len(rows), rows))
            return kept

        return real(graph_class, parents, keep and screen)

    monkeypatch.setattr(enumeration, "_children", recording)
    list(gen_cores(r, cls))
    for g in rejected:
        assert fraction_rank(adjacency_matrix(g)) < 2 * g.n - r
        for nb in _admissible(g.n, cls.conflicts(g.adj)):
            assert rank_exact(adjacency_matrix(add_vertex(g, nb))) < 2 * (g.n + 1) - r, (g, nb)
    assert rejected or r == 4


def test_gen_cores_examples():
    tf5 = list(gen_cores(5, GraphClass.TRIANGLE_FREE))
    c5_cert = canonical_form(cycle_graph(5)).cert
    assert any(canonical_form(c.graph).cert == c5_cert for c in tf5)
    tf4 = list(gen_cores(4, GraphClass.TRIANGLE_FREE))
    from rankforge.graphs import path_graph

    p4_cert = canonical_form(path_graph(4)).cert
    assert any(canonical_form(c.graph).cert == p4_cert for c in tf4)
    with pytest.raises(ValueError):
        list(gen_cores(3, GraphClass.ALL))
    with pytest.raises(ValueError):
        list(gen_cores(10, GraphClass.ALL))


def test_candidates_satisfy_definitions():
    core = next(
        c
        for c in gen_cores(5, GraphClass.TRIANGLE_FREE)
        if canonical_form(c.graph).cert == canonical_form(cycle_graph(5)).cert
    )
    cands = candidates(core, GraphClass.TRIANGLE_FREE)
    rows = set(core.graph.adj)
    for cand in cands:
        assert cand.vector != 0
        assert cand.vector not in rows
        assert sum(cand.image[i] for i in bits(cand.vector)) == 0
        # image really is adjugate @ vector
        for j in range(5):
            assert cand.image[j] == sum(core.adjug[j][i] for i in bits(cand.vector))


def _bordered(core, b):
    """Adjacency matrix of the core plus one vertex with core neighbourhood b."""
    r = core.graph.n
    col = [b >> i & 1 for i in range(r)]
    return [row + [col[i]] for i, row in enumerate(adjacency_matrix(core.graph))] + [
        col + [0]
    ]


def _a_swap_gains_edges(core, b, nonbipartite):
    """The edge-maximum core rule by brute force: some r x r principal minor of
    the bordered matrix that swaps a core vertex u for b has more edges than
    the core, is not 2-colourable if ``nonbipartite``, and has a nonzero
    Leibniz determinant."""
    r = core.graph.n
    bordered = _bordered(core, b)
    core_edges = sum(sum(row[:r]) for row in bordered[:r]) // 2
    for u in range(r):
        keep = [i for i in range(r + 1) if i != u]
        minor = [[bordered[i][j] for j in keep] for i in keep]
        if sum(map(sum, minor)) // 2 <= core_edges:
            continue
        rows = tuple(sum(x << j for j, x in enumerate(row)) for row in minor)
        if nonbipartite and _two_colourable(Graph(r, rows)):
            continue
        if leibniz_det(minor):
            return True
    return False


@pytest.mark.parametrize("r", (4, 5, 6))
def test_candidates_match_bordered_rank_oracle(r):
    """Candidates are exactly the b != 0 outside the core rows whose bordered
    matrix keeps rank r, independent in the core in a triangle-constrained
    class, and with no swap for a core vertex that gains edges; each image y
    solves A y = det(A) b, so y = adj(A) b."""
    kernels = {}  # core rows -> the b whose bordered matrix has rank r
    for cls in GraphClass:
        for core in gen_cores(r, cls):
            a = adjacency_matrix(core.graph)
            det = leibniz_det(a)
            if core.graph.adj not in kernels:
                kernels[core.graph.adj] = [
                    b for b in range(1, 1 << r) if fraction_rank(_bordered(core, b)) == r
                ]
            expected = [
                b
                for b in kernels[core.graph.adj]
                if b not in core.graph.adj
                and not (
                    cls.triangle_constrained and any(core.graph.adj[i] & b for i in bits(b))
                )
                and not _a_swap_gains_edges(core, b, cls.bipartite is False)
            ]
            cands = candidates(core, cls)
            assert [c.vector for c in cands] == expected, (cls, core.graph)
            for c in cands:
                for i in range(r):
                    assert sum(a[i][j] * c.image[j] for j in range(r)) == det * (
                        c.vector >> i & 1
                    )


def _candidates_by_column_sums(core, cls):
    """(b, adj(A) b) for every b with b^T adj(A) b = 0 outside the core rows
    (independent in a triangle-constrained class), each image summed afresh
    from the adjugate columns of b's members: the candidate list without the
    edge-maximum core rule."""
    r, adj = core.graph.n, core.graph.adj
    out = []
    for b in range(1, 1 << r):
        members = list(bits(b))
        if b in adj or (cls.triangle_constrained and any(adj[i] & b for i in members)):
            continue
        y = tuple(sum(core.adjug[j][i] for i in members) for j in range(r))
        if sum(y[j] for j in members) == 0:
            out.append((b, y))
    return out


@pytest.mark.parametrize(
    "r,classes",
    [(r, tuple(GraphClass)) for r in (4, 5, 6, 7)]
    + [(8, (GraphClass.TRIANGLE_FREE_NONBIPARTITE,))],
)
def test_candidates_match_column_sums(r, classes):
    """The candidates are the column-sum list less the b with a gaining swap,
    found by brute force. In the non-bipartite class a swap that leaves a
    bipartite core does not count: at r = 8 that keeps 5 candidates which the
    unrestricted rule would drop, and none below."""
    kept_by_the_restriction = 0
    for cls in classes:
        nonbipartite = cls.bipartite is False
        for core in gen_cores(r, cls):
            want = []
            for b, y in _candidates_by_column_sums(core, cls):
                if not _a_swap_gains_edges(core, b, nonbipartite):
                    want.append((b, y))
                    kept_by_the_restriction += nonbipartite and _a_swap_gains_edges(
                        core, b, False
                    )
            got = [(c.vector, c.image) for c in candidates(core, cls)]
            assert got == want, (cls, core.graph)
    assert kept_by_the_restriction == (5 if r == 8 else 0)


@pytest.mark.parametrize("r", (6, 8))
def test_nonbipartite_cores_are_the_triangle_free_cores_with_an_odd_cycle(r):
    tf = [c for c in gen_cores(r, GraphClass.TRIANGLE_FREE) if not _two_colourable(c.graph)]
    assert list(gen_cores(r, GraphClass.TRIANGLE_FREE_NONBIPARTITE)) == tf
    assert tf  # the rule leaves something to search


@pytest.mark.parametrize(
    "r,classes",
    [(r, tuple(GraphClass)) for r in (4, 5, 6, 7)]
    + [(8, (GraphClass.TRIANGLE_FREE, GraphClass.TRIANGLE_FREE_NONBIPARTITE))],
)
def test_candidate_lists_are_closed_under_core_automorphisms(r, classes):
    """The edge-maximum rule is Aut(core)-invariant, as ``_orbit_firsts``
    needs: each generator maps the candidate list onto itself."""
    for cls in classes:
        for core in gen_cores(r, cls):
            vectors = {c.vector for c in candidates(core, cls)}
            for perm in core.generators:
                assert {permute_mask(perm, b) for b in vectors} == vectors, (cls, core)


def _has_triangle(g):
    return any(
        g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
        for u, v, w in combinations(range(g.n), 3)
    )


def _two_colourable(g):
    """Some vertex set S and its complement both hold no edge."""
    full = (1 << g.n) - 1
    return any(
        all(g.adj[v] & (s if s >> v & 1 else full & ~s) == 0 for v in range(g.n))
        for s in range(1 << g.n)
    )


def test_final_predicate_matches_brute_force(reduced_corpus):
    expected = {
        GraphClass.ALL: lambda g: True,
        GraphClass.TRIANGLE_FREE: lambda g: not _has_triangle(g),
        GraphClass.BIPARTITE: _two_colourable,
        GraphClass.TRIANGLE_FREE_NONBIPARTITE: lambda g: not (
            _has_triangle(g) or _two_colourable(g)
        ),
    }
    small = [g for n in range(6) for g in labeled_graphs(n)]
    for g in small + reduced_corpus:
        for cls, oracle in expected.items():
            assert cls.final_predicate(g) == oracle(g), (cls, g)


def test_compatible_is_symmetric_and_matches_rank_oracle():
    for core in gen_cores(6, GraphClass.TRIANGLE_FREE):
        cands = candidates(core, GraphClass.TRIANGLE_FREE)
        for i in range(min(len(cands), 8)):
            for j in range(i + 1, min(len(cands), 8)):
                bit = compatible(core, cands[i], cands[j])
                assert bit == compatible(core, cands[j], cands[i])
                if bit is not None:
                    g = complete(core, [cands[i], cands[j]])
                    assert g.has_edge(6, 7) == (bit == 1)
                    assert rank_exact(adjacency_matrix(g)) == 6


def test_completions_keep_rank():
    seen = 0
    for core in gen_cores(6, GraphClass.TRIANGLE_FREE):
        for cand_set in all_extensions(core, GraphClass.TRIANGLE_FREE):
            if len(cand_set) > 2:
                continue
            g = complete(core, cand_set)
            assert rank_exact(adjacency_matrix(g)) == 6
            assert is_reduced(g)
            seen += 1
            if seen >= 200:
                return
    assert seen > 0


def test_max_extension_on_cycle_core():
    core = next(
        c
        for c in gen_cores(5, GraphClass.TRIANGLE_FREE)
        if canonical_form(c.graph).cert == canonical_form(cycle_graph(5)).cert
    )
    res = max_extension(core, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    assert res.size == 0  # the bare 5-cycle is already maximal
    assert res.optimal_sets == ((),)
    assert complete(core, ()).n == 5


def _vectors(sets):
    return tuple(tuple(c.vector for c in s) for s in sets)


def test_max_extension_matches_golden_digest():
    # SHA-256 over (size, candidate count, nodes, optimal sets in search order)
    # of every core of every class at r = 4..8 (all graphs to 7) and of tfnb at
    # r = 9: the search may be rewritten, but not its order, prune or answers.
    h = hashlib.sha256()
    runs = [(cls, r) for cls in GraphClass for r in range(4, 8 if cls is GraphClass.ALL else 9)]
    for cls, r in [*runs, (GraphClass.TRIANGLE_FREE_NONBIPARTITE, 9)]:
        for core in gen_cores(r, cls):
            res = max_extension(core, cls)
            sets = _vectors(res.optimal_sets)
            h.update(
                f"{cls.value} {r} {res.size} {res.candidate_count} {res.nodes} {sets}\n".encode()
            )
    assert h.hexdigest() == (
        "cf7931ebb1cc8d7b162e7fc52011c8e9e60a8fd10110bc0dff4f2018168199cb"
    )


def test_all_extensions_matches_golden_digest():
    # SHA-256 over every valid set, in search order, of the bipartite cores at
    # r = 6 (no floor) and at r = 8 (the bigen floor, 9 extensions).
    h = hashlib.sha256()
    for r, min_size in ((6, 0), (8, 9)):
        for core in gen_cores(r, GraphClass.BIPARTITE):
            sets = all_extensions(core, GraphClass.BIPARTITE, min_size=min_size)
            h.update(f"{r} {list(_vectors(sets))}\n".encode())
    assert h.hexdigest() == (
        "b16c2545eb3ba9411dfc3b60b86424084c4b423c334ae7716c2016c912538ad3"
    )


@pytest.mark.parametrize("r", (4, 5, 6))
@pytest.mark.parametrize("cls", list(GraphClass))
def test_max_extension_keeps_every_tied_optimum(r, cls):
    """The maximizing search and the enumerate-all search share one rule, so
    the optimal sets are exactly the valid sets of the optimal size."""
    for core in gen_cores(r, cls):
        res = max_extension(core, cls)
        tied = [
            s
            for s in all_extensions(core, cls, min_size=max(res.size, 0))
            if len(s) == res.size
        ]
        assert list(res.optimal_sets) == tied


@pytest.mark.parametrize("r", (4, 5, 6))
@pytest.mark.parametrize("cls", (GraphClass.BIPARTITE, GraphClass.TRIANGLE_FREE_NONBIPARTITE))
def test_bipartite_rule_keeps_exactly_the_matching_sets(monkeypatch, r, cls):
    """A class with a bipartiteness rule finds the triangle-free sets whose
    completion obeys that rule, no more and no fewer, in the same order. The
    search rule is tested alone, on the candidate list without the class's
    edge-maximum rule and on every triangle-free core, bipartite ones too."""
    _without_core_rules(monkeypatch)
    for core in _unfiltered_cores(r, cls):
        assert all_extensions(core, cls) == [
            s
            for s in all_extensions(core, GraphClass.TRIANGLE_FREE)
            if (bipartition(complete(core, s)) is not None) == cls.bipartite
        ]


def test_colouring_helper_matches_bipartition(reduced_corpus):
    nx = pytest.importorskip("networkx")
    for g in reduced_corpus:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        colouring = two_colouring(g.adj)
        parts = bipartition(g)
        assert (colouring is None) == (parts is None) == (not nx.is_bipartite(h))
        if colouring is not None:
            components = sorted(mask_of(c) for c in nx.connected_components(h))
            assert sorted(side | other for side, other in colouring) == components
            for side, other in colouring:
                for v in bits(side):
                    assert g.adj[v] & side == 0
                for v in bits(other):
                    assert g.adj[v] & other == 0
            first, _ = parts
            assert all(first >> min(c) & 1 for c in nx.connected_components(h))


# ---------------------------------------------------------------------------
# Extremal reports
# ---------------------------------------------------------------------------


def test_enumerate_extremal_small_cases():
    rep = enumerate_extremal(5, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    assert rep.max_order == 5
    assert rep.extremal == (to_graph6(canonical_graph(cycle_graph(5))),)
    rep = enumerate_extremal(6, GraphClass.BIPARTITE)
    assert rep.max_order == 10
    assert rep.extremal == (to_graph6(canonical_graph(subset_incidence_graph(3))),)


def test_enumerate_extremal_rank4_nonbipartite_is_empty():
    rep = enumerate_extremal(4, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    assert rep.max_order == 0
    assert rep.extremal == ()


def _unfiltered_cores(r, cls):
    """The core list without the non-bipartite core rule: in that class every
    triangle-free core, as in the triangle-free class."""
    return gen_cores(r, GraphClass.TRIANGLE_FREE if cls.bipartite is False else cls)


def _unfiltered_candidates(core, cls):
    """The candidate list without the edge-maximum core rule."""
    return tuple(
        ExtensionCandidate(vector=b, image=y) for b, y in _candidates_by_column_sums(core, cls)
    )


def _without_core_rules(monkeypatch):
    from rankforge import enumeration

    monkeypatch.setattr(enumeration, "gen_cores", _unfiltered_cores)
    monkeypatch.setattr(enumeration, "candidates", _unfiltered_candidates)


def _check_core_rules_keep_the_extremal_graphs(monkeypatch, r, cls):
    ruled = enumerate_extremal(r, cls, jobs=1)
    _without_core_rules(monkeypatch)
    plain = enumerate_extremal(r, cls, jobs=1)
    assert (ruled.max_order, ruled.extremal) == (plain.max_order, plain.extremal)
    assert ruled.cores_processed <= plain.cores_processed
    assert ruled.candidates_total <= plain.candidates_total


@pytest.mark.parametrize(
    "r, cls",
    [(r, cls) for r in range(4, 9) for cls in GraphClass if cls is not GraphClass.ALL or r <= 7],
)
def test_core_rules_keep_the_extremal_graphs(monkeypatch, r, cls):
    """Both core-choice rules leave ``max_order`` and ``extremal`` as the
    unfiltered core and candidate lists give them."""
    _check_core_rules_keep_the_extremal_graphs(monkeypatch, r, cls)


@pytest.mark.extended
@pytest.mark.parametrize("cls", [c for c in GraphClass if c is not GraphClass.ALL])
def test_core_rules_keep_the_extremal_graphs_at_rank9(monkeypatch, cls):
    _check_core_rules_keep_the_extremal_graphs(monkeypatch, 9, cls)


@pytest.mark.parametrize(
    "r, cls, min_order",
    [(6, cls, 0) for cls in GraphClass if cls is not GraphClass.ALL]
    + [(5, GraphClass.ALL, 0), (8, GraphClass.BIPARTITE, 17)],
)
def test_core_rules_keep_every_graph_of_enumerate_all(monkeypatch, r, cls, min_order):
    ruled = enumerate_all(r, cls, min_order=min_order)
    _without_core_rules(monkeypatch)
    assert ruled == enumerate_all(r, cls, min_order=min_order)
    assert ruled


def test_rank7_extremal_pair_frozen():
    """Frozen from two independent enumeration routes (core closure and direct
    level-9 generation): rank 7 admits TWO extremal graphs of order c(7) = 9,
    the constructed family member plus a second graph. See README "Findings";
    this is the point where extremal uniqueness fails.
    """
    rep = enumerate_extremal(7, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    assert rep.max_order == 9
    assert len(rep.extremal) == 2
    expected_c7 = to_graph6(canonical_graph(extremal_triangle_free(7).graph))
    assert expected_c7 in rep.extremal
    other = next(g6 for g6 in rep.extremal if g6 != expected_c7)
    g = from_graph6(other)
    assert g.n == 9
    assert rank_exact(adjacency_matrix(g)) == 7
    assert is_triangle_free(g) and is_reduced(g) and bipartition(g) is None
    assert not are_isomorphic(g, extremal_triangle_free(7).graph)
    assert sorted(g.degree(v) for v in range(9)) == [2, 2, 3, 3, 3, 3, 3, 3, 4]


def test_rank7_pair_confirmed_by_direct_generation():
    """Dual-route check of the rank-7 result: filtering ALL triangle-free
    9-vertex graphs (no core closure involved) finds the same two graphs."""
    rep = enumerate_extremal(7, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    direct = set()
    for g in graphs_of_order(9, GraphClass.TRIANGLE_FREE):
        if (
            is_reduced(g)
            and bipartition(g) is None
            and rank_exact(adjacency_matrix(g)) == 7
        ):
            direct.add(to_graph6(canonical_graph(g)))
    assert direct == set(rep.extremal)
    assert len(direct) == 2


def test_rank4_all_extremal_confirmed_by_direct_generation():
    """Both order-6 reduced rank-4 graphs are reported: filtering all graphs on
    6 and 7 vertices (no core closure involved) finds the same set."""
    rep = enumerate_extremal(4, GraphClass.ALL)
    assert rep.max_order == 6
    direct = {}
    for n in (6, 7):
        direct[n] = {
            to_graph6(canonical_graph(g))
            for g in graphs_of_order(n, GraphClass.ALL)
            if is_reduced(g) and rank_exact(adjacency_matrix(g)) == 4
        }
    assert direct[7] == set()
    assert len(direct[6]) == 2
    assert set(rep.extremal) == direct[6]


def test_assert_sound_survives_optimize_flag():
    src = str(Path(rankforge.__file__).resolve().parents[1])
    code = (
        "from rankforge.enumeration import GraphClass, _assert_sound\n"
        "from rankforge.graphs import InternalError, cycle_graph\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "try:\n"
        "    _assert_sound(cycle_graph(5), 4, GraphClass.ALL)\n"
        "except InternalError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised emitted graph has wrong rank"


def test_no_assert_statement_in_the_package():
    """Checks written as ``assert`` vanish under ``python -O``."""
    import ast

    package = Path(rankforge.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_assert_sound_names_each_failed_check():
    from rankforge.enumeration import _assert_sound
    from rankforge.graphs import InternalError, path_graph

    with pytest.raises(InternalError, match="emitted graph is not reduced"):
        _assert_sound(path_graph(3), 2, GraphClass.ALL)
    with pytest.raises(InternalError, match="emitted graph violates its class predicate"):
        _assert_sound(cycle_graph(5), 5, GraphClass.BIPARTITE)
    with pytest.raises(InternalError, match="emitted graph violates its class predicate"):
        _assert_sound(cycle_graph(3), 3, GraphClass.TRIANGLE_FREE)  # K3


def test_emitted_graphs_are_rechecked_after_canonicalization(monkeypatch):
    from rankforge import enumeration
    from rankforge.graphs import InternalError, cycle_graph

    # A wrong canonical form must not reach the output unchecked.
    monkeypatch.setattr(enumeration, "canonical_graph", lambda g: cycle_graph(5))
    with pytest.raises(InternalError, match="emitted graph has wrong rank"):
        enumeration.enumerate_all(6, GraphClass.BIPARTITE, min_order=8)
    with pytest.raises(InternalError, match="emitted graph has wrong rank"):
        enumerate_extremal(6, GraphClass.BIPARTITE)


def _check_orbit_walk(points, walk, orbit_of):
    """``walk`` is ``list(orbits(points, ...))``; ``orbit_of(x)`` is the
    brute-force orbit of x as a set."""
    covered = set()
    last = -1
    for i, orbit in walk:
        assert i > last  # input order
        last = i
        assert orbit[0] == points[i]
        assert len(set(orbit)) == len(orbit) and set(orbit) == orbit_of(points[i])
        assert not covered & set(orbit)  # each orbit is walked once
        # points[i] is the first point of the orbit that the input holds
        assert all(x not in orbit for x in points[:i])
        covered |= set(orbit)
    assert set(points) <= covered  # every orbit the points meet is walked


def test_orbit_walk_matches_the_closure_under_every_group_element():
    # Every triangle-free level form up to 7 vertices: vertex orbits on
    # range(n), and mask orbits on a shuffled half of all masks.
    rng = random.Random(11)
    for n in range(1, 8):
        for _, form in _level(GraphClass.TRIANGLE_FREE, n):
            group = group_elements(form.generators, n)
            gens = form.generators

            def vertex_orbit(v):
                return {p[v] for p in group}

            def mask_orbit(m):
                return {mask_of(p[v] for v in bits(m)) for p in group}

            points = list(range(n))
            _check_orbit_walk(points, list(orbits(points, gens)), vertex_orbit)
            masks = list(range(1 << n))
            rng.shuffle(masks)
            masks = masks[: len(masks) // 2 + 1]
            walk = list(orbits(masks, gens, permute_mask))
            _check_orbit_walk(masks, walk, mask_orbit)


def _per_core_sets(r, cls, extremal):
    """(core, sets) pairs as enumerate_all or enumerate_extremal emit them."""
    if not extremal:
        return [(core, all_extensions(core, cls)) for core in gen_cores(r, cls)]
    results = [(core, max_extension(core, cls)) for core in gen_cores(r, cls)]
    best = max(res.size for _, res in results)
    return [(core, res.optimal_sets) for core, res in results if res.size == best]


@pytest.mark.parametrize(
    "cls, extremal",
    [
        (GraphClass.BIPARTITE, False),
        (GraphClass.TRIANGLE_FREE, False),
        (GraphClass.TRIANGLE_FREE_NONBIPARTITE, True),
    ],
)
def test_one_completion_is_built_per_core_automorphism_orbit(monkeypatch, cls, extremal):
    from itertools import permutations

    from rankforge import enumeration
    from rankforge.graphs import relabel

    r = 6
    per_core = _per_core_sets(r, cls, extremal)
    # Reference: canonicalize every (core, set) pair.
    want = sorted(
        {to_graph6(canonical_graph(complete(c, s))) for c, sets in per_core for s in sets}
    )
    # Orbits of each core's automorphism group, applying every group element.
    orbits = 0
    for core, sets in per_core:
        group = group_elements(canonical_form(core.graph).generators, r)
        autos = [p for p in permutations(range(r)) if relabel(core.graph, p) == core.graph]
        assert group == set(autos)
        keys = {frozenset(c.vector for c in s) for s in sets}
        orbits += len(
            {min(tuple(sorted(mask_of(p[v] for v in bits(b)) for b in key)) for p in group)
             for key in keys}
        )
    assert orbits < sum(len(sets) for _, sets in per_core)

    real_complete = enumeration.complete
    built = 0

    def counting_complete(core, cands):
        nonlocal built
        built += 1
        return real_complete(core, cands)

    monkeypatch.setattr(enumeration, "complete", counting_complete)
    if extremal:
        got = list(enumerate_extremal(r, cls, jobs=1).extremal)
    else:
        got = [to_graph6(g) for g in enumeration.enumerate_all(r, cls)]
    assert got == want
    assert built == orbits


def test_a_core_generator_that_is_not_an_automorphism_is_an_internal_error(monkeypatch):
    from rankforge import enumeration
    from rankforge.graphs import InternalError, relabel

    real_gen_cores = enumeration.gen_cores

    def with_a_wrong_generator(r, cls):
        for core in real_gen_cores(r, cls):
            g = core.graph
            swaps = (
                tuple(j if v == i else i if v == j else v for v in range(g.n))
                for i in range(g.n)
                for j in range(i + 1, g.n)
            )
            wrong = next(p for p in swaps if relabel(g, p) != g)
            yield core._replace(generators=core.generators + (wrong,))

    monkeypatch.setattr(enumeration, "gen_cores", with_a_wrong_generator)
    with pytest.raises(InternalError, match="core generator is not an automorphism"):
        enumeration.enumerate_all(6, GraphClass.BIPARTITE)


def test_traced_names_resolve_on_enumeration():
    import importlib.util

    from rankforge import enumeration

    # A renamed name would otherwise break traced benchmark runs silently.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    if not path.is_file():
        pytest.skip("no perfbench/ next to the tests")
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [n for n in traced.TRACED if not callable(getattr(enumeration, n, None))]
    assert traced.TRACED and missing == []


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--rank", "7", "--class", "tfnb", "--jobs", "1"],
        ["verify", "--theorem", "bigen", "--r", "8", "--jobs", "1"],
    ],
    ids=["tfnb-r7", "bigen-r8"],
)
def test_traced_run_counts_what_its_output_states(tmp_path, argv):
    # perfbench/traced.py end to end: the run answers as an untraced run
    # does, and its spans count what that answer states.
    root = Path(__file__).resolve().parents[1]
    path = root / "perfbench" / "traced.py"
    if not path.is_file():
        pytest.skip("no perfbench/ next to the tests")
    spans_path = tmp_path / "spans.json"
    src = str(Path(rankforge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(path), str(spans_path), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    if argv[0] == "verify":
        assert proc.stdout.strip() == (
            f"PASS bigen r=8: 18 reduced bipartite rank-8 graphs of order > {c_bound(8)}; "
            "0 with minimum part != 4"
        )
        assert len({tuple(s[4]) for s in spans if s[0] == "canonical_graph"}) == 18
        return
    report = json.loads(proc.stdout)
    want = enumerate_extremal(7, GraphClass.TRIANGLE_FREE_NONBIPARTITE, jobs=1).to_payload()
    del report["elapsed_ms"], want["elapsed_ms"]
    assert report == want
    searches = [s[4] for s in spans if s[0] == "max_extension"]
    assert (len(searches), sum(c for _, c in searches), sum(n for n, _ in searches)) == (
        report["cores_processed"], report["candidates_total"], report["nodes_explored"]
    )


def test_determinism_across_job_counts():
    serial = enumerate_extremal(7, GraphClass.TRIANGLE_FREE_NONBIPARTITE, jobs=1)
    parallel = enumerate_extremal(7, GraphClass.TRIANGLE_FREE_NONBIPARTITE, jobs=2)
    assert serial.cores_processed > 1  # so the worker pool runs
    a = serial.to_payload()
    b = parallel.to_payload()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize(
    "r, cls, shards",
    [(6, GraphClass.BIPARTITE, 3), (9, GraphClass.TRIANGLE_FREE_NONBIPARTITE, 2)],
    ids=["bi-6", "tfnb-9"],
)
def test_sharding_and_merge(r, cls, shards):
    full = enumerate_extremal(r, cls)
    parts = [enumerate_extremal(r, cls, shards=shards, shard_index=i) for i in range(shards)]
    merged = merge_reports([p.to_payload() for p in parts])
    single = full.to_payload()
    del merged["elapsed_ms"], single["elapsed_ms"]
    assert merged == single
    with pytest.raises(ValueError):
        enumerate_extremal(6, GraphClass.BIPARTITE, shards=2, shard_index=5)


def test_merge_needs_shards_of_one_rank_and_class():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_reports([])
    parts = [enumerate_extremal(r, GraphClass.TRIANGLE_FREE).to_payload() for r in (4, 5)]
    with pytest.raises(ValueError, match="disagree on rank or class"):
        merge_reports(parts)


def test_merge_refuses_a_missing_repeated_or_foreign_shard():
    def shard(k, i):
        return enumerate_extremal(6, GraphClass.TRIANGLE_FREE, jobs=1, shards=k, shard_index=i)

    s0, s1 = (shard(2, i).to_payload() for i in range(2))
    assert (s1["shards"], s1["shard_index"]) == (2, 1)
    needs = r"merge needs shard indices 0\.\.1 once each: "
    with pytest.raises(ValueError, match=needs + r"missing \[1\], repeated \[0\]"):
        merge_reports([s0, s0])
    with pytest.raises(ValueError, match=needs + r"missing \[0\], repeated \[\]"):
        merge_reports([s1])
    with pytest.raises(ValueError, match=needs + r"missing \[\], repeated \[1\]"):
        merge_reports([s1, s0, s1])
    with pytest.raises(ValueError, match="disagree .* shard count"):
        merge_reports([s0, s1, shard(3, 2).to_payload()])
    merged = merge_reports([s1, s0])
    assert (merged["shards"], merged["shard_index"]) == (1, 0)


def test_the_pool_starts_no_more_workers_than_there_are_cores(monkeypatch):
    import multiprocessing

    requested = []

    class RecordingPool:
        # Records the worker count and runs the search in this process.
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    rep = enumerate_extremal(6, GraphClass.TRIANGLE_FREE, jobs=64)
    assert requested == [rep.cores_processed] == [8]
    enumerate_extremal(6, GraphClass.TRIANGLE_FREE, jobs=3)
    assert requested[1:] == [3]


@pytest.mark.parametrize("shards, shard_index", [(None, 0), (2, None)])
def test_shard_arguments_go_together(shards, shard_index):
    with pytest.raises(ValueError, match="given together"):
        enumerate_extremal(5, GraphClass.BIPARTITE, shards=shards, shard_index=shard_index)


def test_report_payload_roundtrip():
    rep = enumerate_extremal(5, GraphClass.TRIANGLE_FREE)
    payload = rep.to_payload()
    assert list(payload) == [
        "rank",
        "class",
        "shards",
        "shard_index",
        "max_order",
        "extremal",
        "cores_processed",
        "candidates_total",
        "nodes_explored",
        "elapsed_ms",
    ]
    assert report_from_payload(json.loads(json.dumps(payload))) == rep


@pytest.mark.parametrize(
    "r, cls, counters",
    [
        (7, GraphClass.ALL, (354, 2613, 16174)),
        (8, GraphClass.TRIANGLE_FREE, (74, 702, 3711)),
        (8, GraphClass.BIPARTITE, (43, 430, 2024)),
        (8, GraphClass.TRIANGLE_FREE_NONBIPARTITE, (31, 277, 1592)),
        (9, GraphClass.TRIANGLE_FREE_NONBIPARTITE, (135, 699, 2752)),
    ],
)
def test_report_counters_are_pinned(r, cls, counters):
    """The counters depend on the algorithm, not the machine: a change to
    core generation, candidate listing, the search order or its bound that
    moves them changes the algorithm."""
    rep = enumerate_extremal(r, cls, jobs=1)
    assert (rep.cores_processed, rep.candidates_total, rep.nodes_explored) == counters


@pytest.mark.parametrize(
    "change",
    [
        lambda p: [p],
        lambda p: {},
        lambda p: {k: v for k, v in p.items() if k != "class"},
        lambda p: {**p, "shard": 0},
        lambda p: {**p, "max_order": "7"},
        lambda p: {**p, "extremal": "Dhc"},
        lambda p: {**p, "nodes_explored": True},
        lambda p: {**p, "shard_index": 1},
        lambda p: {**p, "shard_index": -1},
        lambda p: {**p, "shards": 0},
        lambda p: {**p, "extremal": ["not graph6"]},
        lambda p: {**p, "class": "nope"},
        # C5 labeled along the cycle: the right graph, but not canonical ("DLo").
        lambda p: {**p, "extremal": [to_graph6(cycle_graph(5))]},
        lambda p: {**p, "max_order": 10},
    ],
    ids=["list", "empty", "no-class", "extra-key", "str-order", "str-extremal", "bool",
         "index-past-shards", "negative-index", "no-shards", "not-graph6", "unknown-class",
         "non-canonical", "wrong-order"],
)
def test_report_from_payload_rejects_other_shapes(change):
    payload = enumerate_extremal(5, GraphClass.TRIANGLE_FREE).to_payload()
    with pytest.raises(ValueError):
        report_from_payload(change(payload))
    with pytest.raises(ValueError):
        merge_reports([payload, change(payload)])


# ---------------------------------------------------------------------------
# Theorem checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", (5, 6, 8, 9))
def test_verify_main_small(r):
    res = verify_theorem("main", r)
    assert res.passed and res.report.max_order == c_bound(r)


def test_verify_main_rank7_counterexample():
    res = verify_theorem("main", 7)
    assert not res.passed
    assert res.counterexamples == ("H@Tcd?N",) and res.report.max_order == 9
    g = from_graph6(res.counterexamples[0])
    assert rank_exact(adjacency_matrix(g)) == 7 and g.n == 9


@pytest.mark.parametrize("r", (4, 6, 8))
def test_verify_bi(r):
    assert verify_theorem("bi", r).passed


@pytest.mark.parametrize("r", (6, 8))
def test_verify_bigen(r):
    res = verify_theorem("bigen", r)
    assert res.passed, res.message


def test_verify_remark():
    for r in (7, 9, 11):
        res = verify_theorem("remark", r)
        assert res.passed, res.message
    with pytest.raises(ValueError, match="odd rank only"):
        verify_theorem("remark", 8)
    with pytest.raises(ValueError, match=r"supported for r in \{7, 9, 11\}"):
        verify_theorem("remark", 5)


def test_verify_unknown():
    with pytest.raises(ValueError):
        verify_theorem("nope", 6)


def test_rank_guard_env_override(monkeypatch):
    from rankforge.enumeration import _rank_range_check, max_rank_guard

    assert max_rank_guard() == 9
    with pytest.raises(ValueError):
        _rank_range_check(11)
    monkeypatch.setenv("RANKFORGE_MAX_R", "11")
    assert max_rank_guard() == 11
    _rank_range_check(11)  # no longer raises
    monkeypatch.setenv("RANKFORGE_MAX_R", "7")
    assert max_rank_guard() == 9  # the variable raises the guard, never lowers it
    monkeypatch.setenv("RANKFORGE_MAX_R", "abc")
    with pytest.raises(ValueError, match="RANKFORGE_MAX_R must be an integer, got 'abc'"):
        max_rank_guard()


@pytest.mark.extended
@pytest.mark.parametrize(
    "cls, order, bound, graph",
    [
        (GraphClass.TRIANGLE_FREE_NONBIPARTITE, 29, c_bound, extremal_triangle_free(10).graph),
        (GraphClass.BIPARTITE, 36, b_bound, subset_incidence_graph(5)),
    ],
    ids=["tfnb", "bi"],
)
def test_rank10_has_one_extremal_graph_the_construction(monkeypatch, cls, order, bound, graph):
    """Rank 10 finishes: the extremal order is c(10) = 29, resp. b(10) = 36,
    and the construction is the only extremal graph; each emitted graph has
    rank 10 by Fraction elimination."""
    monkeypatch.setenv("RANKFORGE_MAX_R", "10")
    rep = enumerate_extremal(10, cls, jobs=2)
    assert rep.max_order == order == bound(10)
    assert rep.extremal == (to_graph6(canonical_graph(graph)),)
    for g6 in rep.extremal:
        g = from_graph6(g6)
        assert g.n == order and fraction_rank(adjacency_matrix(g)) == 10
