import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankforge
from rankforge.canonical import (
    are_isomorphic,
    canonical_form,
    canonical_graph,
    from_graph6,
    to_graph6,
)
from rankforge.constructions import extremal_triangle_free, subset_incidence_graph
from rankforge.enumeration import (
    _HEREDITARY,
    GraphClass,
    _level,
    _subset_orbit_reps,
    all_extensions,
    candidates,
    compatible,
    complete,
    enumerate_extremal,
    gen_cores,
    graphs_of_order,
    max_extension,
    merge_reports,
    report_from_payload,
    verify_theorem,
)
from rankforge.graphs import (
    add_vertex,
    bipartition,
    bits,
    cycle_graph,
    is_reduced,
    is_triangle_free,
    mask_of,
    two_colouring,
)
from rankforge.linalg import adjacency_matrix, det_exact, rank_exact

from conftest import labeled_graphs


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
        gen = graphs_of_order(n, name)
        brute = {canonical_form(g).cert for g in labeled_graphs(n) if pred(g)}
        certs = {canonical_form(g).cert for g in gen}
        assert len(certs) == len(gen)  # no isomorph emitted twice
        assert certs == brute


@pytest.mark.parametrize("n", (6, 7, 8))
def test_generation_matches_dedup_oracle(n):
    gen = {canonical_form(g).cert for g in graphs_of_order(n, "triangle-free")}
    oracle = _dedup_oracle_level(is_triangle_free, n)
    assert gen == oracle


def test_generation_matches_dedup_oracle_nine_vertices():
    # covers the level the rank-7 finding lives on
    gen = {canonical_form(g).cert for g in graphs_of_order(9, "triangle-free")}
    oracle = _dedup_oracle_level(is_triangle_free, 9)
    assert gen == oracle


def test_triangle_free_counts_to_nine():
    # matches the published isomorph counts for triangle-free graphs
    got = [len(graphs_of_order(n, "triangle-free")) for n in range(1, 10)]
    assert got == [1, 2, 3, 7, 14, 38, 107, 410, 1897]


@pytest.mark.parametrize(
    "name,counts",
    [
        ("bipartite", [1, 2, 3, 7, 13, 35, 88, 303]),  # OEIS A033995
        ("all", [1, 2, 4, 11, 34, 156, 1044]),  # OEIS A000088
    ],
)
def test_published_counts_of_the_other_classes(name, counts):
    got = [len(graphs_of_order(n, name)) for n in range(1, len(counts) + 1)]
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
        gen = graphs_of_order(n, name)
        for g in gen:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            hits = [id(a) for a in buckets.get(wl(h), ()) if nx.is_isomorphic(h, a)]
            assert len(hits) == 1
            matched.add(hits[0])
        assert len(matched) == len(gen) == sum(len(b) for b in buckets.values())


@pytest.mark.parametrize(
    "name,top", [("all", 7), ("triangle-free", 8), ("bipartite", 7)]
)
def test_degree_pretest_rejects_only_what_the_orbit_test_rejects(name, top):
    # Reference: the level built with a full canonical labeling of every
    # child that passes the class predicate, as before the degree pre-test.
    pred = _HEREDITARY[name]
    for n in range(2, top + 1):
        accepted = []
        for parent, pform in _level(name, n - 1):
            for nb in _subset_orbit_reps(parent.n, pform.generators, 0):
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
                if passes:
                    accepted.append((child, cf))
        assert _level(name, n) == tuple(accepted)


def test_level_certificates_match_golden_digest():
    # SHA-256 over the certificate, labeling and generators of every
    # triangle-free and every bipartite graph on 8 vertices: graph6 output
    # and golden reports depend on them, so a speedup may not change them.
    h = hashlib.sha256()
    for name in ("triangle-free", "bipartite"):
        for _, cf in _level(name, 8):
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
    cands = candidates(core)
    rows = set(core.graph.adj)
    for cand in cands:
        assert cand.vector != 0
        assert cand.vector not in rows
        assert sum(cand.image[i] for i in bits(cand.vector)) == 0
        # image really is adjugate @ vector
        for j in range(5):
            assert cand.image[j] == sum(core.adjug[j][i] for i in bits(cand.vector))


def test_compatible_is_symmetric_and_matches_rank_oracle():
    for core in gen_cores(6, GraphClass.TRIANGLE_FREE):
        cands = candidates(core)
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
        for cand_set in all_extensions(core, GraphClass.TRIANGLE_FREE, max_size=2):
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


def test_colouring_helper_matches_bipartition(reduced_corpus):
    nx = pytest.importorskip("networkx")
    for g in reduced_corpus:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        colouring = two_colouring(g)
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
    for g in graphs_of_order(9, "triangle-free"):
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
            for g in graphs_of_order(n, "all")
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


def test_emitted_graphs_are_rechecked_after_canonicalization(monkeypatch):
    from rankforge import enumeration
    from rankforge.graphs import InternalError, cycle_graph

    # A wrong canonical form must not reach the output unchecked.
    monkeypatch.setattr(enumeration, "canonical_graph", lambda g: cycle_graph(5))
    with pytest.raises(InternalError, match="emitted graph has wrong rank"):
        enumeration.enumerate_all(6, GraphClass.BIPARTITE, min_order=8)
    with pytest.raises(InternalError, match="emitted graph has wrong rank"):
        enumerate_extremal(6, GraphClass.BIPARTITE)


def test_traced_names_resolve_on_enumeration():
    import importlib.util

    from rankforge import enumeration

    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [n for n in traced.TRACED if not callable(getattr(enumeration, n, None))]
    assert traced.TRACED and missing == []


def test_determinism_across_job_counts():
    serial = enumerate_extremal(6, GraphClass.TRIANGLE_FREE_NONBIPARTITE, jobs=1)
    parallel = enumerate_extremal(6, GraphClass.TRIANGLE_FREE_NONBIPARTITE, jobs=2)
    a = serial.to_payload()
    b = parallel.to_payload()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_sharding_and_merge():
    full = enumerate_extremal(6, GraphClass.BIPARTITE)
    parts = [
        enumerate_extremal(6, GraphClass.BIPARTITE, shards=3, shard_index=i)
        for i in range(3)
    ]
    merged = merge_reports([p.to_payload() for p in parts])
    assert merged["max_order"] == full.max_order
    assert tuple(merged["extremal"]) == full.extremal
    assert merged["cores_processed"] == full.cores_processed
    with pytest.raises(ValueError):
        enumerate_extremal(6, GraphClass.BIPARTITE, shards=2, shard_index=5)


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
        "max_order",
        "extremal",
        "cores_processed",
        "candidates_total",
        "nodes_explored",
        "elapsed_ms",
    ]
    assert report_from_payload(json.loads(json.dumps(payload))) == rep


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
    ],
    ids=["list", "empty", "no-class", "extra-key", "str-order", "str-extremal", "bool"],
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


def test_verify_main_small():
    assert verify_theorem("main", 6).passed
    res = verify_theorem("main", 5)
    assert res.passed and res.report.max_order == 5


def test_verify_main_rank7_counterexample():
    res = verify_theorem("main", 7)
    assert not res.passed
    assert len(res.counterexamples) == 1
    g = from_graph6(res.counterexamples[0])
    assert rank_exact(adjacency_matrix(g)) == 7 and g.n == 9


def test_verify_bi():
    assert verify_theorem("bi", 4).passed
    assert verify_theorem("bi", 6).passed


def test_verify_bigen_rank6():
    res = verify_theorem("bigen", 6)
    assert res.passed, res.message


def test_verify_remark():
    for r in (7, 9, 11):
        res = verify_theorem("remark", r)
        assert res.passed, res.message
    with pytest.raises(ValueError):
        verify_theorem("remark", 8)


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
