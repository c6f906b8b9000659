import pytest

from rankforge import structure
from rankforge.graphs import (
    InternalError,
    bits,
    cycle_graph,
    from_edges,
    induced_subgraph,
    is_reduced,
    mask_of,
    path_graph,
)
from rankforge.linalg import adjacency_matrix, rank_exact
from rankforge.constructions import extremal_triangle_free
from rankforge.structure import (
    StructureReport,
    Verdict,
    max_subgraph_below_rank,
    obstruction_free,
    rank_drop_neighborhood,
    rank_drop_symdiff,
)


def test_structure_report_has_no_shared_verdicts_default():
    with pytest.raises(TypeError):
        StructureReport(
            host=cycle_graph(5), gap=1, h_vertices=0, rank_g=0, rank_h=0,
            duplication_pairs=(), isolated_count=0, t1=0, t2=0,
        )


def test_rank_drop_neighborhood_examples():
    c5 = cycle_graph(5)
    for v in range(5):
        lhs, rhs, holds = rank_drop_neighborhood(c5, v)
        assert (lhs, rhs, holds) == (2, 3, True)
    c8 = extremal_triangle_free(8)
    y = c8.roles["y"].bit_length() - 1
    assert rank_drop_neighborhood(c8.graph, y)[2]
    p5 = path_graph(5)
    assert rank_drop_neighborhood(p5, 0)[2]
    with pytest.raises(ValueError):
        rank_drop_neighborhood(from_edges(3, [(0, 1)]), 0)  # not reduced


def test_rank_drop_symdiff_examples():
    p5 = path_graph(5)
    assert rank_drop_symdiff(p5, 0, 2)[2]
    c6 = cycle_graph(6)
    for u in range(6):
        for v in range(u + 1, 6):
            if not c6.has_edge(u, v):
                assert rank_drop_symdiff(c6, u, v)[2]
    assert rank_drop_symdiff(cycle_graph(5), 0, 2)[2]
    with pytest.raises(ValueError):
        rank_drop_symdiff(p5, 0, 1)  # adjacent
    with pytest.raises(ValueError):
        rank_drop_symdiff(p5, 2, 2)


@pytest.mark.parametrize("u", (-1, 9))
def test_rank_drop_symdiff_rejects_a_vertex_out_of_range(u):
    with pytest.raises(IndexError):
        rank_drop_symdiff(path_graph(5), u, 2)


def test_rank_drop_universal_over_corpus(reduced_corpus):
    for g in reduced_corpus:
        rank_g = rank_exact(adjacency_matrix(g))
        for v in range(g.n):
            lhs, rhs, holds = rank_drop_neighborhood(g, v)
            assert holds, (g, v, lhs, rhs)
            assert rhs == rank_g - 2
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert rank_drop_symdiff(g, u, v)[2], (g, u, v)


def test_max_subgraph_path5_gap1():
    # Exhaustive oracle over the 5-path: deleting either degree-2 neighbor of
    # an endpoint gives order 4 and rank 2; the lexicographically smallest
    # kept set is {0,1,2,4} (drop vertex 3).
    report = max_subgraph_below_rank(path_graph(5), 1)
    assert sorted(bits(report.h_vertices)) == [0, 1, 2, 4]
    assert report.rank_h == 2 and report.rank_g == 4
    assert report.isolated_count == 1
    # the isolated vertex of H is the endpoint 4 and its neighborhood is the deleted set
    assert report.verdicts["isolated_neighborhood"].ok
    assert all(v.ok for v in report.verdicts.values())


def test_max_subgraph_cycle5():
    # gap 1: any 4-path keeps rank 4 < 5; gap 2 needs dropping to 3 vertices.
    gap1 = max_subgraph_below_rank(cycle_graph(5), 1)
    assert gap1.h_vertices.bit_count() == 4
    assert gap1.rank_h == 4
    assert gap1.verdicts["rank_floor"].ok
    gap2 = max_subgraph_below_rank(cycle_graph(5), 2)
    assert gap2.h_vertices.bit_count() == 3
    assert gap2.rank_h == 2
    assert gap2.verdicts["rank_floor"].ok  # rank_h >= rank_g - 3


def test_max_subgraph_without_a_report_is_an_internal_error(monkeypatch):
    # The rank-drop lemma guarantees a report; its absence is a program fault.
    monkeypatch.setattr(structure, "iter_max_subgraph_reports", lambda g, gap: iter(()))
    with pytest.raises(InternalError):
        max_subgraph_below_rank(cycle_graph(5), 1)


def test_max_subgraph_rejects_non_reduced():
    with pytest.raises(ValueError):
        max_subgraph_below_rank(from_edges(3, [(0, 1)]), 1)
    with pytest.raises(ValueError):
        max_subgraph_below_rank(path_graph(5), 3)


def test_gap1_reports_over_corpus(reduced_corpus):
    for g in reduced_corpus:
        if g.n > 12:
            continue
        report = max_subgraph_below_rank(g, 1)
        assert report.rank_h in (report.rank_g - 1, report.rank_g - 2)
        if not is_reduced(_induced(g, report.h_vertices)):
            assert report.rank_h == report.rank_g - 2
        assert all(v.ok for v in report.verdicts.values()), report.verdicts
        assert obstruction_free(report)


def test_gap2_reports_over_corpus(reduced_corpus):
    for g in reduced_corpus:
        if g.n > 12:
            continue
        report = max_subgraph_below_rank(g, 2)
        assert report.rank_h >= report.rank_g - 3
        assert report.rank_h <= report.rank_g - 2
        assert all(v.ok for v in report.verdicts.values()), report.verdicts
        assert obstruction_free(report)


def _induced(g, keep):
    from rankforge.graphs import induced_subgraph

    return induced_subgraph(g, keep)


def test_random_maximal_ties_satisfy_the_lemma(reduced_corpus):
    """The lemma quantifies over ANY maximum-order subgraph; spot-check up to
    three random ties per graph beyond the tie-break winner."""
    import random

    from rankforge.structure import iter_max_subgraph_reports

    rng = random.Random(2024)
    for g in reduced_corpus[:60]:
        if g.n > 11:
            continue
        reports = list(iter_max_subgraph_reports(g, 1))
        sample = reports[:1] + rng.sample(reports[1:], min(3, len(reports) - 1))
        for report in sample:
            assert all(v.ok for v in report.verdicts.values()), report.to_payload()
            assert obstruction_free(report)


def test_deletion_bound_numeric(reduced_corpus):
    for g in reduced_corpus[:150]:
        if g.n > 12:
            continue
        report = max_subgraph_below_rank(g, 1)
        t = report.deleted().bit_count()
        for v in range(g.n):
            assert t <= g.degree(v)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert t <= (g.adj[u] ^ g.adj[v]).bit_count()


def test_obstruction_detected_on_handbuilt_pattern():
    # Two twin pairs in H = {v1, v1'} = {0, 1} over filler 4, {v2, v2'} = {2, 3}
    # over filler 5; deleted vertices 6, 7 agree on the first pair but split
    # the second: exactly the forbidden principal-submatrix pattern.
    g = from_edges(
        8,
        [
            (0, 4), (1, 4), (2, 5), (3, 5),
            (6, 0), (6, 2),
            (7, 0), (7, 3),
        ],
    )
    report = StructureReport(
        host=g,
        gap=1,
        h_vertices=mask_of(range(6)),
        rank_g=0,
        rank_h=0,
        duplication_pairs=((0, 1), (2, 3)),
        isolated_count=0,
        t1=mask_of((6, 7)),
        t2=0,
        verdicts={},
    )
    assert not obstruction_free(report)
    # with a single deleted vertex the pattern cannot appear
    solo = StructureReport(
        host=g,
        gap=1,
        h_vertices=mask_of(range(7)),
        rank_g=0,
        rank_h=0,
        duplication_pairs=((0, 1), (2, 3)),
        isolated_count=0,
        t1=1 << 7,
        t2=0,
        verdicts={},
    )
    assert obstruction_free(solo)


def test_labeling_failures_name_their_witness():
    # Twin pairs {0, 1} over filler 4 and {2, 3} over filler 5, as above.
    g = from_edges(
        8,
        [
            (0, 4), (1, 4), (2, 5), (3, 5),
            (6, 0), (6, 2),
            (7, 0), (7, 1), (7, 3),
        ],
    )
    classes = [[0, 1], [2, 3]]
    # 7 hits both members of the first pair
    assert structure._label_deleted(g, classes, mask_of((6, 7))) == (
        ((0, 1), (2, 3)),
        0,
        0,
        Verdict(ok=False, witness="deleted vertex 7 hits 2 members of class {0,1}"),
    )
    # 6 and 7 hit one member of each pair, but 6 hits both first members
    # and 7 only one: the patterns are neither equal nor complements.
    g = from_edges(
        8,
        [
            (0, 4), (1, 4), (2, 5), (3, 5),
            (6, 0), (6, 2),
            (7, 0), (7, 3),
        ],
    )
    assert structure._label_deleted(g, classes, mask_of((6, 7))) == (
        ((0, 1), (2, 3)),
        0,
        0,
        Verdict(ok=False, witness="incompatible hit patterns [(1, 0), (1, 1)]"),
    )


def test_isolated_vertex_with_another_neighborhood_fails_its_verdict():
    # Path 0-1-2-3-4 without {1, 2}: 0 is isolated in H, but N(0) = {1}.
    g = path_graph(5)
    keep = mask_of((0, 3, 4))
    sub = induced_subgraph(g, keep)
    report = structure._build_report(g, 1, keep, sub, 4, 2, 2)
    assert report.verdicts["isolated_neighborhood"] == Verdict(
        ok=False, witness="isolated vertex 0 has N(w) != deleted set"
    )


def test_report_payload_shape():
    report = max_subgraph_below_rank(path_graph(5), 1)
    payload = report.to_payload()
    assert list(payload) == [
        "gap",
        "host",
        "h_vertices",
        "rank_g",
        "rank_h",
        "duplication_pairs",
        "isolated_count",
        "t1",
        "t2",
        "verdicts",
    ]
    assert isinstance(report.verdicts["rank_floor"], Verdict)
