import pytest

from rankforge.canonical import are_isomorphic, canonical_form, to_graph6
from rankforge.constructions import (
    LabeledConstruction,
    b_bound,
    bipartite_remark_graph,
    bounds,
    c_bound,
    extremal_triangle_free,
    extremal_triangle_free_recursive,
    incidence_graph,
    odd_subset_incidence_graph,
    subset_incidence_graph,
)
from rankforge.graphs import (
    CapacityError,
    bipartition,
    cycle_graph,
    independence_number,
    is_reduced,
    is_triangle_free,
    maximum_independent_sets,
    path_graph,
)
from rankforge.linalg import adjacency_matrix, rank_exact


def test_bounds_examples():
    t = bounds(6)
    assert t.bipartite_max_order == 10
    assert t.triangle_free_max_order == 9
    assert t.construction_order == 14
    assert t.max_order == 63
    assert bounds(10).triangle_free_max_order == 29
    t4 = bounds(4)
    assert (
        t4.triangle_free_max_order == t4.bipartite_max_order == t4.tree_max_order == 5
    )
    assert bounds(3).bipartite_max_order is None
    assert bounds(3).construction_order == 3
    with pytest.raises(ValueError):
        bounds(1)


def test_incidence_graph_examples():
    single = incidence_graph(1, [{0}])
    assert single.n == 2 and single.edge_count() == 1
    five_path = incidence_graph(2, [1, 2, 3])  # all nonempty subsets of {0, 1}
    assert are_isomorphic(five_path, path_graph(5))
    o3 = incidence_graph(3, [m for m in range(1, 8) if m.bit_count() % 2])
    assert o3.n == 7
    assert are_isomorphic(o3, odd_subset_incidence_graph(3))
    with pytest.raises(ValueError):
        incidence_graph(2, [1, 1])
    with pytest.raises(ValueError):
        incidence_graph(2, [4])


def test_subset_incidence_graph_properties():
    for n in range(1, 6):
        g = subset_incidence_graph(n)
        assert g.n == 2 ** n + n - 1 == b_bound(2 * n)
        assert is_reduced(g)
        assert bipartition(g) is not None
        assert rank_exact(adjacency_matrix(g)) == 2 * n
    assert subset_incidence_graph(1).edge_count() == 1
    assert subset_incidence_graph(2).n == 5
    assert rank_exact(adjacency_matrix(subset_incidence_graph(2))) == 4
    with pytest.raises(CapacityError):
        subset_incidence_graph(6)


def test_odd_subset_incidence_graph_properties():
    o2 = odd_subset_incidence_graph(2)
    assert sorted(o2.edges()) == [(0, 2), (1, 3)]  # two disjoint edges
    o4 = odd_subset_incidence_graph(4)
    assert o4.n == 4 + 8
    assert rank_exact(adjacency_matrix(o4)) == 8
    assert odd_subset_incidence_graph(1).edge_count() == 1
    for n in range(1, 6):
        g = odd_subset_incidence_graph(n)
        assert g.n == n + 2 ** (n - 1)
        assert bipartition(g) is not None


@pytest.mark.parametrize("r", range(4, 13))
def test_extremal_family_properties(r):
    built = extremal_triangle_free(r)
    g = built.graph
    assert g.n == c_bound(r)
    assert rank_exact(adjacency_matrix(g)) == r
    assert is_triangle_free(g)
    assert is_reduced(g)
    assert (bipartition(g) is None) == (r >= 5)
    rec = extremal_triangle_free_recursive(r)
    assert rec.n == g.n
    assert rank_exact(adjacency_matrix(rec)) == r
    assert canonical_form(g).cert == canonical_form(rec).cert


def test_extremal_family_examples():
    assert extremal_triangle_free(8).graph.n == 16
    assert are_isomorphic(extremal_triangle_free(5).graph, cycle_graph(5))
    assert are_isomorphic(extremal_triangle_free(4).graph, path_graph(5))
    g9 = extremal_triangle_free(9).graph
    assert g9.n == 16 and rank_exact(adjacency_matrix(g9)) == 9
    g10 = extremal_triangle_free_recursive(10)
    assert g10.n == 29 and rank_exact(adjacency_matrix(g10)) == 10
    with pytest.raises(ValueError):
        extremal_triangle_free(3)
    with pytest.raises(CapacityError):
        extremal_triangle_free(13)


def test_extremal_roles_cover_the_graph():
    for r in (6, 7, 8, 9):
        built = extremal_triangle_free(r)
        g = built.graph
        named = 0
        for key in ("x", "x_prime", "y", "z", "N_prime", "M_prime"):
            if key in built.roles:
                assert built.roles[key] & named == 0
                named |= built.roles[key]
        assert built.roles["ground"] | built.roles["family"] | named | (
            built.roles["N"] | built.roles["M"]
        ) == g.vertices_mask
        y = built.roles["y"].bit_length() - 1
        z = built.roles["z"].bit_length() - 1
        assert g.has_edge(y, z)


def test_rank_steps_by_two():
    ranks = {
        r: rank_exact(adjacency_matrix(extremal_triangle_free(r).graph))
        for r in range(4, 13)
    }
    for r in range(6, 13):
        assert ranks[r] == ranks[r - 2] + 2


@pytest.mark.parametrize("r", range(6, 13))
def test_independence_number_formula(r):
    g = extremal_triangle_free(r).graph
    expect = 3 * 2 ** (r // 2 - 2) - 1
    alpha, witness = independence_number(g)
    assert alpha == expect
    assert witness.bit_count() == alpha


# (alpha, witness) and the recursive build"s graph6, recorded before the two
# independent-set searches became one; the doubling step takes the witness.
FAMILY_ALPHA_WITNESS = {
    4: (3, 0x15),
    5: (2, 0x9),
    6: (5, 0x169),
    7: (5, 0x7c),
    8: (11, 0xbbf8),
    9: (11, 0x3ff8),
    10: (23, 0x17f7fff0),
    11: (23, 0x7fffff0),
    12: (47, 0x2fffefffffffe0),
}
SUBSET_INCIDENCE_ALPHA_WITNESS = {
    1: (1, 0x1),
    2: (3, 0x1c),
    3: (7, 0x3f8),
    4: (15, 0x7fff0),
    5: (31, 0xfffffffe0),
}
RECURSIVE_GRAPH6 = {
    4: "DhC",
    5: "Dhc",
    6: "HhD@S_@",
    7: "HhdId?@",
    8: "OhD@S_@OQcAOO??OTc??@",
    9: "OhdId?@QQaH?S??OSs??@",
    10: "\\hD@S_@OQcAOO??OTc??@OOHQ?_c@A?@?@?_OO?Ac??AO??O????O????C?DX}_?????C",
    11: "\\hdId?@QQaH?S??OSs??@QOHP?aO@A_@?@?_QO?Aa??H???S????O????C?DL}_?????C",
    12: (
        "uhD@S_@OQcAOO??OTc??@OOHQ?_c@A?@?@?_OO?Ac??AO??O????O????C?DX}_?????D@"
        "?_?Qc@??_c@??`??_?O?OG?CAA???_IO??A?C_??C?O???C??G??A???@??_?OOG???@Q?"
        "_????c@????A?@?????@?_????OO?????Ac??????AO??????O????????O????????C??"
        "????????_???jNv~y????????????G"
    ),
}


@pytest.mark.parametrize("r", range(4, 13))
def test_family_witness_and_recursive_build_are_pinned(r):
    assert independence_number(extremal_triangle_free(r).graph) == FAMILY_ALPHA_WITNESS[r]
    assert to_graph6(extremal_triangle_free_recursive(r)) == RECURSIVE_GRAPH6[r]


@pytest.mark.parametrize("k", range(1, 6))
def test_subset_incidence_witness_is_pinned(k):
    assert independence_number(subset_incidence_graph(k)) == SUBSET_INCIDENCE_ALPHA_WITNESS[k]


def test_maximum_independent_set_counts():
    # Frozen from two independent enumerations (library branch-and-bound and a
    # raw all-subsets scan): the rank-6 member has TWO maximum independent
    # sets; the unique-set property starts at rank 7. See README "Findings".
    counts = {
        r: len(maximum_independent_sets(extremal_triangle_free(r).graph))
        for r in range(6, 10)
    }
    assert counts == {6: 2, 7: 1, 8: 1, 9: 1}


@pytest.mark.parametrize("r", (10, 11, 12))
def test_uniqueness_by_degree_threshold(r):
    g = extremal_triangle_free(r).graph
    alpha, witness = independence_number(g)
    threshold = 2 ** (r // 2 - 2)
    # every vertex outside the witness has degree >= threshold, and any
    # independent set through such a vertex is smaller than alpha
    for v in range(g.n):
        if not witness >> v & 1:
            assert g.degree(v) >= threshold
    assert g.n - threshold < alpha


@pytest.mark.parametrize("r", (7, 9, 11))
def test_remark_graph(r):
    h = bipartite_remark_graph(r)
    assert h.n == c_bound(r - 1)
    assert is_reduced(h)
    parts = bipartition(h)
    assert parts is not None
    assert min(parts[0].bit_count(), parts[1].bit_count()) == (r + 1) // 2
    assert rank_exact(adjacency_matrix(h)) == r - 1


def test_remark_graph_guards():
    with pytest.raises(ValueError):
        bipartite_remark_graph(8)
    with pytest.raises(ValueError):
        bipartite_remark_graph(5)


def test_labeled_construction_is_a_record():
    built = extremal_triangle_free(6)
    assert isinstance(built, LabeledConstruction)
    assert built._fields == ("graph", "roles")
    assert built.roles["x"] == 1  # ground element 0
