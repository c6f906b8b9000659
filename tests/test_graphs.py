import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from rankforge.graphs import (
    CapExceededError,
    Graph,
    bipartition,
    bits,
    cycle_graph,
    duplication_classes,
    from_edges,
    independence_number,
    induced_subgraph,
    is_reduced,
    is_triangle_free,
    mask_of,
    maximum_independent_sets,
    path_graph,
    permute_mask,
    reduce_graph,
    relabel,
    symmetric_difference,
)
from rankforge.constructions import extremal_triangle_free
from rankforge.linalg import adjacency_matrix, rank_exact

from conftest import brute_independence, random_graph


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return from_edges(n, edges)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # out of range


@pytest.mark.parametrize(
    "n, rows, message",
    [(2, (0b10, 0b00), "asymmetric"), (1, (0b1,), "self-loop")],
    ids=["asymmetric", "self-loop"],
)
def test_every_way_to_build_a_graph_checks_it(n, rows, message):
    # An unchecked instance, made by going around Graph.__new__, stands in for
    # a bad pickle: unpickling and copying must rebuild it through the checks.
    # Protocols 0 and 1 rebuild a tuple subclass without __new__; copying and
    # multiprocessing use later ones.
    forged = tuple.__new__(Graph, (n, rows))
    ways = {
        "positional": lambda: Graph(n, rows),
        "keyword": lambda: Graph(n=n, adj=rows),
        "_make": lambda: Graph._make((n, rows)),
        "_replace": lambda: Graph(n, (0,) * n)._replace(adj=rows),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
    }
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        ways[f"pickle {protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(forged, p))
    for name, build in ways.items():
        with pytest.raises(ValueError, match=message):
            build()
            pytest.fail(f"{name} built an unchecked graph")


def test_a_graph_survives_pickling_unchanged():
    g = extremal_triangle_free(8).graph
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(g, protocol))
        assert type(back) is Graph and back == g
    assert g._replace(n=g.n) == g


def test_graph_rejects_every_single_row_bit_flip():
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        assert Graph(n, g.adj) == g
        v, u = rng.sample(range(n), 2)
        rows = list(g.adj)
        rows[v] ^= 1 << u
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(n, tuple(rows))


def test_symmetric_difference_examples():
    c5 = cycle_graph(5)
    # adjacent pair on the 5-cycle: N(0)={1,4}, N(1)={0,2}
    assert symmetric_difference(c5, 0, 1) == mask_of((0, 1, 2, 4))
    assert symmetric_difference(c5, 2, 2) == 0
    twins = from_edges(3, [(0, 2), (1, 2)])
    assert symmetric_difference(twins, 0, 1) == 0
    with pytest.raises(IndexError):
        symmetric_difference(c5, 0, 9)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_symmetric_difference_identity(g):
    for u in range(g.n):
        for v in range(g.n):
            lhs = symmetric_difference(g, u, v).bit_count()
            inter = (g.adj[u] & g.adj[v]).bit_count()
            assert lhs == g.degree(u) + g.degree(v) - 2 * inter


def test_triangle_free_examples():
    assert is_triangle_free(cycle_graph(5))
    assert not is_triangle_free(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_triangle_free(extremal_triangle_free(8).graph)


def test_bipartition_examples(named_graphs):
    parts = bipartition(named_graphs["B3"])
    assert parts is not None
    assert sorted((parts[0].bit_count(), parts[1].bit_count())) == [3, 7]
    assert bipartition(cycle_graph(5)) is None
    edgeless = Graph(4, (0, 0, 0, 0))
    assert bipartition(edgeless) == (0b1111, 0)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_bipartition_witnesses(g):
    parts = bipartition(g)
    if parts is not None:
        first, second = parts
        assert first | second == g.vertices_mask and first & second == 0
        for v in bits(first):
            assert g.adj[v] & first == 0
        for v in bits(second):
            assert g.adj[v] & second == 0
        # the smallest vertex of every component lies in the first part
        seen = 0
        for smallest in range(g.n):
            if seen >> smallest & 1:
                continue
            component = frontier = 1 << smallest
            while frontier:
                for v in bits(frontier):
                    frontier |= g.adj[v]
                frontier &= ~component
                component |= frontier
            seen |= component
            assert first >> smallest & 1
    else:
        # no 2-colouring of all vertices leaves every edge bichromatic
        for side in range(1 << g.n):
            assert any(g.adj[v] & side for v in bits(side)) or any(
                g.adj[v] & ~side for v in bits(g.vertices_mask & ~side)
            )


def test_duplication_classes_examples():
    c8 = extremal_triangle_free(8).graph
    assert duplication_classes(c8) == []
    cherry = from_edges(3, [(0, 2), (1, 2)])
    assert duplication_classes(cherry) == [0b011]
    edgeless = Graph(3, (0, 0, 0))
    assert duplication_classes(edgeless) == [0b111]


def test_is_reduced_examples(named_graphs):
    assert is_reduced(path_graph(5))
    with_isolated = from_edges(3, [(0, 1)])
    assert not is_reduced(with_isolated)
    for n in range(1, 6):
        from rankforge.constructions import subset_incidence_graph

        assert is_reduced(subset_incidence_graph(n))


def test_reduce_examples():
    import random

    from rankforge.canonical import are_isomorphic
    from rankforge.graphs import add_vertex

    c8 = extremal_triangle_free(8).graph
    duplicated = add_vertex(c8, c8.adj[0])
    assert are_isomorphic(reduce_graph(duplicated), c8)
    edgeless = Graph(4, (0, 0, 0, 0))
    assert reduce_graph(edgeless) == Graph(0, ())
    # rank is preserved by reduction after deleting a vertex of C7
    c7 = extremal_triangle_free(7)
    y = c7.roles["y"].bit_length() - 1
    g = induced_subgraph(c7.graph, c7.graph.vertices_mask & ~(1 << y))
    assert rank_exact(adjacency_matrix(reduce_graph(g))) == rank_exact(
        adjacency_matrix(g)
    )


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_reduce_idempotent_and_reduced(g):
    r = reduce_graph(g)
    assert reduce_graph(r) == r
    assert is_reduced(r) or r.n == 0


def test_reduce_preserves_rank():
    import random

    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6]))
        assert rank_exact(adjacency_matrix(reduce_graph(g))) == rank_exact(
            adjacency_matrix(g)
        )


def test_independence_number_examples():
    assert independence_number(extremal_triangle_free(8).graph)[0] == 11
    assert independence_number(cycle_graph(5))[0] == 2
    assert independence_number(extremal_triangle_free(10).graph)[0] == 23


def test_independence_number_vs_brute_force(reduced_corpus):
    for g in reduced_corpus:
        if g.n > 10:
            continue
        alpha, witness = independence_number(g)
        brute_alpha, brute_sets = brute_independence(g)
        assert alpha == brute_alpha
        assert witness in brute_sets
        for v in bits(witness):
            assert g.adj[v] & witness == 0


def test_maximum_independent_sets_examples():
    c8 = extremal_triangle_free(8).graph
    assert len(maximum_independent_sets(c8)) == 1
    c5_sets = maximum_independent_sets(cycle_graph(5))
    assert len(c5_sets) == 5 and all(m.bit_count() == 2 for m in c5_sets)
    p5_sets = maximum_independent_sets(path_graph(5))
    assert p5_sets == [mask_of((0, 2, 4))]


def test_maximum_independent_sets_vs_brute(reduced_corpus):
    for g in reduced_corpus[:80]:
        if g.n > 10:
            continue
        _, brute_sets = brute_independence(g)
        found = maximum_independent_sets(g)
        assert set(found) == set(brute_sets)
        keys = [tuple(bits(m)) for m in found]
        assert keys == sorted(keys)  # lexicographic by vertex tuple


def test_maximum_independent_sets_cap():
    edgeless = Graph(8, (0,) * 8)  # the single maximum set is everything
    assert maximum_independent_sets(edgeless) == [0xFF]
    matching = from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])  # 2^4 maximum sets
    assert len(maximum_independent_sets(matching)) == 16
    with pytest.raises(CapExceededError) as exc:
        maximum_independent_sets(matching, cap=2)
    assert exc.value.partial_count == 3
    with pytest.raises(CapExceededError):  # the empty set is the one maximum set
        maximum_independent_sets(Graph(0, ()), cap=0)


def test_smaller_sets_beyond_the_cap_do_not_count():
    # Complete multipartite: five parts of two, then one part of three. The
    # five pairs are maximal independent sets, and their vertices have the
    # larger degree, so the search meets more than ``cap`` of them before the
    # one maximum set.
    parts = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11, 12)]
    edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:] for u in a for v in b]
    g = from_edges(13, edges)
    _, brute_sets = brute_independence(g)
    assert maximum_independent_sets(g, cap=2) == brute_sets == [mask_of(parts[-1])]


def test_induced_subgraph_examples():
    p5 = path_graph(5)
    assert induced_subgraph(p5, p5.vertices_mask) == p5
    minus_middle = induced_subgraph(p5, p5.vertices_mask & ~(1 << 2))
    assert sorted(minus_middle.edges()) == [(0, 1), (2, 3)]
    c8 = extremal_triangle_free(8)
    y = c8.roles["y"].bit_length() - 1
    rest = induced_subgraph(c8.graph, c8.graph.vertices_mask & ~c8.graph.adj[y])
    assert rank_exact(adjacency_matrix(rest)) <= 6


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_relabel_preserves_structure(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert h.edge_count() == g.edge_count()
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(
        g.degree(v) for v in range(g.n)
    )


def test_permute_mask_is_the_image_of_each_member():
    rng = random.Random(7)
    for n in range(0, 12):
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            for mask in (0, (1 << n) - 1, rng.getrandbits(n)):
                assert permute_mask(perm, mask) == mask_of(perm[v] for v in bits(mask))
    # a table serves as the map too: bit b of the mask goes to bit table[b]
    table = [3, 0, 5, 1]
    assert permute_mask(table, 0b1011) == mask_of([3, 0, 1])
