import math
import random
from collections import deque
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rankforge import canonical
from rankforge.canonical import (
    Graph6Error,
    _cert_bits,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    from_graph6,
    to_graph6,
)
from rankforge.constructions import extremal_triangle_free, subset_incidence_graph
from rankforge.enumeration import GraphClass, graphs_of_order
from rankforge.graphs import Graph, bits, cycle_graph, from_edges, mask_of, path_graph, relabel

from conftest import group_elements, random_graph


def brute_automorphisms(g):
    return [p for p in permutations(range(g.n)) if relabel(g, p) == g]


def test_cert_invariant_under_all_relabelings_of_c5():
    c5 = cycle_graph(5)
    cert = canonical_form(c5).cert
    for perm in permutations(range(5)):
        assert canonical_form(relabel(c5, perm)).cert == cert


def test_cert_invariant_random_permutations(named_graphs, reduced_corpus):
    rng = random.Random(31337)
    for g in named_graphs.values():
        cert = canonical_form(g).cert
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).cert == cert
    for g in reduced_corpus:
        cert = canonical_form(g).cert
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).cert == cert


def test_cert_distinguishes_path_and_cycle():
    assert canonical_form(path_graph(5)).cert != canonical_form(cycle_graph(5)).cert


def test_canonical_graph_is_fixed_point():
    for g in (path_graph(5), cycle_graph(6), subset_incidence_graph(3)):
        cg = canonical_graph(g)
        assert canonical_graph(cg) == cg
        assert are_isomorphic(g, cg)


def test_group_size_and_orbits_vs_brute_force():
    rng = random.Random(8)
    samples = [
        path_graph(5),
        cycle_graph(5),
        cycle_graph(6),
        Graph(5, (0,) * 5),
        from_edges(6, [(0, 1), (2, 3), (4, 5)]),
        from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    for _ in range(40):
        n = rng.randint(1, 7)
        samples.append(random_graph(rng, n, rng.choice([0.2, 0.5, 0.8])))
    for g in samples:
        cf = canonical_form(g)
        autos = brute_automorphisms(g)
        # the generators generate exactly the automorphism group
        assert group_elements(cf.generators, g.n) == set(autos)
        # orbit label of v = minimum image of v over the automorphism group
        for v in range(g.n):
            assert cf.orbits[v] == min(p[v] for p in autos)


def test_group_size_known_values():
    def group_size(g):
        return len(group_elements(canonical_form(g).generators, g.n))

    assert group_size(cycle_graph(5)) == 10
    assert group_size(path_graph(5)) == 2
    assert group_size(Graph(6, (0,) * 6)) == math.factorial(6)
    assert group_size(subset_incidence_graph(4)) == 24
    empty = canonical_form(Graph(0, ()))
    assert (empty.cert, empty.labeling, empty.generators) == (b"", (), ())
    assert group_size(Graph(0, ())) == 1
    assert canonical_graph(Graph(0, ())) == Graph(0, ())


def test_are_isomorphic_examples():
    from rankforge.constructions import extremal_triangle_free_recursive

    assert are_isomorphic(
        extremal_triangle_free(7).graph, extremal_triangle_free_recursive(7)
    )
    assert are_isomorphic(subset_incidence_graph(2), path_graph(5))
    assert not are_isomorphic(
        extremal_triangle_free(8).graph, subset_incidence_graph(4)
    )


def test_are_isomorphic_equivalence(reduced_corpus):
    rng = random.Random(3)
    for g in reduced_corpus[:30]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert are_isomorphic(g, g)
        assert are_isomorphic(g, h) and are_isomorphic(h, g)


def test_graph6_hand_encoded():
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(Graph(0, ())) == "?"
    assert to_graph6(Graph(1, (0,))) == "@"
    assert from_graph6("A_") == from_edges(2, [(0, 1)])
    assert from_graph6("?") == Graph(0, ())


def test_graph6_roundtrip(reduced_corpus, named_graphs):
    for g in list(named_graphs.values()) + reduced_corpus:
        assert from_graph6(to_graph6(g)) == g


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.randoms(use_true_random=False))
def test_graph6_roundtrip_random(n, rnd):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5]
    g = from_edges(n, edges)
    assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("A")  # missing data byte
    with pytest.raises(Graph6Error):
        from_graph6("A_~")  # trailing junk
    with pytest.raises(Graph6Error):
        from_graph6("~??")  # long form
    with pytest.raises(Graph6Error):
        from_graph6("B" + chr(30))  # byte out of range
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(63 + 1))  # nonzero padding for n=2
    with pytest.raises(Graph6Error):
        to_graph6(Graph(63, (0,) * 63))


def test_graph6_optional_header():
    assert from_graph6(">>graph6<<A_") == from_edges(2, [(0, 1)])


def _cert_bits_reference(adj, perm, n):
    """Bit-by-bit upper triangle of the relabeled adjacency, MSB-first."""
    inv = [0] * n
    for v, p in enumerate(perm):
        inv[p] = v
    out = bytearray()
    acc = nbits = 0
    for i in range(n):
        for j in range(i + 1, n):
            acc = (acc << 1) | (adj[inv[i]] >> inv[j] & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def test_packed_cert_matches_bitwise_reference():
    rng = random.Random(2024)
    for _ in range(600):
        n = rng.randint(0, 20)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert _cert_bits(g.adj, tuple(perm), n) == _cert_bits_reference(g.adj, perm, n)


def _refine_reference(adj, cells):
    """Equitable refinement on vertex lists that queues every cell and every
    subcell, first in first out, with no pass skipped."""
    queue = deque(mask_of(c) for c in cells)
    while queue:
        splitter = queue.popleft()
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            for key in sorted(groups):
                new_cells.append(groups[key])
                queue.append(mask_of(groups[key]))
        if changed:
            cells = new_cells
    return cells


def test_refinement_matches_the_reference_that_queues_every_cell(monkeypatch):
    # Skipped splitter passes must leave every ordered partition, and so every
    # certificate, as the reference that runs them all produces it.
    graphs = [g for n in range(1, 9) for g in graphs_of_order(n, GraphClass.TRIANGLE_FREE)]
    rng = random.Random(1301)
    graphs += [random_graph(rng, rng.randint(2, 16), rng.random()) for _ in range(300)]
    real = canonical._refine
    calls = 0

    def checked(adj, cells, splitters):
        nonlocal calls
        calls += 1
        got = real(adj, cells, splitters)
        want = _refine_reference(adj, [list(bits(c)) for c in cells])
        assert [list(bits(c)) for c in got] == want
        return got

    monkeypatch.setattr(canonical, "_refine", checked)
    for g in graphs:
        canonical_form(g)
    assert calls > len(graphs)
