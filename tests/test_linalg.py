import random

import pytest

from rankforge.constructions import subset_incidence_graph
from rankforge.graphs import InternalError, bits, cycle_graph, path_graph
from rankforge.linalg import (
    SingularMatrixError,
    _exact_div,
    adjacency_matrix,
    adjugate,
    adjugate_solve,
    det_adjugate,
    det_exact,
    nonsingular_principal_core,
    principal_submatrix,
    rank_exact,
)

from conftest import combinations_masks, fraction_rank, gf2_rank, leibniz_det


def test_rank_examples(named_graphs):
    assert rank_exact(adjacency_matrix(path_graph(5))) == 4
    assert rank_exact(adjacency_matrix(cycle_graph(5))) == 5
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact(adjacency_matrix(named_graphs["B3"])) == 6


def test_rank_matches_fraction_oracle_and_transpose():
    rng = random.Random(4242)
    for _ in range(200):
        rows = rng.randint(1, 16)
        cols = rng.randint(1, 16)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
        r = rank_exact(m)
        assert r == fraction_rank(m)
        assert r == rank_exact(mt)


def test_rational_rank_at_least_gf2(reduced_corpus):
    for g in reduced_corpus[:200]:
        assert rank_exact(adjacency_matrix(g)) >= gf2_rank(list(g.adj))


def test_bipartite_graphs_have_even_rank(reduced_corpus):
    from rankforge.graphs import bipartition

    for g in reduced_corpus:
        if bipartition(g) is not None:
            assert rank_exact(adjacency_matrix(g)) % 2 == 0


def test_det_examples():
    assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det_exact([[0, 1], [1, 0]]) == -1
    a5 = adjacency_matrix(cycle_graph(5))
    assert det_exact(a5) == leibniz_det(a5) == 2
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_det_matches_leibniz_on_random():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == leibniz_det(m)


def test_adjugate_solve_examples():
    d, y = adjugate_solve([[1, 0], [0, 1]], [3, 1])
    assert (d, y) == (1, [3, 1])
    d, y = adjugate_solve([[0, 1], [1, 0]], [1, 0])
    assert (d, y) == (-1, [0, -1])
    a = adjacency_matrix(cycle_graph(5))
    d, y = adjugate_solve(a, [1] * 5)
    for i in range(5):
        assert sum(a[i][j] * y[j] for j in range(5)) == d
    with pytest.raises(SingularMatrixError):
        adjugate_solve([[1, 1], [1, 1]], [1, 0])


def test_adjugate_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        d = det_exact(a)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                adjugate(a)
            assert det_adjugate(a) == (0, None)
            continue
        adj = adjugate(a)
        assert det_adjugate(a) == (d, adj)
        for i in range(n):
            for j in range(n):
                got = sum(a[i][k] * adj[k][j] for k in range(n))
                assert got == (d if i == j else 0)


def test_adjugate_solve_identity_random_nonsingular():
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(1, 6)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det_exact(a) == 0:
            continue
        b = [rng.randint(-3, 3) for _ in range(n)]
        d, y = adjugate_solve(a, b)
        for i in range(n):
            assert sum(a[i][j] * y[j] for j in range(n)) == d * b[i]
        done += 1


def test_principal_core_examples():
    c5 = cycle_graph(5)
    assert nonsingular_principal_core(c5) == c5.vertices_mask
    p5 = path_graph(5)
    core = nonsingular_principal_core(p5)
    assert core.bit_count() == 4
    a = adjacency_matrix(p5)
    assert det_exact(principal_submatrix(a, bits(core))) != 0
    # brute-force cross-check: some 4x4 principal minor must be nonsingular
    assert any(
        det_exact(principal_submatrix(a, bits(m))) != 0
        for m in combinations_masks(5, 4)
    )
    b2 = subset_incidence_graph(2)
    assert nonsingular_principal_core(b2).bit_count() == 4


def test_principal_core_corpus(reduced_corpus):
    for g in reduced_corpus:
        a = adjacency_matrix(g)
        r = rank_exact(a)
        assert r == fraction_rank(a)
        core = nonsingular_principal_core(g)
        assert core.bit_count() == r
        assert det_exact(principal_submatrix(a, bits(core))) != 0


def test_rank_of_random_nonzero_entries():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert rank_exact(m) == fraction_rank(m)


def test_kernel_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2718)
    nonsingular = 0
    for trial in range(120):
        n = rng.randint(1, 10)
        if trial % 2:
            # symmetric 0/1, like an adjacency matrix (diagonal allowed)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(0, 1)
        else:
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        ref = sympy.Matrix(a)
        d = int(ref.det(method="berkowitz"))
        assert det_exact(a) == d
        assert rank_exact(a) == ref.rank()
        if d == 0:
            with pytest.raises(SingularMatrixError):
                adjugate(a)
            continue
        ref_adj = ref.inv(method="GE") * d  # rational Gauss-Jordan, not Bareiss
        assert adjugate(a) == ref_adj.tolist()
        b = [rng.randint(-3, 3) for _ in range(n)]
        assert adjugate_solve(a, b) == (d, list(ref_adj * sympy.Matrix(b)))
        nonsingular += 1
    assert 30 <= nonsingular < 120  # both branches are exercised


def test_inexact_division_is_an_internal_error():
    assert _exact_div(-12, 4) == -3
    with pytest.raises(InternalError):
        _exact_div(7, 2)
