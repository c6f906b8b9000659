"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 2 and 4 assert the verified extremal facts of README "Findings",
each checked by an independent oracle from `conftest.py` rather than taken
from the report alone:
  * criterion 2: the rank-6 family member has two maximum independent sets and
    the members of ranks 7, 8, 9 have one each, so uniqueness of the maximum
    independent set starts at rank 7 (all-subsets scan);
  * criterion 4: ranks 5, 6 and 8 have the family member as their only
    extremal graph, while rank 7 has two of order c(7) = 9, so extremal
    uniqueness fails at exactly rank 7. The second graph is built from an
    explicit edge list and its rank is checked by Fraction elimination.
"""
import random

import pytest

from rankforge.canonical import canonical_form, canonical_graph, to_graph6
from rankforge.codes import (
    EQUALITY_NONE,
    BinaryCode,
    min_distance,
    plotkin_bound_check,
    rowspace_distance2_bound,
    rowspace_distance2_max,
    singleton_verify,
)
from rankforge.constructions import (
    b_bound,
    bipartite_remark_graph,
    c_bound,
    extremal_triangle_free,
    extremal_triangle_free_recursive,
    subset_incidence_graph,
)
from rankforge.enumeration import GraphClass, enumerate_all, enumerate_extremal
from rankforge.graphs import (
    bipartition,
    from_edges,
    independence_number,
    is_connected,
    is_reduced,
    is_triangle_free,
    maximum_independent_sets,
)
from rankforge.linalg import adjacency_matrix, adjugate_solve, det_exact, rank_exact
from rankforge.structure import rank_drop_neighborhood, rank_drop_symdiff

from conftest import (
    all_independent_sets,
    brute_independence,
    fraction_rank,
    labeled_graphs,
)
from test_codes import _random_hypothesis_code


def _line(ok: bool, text: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {text}")
    return ok


def test_criterion_01_construction_suite():
    ok = True
    for r in range(4, 13):
        built = extremal_triangle_free(r)
        g = built.graph
        rec = extremal_triangle_free_recursive(r)
        good = (
            g.n == c_bound(r)
            and rank_exact(adjacency_matrix(g)) == r
            and is_triangle_free(g)
            and is_reduced(g)
            and (bipartition(g) is None) == (r >= 5)
            and canonical_form(g).cert == canonical_form(rec).cert
        )
        ok = ok and good
    ok = ok and c_bound(8) == 16 and c_bound(10) == 29
    assert _line(ok, "criterion 1: construction suite, ranks 4..12 exact")


# Maximum-independent-set counts of the family member (README "Findings"):
# two at rank 6, one from rank 7 on.
MIS_COUNTS = {6: 2, 7: 1, 8: 1, 9: 1}


def test_criterion_02_independence_suite():
    formula_ok = True
    for r in range(6, 13):
        g = extremal_triangle_free(r).graph
        if independence_number(g)[0] != 3 * 2 ** (r // 2 - 2) - 1:
            formula_ok = False
    _line(formula_ok, "criterion 2a: independence number formula, ranks 6..12")

    degree_ok = True
    for r in (10, 11, 12):
        g = extremal_triangle_free(r).graph
        alpha, witness = independence_number(g)
        threshold = 2 ** (r // 2 - 2)
        if g.n - threshold >= alpha:
            degree_ok = False
        for v in range(g.n):
            if not witness >> v & 1 and g.degree(v) < threshold:
                degree_ok = False
    _line(degree_ok, "criterion 2b: degree-threshold uniqueness certificate, ranks 10..12")

    found = {
        r: sorted(maximum_independent_sets(extremal_triangle_free(r).graph))
        for r in MIS_COUNTS
    }
    scanned = {
        r: sorted(brute_independence(extremal_triangle_free(r).graph)[1])
        for r in MIS_COUNTS
    }
    counts = {r: len(sets) for r, sets in found.items()}
    scanned_counts = {r: len(sets) for r, sets in scanned.items()}
    counts_ok = counts == MIS_COUNTS and found == scanned
    _line(
        counts_ok,
        f"criterion 2c: maximum-independent-set counts {counts} by full "
        f"enumeration, ranks 6..9 (expected {MIS_COUNTS}, all-subsets scan "
        f"{scanned_counts})",
    )
    assert formula_ok and degree_ok
    assert counts_ok, (
        f"maximum-independent-set counts {counts}, all-subsets scan counts "
        f"{scanned_counts}, expected {MIS_COUNTS}: "
        "the rank-6 member has two maximum independent sets and uniqueness "
        "starts at rank 7. See README \"Findings\"."
    )


@pytest.mark.parametrize("r,order", [(4, 5), (6, 10), (8, 19)])
def test_criterion_03_bipartite_extremal(r, order):
    rep = enumerate_extremal(r, GraphClass.BIPARTITE)
    expected = to_graph6(canonical_graph(subset_incidence_graph(r // 2)))
    ok = rep.max_order == order == b_bound(r) and rep.extremal == (expected,)
    assert _line(
        ok, f"criterion 3: bipartite extremal rank {r} -> order {rep.max_order}, unique"
    )


# The second extremal graph of rank 7 (README "Findings"): the 8-cycle 0..7
# with the chord {0, 4}, plus an apex 8 joined to the odd cycle vertices.
RANK7_SECOND_EDGES = (
    [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)] + [(8, v) for v in (1, 3, 5, 7)]
)


def test_criterion_04_main_theorem_desk_scale():
    second = from_edges(9, RANK7_SECOND_EDGES)
    family7 = extremal_triangle_free(7).graph
    second_ok = (
        fraction_rank(adjacency_matrix(second)) == 7
        and is_triangle_free(second)
        and is_reduced(second)
        and bipartition(second) is None
        and sorted(map(second.degree, range(9)))
        != sorted(map(family7.degree, range(family7.n)))
    )
    _line(
        second_ok,
        "criterion 4: 8-cycle + chord + apex has rank 7 (Fraction elimination), "
        "is triangle-free, reduced, non-bipartite, not the family member",
    )
    bad = {}
    for r in range(5, 9):
        rep = enumerate_extremal(r, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
        members = [extremal_triangle_free(r).graph] + ([second] if r == 7 else [])
        expected = tuple(sorted(to_graph6(canonical_graph(g)) for g in members))
        ok = rep.max_order == c_bound(r) and rep.extremal == expected
        if not ok:
            bad[r] = (rep.max_order, rep.extremal, expected)
        _line(
            ok,
            f"criterion 4: rank {r} extremal order {rep.max_order}"
            f" (bound {c_bound(r)}), extremal graph(s) {rep.extremal}",
        )
    assert second_ok
    assert not bad, (
        f"extremal sets differ at rank(s) {sorted(bad)} as (order, found, "
        f"expected): {bad}. Ranks 5, 6, 8 have the family member only; rank 7 "
        "has it and the 8-cycle + chord + apex graph. See README \"Findings\"."
    )


def test_criterion_04_rank9():
    # The source calls rank 9 an extended run; the closure finishes it in
    # seconds, so it stays in the default suite. Uniqueness does hold here.
    rep = enumerate_extremal(9, GraphClass.TRIANGLE_FREE_NONBIPARTITE)
    expected = to_graph6(canonical_graph(extremal_triangle_free(9).graph))
    ok = rep.max_order == c_bound(9) and rep.extremal == (expected,)
    assert _line(
        ok, f"criterion 4 (rank 9): extremal order {rep.max_order}, unique"
    )


@pytest.mark.parametrize("r", (6, 8))
def test_criterion_05_bipartite_part_size(r):
    threshold = c_bound(r)
    graphs = enumerate_all(r, GraphClass.BIPARTITE, min_order=threshold + 1)
    ok = bool(graphs)
    for g in graphs:
        parts = bipartition(g)
        ok = (
            ok
            and is_connected(g)
            and parts is not None
            and min(parts[0].bit_count(), parts[1].bit_count()) == r // 2
        )
    assert _line(
        ok,
        f"criterion 5: all {len(graphs)} reduced bipartite rank-{r} graphs of "
        f"order > {threshold} have min part {r // 2}",
    )


@pytest.mark.parametrize("r", (7, 9, 11))
def test_criterion_06_remark(r):
    h = bipartite_remark_graph(r)
    parts = bipartition(h)
    ok = (
        is_reduced(h)
        and parts is not None
        and rank_exact(adjacency_matrix(h)) == r - 1
        and h.n == c_bound(r - 1)
        and min(parts[0].bit_count(), parts[1].bit_count()) == (r + 1) // 2
    )
    assert _line(ok, f"criterion 6: rank-{r} edge-deleted graph properties exact")


def test_criterion_07_lemma_property_suites(reduced_corpus, random_codes):
    assert len(reduced_corpus) >= 500
    drop_ok = True
    for g in reduced_corpus:
        for v in range(g.n):
            if not rank_drop_neighborhood(g, v)[2]:
                drop_ok = False
    _line(drop_ok, "criterion 7a: neighborhood rank drop over the corpus")

    symdiff_ok = True
    for g in reduced_corpus:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v) and not rank_drop_symdiff(g, u, v)[2]:
                    symdiff_ok = False
    _line(symdiff_ok, "criterion 7b: symmetric-difference rank drop over the corpus")

    plotkin_ok = True
    for g in reduced_corpus:
        for s in all_independent_sets(g, min_size=2):
            if not plotkin_bound_check(g, s).holds:
                plotkin_ok = False
    _line(plotkin_ok, "criterion 7c: independent-set distance bound over the corpus")

    singleton_ok = True
    rng = random.Random(2718)
    n_codes = 0
    for n, words in random_codes:
        if len(words) < 2:
            continue
        code = BinaryCode(n, words)
        verdict = singleton_verify(code, min_distance(code))
        n_codes += 1
        if not verdict.holds:
            singleton_ok = False
        if len(words) == verdict.bound and verdict.equality == EQUALITY_NONE:
            singleton_ok = False
    while n_codes < 1000:
        n = rng.randint(2, 7)
        size = rng.randint(2, min(2 ** n, 16))
        code = BinaryCode(n, tuple(rng.sample(range(1 << n), size)))
        verdict = singleton_verify(code, min_distance(code))
        n_codes += 1
        if not verdict.holds:
            singleton_ok = False
        if len(code) == verdict.bound and verdict.equality == EQUALITY_NONE:
            singleton_ok = False
    _line(singleton_ok, f"criterion 7d: pairwise-distance bound on {n_codes} codes")

    rowspace_ok = True
    rng = random.Random(161803)
    for i in range(1000):
        code = _random_hypothesis_code(rng, 5 if i % 2 else 6)
        if not rowspace_distance2_bound(code).holds:
            rowspace_ok = False
    _line(rowspace_ok, "criterion 7e: row-space bound on 1000 hypothesis codes")

    assert drop_ok and symdiff_ok and plotkin_ok and singleton_ok and rowspace_ok


def test_criterion_08_micro_scale_completeness():
    ok = True
    for r in (4, 5):
        for cls in (
            GraphClass.ALL,
            GraphClass.TRIANGLE_FREE,
            GraphClass.BIPARTITE,
            GraphClass.TRIANGLE_FREE_NONBIPARTITE,
        ):
            closure = {
                canonical_form(g).cert
                for g in enumerate_all(r, cls, min_order=0)
                if g.n <= 6
            }
            brute = set()
            for n in range(1, 7):
                for g in labeled_graphs(n):
                    if (
                        is_reduced(g)
                        and cls.final_predicate(g)
                        and rank_exact(adjacency_matrix(g)) == r
                    ):
                        brute.add(canonical_form(g).cert)
            if closure != brute:
                ok = False
    assert _line(ok, "criterion 8: closure enumeration equals brute force at ranks 4, 5")


def test_criterion_09_exact_kernel_checks(reduced_corpus, named_graphs):
    rng = random.Random(1234)
    bareiss_ok = True
    for _ in range(200):
        rows = rng.randint(1, 16)
        cols = rng.randint(1, 16)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        if rank_exact(m) != fraction_rank(m):
            bareiss_ok = False
    _line(bareiss_ok, "criterion 9a: fraction-free rank equals rational elimination, 200 matrices")

    adjugate_ok = True
    done = 0
    while done < 100:
        n = rng.randint(1, 6)
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if det_exact(a) == 0:
            continue
        b = [rng.randint(-3, 3) for _ in range(n)]
        d, y = adjugate_solve(a, b)
        for i in range(n):
            if sum(a[i][j] * y[j] for j in range(n)) != d * b[i]:
                adjugate_ok = False
        done += 1
    _line(adjugate_ok, "criterion 9b: adjugate identity exact on 100 systems")

    from rankforge.canonical import from_graph6 as parse

    g6_ok = all(
        parse(to_graph6(g)) == g
        for g in list(named_graphs.values()) + reduced_corpus
    )
    _line(g6_ok, "criterion 9c: graph6 round-trip identity on the corpus")
    assert bareiss_ok and adjugate_ok and g6_ok


def test_criterion_10_rowspace_explorer():
    best5, wit5 = rowspace_distance2_max(5)
    ok5 = best5 <= 10 and best5 == 10 and rowspace_distance2_bound(wit5).holds
    best5_plain, _ = rowspace_distance2_max(5, use_theorem_cutoff=False)
    ok5 = ok5 and best5_plain == best5
    _line(ok5, f"criterion 10: length-5 exact optimum {best5} (bound 10)")
    best6, wit6 = rowspace_distance2_max(6)
    ok6 = best6 <= 20 and rowspace_distance2_bound(wit6).holds
    _line(ok6, f"criterion 10: length-6 exact optimum {best6} (bound 20)")
    assert ok5 and ok6


@pytest.mark.extended
def test_criterion_10_extended_length6_uncut(uncut_length6_optimum):
    best, _ = uncut_length6_optimum
    assert _line(best == 20, f"criterion 10 (extended): length-6 optimum {best} without cutoff")
