"""Rank-drop checks under vertex deletions and the maximal low-rank subgraph report.

The subgraph search is exhaustive over deletion sets of growing size; the
deletion size is bounded above by the minimum degree and minimum pairwise
neighborhood symmetric difference, which makes the search an admissible
prune rather than a heuristic.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .canonical import to_graph6
from .graphs import (
    Graph,
    InternalError,
    bits,
    duplication_classes,
    induced_subgraph,
    is_reduced,
    mask_of,
    symmetric_difference,
)
from .linalg import adjacency_matrix, rank_exact

MAX_SEARCH_ORDER = 14


def _graph_rank(g: Graph) -> int:
    return rank_exact(adjacency_matrix(g))


def _require_reduced(g: Graph):
    if not is_reduced(g):
        raise ValueError("operation requires a reduced graph")


def _rank_drop(g: Graph, drop: int) -> tuple[int, int, bool]:
    lhs = _graph_rank(induced_subgraph(g, g.vertices_mask & ~drop))
    rhs = _graph_rank(g) - 2
    return lhs, rhs, lhs <= rhs


def rank_drop_neighborhood(g: Graph, v: int) -> tuple[int, int, bool]:
    """(rank(G - N(v)), rank(G) - 2, lhs <= rhs); the inequality must hold for
    every reduced graph."""
    _require_reduced(g)
    if not 0 <= v < g.n:
        raise IndexError("vertex index out of range")
    return _rank_drop(g, g.adj[v])


def rank_drop_symdiff(g: Graph, u: int, v: int) -> tuple[int, int, bool]:
    """(rank(G - (N(u) xor N(v))), rank(G) - 2, lhs <= rhs) for non-adjacent u, v."""
    _require_reduced(g)
    drop = symmetric_difference(g, u, v)
    if u == v:
        raise ValueError("vertices must be distinct")
    if g.has_edge(u, v):
        raise ValueError("vertices must be non-adjacent")
    return _rank_drop(g, drop)


class Verdict(NamedTuple):
    ok: bool
    witness: str = ""


class StructureReport(NamedTuple):
    """Decomposition data for a maximum-order induced subgraph of bounded rank.

    ``duplication_pairs`` lists the twin classes of H as (kept-side, other)
    host-vertex pairs oriented so t1 vertices hit the first element of every
    pair; ``t1``/``t2`` partition the deleted vertices when such a labeling
    exists (see the "t1_t2_labeling" verdict).
    """

    host: Graph
    gap: int
    h_vertices: int
    rank_g: int
    rank_h: int
    duplication_pairs: tuple[tuple[int, int], ...]
    isolated_count: int
    t1: int
    t2: int
    verdicts: dict  # no default: a shared dict would leak between reports

    def deleted(self) -> int:
        return self.host.vertices_mask & ~self.h_vertices

    def to_payload(self) -> dict:
        return {
            "gap": self.gap,
            "host": to_graph6(self.host),
            "h_vertices": sorted(bits(self.h_vertices)),
            "rank_g": self.rank_g,
            "rank_h": self.rank_h,
            "duplication_pairs": [list(p) for p in self.duplication_pairs],
            "isolated_count": self.isolated_count,
            "t1": sorted(bits(self.t1)),
            "t2": sorted(bits(self.t2)),
            "verdicts": {
                name: {"ok": v.ok, "witness": v.witness}
                for name, v in sorted(self.verdicts.items())
            },
        }


def _deletion_size_bound(g: Graph) -> int:
    best = min(g.degree(v) for v in range(g.n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            best = min(best, (g.adj[u] ^ g.adj[v]).bit_count())
    return best


def max_subgraph_below_rank(g: Graph, target_gap: int) -> StructureReport:
    """Maximum-order induced subgraph H with rank(H) < rank(G) (gap 1) or
    rank(H) <= rank(G) - 2 (gap 2), plus its twin/deleted-set decomposition.

    Ties among maximum-order subgraphs break to the lexicographically smallest
    kept vertex tuple. Exhaustive, guarded to hosts of order <= 14.
    """
    report = next(iter_max_subgraph_reports(g, target_gap), None)
    if report is None:
        raise InternalError(
            "no subgraph met the rank condition within the deletion-size bound; "
            "this contradicts the rank-drop lemma"
        )
    return report


def iter_max_subgraph_reports(g: Graph, target_gap: int):
    """All maximum-order subgraph reports for the gap, in kept-set order.

    The first report is the tie-break winner of max_subgraph_below_rank; the
    rest are the other maximal choices (the decomposition properties should
    hold for every one of them).
    """
    if target_gap not in (1, 2):
        raise ValueError("target gap must be 1 or 2")
    _require_reduced(g)
    if g.n == 0:
        raise ValueError("the empty graph has no proper subgraph to search")
    if g.n > MAX_SEARCH_ORDER:
        raise ValueError(f"search guarded to order <= {MAX_SEARCH_ORDER}")
    rank_g = _graph_rank(g)
    limit = _deletion_size_bound(g)
    for t in range(1, limit + 1):
        found = False
        for kept in combinations(range(g.n), g.n - t):
            keep = mask_of(kept)
            sub = induced_subgraph(g, keep)
            rank_h = _graph_rank(sub)
            ok = rank_h < rank_g if target_gap == 1 else rank_h <= rank_g - 2
            if ok:
                found = True
                yield _build_report(g, target_gap, keep, sub, rank_g, rank_h, limit)
        if found:
            return


def _build_report(
    g: Graph, gap: int, keep: int, sub: Graph, rank_g: int, rank_h: int, bound: int
) -> StructureReport:
    """Report for the kept set ``keep``, with H = ``sub`` its induced subgraph
    and ``bound`` the deletion-size bound of ``g``."""
    kept = list(bits(keep))
    deleted = g.vertices_mask & ~keep
    verdicts: dict[str, Verdict] = {}

    floor = rank_g - 2 if gap == 1 else rank_g - 3
    verdicts["rank_floor"] = Verdict(
        ok=rank_h >= floor, witness="" if rank_h >= floor else f"rank_h={rank_h}"
    )
    if gap == 1:
        ok = is_reduced(sub) or rank_h == rank_g - 2
        verdicts["equality_if_not_reduced"] = Verdict(
            ok=ok, witness="" if ok else f"H not reduced yet rank_h={rank_h}"
        )

    t_size = deleted.bit_count()
    verdicts["deletion_bound"] = Verdict(
        ok=t_size <= bound,
        witness="" if t_size <= bound else f"|T|={t_size} > {bound}",
    )

    iso_ok = True
    iso_witness = ""
    isolated = [kept[i] for i in range(sub.n) if sub.adj[i] == 0]
    for w in isolated:
        if g.adj[w] != deleted:
            iso_ok = False
            iso_witness = f"isolated vertex {w} has N(w) != deleted set"
    verdicts["isolated_neighborhood"] = Verdict(ok=iso_ok, witness=iso_witness)
    verdicts["at_most_one_isolated"] = Verdict(
        ok=len(isolated) <= 1,
        witness="" if len(isolated) <= 1 else f"{len(isolated)} isolated vertices",
    )

    # Twin classes of H, mapped back to host vertex ids.
    classes = [[kept[i] for i in bits(twins)] for twins in duplication_classes(sub)]
    pair_ok = all(len(ms) == 2 for ms in classes)
    verdicts["duplication_classes_paired"] = Verdict(
        ok=pair_ok,
        witness="" if pair_ok else f"class sizes {[len(ms) for ms in classes]}",
    )

    pairs, t1, t2, label_verdict = _label_deleted(g, classes, deleted)
    verdicts["t1_t2_labeling"] = label_verdict
    return StructureReport(
        host=g,
        gap=gap,
        h_vertices=keep,
        rank_g=rank_g,
        rank_h=rank_h,
        duplication_pairs=pairs,
        isolated_count=len(isolated),
        t1=t1,
        t2=t2,
        verdicts=verdicts,
    )


def _hit_masks(
    g: Graph, pairs: tuple[tuple[int, int], ...], deleted: int
) -> list[tuple[int, int, int]]:
    """(w, once, first) for each deleted vertex w in ascending order: bit i of
    ``once`` is set when w hits exactly one member of ``pairs[i]``, bit i of
    ``first`` when it hits the first member."""
    out = []
    for w in bits(deleted):
        row = g.adj[w]
        once = first = 0
        for i, (a, b) in enumerate(pairs):
            hit_a, hit_b = row >> a & 1, row >> b & 1
            once |= (hit_a ^ hit_b) << i
            first |= hit_a << i
        out.append((w, once, first))
    return out


def _label_deleted(g: Graph, classes: list[list[int]], deleted: int):
    """Orient each twin pair and split the deleted set into t1/t2 so t1 hits the
    first pair element and t2 the second, for every pair. The labeling exists
    iff every deleted vertex hits exactly one member of each pair and the
    first-member hit patterns take at most two values, which are complements."""
    pairs = tuple(tuple(ms) for ms in classes if len(ms) == 2)
    full = (1 << len(pairs)) - 1
    masks = _hit_masks(g, pairs, deleted)
    for w, once, first in masks:
        if once != full:
            missed = full & ~once
            i = (missed & -missed).bit_length() - 1  # first failing pair
            a, b = pairs[i]
            hits = (g.adj[w] >> a & 1) + (g.adj[w] >> b & 1)
            witness = f"deleted vertex {w} hits {hits} members of class {{{a},{b}}}"
            return pairs, 0, 0, Verdict(ok=False, witness=witness)
    lead = masks[0][2]
    firsts = {first for _, _, first in masks}
    if not firsts <= {lead, lead ^ full}:
        distinct = sorted(tuple(f >> i & 1 for i in range(len(pairs))) for f in firsts)
        witness = f"incompatible hit patterns {distinct}"
        return pairs, 0, 0, Verdict(ok=False, witness=witness)
    t1 = mask_of(w for w, _, first in masks if first == lead)
    oriented = tuple((a, b) if lead >> i & 1 else (b, a) for i, (a, b) in enumerate(pairs))
    return oriented, t1, deleted & ~t1, Verdict(ok=True)


def obstruction_free(report: StructureReport) -> bool:
    """True iff no two twin pairs and two deleted vertices realize the forbidden
    principal-submatrix pattern: the deleted pair agreeing on one twin class
    while splitting another (which would force an extra rank drop). Only pairs
    that both vertices hit exactly once count."""
    masks = _hit_masks(report.host, report.duplication_pairs, report.deleted())
    for (_, once1, first1), (_, once2, first2) in combinations(masks, 2):
        both = once1 & once2
        split = (first1 ^ first2) & both
        if split not in (0, both):
            return False
    return True
