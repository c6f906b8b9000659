"""Isomorph-free enumeration of reduced rank-r graphs via nonsingular cores.

A reduced graph of rank r always contains r vertices whose principal adjacency
minor is nonsingular (the core). Every remaining vertex is determined by its
0/1 neighborhood vector b into the core: keeping the bordered symmetric matrix
at rank r forces the missing block to B^T A^{-1} B, so b must satisfy
b^T A^{-1} b = 0 and the entry between two extension vertices is forced to
b^T A^{-1} b'. Integerized through the adjugate (y = adj(A) b, entries tested
against 0 and det A) this closes the search without any rational arithmetic.

Cores are generated once per isomorphism class by vertex-by-vertex orderly
augmentation with canonical-augmentation rejection; per core, a branch-and-
bound clique search over pairwise-compatible extension vectors finds the
maximum completions.
"""
from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache, partial
from itertools import repeat

from .canonical import CanonicalForm, canonical_form, canonical_graph, to_graph6
from .constructions import (
    b_bound,
    bipartite_remark_graph,
    c_bound,
    extremal_triangle_free,
    subset_incidence_graph,
)
from .graphs import (
    Colouring,
    Graph,
    InternalError,
    add_to_colouring,
    add_vertex,
    bipartition,
    bits,
    is_connected,
    is_reduced,
    is_triangle_free,
    two_colouring,
)
from .linalg import adjacency_matrix, adjugate, det_exact, rank_exact

DEFAULT_MAX_RANK = 9
MIN_RANK = 4


def max_rank_guard() -> int:
    """Enumeration rank ceiling; RANKFORGE_MAX_R raises it explicitly."""
    env = os.environ.get("RANKFORGE_MAX_R")
    if env:
        return max(DEFAULT_MAX_RANK, int(env))
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
    def hereditary_name(self) -> str:
        if self is GraphClass.ALL:
            return "all"
        if self is GraphClass.BIPARTITE:
            return "bipartite"
        return "triangle-free"

    def final_predicate(self, g: Graph) -> bool:
        if self is GraphClass.ALL:
            return True
        if self is GraphClass.TRIANGLE_FREE:
            return is_triangle_free(g)
        if self is GraphClass.BIPARTITE:
            return bipartition(g) is not None
        return is_triangle_free(g) and bipartition(g) is None

    @staticmethod
    def from_token(token: str) -> "GraphClass":
        aliases = {
            "all": GraphClass.ALL,
            "triangle-free": GraphClass.TRIANGLE_FREE,
            "trianglefree": GraphClass.TRIANGLE_FREE,
            "tf": GraphClass.TRIANGLE_FREE,
            "bipartite": GraphClass.BIPARTITE,
            "bi": GraphClass.BIPARTITE,
            "triangle-free-nonbipartite": GraphClass.TRIANGLE_FREE_NONBIPARTITE,
            "tfnb": GraphClass.TRIANGLE_FREE_NONBIPARTITE,
            "nonbipartite": GraphClass.TRIANGLE_FREE_NONBIPARTITE,
        }
        key = token.strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown graph class {token!r}")
        return aliases[key]


_HEREDITARY = {
    "all": lambda g: True,
    "triangle-free": is_triangle_free,
    "bipartite": lambda g: bipartition(g) is not None,
}


# ---------------------------------------------------------------------------
# Orderly generation with canonical-augmentation rejection
# ---------------------------------------------------------------------------


def _subset_orbit_reps(k: int, gens, min_size: int) -> list[int]:
    """Smallest representative of each orbit of the vertex subsets of size at
    least ``min_size`` under the group generated by ``gens`` (vertex
    permutations of a k-vertex graph); orbits preserve size."""
    if not gens:
        return [m for m in range(1 << k) if m.bit_count() >= min_size]
    reps = []
    seen = bytearray(1 << k)
    for m in range(1 << k):
        if seen[m] or m.bit_count() < min_size:
            continue
        reps.append(m)
        seen[m] = 1
        stack = [m]
        while stack:
            cur = stack.pop()
            for g in gens:
                img = 0
                mm = cur
                while mm:
                    low = mm & -mm
                    img |= 1 << g[low.bit_length() - 1]
                    mm ^= low
                if not seen[img]:
                    seen[img] = 1
                    stack.append(img)
    return reps


@lru_cache(maxsize=None)
def _level(pred_name: str, n: int) -> tuple[tuple[Graph, CanonicalForm], ...]:
    """All graphs on exactly n vertices satisfying the hereditary predicate,
    one per isomorphism class, each with its canonical form."""
    pred = _HEREDITARY[pred_name]
    if n == 1:
        k1 = Graph(1, (0,))
        return ((k1, canonical_form(k1)),) if pred(k1) else ()
    out = []
    for parent, pform in _level(pred_name, n - 1):
        degrees = [row.bit_count() for row in parent.adj]
        top = max(degrees)
        top_mask = sum(1 << v for v, d in enumerate(degrees) if d == top)
        for nb in _subset_orbit_reps(parent.n, pform.generators, top):
            # Refinement first orders cells by ascending degree, so the last
            # canonical position has maximum degree, and orbits keep degrees:
            # the child can pass the orbit test only if the added vertex has
            # the child's maximum degree (each vertex in nb gains one).
            if nb.bit_count() < top + bool(nb & top_mask):
                continue
            child = add_vertex(parent, nb)
            if not pred(child):
                continue
            cf = canonical_form(child)
            # Accept the child only when the added vertex sits in the same
            # orbit as the canonical deletion vertex (last canonical position).
            vstar = cf.labeling.index(child.n - 1)
            if cf.orbits[vstar] == cf.orbits[child.n - 1]:
                out.append((child, cf))
    return tuple(out)


def graphs_of_order(n: int, hereditary_name: str) -> tuple[Graph, ...]:
    """Isomorph-free list of all n-vertex graphs in a hereditary class."""
    return tuple(g for g, _ in _level(hereditary_name, n))


@dataclass(frozen=True)
class Core:
    """An r-vertex graph with nonsingular adjacency, plus det and adjugate."""

    graph: Graph
    det: int
    adjug: tuple[tuple[int, ...], ...]


def _rank_range_check(r: int):
    if not MIN_RANK <= r <= max_rank_guard():
        raise ValueError(
            f"rank {r} outside the guarded range {MIN_RANK}..{max_rank_guard()} "
            "(set RANKFORGE_MAX_R to raise the ceiling)"
        )


def gen_cores(r: int, cls: GraphClass):
    """One core per isomorphism class: class graphs on r vertices with
    nonsingular adjacency matrix."""
    _rank_range_check(r)
    for g in graphs_of_order(r, cls.hereditary_name):
        a = adjacency_matrix(g)
        d = det_exact(a)
        if d:
            yield Core(graph=g, det=d, adjug=tuple(tuple(row) for row in adjugate(a)))


# ---------------------------------------------------------------------------
# Extension closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionCandidate:
    """A 0/1 core-neighborhood vector b with its adjugate image y = adj(A) b."""

    vector: int
    image: tuple[int, ...]


def candidates(core: Core) -> tuple[ExtensionCandidate, ...]:
    """All nonzero b (not equal to a core row) with b^T adj(A) b == 0, in
    ascending vector order."""
    r = core.graph.n
    rows = set(core.graph.adj)
    out = []
    for b in range(1, 1 << r):
        if b in rows:
            continue
        members = list(bits(b))
        y = tuple(sum(core.adjug[j][i] for i in members) for j in range(r))
        if sum(y[j] for j in members) == 0:
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


def _completion_rows(core: Core, cands: list[ExtensionCandidate]) -> list[int]:
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
    return rows


def complete(core: Core, cands) -> Graph:
    """The completed graph: core plus the given pairwise-compatible extensions."""
    cands = list(cands)
    return Graph(core.graph.n + len(cands), tuple(_completion_rows(core, cands)))


class _Search:
    """Per-core branch-and-bound over pairwise-compatible extension sets.

    One rule serves both callers: record every valid set of size >= floor,
    and prune a subtree when its size plus the colouring bound is < floor.
    ``run(maximize=True)`` starts at floor 0 and raises it to each larger set
    found, dropping smaller records, so every optimal set (ties included)
    survives. Candidate i is vertex r + i of the completion, whose 2-colouring
    is carried down the recursion (None once it has an odd cycle).
    """

    def __init__(self, core: Core, cls: GraphClass):
        self.core = core
        self.cls = cls
        cand_list = candidates(core)
        if cls.triangle_constrained:
            # A core triangle through an extension needs two adjacent core
            # vertices in b, so candidates must be independent sets.
            cand_list = tuple(
                c
                for c in cand_list
                if all(core.graph.adj[i] & c.vector == 0 for i in bits(c.vector))
            )
        self.cands = cand_list
        k = len(cand_list)
        self.compat = [0] * k
        self.forced1 = [0] * k
        for i in range(k):
            for j in range(i + 1, k):
                bit = compatible(core, cand_list[i], cand_list[j])
                if bit is None:
                    continue
                if bit == 1 and cls.triangle_constrained and (
                    cand_list[i].vector & cand_list[j].vector
                ):
                    continue  # a shared core neighbor would close a triangle
                self.compat[i] |= 1 << j
                self.compat[j] |= 1 << i
                if bit == 1:
                    self.forced1[i] |= 1 << j
                    self.forced1[j] |= 1 << i
        self.track_colouring = cls in (
            GraphClass.BIPARTITE,
            GraphClass.TRIANGLE_FREE_NONBIPARTITE,
        )
        self.nodes = 0

    def _color_bound(self, pool: int) -> int:
        classes: list[int] = []
        m = pool
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            for ci, cmask in enumerate(classes):
                if not cmask & self.compat[v]:
                    classes[ci] = cmask | low
                    break
            else:
                classes.append(low)
        return len(classes)

    def run(
        self, floor: int = 0, max_size: int | None = None, maximize: bool = False
    ) -> list[tuple[int, ...]]:
        """Valid index sets (ascending) of size in [floor, max_size], or with
        ``maximize`` the sets of the largest valid size."""
        self.floor = floor
        self.max_size = len(self.cands) if max_size is None else max_size
        self.maximize = maximize
        self.sets: list[tuple[int, ...]] = []
        self._rec([], 0, (1 << len(self.cands)) - 1, two_colouring(self.core.graph))
        return self.sets

    def _rec(
        self, chosen: list[int], chosen_mask: int, pool: int, colouring: Colouring | None
    ):
        self.nodes += 1
        size = len(chosen)
        if self.cls is not GraphClass.TRIANGLE_FREE_NONBIPARTITE or colouring is None:
            if self.maximize and size > self.floor:
                self.floor = size
                self.sets = []
            if size >= self.floor:
                self.sets.append(tuple(chosen))
        if size >= self.max_size or size + self._color_bound(pool) < self.floor:
            return
        shift = self.core.graph.n
        m = pool
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            ones = self.forced1[v] & chosen_mask
            if self.cls.triangle_constrained and any(
                self.forced1[u] & ones for u in bits(ones)
            ):
                continue  # v and two adjacent chosen extensions form a triangle
            child = colouring
            if self.track_colouring and colouring is not None:
                child = add_to_colouring(
                    colouring, 1 << (shift + v), self.cands[v].vector | ones << shift
                )
                if child is None and self.cls is GraphClass.BIPARTITE:
                    continue  # bipartiteness is hereditary: no superset recovers
            chosen.append(v)
            self._rec(
                chosen,
                chosen_mask | low,
                pool & self.compat[v] & ~((low << 1) - 1),
                child,
            )
            chosen.pop()


@dataclass(frozen=True)
class ExtensionResult:
    size: int
    optimal_sets: tuple[tuple[ExtensionCandidate, ...], ...]
    candidate_count: int
    nodes: int


def max_extension(core: Core, cls: GraphClass) -> ExtensionResult:
    """Every largest extension set whose completion satisfies the class
    predicate (ties included, in search order).

    size is -1 when nothing (not even the bare core) passes the predicate.
    """
    search = _Search(core, cls)
    sets = search.run(maximize=True)
    return ExtensionResult(
        size=len(sets[0]) if sets else -1,
        optimal_sets=tuple(tuple(search.cands[i] for i in s) for s in sets),
        candidate_count=len(search.cands),
        nodes=search.nodes,
    )


def all_extensions(core: Core, cls: GraphClass, min_size: int = 0, max_size=None):
    """Every valid extension set with min_size <= |S| (<= max_size), as tuples
    of candidates; used by the completeness oracle and the part-size theorem."""
    search = _Search(core, cls)
    sets = search.run(floor=min_size, max_size=max_size)
    return [tuple(search.cands[i] for i in s) for s in sets]


# ---------------------------------------------------------------------------
# Extremal-order reports and theorem verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationReport:
    rank: int
    graph_class: str
    max_order: int
    extremal: tuple[str, ...]  # canonical graph6
    cores_processed: int
    candidates_total: int
    nodes_explored: int
    elapsed_ms: int

    def to_payload(self) -> dict:
        return {
            "rank": self.rank,
            "class": self.graph_class,
            "max_order": self.max_order,
            "extremal": list(self.extremal),
            "cores_processed": self.cores_processed,
            "candidates_total": self.candidates_total,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": self.elapsed_ms,
        }


def report_from_payload(payload) -> EnumerationReport:
    """Inverse of ``to_payload``; ValueError unless ``payload`` is an object with
    exactly the report keys, integer counters and strings where strings belong."""
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    names = {f.name for f in fields(EnumerationReport)} - {"graph_class"} | {"class"}
    if payload.keys() != names:
        missing, unknown = sorted(names - payload.keys()), sorted(payload.keys() - names)
        raise ValueError(f"report keys: missing {missing}, unknown {unknown}")
    kwargs = {"graph_class" if k == "class" else k: v for k, v in payload.items()}
    counters = [v for k, v in kwargs.items() if k not in ("graph_class", "extremal")]
    extremal = kwargs["extremal"]
    if not (
        all(type(v) is int for v in counters)
        and type(extremal) is list
        and all(type(v) is str for v in [kwargs["graph_class"], *extremal])
    ):
        raise ValueError("report has a value of the wrong type")
    return EnumerationReport(**{**kwargs, "extremal": tuple(extremal)})


def merge_reports(payloads: list[dict]) -> dict:
    """Merge shard reports of one run: max order wins, extremal lists of the
    winning shards union (deduplicated, sorted), counters add."""
    reports = [report_from_payload(p) for p in payloads]
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    if any((r.rank, r.graph_class) != (first.rank, first.graph_class) for r in reports):
        raise ValueError("shard reports disagree on rank or class")
    max_order = max(r.max_order for r in reports)
    extremal = {g6 for r in reports if r.max_order == max_order for g6 in r.extremal}
    return EnumerationReport(
        rank=first.rank,
        graph_class=first.graph_class,
        max_order=max_order,
        extremal=tuple(sorted(extremal)),
        cores_processed=sum(r.cores_processed for r in reports),
        candidates_total=sum(r.candidates_total for r in reports),
        nodes_explored=sum(r.nodes_explored for r in reports),
        elapsed_ms=sum(r.elapsed_ms for r in reports),
    ).to_payload()


def _assert_sound(g: Graph, r: int, cls: GraphClass):
    """Re-check an emitted graph; raises InternalError (also under python -O)."""
    if rank_exact(adjacency_matrix(g)) != r:
        raise InternalError("emitted graph has wrong rank")
    if not is_reduced(g):
        raise InternalError("emitted graph is not reduced")
    if not cls.final_predicate(g):
        raise InternalError("emitted graph violates its class predicate")
    if cls.triangle_constrained and not is_triangle_free(g):
        raise InternalError("emitted graph has a triangle")


def _emitted(r: int, cls: GraphClass, completions) -> dict[str, Graph]:
    """Canonical graph6 -> canonical graph of every (core, extension set); each
    distinct graph is re-checked after canonicalization, as it is written out."""
    out: dict[str, Graph] = {}
    for core, cand_set in completions:
        cg = canonical_graph(complete(core, cand_set))
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
    _rank_range_check(r)
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
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(jobs))
            it = pool.imap(partial(max_extension, cls=cls), cores, chunksize=4)
        else:
            it = map(max_extension, cores, repeat(cls))
        best_size = -1
        for i, res in enumerate(it):
            results.append(res)
            best_size = max(best_size, res.size)
            if progress:
                print(
                    f"core {i + 1}/{len(cores)}: best so far "
                    f"{r + best_size if best_size >= 0 else 'none'}",
                    file=sys.stderr,
                )

    winners = [(core, res) for core, res in zip(cores, results) if res.size == best_size]
    extremal = _emitted(r, cls, ((c, s) for c, res in winners for s in res.optimal_sets))
    max_order = r + best_size if best_size >= 0 else 0
    return EnumerationReport(
        rank=r,
        graph_class=cls.value,
        max_order=max_order,
        extremal=tuple(sorted(extremal)),
        cores_processed=len(cores),
        candidates_total=sum(res.candidate_count for res in results),
        nodes_explored=sum(res.nodes for res in results),
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )


def enumerate_all(
    r: int, cls: GraphClass, min_order: int = 0, max_order: int | None = None
) -> tuple[Graph, ...]:
    """Every reduced rank-r class graph with order in [min_order, max_order],
    one canonical representative per isomorphism class, sorted by graph6."""
    _rank_range_check(r)
    min_size = max(0, min_order - r)
    max_size = None if max_order is None else max_order - r
    if max_size is not None and max_size < 0:
        return ()
    completions = (
        (core, s)
        for core in gen_cores(r, cls)
        for s in all_extensions(core, cls, min_size=min_size, max_size=max_size)
    )
    out = _emitted(r, cls, completions)
    return tuple(out[k] for k in sorted(out))


@dataclass(frozen=True)
class TheoremVerification:
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
            reduced bipartite graph of rank r-1, order c(r-1), min part (r+1)/2.
    """
    if which == "main":
        if not 5 <= r <= max_rank_guard():
            raise ValueError("main theorem check supports 5 <= r <= the rank guard")
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
        if r not in (7, 9, 11):
            raise ValueError("remark check supports r in {7, 9, 11}")
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
