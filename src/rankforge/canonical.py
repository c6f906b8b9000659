"""Canonical labeling by equitable refinement with individualization, plus graph6.

The canonical certificate is the maximal upper-triangle bitstring over the
leaves of an individualization-refinement search tree. Automorphisms found as
cert-equal leaves prune the tree (orbit pruning restricted to generators that
fix the individualized prefix, which keeps the pruning sound); on demand they
give the automorphism group order via a Schreier-Sims chain.
"""
from __future__ import annotations

from collections import deque
from operator import getitem
from typing import NamedTuple

from .graphs import Graph, InternalError, bits, relabel

Perm = tuple[int, ...]


class CanonicalForm(NamedTuple):
    n: int
    cert: bytes
    orbits: tuple[int, ...]       # smallest vertex of each vertex's orbit
    labeling: Perm                # original vertex -> canonical position
    generators: tuple[Perm, ...]  # generators of the automorphism group

    @property
    def group_size(self) -> int:
        """Order of the automorphism group, computed from ``generators``."""
        return _group_order(self.n, self.generators)


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Equitable refinement of the ordered partition ``cells`` (vertex masks)
    by ``splitters`` and then by each new cell, first in first out. Cell order
    depends only on invariants, so the procedure commutes with relabeling.

    No pass that cannot split is run. The caller queues only the splitters
    that can split: once they are used, the partition must be equitable with
    respect to every other cell. Equitability persists under refinement, so
    the last subcell of a split is not queued (its counts are the parent
    cell's minus its siblings', which are all used before it would be), and
    the loop stops at a discrete partition."""
    n = len(adj)
    queue = deque(splitters)
    while queue and len(cells) < n:
        splitter = queue.popleft()
        new_cells: list[int] = []
        if not splitter & (splitter - 1):
            # A singleton {u} gives counts 0 and 1: each cell splits into its
            # non-neighbours of u, which are queued, and then its neighbours.
            nbrs = adj[splitter.bit_length() - 1]
            for cell in cells:
                inside = cell & nbrs
                if inside and inside != cell:
                    new_cells += [cell ^ inside, inside]
                    queue.append(cell ^ inside)
                else:
                    new_cells.append(cell)
            cells = new_cells
            continue
        changed = False
        for cell in cells:
            if not cell & (cell - 1):
                new_cells.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                key = (adj[low.bit_length() - 1] & splitter).bit_count()
                groups[key] = groups.get(key, 0) | low
                rest ^= low
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            changed = True
            keys = sorted(groups)
            new_cells += [groups[key] for key in keys]
            queue += [groups[key] for key in keys[:-1]]
        if changed:
            cells = new_cells
    return cells


def _cert_bits(adj: tuple[int, ...], perm: Perm, n: int) -> bytes:
    """Upper-triangle bitstring of the relabeled adjacency, packed MSB-first.

    Row i of the relabeled matrix is built once, reversed so that column j
    sits at bit n-1-j; its segment j > i is then the low n-1-i bits."""
    flip = [1 << (n - 1 - p) for p in perm]
    inv = [0] * n
    for v, p in enumerate(perm):
        inv[p] = v
    acc = 0
    for i in range(n):
        rest = adj[inv[i]]
        row = 0
        while rest:
            low = rest & -rest
            row |= flip[low.bit_length() - 1]
            rest ^= low
        acc = (acc << (n - 1 - i)) | (row & ((1 << (n - 1 - i)) - 1))
    nbits = n * (n - 1) // 2
    return (acc << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")


def _compose(p: Perm, q: Perm) -> Perm:
    """p after q: v -> p[q[v]]."""
    return tuple(p[q[v]] for v in range(len(p)))


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for v, pv in enumerate(p):
        inv[pv] = v
    return tuple(inv)


def orbits(points, gens, act=getitem):
    """The orbits of the group generated by ``gens`` that ``points`` meet.

    Yields ``(i, orbit)`` per orbit, in input order: ``i`` is the index in
    ``points`` of the orbit's first member and ``orbit`` a list that starts
    with that member. ``act(g, x)`` is the image of point x under generator g.
    """
    seen = set()
    for i, x in enumerate(points):
        if x in seen:
            continue
        seen.add(x)
        orbit = [x]
        for cur in orbit:  # grows while it is walked: a breadth-first closure
            for g in gens:
                img = act(g, cur)
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
        yield i, orbit


def _orbit_partition(n: int, gens) -> list[int]:
    """Per vertex, the smallest member of its orbit under ``gens``."""
    out = [0] * n
    for first, orbit in orbits(range(n), gens):
        for v in orbit:
            out[v] = first
    return out


def _group_order(n: int, gens) -> int:
    """Order of <gens> via a deterministic Schreier-Sims stabilizer chain."""
    order = 1
    current = [g for g in gens if any(g[v] != v for v in range(n))]
    identity = tuple(range(n))
    for base in range(n):
        if not current:
            break
        # Orbit of the base point with a transversal.
        transversal: dict[int, Perm] = {base: identity}
        frontier = [base]
        while frontier:
            pt = frontier.pop()
            t = transversal[pt]
            for g in current:
                img = g[pt]
                if img not in transversal:
                    transversal[img] = _compose(g, t)
                    frontier.append(img)
        order *= len(transversal)
        # Schreier generators for the stabilizer of the base point.
        stab: list[Perm] = []
        seen: set[Perm] = set()
        for pt, t in transversal.items():
            for g in current:
                u = transversal[g[pt]]
                s = _compose(_inverse(u), _compose(g, t))
                if s != identity and s not in seen:
                    seen.add(s)
                    stab.append(s)
        current = stab
    return order


def _search(n: int, adj: tuple[int, ...], root: list[int]) -> tuple[bytes, Perm, list[Perm]]:
    best_cert: bytes | None = None
    best_perm: Perm | None = None
    best_inv: Perm | None = None
    gens: list[Perm] = []

    def leaf(cells: list[int]):
        nonlocal best_cert, best_perm, best_inv
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell.bit_length() - 1] = pos
        perm_t = tuple(perm)
        cert = _cert_bits(adj, perm_t, n)
        if best_cert is None or cert > best_cert:
            best_cert, best_perm, best_inv = cert, perm_t, _inverse(perm_t)
        elif cert == best_cert:
            # Two labelings with the same certificate differ by an automorphism.
            auto = _compose(best_inv, perm_t)
            if auto not in gens:
                gens.append(auto)

    def rec(cells: list[int], prefix: list[int]):
        if len(cells) == n:
            leaf(cells)
            return
        size = max(c.bit_count() for c in cells)
        ti = next(i for i, c in enumerate(cells) if c.bit_count() == size)
        cell = cells[ti]
        done: list[int] = []
        # Orbits of the known automorphisms that fix the prefix, updated only
        # when a sibling's subtree has found new generators.
        fixing: list[Perm] = []
        seen = 0
        orb: list[int] | None = None
        for v in bits(cell):
            if done and len(gens) > seen:
                new = [g for g in gens[seen:] if all(g[p] == p for p in prefix)]
                seen = len(gens)
                if new:
                    fixing += new
                    orb = _orbit_partition(n, fixing)
            # Skip v if such an automorphism maps it onto an explored branch.
            if orb is not None and any(orb[v] == orb[u] for u in done):
                done.append(v)
                continue
            # The partition was equitable, so only the new singleton can split.
            split = cells[:ti] + [1 << v, cell ^ (1 << v)] + cells[ti + 1:]
            rec(_refine(adj, split, [1 << v]), prefix + [v])
            done.append(v)

    rec(root, [])
    if best_cert is None or best_perm is None:
        raise InternalError("canonical search reached no leaf")
    return best_cert, best_perm, gens


def canonical_form(g: Graph, root: list[int] | None = None) -> CanonicalForm:
    """``root``, if given, is the root refinement ``_refine(g.adj, [full],
    [full])`` that a caller already computed; by default it is computed."""
    if root is None:
        full = g.vertices_mask
        root = _refine(g.adj, [full], [full]) if g.n else []
    cert, perm, gens = _search(g.n, g.adj, root)
    orbits = tuple(_orbit_partition(g.n, gens))
    return CanonicalForm(
        n=g.n,
        cert=cert,
        orbits=orbits,
        labeling=perm,
        generators=tuple(gens),
    )


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return relabel(g, canonical_form(g).labeling)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_form(a).cert == canonical_form(b).cert


# ---------------------------------------------------------------------------
# graph6 interchange (standard short form, n <= 62)
# ---------------------------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle entries in graph6 order: column by column."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise Graph6Error("graph6 short form supports at most 62 vertices")
    chars = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for i, j in _triangle_pairs(g.n):
        acc = (acc << 1) | (g.adj[i] >> j & 1)
        nbits += 1
        if nbits == 6:
            chars.append(chr(acc + 63))
            acc = nbits = 0
    if nbits:
        chars.append(chr((acc << (6 - nbits)) + 63))
    return "".join(chars)


def from_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("graph6 long form (n > 62) not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"header byte {head} out of range")
    n = head - 63
    k = n * (n - 1) // 2
    need = (k + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(body)}")
    bitstream = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"data byte {ord(ch)} out of range")
        bitstream = (bitstream << 6) | val
    pad = 6 * need - k
    if pad and bitstream & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    bitstream >>= pad
    rows = [0] * n
    for idx, (i, j) in enumerate(_triangle_pairs(n)):
        if bitstream >> (k - 1 - idx) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Report serialization: JSON with a fixed key order
# ---------------------------------------------------------------------------


def dumps_report(payload: dict) -> str:
    """Serialize a report dict preserving insertion (documented) key order."""
    import json

    return json.dumps(payload, indent=2)

