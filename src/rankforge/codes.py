"""Binary-code bound checkers: pairwise-distance bounds and the row-space bound.

Words are bitmasks; character k of the serialized form (one word per line of
'0'/'1') is bit k. All row-space reasoning is over the rationals, done with
exact integer elimination, never floating point and never GF(2).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .graphs import Graph, InternalError, _clique_cover_bound, bits, mask_of
from .linalg import rank_exact

EQUALITY_NONE = "none"
EQUALITY_FULL_SPACE = "full_space"
EQUALITY_EVEN_WEIGHT = "even_weight"
EQUALITY_ODD_WEIGHT = "odd_weight"
EQUALITY_ANTIPODAL_PAIR = "antipodal_pair"


class _CodeFields(NamedTuple):
    length: int
    words: tuple[int, ...]


class BinaryCode(_CodeFields):
    """A set of distinct 0/1 words of common length, kept sorted; ``_make``
    and ``_replace`` check and sort too."""

    __slots__ = ()

    def __new__(cls, length: int, words: tuple[int, ...]):
        if length < 0:
            raise ValueError("negative length")
        full = (1 << length) - 1
        if any(w & ~full for w in words):
            raise ValueError("word longer than the code length")
        if len(set(words)) != len(words):
            raise ValueError("duplicate words")
        return tuple.__new__(cls, (length, tuple(sorted(words))))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __len__(self) -> int:
        return len(self.words)

    def to_lines(self) -> list[str]:
        return [
            "".join("1" if w >> k & 1 else "0" for k in range(self.length))
            for w in self.words
        ]


def code_from_lines(lines) -> BinaryCode:
    words = []
    length = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if length is None:
            length = len(line)
        elif len(line) != length:
            raise ValueError("words of differing lengths")
        if set(line) - {"0", "1"}:
            raise ValueError(f"invalid characters in word {line!r}")
        words.append(sum(1 << k for k, ch in enumerate(line) if ch == "1"))
    if length is None:
        raise ValueError("no words given")
    return BinaryCode(length, tuple(words))


def min_distance(code: BinaryCode) -> int:
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two words")
    return min((a ^ b).bit_count() for a, b in combinations(code.words, 2))


class SingletonVerdict(NamedTuple):
    bound: int
    holds: bool
    equality: str  # one of the EQUALITY_* constants


def singleton_verify(code: BinaryCode, d: int) -> SingletonVerdict:
    """Check |C| <= 2^(n-d+1) for a code of pairwise distance >= d, and classify
    the equality case (full space / even weight / odd weight / antipodal pair).

    At n <= 2 the equality cases can coincide; classification picks the first
    matching case in the order above.
    """
    if d < 1:
        raise ValueError("distance must be positive")
    for a, b in combinations(code.words, 2):
        if (a ^ b).bit_count() < d:
            raise ValueError(
                f"precondition violated: words {a:0{code.length}b} and "
                f"{b:0{code.length}b} are at distance {(a ^ b).bit_count()} < {d}"
            )
    n = code.length
    bound = 2 ** (n - d + 1)
    holds = len(code) <= bound
    equality = EQUALITY_NONE
    if len(code) == bound:
        full = (1 << n) - 1
        if len(code) == 2 ** n:
            equality = EQUALITY_FULL_SPACE
        elif len(code) == 2 ** (n - 1) and all(w.bit_count() % 2 == 0 for w in code.words):
            equality = EQUALITY_EVEN_WEIGHT
        elif len(code) == 2 ** (n - 1) and all(w.bit_count() % 2 == 1 for w in code.words):
            equality = EQUALITY_ODD_WEIGHT
        elif len(code) == 2 and code.words[0] ^ code.words[1] == full:
            equality = EQUALITY_ANTIPODAL_PAIR
    return SingletonVerdict(bound=bound, holds=holds, equality=equality)


class PlotkinCheck(NamedTuple):
    bound: Fraction
    min_symdiff: int
    holds: bool


def plotkin_bound_check(g: Graph, s: int) -> PlotkinCheck:
    """For an independent set S: min over pairs of |N(u) xor N(v)| is at most
    |S|(n-|S|)/(2(|S|-1)), as an exact rational. A False result would be a
    theorem violation, not a property of the input.
    """
    if s >> g.n:
        raise IndexError("vertex index out of range")
    members = list(bits(s))
    if len(members) < 2:
        raise ValueError("independent set must have at least two vertices")
    for v in members:
        if g.adj[v] & s:
            raise ValueError(f"set is not independent: vertex {v} has a neighbor inside")
    k = len(members)
    bound = Fraction(k * (g.n - k), 2 * (k - 1))
    min_symdiff = min(
        (g.adj[u] ^ g.adj[v]).bit_count() for u, v in combinations(members, 2)
    )
    return PlotkinCheck(bound=bound, min_symdiff=min_symdiff, holds=min_symdiff <= bound)


def _word_matrix(code: BinaryCode) -> list[list[int]]:
    """Matrix whose columns are the code words (length x |C|)."""
    return [[w >> i & 1 for w in code.words] for i in range(code.length)]


def all_ones_in_rowspace(code: BinaryCode) -> bool:
    """Whether the all-ones vector lies in the rational row space of the matrix
    whose columns are the code words."""
    if not code.words:
        return True
    m = _word_matrix(code)
    base = rank_exact(m)
    return rank_exact(m + [[1] * len(code.words)]) == base


class RowspaceBoundCheck(NamedTuple):
    bound: int
    holds: bool


def rowspace_distance2_bound(code: BinaryCode) -> RowspaceBoundCheck:
    """The 5*2^(n-4) bound for length n >= 5, pairwise distance >= 2, and
    all-ones in the rational row space; a False result is a theorem violation.
    """
    if code.length < 5:
        raise ValueError("precondition violated: length must be at least 5")
    if len(code) >= 2 and min_distance(code) < 2:
        raise ValueError("precondition violated: minimum distance below 2")
    if not all_ones_in_rowspace(code):
        raise ValueError("precondition violated: all-ones vector not in the row space")
    bound = 5 * 2 ** (code.length - 4)
    return RowspaceBoundCheck(bound=bound, holds=len(code) <= bound)


# ---------------------------------------------------------------------------
# Exact optimum search for the row-space bound
# ---------------------------------------------------------------------------


def _feasible_extend(basis: list[tuple[int, ...]], word: int, n: int):
    """Fraction-free incremental solvability of <x, w> = 1 for all chosen words.

    ``basis`` is an integer row-echelon form of rows (w | 1). Returns the new
    basis, or None if the system became inconsistent.
    """
    row = [word >> i & 1 for i in range(n)] + [1]
    for brow in basis:
        lead = next((i for i, e in enumerate(brow) if e), None)
        if lead is None:
            raise InternalError("zero row in the echelon basis")
        if row[lead]:
            f = row[lead]
            p = brow[lead]
            row = [p * a - f * b for a, b in zip(row, brow)]
    if any(row[:n]):
        return basis + [tuple(row)]
    if row[n]:
        return None  # 0 = nonzero: inconsistent
    return basis  # redundant equation


def _constant_weight_code(n: int, weight: int) -> BinaryCode:
    words = [w for w in range(1 << n) if w.bit_count() == weight]
    return BinaryCode(n, tuple(words))


def rowspace_distance2_max(
    n: int, use_theorem_cutoff: bool = True
) -> tuple[int, BinaryCode]:
    """Exact maximum size of a length-n code with pairwise distance >= 2 and
    all-ones in the rational row space, with one maximizer.

    Branch and bound over words in ascending order. Pruning: incremental
    rational feasibility (hereditary downward) and the greedy clique cover of
    the pool in the distance-1 graph, which has no triangles, so the cover is
    a greedy matching plus singletons. The incumbent is seeded with the
    constant-weight floor(n/2) code, which meets every hypothesis; with the
    proven 5*2^(n-4) cutoff a seed that attains the bound is returned without
    a search.
    """
    if not 5 <= n <= 6:
        raise ValueError("search is guarded to lengths 5 and 6")
    seed = _constant_weight_code(n, n // 2)
    check = rowspace_distance2_bound(seed)  # also validates the seed
    if not check.holds:
        raise InternalError("the constant-weight seed code breaks the bound")
    if use_theorem_cutoff and len(seed) == check.bound:
        return len(seed), seed
    best_size = len(seed)
    best_words = list(seed.words)
    near = [mask_of(w ^ (1 << i) for i in range(n)) for w in range(1 << n)]

    def rec(chosen: list[int], basis, pool: int):
        nonlocal best_size, best_words
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_words = chosen[:]
        if len(chosen) + _clique_cover_bound(near, pool) <= best_size:
            return
        for w in bits(pool):
            nb = _feasible_extend(basis, w, n)
            if nb is None:
                continue
            chosen.append(w)
            rec(chosen, nb, pool & ~near[w] & -(2 << w))
            chosen.pop()

    # The zero word is never usable: it forces a zero column, so the
    # all-ones vector cannot lie in the row space.
    rec([], [], (1 << (1 << n)) - 2)
    return best_size, BinaryCode(n, tuple(best_words))
