"""Exact integer linear algebra: fraction-free rank, determinant, adjugate solves.

Everything runs over the rationals with integer arithmetic only (Bareiss
elimination); Python ints give unbounded headroom, and every fraction-free
division is checked to be exact rather than silently truncated.
"""
from __future__ import annotations

from .graphs import Graph, InternalError, mask_of

Matrix = list[list[int]]


class SingularMatrixError(ValueError):
    """Operation requires a nonsingular matrix."""


def adjacency_matrix(g: Graph) -> Matrix:
    return [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalError("fraction-free elimination produced a non-integer entry")
    return q


def det_exact(m: Matrix) -> int:
    """Exact determinant via Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        lead = a[c]
        pivot = lead[c]
        for i in range(c + 1, n):
            row = a[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = _exact_div(pivot * row[j] - f * lead[j], prev)
            row[c] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _replace_column(m: Matrix, col: int, vec) -> Matrix:
    return [row[:col] + [vec[i]] + row[col + 1:] for i, row in enumerate(m)]


def adjugate_solve(a: Matrix, b) -> tuple[int, list[int]]:
    """Return (det(a), adjugate(a) @ b); the result satisfies a @ y == det * b."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("adjugate_solve requires a square system")
    d = det_exact(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    y = [det_exact(_replace_column(a, i, b)) for i in range(n)]
    return d, y


def adjugate(a: Matrix) -> Matrix:
    """Integer adjugate: a @ adjugate(a) == det(a) * I (also for singular a)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate requires a square matrix")
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j]
            out[i][j] = (-1) ** (i + j) * det_exact(minor)
    return out


def _pivot_columns(m: Matrix) -> list[int]:
    """Columns of the lexicographically first column basis (greedy in index order)."""
    a = [list(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r]
        pivot = lead[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = _exact_div(pivot * row[j] - f * lead[j], prev)
            row[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots


def rank_exact(m: Matrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return len(_pivot_columns(m))


def principal_submatrix(m: Matrix, indices) -> Matrix:
    idx = list(indices)
    return [[m[i][j] for j in idx] for i in idx]


def nonsingular_principal_core(g: Graph) -> int:
    """Mask of rank(A(g)) vertices whose principal adjacency minor is nonsingular.

    Greedy column basis in index order: for a symmetric matrix, a maximal
    independent set of columns indexes a nonsingular principal minor. The
    minor is re-checked with det_exact.
    """
    a = adjacency_matrix(g)
    cols = _pivot_columns(a)
    if det_exact(principal_submatrix(a, cols)) == 0:
        raise InternalError("pivot columns give a singular principal minor")
    return mask_of(cols)
