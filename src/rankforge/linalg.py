"""Exact integer linear algebra: fraction-free rank, determinant, adjugate solves.

Everything runs over the rationals with integer arithmetic only, through one
Bareiss elimination; Python ints give unbounded headroom, and every
fraction-free division is checked to be exact rather than silently truncated.
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


def _bareiss(m: Matrix, rhs: Matrix = ()) -> tuple[list[int], Matrix, int]:
    """Fraction-free forward elimination over the columns of ``m``, applied
    to the augmented rows [m | rhs].

    Returns the pivot columns (the lexicographically first column basis,
    greedy in index order), the eliminated rows and the sign of the row swaps.
    """
    a = [list(row) + list(rhs[i]) if rhs else list(row) for i, row in enumerate(m)]
    nrows = len(a)
    ncols = len(m[0]) if nrows else 0
    width = len(a[0]) if nrows else 0
    pivots = []
    sign = 1
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        lead = a[r]
        pivot = lead[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, width):
                row[j] = _exact_div(pivot * row[j] - f * lead[j], prev)
            row[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots, a, sign


def det_exact(m: Matrix) -> int:
    """Exact determinant via Bareiss elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    pivots, u, sign = _bareiss(m)
    if len(pivots) < n:
        return 0
    return sign * u[n - 1][n - 1] if n else 1


def _adjugate_times(a: Matrix, rhs: Matrix) -> tuple[int, Matrix | None]:
    """(det(a), adjugate(a) @ rhs), or (0, None) for singular a: eliminate
    [a | rhs], then back-substitute x_i = (p * rhs_i - sum_{j>i} u_ij x_j) / u_ii
    with p = u_{n-1,n-1} = sign * det, so x = p * a^-1 @ rhs is integral
    (exact divisions)."""
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise ValueError("adjugate requires a square system")
    pivots, u, sign = _bareiss(a, rhs)
    if len(pivots) < n:
        return 0, None
    p = u[n - 1][n - 1] if n else 1
    x: Matrix = [[] for _ in range(n)]
    for i in reversed(range(n)):
        row = u[i]
        x[i] = [
            _exact_div(p * v - sum(row[j] * x[j][k] for j in range(i + 1, n)), row[i])
            for k, v in enumerate(row[n:])
        ]
    return sign * p, [[sign * v for v in xi] for xi in x]


def adjugate_solve(a: Matrix, b) -> tuple[int, list[int]]:
    """Return (det(a), adjugate(a) @ b) for nonsingular a; the result
    satisfies a @ y == det * b."""
    d, y = _adjugate_times(a, [[v] for v in b])
    if y is None:
        raise SingularMatrixError("matrix is singular")
    return d, [row[0] for row in y]


def det_adjugate(a: Matrix) -> tuple[int, Matrix | None]:
    """(det(a), adjugate(a)) from one elimination, or (0, None) for singular a."""
    n = len(a)
    return _adjugate_times(a, [[int(i == j) for j in range(n)] for i in range(n)])


def adjugate(a: Matrix) -> Matrix:
    """Integer adjugate of a nonsingular a: a @ adjugate(a) == det(a) * I."""
    adj = det_adjugate(a)[1]
    if adj is None:
        raise SingularMatrixError("matrix is singular")
    return adj


def rank_exact(m: Matrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    return len(_bareiss(m)[0])


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
    cols = _bareiss(a)[0]
    if det_exact(principal_submatrix(a, cols)) == 0:
        raise InternalError("pivot columns give a singular principal minor")
    return mask_of(cols)
