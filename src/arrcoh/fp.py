"""Dense elimination over a field (F_p, or Q): rank and right kernel.

Matrices are lists of equal-length lists.  Over F_p (``p`` a prime) the
entries are ints, any residues, reduced mod p internally; any prime
modulus works, however large.  Over Q (``p=None``) the entries are ints or
Fractions, and every step is exact Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND = "python"  # the only one; benchmark results record it


def _rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """Row-reduce a copy mod p, or over Q when p is None; return
    (matrix, pivot column list)."""
    if p is not None and p < 2:
        raise ValueError(f"modulus must be a prime, got {p}")
    mat = [[x % p if p else Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, nrows):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][c], p - 2, p) if p else 1 / mat[r][c]
        row_r = mat[r]
        if inv != 1:
            for j in range(c, ncols):
                row_r[j] = row_r[j] * inv % p if p else row_r[j] * inv
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_i = mat[i]
                for j in range(c, ncols):
                    y = row_i[j] - f * row_r[j]
                    row_i[j] = y % p if p else y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def fp_rank(rows: list[list], p: int | None) -> int:
    """Rank of the matrix over F_p, or over Q when p is None."""
    if not rows or not rows[0]:
        return 0
    return len(_rref(rows, p)[1])


def fp_kernel(rows: list[list], p: int | None) -> list[list]:
    """Basis of the right kernel {v : A v = 0} over F_p, or over Q when p
    is None, as a list of rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    if ncols == 0:
        return []
    mat, pivots = _rref(rows, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-mat[r][fc]) % p if p else -mat[r][fc]
        basis.append(v)
    return basis
