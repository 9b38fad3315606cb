"""Dense elimination over a prime field: rank and right kernel.

Matrices are lists of equal-length lists of ints (any residues; reduced
mod p internally).  Any prime modulus works, however large.
"""

from __future__ import annotations

BACKEND = "python"  # the only one; benchmark results record it


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduce in place mod p; return (matrix, pivot column list)."""
    if p < 2:
        raise ValueError(f"modulus must be a prime, got {p}")
    mat = [[x % p for x in row] for row in rows]
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
        inv = pow(mat[r][c], p - 2, p)
        row_r = mat[r]
        if inv != 1:
            for j in range(c, ncols):
                row_r[j] = row_r[j] * inv % p
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_i = mat[i]
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def fp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of the matrix over F_p."""
    if not rows or not rows[0]:
        return 0
    return len(_rref(rows, p)[1])


def fp_kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel {v : A v = 0} over F_p, as a list of rows."""
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
            v[pc] = (-mat[r][fc]) % p
        basis.append(v)
    return basis
