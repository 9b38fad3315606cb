"""Reference values for the benchmark's correctness gate.

Nothing here imports arrcoh: each check recomputes its expected value from
the raw input by a different route than the package takes (Whitney's
subset formula instead of the intersection lattice, determinants instead
of Smith forms), so a defect in the package cannot also hide in its check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

# Isomorphism classes of simplicial complexes on exactly k vertices, every
# vertex used (k = 0 is the irrelevant complex).  The total for k <= 5,
# 209, is acceptance criterion c05.
CLASSES_ON_EXACTLY = (1, 1, 2, 5, 20, 180)

# Cohen-Macaulay classes among all complexes on at most k vertices, over Z
# and over F_101 alike (no torsion appears this small).  The value for 5
# is acceptance criterion c05; the value for 4 was counted once and frozen.
CM_CLASSES_UP_TO = {4: 19, 5: 68}


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def det(mat) -> int:
    """Integer determinant by cofactor expansion (matrices here are at most 3x3)."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def minors_gcd(rows, k: int) -> int:
    """gcd of all k x k minors of an integer matrix."""
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            g = gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
    return g


def component_count(rows) -> int:
    """Components of {x in E^n : rows . x = 0}: (gcd of the r x r minors)^2.

    The product of the elementary divisors of an integer matrix of rank r
    is the gcd of its r x r minors, and each divisor d contributes a
    (Z/d)^2 of components on a curve.
    """
    r = rank(rows)
    return 1 if r == 0 else minors_gcd(rows, r) ** 2


def is_unimodular(rows) -> bool:
    """Every row subset spans a saturated sublattice: all divisors are 1."""
    for k in range(1, len(rows) + 1):
        for subset in combinations(rows, k):
            if component_count(list(subset)) != 1:
                return False
    return True


def poincare(rows) -> list[int]:
    """Poincare polynomial of a central arrangement by Whitney's formula.

    pi(t) = sum over subsets S of the hyperplanes of (-1)^(|S| + rk S) t^(rk S).
    """
    m = len(rows)
    coeffs = [0] * (rank(rows) + 1)
    for k in range(m + 1):
        for subset in combinations(rows, k):
            r = rank(list(subset)) if subset else 0
            coeffs[r] += (-1) ** (k + r)
    return coeffs


def abs_beta(pi) -> int:
    """|beta| = |(pi(t) / (1 + t)) at t = -1|."""
    quot = []
    for i, c in enumerate(pi[:-1]):
        quot.append(c - quot[-1] if i else c)
    if pi[-1] != quot[-1]:
        raise ValueError("Poincare polynomial not divisible by 1 + t")
    return abs(sum(c * (-1) ** i for i, c in enumerate(quot)))
