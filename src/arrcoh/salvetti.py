"""Combinatorial model of the complexified complement of a real arrangement.

Faces of the real arrangement are sign vectors, enumerated flat by flat
with an exact Fourier-Motzkin feasibility test.  The complement of the
complexified arrangement deformation-retracts onto a regular cell complex
whose cells are pairs (face, adjacent chamber); its cellular cochain
complex, twisted by one unit weight per hyperplane, computes the
cohomology of the complement with rank-one coefficients.  All boundary
matrices are exact and the d^2 = 0 identity is checked on construction.

Face enumeration is intentionally capped at 8 hyperplanes in ambient
dimension 4: the cell complex grows with the chamber count and this
module exists to ground the support certificates on small inputs, not to
race dedicated solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from arrcoh.arrangement import (
    Arrangement,
    IntersectionLattice,
    RankOneSystem,
    intersection_lattice,
    poincare_and_beta,
)
from arrcoh.cochain import CochainComplexData, complex_cohomology, make_complex

__all__ = [
    "MAX_HYPERPLANES",
    "MAX_DIMENSION",
    "FaceSystem",
    "enumerate_faces",
    "SalvettiComplex",
    "build_salvetti",
    "twisted_complex",
    "twisted_cohomology",
    "SalvettiReport",
]

MAX_HYPERPLANES = 8
MAX_DIMENSION = 4

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane
Cell = tuple  # (face, chamber) pair of sign vectors


def _fm_feasible(rows: list[list[Fraction]]) -> bool:
    """Is there a point with row . t > 0 for every row?

    Homogeneous strict inequalities only.  Fourier-Motzkin elimination
    preserves feasibility of strict systems exactly; the system is
    infeasible precisely when some elimination stage produces an
    all-zero row (the contradiction 0 > 0).
    """
    if not rows:
        return True
    width = len(rows[0])
    live = {_normalize_row(r) for r in rows}
    for col in range(width):
        if any(all(x == 0 for x in r) for r in live):
            return False
        pos = [r for r in live if r[col] > 0]
        neg = [r for r in live if r[col] < 0]
        nxt = {r for r in live if r[col] == 0}
        for p in pos:
            for q in neg:
                comb = tuple(p[j] * (-q[col]) + q[j] * p[col] for j in range(width))
                nxt.add(_normalize_row(comb))
        live = nxt
    return not any(all(x == 0 for x in r) for r in live)


def _normalize_row(row: Sequence[Fraction]) -> tuple:
    for x in row:
        if x != 0:
            return tuple(y / abs(x) for y in row)
    return tuple(row)


def _face_leq(f: SignVector, g: SignVector) -> bool:
    return all(a == 0 or a == b for a, b in zip(f, g))


def _compose(f: SignVector, g: SignVector) -> SignVector:
    return tuple(a if a != 0 else b for a, b in zip(f, g))


@dataclass(frozen=True)
class FaceSystem:
    """All faces of the real arrangement, as sign vectors, with their
    codimensions.  Faces are ordered by specialization: f <= g when f lies
    in the closure of g (``_face_leq``)."""

    arrangement: Arrangement
    faces: tuple[SignVector, ...]
    codim: Mapping[SignVector, int]

    @property
    def chambers(self) -> tuple[SignVector, ...]:
        return tuple(f for f in self.faces if self.codim[f] == 0)

    @property
    def base_chamber(self) -> SignVector:
        return min(self.chambers)

    def covers_of(self, f: SignVector) -> list[SignVector]:
        """Faces one codimension more generic, with f in their closure."""
        k = self.codim[f]
        return [g for g in self.faces if self.codim[g] == k - 1 and _face_leq(f, g)]


def enumerate_faces(a: Arrangement, lat: IntersectionLattice | None = None) -> FaceSystem:
    """Enumerate every face of the real arrangement, one flat at a time.

    On the flat cut out by a closed set Z, a candidate assigns a strict
    sign to each remaining hyperplane; the candidate is a face exactly
    when the induced homogeneous strict system on the flat is feasible.
    The chamber count is cross-checked against the Poincare polynomial
    at 1.
    """
    if a.m > MAX_HYPERPLANES or a.n > MAX_DIMENSION:
        raise ValueError(
            f"face enumeration is capped at {MAX_HYPERPLANES} hyperplanes "
            f"in dimension {MAX_DIMENSION} (got m={a.m}, n={a.n})"
        )
    lat = lat or intersection_lattice(a)
    faces: list[SignVector] = []
    codim: dict[SignVector, int] = {}
    for cs in lat.poset.elements:
        flat = lat.flats[cs]
        basis = flat.kernel_basis  # rows spanning the flat subspace
        others = [i for i in range(a.m) if i not in cs]
        # restrict each remaining functional to flat coordinates
        restricted = {
            i: [sum(b[j] * a.normals.row(i)[j] for j in range(a.n)) for b in basis]
            for i in others
        }
        for signs in itertools.product((-1, 1), repeat=len(others)):
            rows = [[s * x for x in restricted[i]] for s, i in zip(signs, others)]
            if _fm_feasible(rows):
                vec = [0] * a.m
                for s, i in zip(signs, others):
                    vec[i] = s
                faces.append(tuple(vec))
                codim[tuple(vec)] = flat.rank
    faces.sort()
    fs = FaceSystem(a, tuple(faces), codim)
    if a.m >= 1:
        pi, _ = poincare_and_beta(a, lat)
        if len(fs.chambers) != sum(pi):
            raise AssertionError(
                f"chamber count {len(fs.chambers)} disagrees with the lattice prediction {sum(pi)}"
            )
    return fs


@dataclass(frozen=True)
class SalvettiComplex:
    """Cells are (face, chamber) pairs with the face in the chamber's
    closure; the cell dimension is the codimension of the face.

    ``boundary`` maps each cell of positive dimension to its facet cells
    with an incidence sign and the set of hyperplanes crossed toward the
    base chamber; a weight system turns the crossing set into a monomial.
    """

    face_system: FaceSystem
    cells_by_dim: tuple[tuple[Cell, ...], ...]
    boundary: Mapping[Cell, tuple[tuple[Cell, int, frozenset], ...]]

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    def cell_counts(self) -> list[int]:
        return [len(cells) for cells in self.cells_by_dim]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cells) for d, cells in enumerate(self.cells_by_dim))


def build_salvetti(a: Arrangement, fs: FaceSystem | None = None) -> SalvettiComplex:
    """Assemble the cell complex and a consistent incidence sign function.

    Signs are propagated dimension by dimension: inside the boundary of
    each cell, any two facets sharing a codimension-two cell are linked by
    the regularity diamond (exactly two cells between), which forces their
    relative signs.  A breadth-first pass over the facet adjacency graph
    fixes all signs up to the choice on one facet; inconsistency or a
    disconnected boundary would mean the complex is not regular and is
    reported as an error.
    """
    fs = fs or enumerate_faces(a)
    base = fs.base_chamber if fs.chambers else None
    cells_by_dim: list[list[Cell]] = []
    for d in range(max(fs.codim.values(), default=0) + 1):
        layer = []
        for f in fs.faces:
            if fs.codim[f] != d:
                continue
            for c in fs.chambers:
                if _face_leq(f, c):
                    layer.append((f, c))
        layer.sort()
        cells_by_dim.append(layer)

    covers_cache = {f: fs.covers_of(f) for f in fs.faces}
    boundary: dict[Cell, tuple[tuple[Cell, int, frozenset], ...]] = {}
    signs: dict[tuple[Cell, Cell], int] = {}

    for d in range(1, len(cells_by_dim)):
        for cell in cells_by_dim[d]:
            f, c = cell
            facets = [(g, _compose(g, c)) for g in covers_cache[f]]
            facets.sort()
            eps = _propagate_signs(cell, facets, covers_cache, signs)
            out = []
            for facet in facets:
                signs[(cell, facet)] = eps[facet]
                crossed = frozenset(
                    i for i in range(a.m) if c[i] != facet[1][i] and facet[1][i] == base[i]
                )
                out.append((facet, eps[facet], crossed))
            boundary[cell] = tuple(out)
    return SalvettiComplex(fs, tuple(tuple(layer) for layer in cells_by_dim), boundary)


def _propagate_signs(
    cell: Cell,
    facets: list[Cell],
    covers_cache: Mapping[SignVector, list[SignVector]],
    signs: Mapping[tuple[Cell, Cell], int],
) -> dict[Cell, int]:
    if len(facets) == 2 and not covers_cache[facets[0][0]]:
        # an edge: oriented away from its own chamber
        f, c = cell
        opposite = _compose(f, _negate(c))
        return {(c, c): -1, (opposite, opposite): 1}
    # ridges: codim-two cells shared by exactly two facets
    ridge_owners: dict[Cell, list[Cell]] = {}
    for facet in facets:
        g, dch = facet
        for h in covers_cache[g]:
            ridge_owners.setdefault((h, _compose(h, dch)), []).append(facet)
    adjacency: dict[Cell, list[tuple[Cell, Cell]]] = {facet: [] for facet in facets}
    for ridge, owners in ridge_owners.items():
        if len(owners) != 2:
            raise AssertionError(f"cell {cell} is not regular: ridge {ridge} has {len(owners)} facets")
        u, v = owners
        adjacency[u].append((v, ridge))
        adjacency[v].append((u, ridge))
    eps: dict[Cell, int] = {facets[0]: 1}
    queue = [facets[0]]
    while queue:
        u = queue.pop()
        for v, ridge in adjacency[u]:
            forced = -eps[u] * signs[(u, ridge)] * signs[(v, ridge)]
            if v not in eps:
                eps[v] = forced
                queue.append(v)
            elif eps[v] != forced:
                raise AssertionError(f"inconsistent incidence signs around {cell}")
    if len(eps) != len(facets):
        raise AssertionError(f"boundary of {cell} is not connected")
    return eps


def _negate(sign_vector: SignVector) -> SignVector:
    return tuple(-x for x in sign_vector)


def twisted_complex(sal: SalvettiComplex, sys: RankOneSystem) -> CochainComplexData:
    """Cellular cochain complex with entries twisted by the weight
    monomials; construction re-verifies d . d = 0 with the twist.

    Each entry is a plain sum of eps * (product of crossed weights);
    :func:`make_complex` reduces it into the field."""
    dims = {d: len(cells) for d, cells in enumerate(sal.cells_by_dim)}
    diffs = {}
    for d in range(1, sal.dim + 1):
        index = {cell: j for j, cell in enumerate(sal.cells_by_dim[d - 1])}
        rows = []
        for cell in sal.cells_by_dim[d]:
            row = {}
            for facet, eps, crossed in sal.boundary[cell]:
                j = index[facet]
                row[j] = row.get(j, 0) + eps * math.prod(sys.weights[i] for i in crossed)
            rows.append(row)
        diffs[d - 1] = rows
    return make_complex(sys.field, dims, diffs)


@dataclass(frozen=True)
class SalvettiReport:
    """Twisted Betti numbers of the full complement, and (for projective
    weights) of its projectivization, related by the product split
    h_p(full) = h_p(proj) + h_{p-1}(proj)."""

    field_json: dict
    cell_counts: tuple[int, ...]
    full_betti: tuple[int, ...]
    projective_betti: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "field": self.field_json,
            "cells": list(self.cell_counts),
            "betti": list(self.full_betti),
            "projective_betti": None if self.projective_betti is None else list(self.projective_betti),
        }


def twisted_cohomology(
    a: Arrangement,
    sys: RankOneSystem,
    sal: SalvettiComplex | None = None,
) -> SalvettiReport:
    """Betti numbers of the complexified complement with the given weights.

    When the weights are projective (product 1), the coefficients descend
    to the projectivized complement and its Betti numbers are recovered
    from the product split; the split always resolves exactly, which is an
    internal consistency check on the complex.
    """
    sal = sal or build_salvetti(a)
    report = complex_cohomology(twisted_complex(sal, sys))
    top = sal.dim
    full = tuple(report.betti(d) for d in range(top + 1))
    projective = None
    if sys.is_projective and top >= 1:
        u = [full[0]]
        for p in range(1, top):
            u.append(full[p] - u[p - 1])
        if any(x < 0 for x in u) or full[top] != u[top - 1]:
            raise AssertionError(f"product split failed on betti numbers {full}")
        projective = tuple(u)
    return SalvettiReport(sys.field.to_json(), tuple(sal.cell_counts()), full, projective)
