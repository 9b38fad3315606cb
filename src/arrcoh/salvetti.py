"""Combinatorial model of the complexified complement of a real arrangement.

The faces of the real arrangement are the covectors of its oriented
matroid: sign vectors with one entry per hyperplane.  Every covector is a
composition of cocircuits, and the cocircuits are the two sign vectors of
each line of the arrangement, so the faces come from a breadth-first
closure with no linear programming (Bjorner, Las Vergnas, Sturmfels, White
and Ziegler, *Oriented Matroids*, 1999).  The complement of the
complexified arrangement deformation-retracts onto a regular cell complex
whose cells are pairs (face, adjacent chamber) (Salvetti, Invent. Math.
88, 1987); its cellular cochain complex, twisted by one unit weight per
hyperplane, computes the cohomology of the complement with rank-one
coefficients.  All boundary matrices are exact and the d^2 = 0 identity
is checked on construction.

Two output limits, each a ValueError that states it, keep inputs small:
``MAX_FACES`` faces, and ``MAX_INCIDENCES`` (cell, facet) pairs counted
before any boundary is built.  The second matters in low rank: m lines in
the plane have 4m + 1 faces, but 2m facets on each 2-cell.  This module
grounds the support certificates on small inputs; it does not race
dedicated solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from arrcoh.arrangement import (
    Arrangement,
    IntersectionLattice,
    RankOneSystem,
    intersection_lattice,
    poincare_and_beta,
)
from arrcoh.cochain import CochainComplexData, complex_cohomology, make_complex
from arrcoh.linalg import InternalError

__all__ = [
    "MAX_FACES",
    "MAX_INCIDENCES",
    "FaceSystem",
    "enumerate_faces",
    "SalvettiComplex",
    "build_salvetti",
    "twisted_complex",
    "twisted_cohomology",
    "SalvettiReport",
]

MAX_FACES = 1000
MAX_INCIDENCES = 30_000

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane
Cell = tuple  # (face, chamber) pair of sign vectors


def _compose(f: SignVector, g: SignVector) -> SignVector:
    return tuple(a or b for a, b in zip(f, g))


@dataclass(frozen=True)
class FaceSystem:
    """All faces of the real arrangement, as sign vectors, with their
    codimensions.  Faces are ordered by specialization: f <= g when f lies
    in the closure of g, that is when g agrees with every nonzero sign of
    f; ``covers[f]`` lists, in sorted order, the faces one codimension more
    generic with f in their closure."""

    arrangement: Arrangement
    faces: tuple[SignVector, ...]
    codim: Mapping[SignVector, int]
    covers: Mapping[SignVector, tuple[SignVector, ...]]

    @property
    def chambers(self) -> tuple[SignVector, ...]:
        return tuple(f for f in self.faces if self.codim[f] == 0)


def _cocircuits(a: Arrangement, lat: IntersectionLattice) -> list[SignVector]:
    """Both sign vectors of each line of the arrangement.

    A flat of rank ``a.rank - 1`` is a line modulo the common kernel of the
    normals; any vector of the flat outside that kernel spans it, and the
    signs of the normals on it form a cocircuit."""
    rows = a.integral_normals
    out = []
    for cs in lat.poset.elements:
        if lat.flats[cs].rank != a.rank - 1:
            continue
        for v in lat.flats[cs].kernel_basis:
            y = tuple((d > 0) - (d < 0) for d in (sum(x * t for x, t in zip(row, v)) for row in rows))
            if any(y):
                out += [y, tuple(-s for s in y)]
                break
    return out


def enumerate_faces(a: Arrangement, lat: IntersectionLattice | None = None) -> FaceSystem:
    """Every face of the real arrangement: the closure of the zero vector
    under composition with the cocircuits.

    The closure yields only covectors, and every covector is a composition
    of cocircuits, so it yields all of them.  A face's codimension is the
    rank of its zero set.  If g covers f then g = f o y for a cocircuit
    y <= g, so the covers of f are the faces f o y one codimension lower;
    f o y depends only on y restricted to f's zero set, so each distinct
    restriction is tried once.  The chamber count is cross-checked against
    the Poincare polynomial at 1.  Every flat is the zero set of a face, so
    a lattice built here stops at ``MAX_FACES`` flats too.
    """
    lat = lat or intersection_lattice(a, max_flats=MAX_FACES)
    cocircuits = _cocircuits(a, lat)
    zero = (0,) * a.m
    codim: dict[SignVector, int] = {zero: lat.flats[lat.top].rank}
    covers: dict[SignVector, tuple[SignVector, ...]] = {}
    fillings: dict[tuple[int, ...], set[SignVector]] = {}
    queue = [zero]
    for f in queue:
        z = tuple(i for i, s in enumerate(f) if s == 0)
        fill = fillings.get(z)
        if fill is None:
            fill = fillings[z] = {tuple(y[i] for i in z) for y in cocircuits} - {(0,) * len(z)}
        up = []
        for p in fill:
            g = list(f)
            for i, s in zip(z, p):
                g[i] = s
            g = tuple(g)
            if g not in codim:
                if len(codim) == MAX_FACES:
                    raise ValueError(f"face enumeration stops at {MAX_FACES} faces; this arrangement has more")
                codim[g] = lat.flats[tuple(i for i, s in zip(z, p) if s == 0)].rank
                queue.append(g)
            if codim[g] == codim[f] - 1:
                up.append(g)
        covers[f] = tuple(sorted(up))
    fs = FaceSystem(a, tuple(sorted(codim)), codim, covers)
    if a.m >= 1:
        pi, _ = poincare_and_beta(a, lat)
        if len(fs.chambers) != sum(pi):
            raise InternalError(f"chamber count {len(fs.chambers)} disagrees with the lattice prediction {sum(pi)}")
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
    chambers = fs.chambers
    base = min(chambers)
    # the chambers above a face are the chambers above its covers
    above = {c: frozenset((c,)) for c in chambers}
    for f in sorted(fs.faces, key=fs.codim.__getitem__):
        if f not in above:
            above[f] = frozenset().union(*(above[g] for g in fs.covers[f]))
    incidences = sum(len(fs.covers[f]) * len(above[f]) for f in fs.faces)
    if incidences > MAX_INCIDENCES:
        raise ValueError(f"the cell complex stops at {MAX_INCIDENCES} boundary incidences; this one needs {incidences}")
    cells_by_dim = [
        sorted((f, c) for f in fs.faces if fs.codim[f] == d for c in above[f])
        for d in range(max(fs.codim.values(), default=0) + 1)
    ]

    # a facet's chamber lies across the hyperplanes it separates the cell's
    # chamber from; those on the base chamber's side are the ones crossed
    away = {c: frozenset(i for i, (x, y) in enumerate(zip(c, base)) if x != y) for c in chambers}
    boundary: dict[Cell, tuple[tuple[Cell, int, frozenset], ...]] = {}
    for d in range(1, len(cells_by_dim)):
        for cell in cells_by_dim[d]:
            f, c = cell
            facets = sorted((g, _compose(g, c)) for g in fs.covers[f])
            eps = _propagate_signs(cell, facets, boundary)
            boundary[cell] = tuple((facet, eps[facet], away[c] - away[facet[1]]) for facet in facets)
    return SalvettiComplex(fs, tuple(tuple(layer) for layer in cells_by_dim), boundary)


def _propagate_signs(
    cell: Cell,
    facets: list[Cell],
    boundary: Mapping[Cell, tuple[tuple[Cell, int, frozenset], ...]],
) -> dict[Cell, int]:
    if facets[0] not in boundary:
        # an edge: its facets are vertices, oriented away from its own chamber
        f, c = cell
        opposite = _compose(f, _negate(c))
        return {(c, c): -1, (opposite, opposite): 1}
    # ridges: codim-two cells shared by exactly two facets, each of which
    # already carries its incidence sign in its own boundary
    ridge_owners: dict[Cell, list[tuple[Cell, int]]] = {}
    for facet in facets:
        for ridge, sign, _ in boundary[facet]:
            ridge_owners.setdefault(ridge, []).append((facet, sign))
    adjacency: dict[Cell, list[tuple[Cell, int]]] = {facet: [] for facet in facets}
    for ridge, owners in ridge_owners.items():
        if len(owners) != 2:
            raise InternalError(f"cell {cell} is not regular: ridge {ridge} has {len(owners)} facets")
        (u, su), (v, sv) = owners
        adjacency[u].append((v, su * sv))
        adjacency[v].append((u, su * sv))
    eps: dict[Cell, int] = {facets[0]: 1}
    queue = [facets[0]]
    while queue:
        u = queue.pop()
        for v, product in adjacency[u]:
            forced = -eps[u] * product
            if v not in eps:
                eps[v] = forced
                queue.append(v)
            elif eps[v] != forced:
                raise InternalError(f"inconsistent incidence signs around {cell}")
    if len(eps) != len(facets):
        raise InternalError(f"boundary of {cell} is not connected")
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
            raise InternalError(f"product split failed on betti numbers {full}")
        projective = tuple(u)
    return SalvettiReport(sys.field.to_json(), tuple(sal.cell_counts()), full, projective)
