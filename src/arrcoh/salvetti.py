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

Incidence signs come from the regularity of the complex: two facets of a
cell that share a ridge force each other's sign.  Which facets of a cell
(f, c) share a ridge depends on the face f alone, so each face gets one
ridge plan, checked once per face (every ridge on exactly two facets, the
facets connected through their ridges, and every edge on exactly two
vertices); each of its cells walks the plan and checks that its forced
signs agree.

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

    The facets of a cell (f, c) are the cells (g, g o c) for the covers g
    of f.  An edge is oriented away from its own chamber: sign -1 on the
    vertex c, +1 on the opposite chamber; its face must have exactly these
    two covers, checked once per face.  In higher dimension, any two
    facets sharing a ridge (a codimension-two cell) are linked by the
    regularity diamond (exactly two cells between), which forces their
    relative signs; a walk over the facet adjacency graph fixes every sign
    from the choice +1 on the first facet.

    The ridges of the facet (g, g o c) are the cells (h, h o c) for the
    covers h of g, so which facets share a ridge, and at which positions
    in their boundaries, depends on the face f alone.  That ridge plan is
    built once per face, and with it the two checks that depend on f
    alone: every ridge lies on exactly two facets, and the facets are
    connected through their ridges.  Each cell of f then only walks the
    plan, and checks per cell that the signs its ridges force agree (with
    two vertices per edge, the signs around a 2-cell always do).  A
    failed check means the complex is not regular and raises
    InternalError, naming the face's first cell for the per-face checks.

    >>> three_lines = Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]])
    >>> build_salvetti(three_lines).cell_counts()
    [6, 12, 6]
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
    faces_by_dim = [[f for f in fs.faces if fs.codim[f] == d] for d in range(max(fs.codim.values(), default=0) + 1)]
    cells_of = {f: [(f, c) for c in sorted(above[f])] for f in fs.faces}
    cells_by_dim = tuple(tuple(cell for f in faces for cell in cells_of[f]) for faces in faces_by_dim)

    # a facet's chamber lies across the hyperplanes it separates the cell's
    # chamber from; those on the base chamber's side are the ones crossed
    away = {c: frozenset(i for i, (x, y) in enumerate(zip(c, base)) if x != y) for c in chambers}
    chamber = {c: c for c in chambers}  # one tuple per chamber, shared by its cells
    crossings: dict[frozenset, frozenset] = {}
    boundary: dict[Cell, tuple[tuple[Cell, int, frozenset], ...]] = {}
    for d in range(1, len(cells_by_dim)):
        for f in faces_by_dim[d]:
            covers = fs.covers[f]
            # g o c overwrites c where g is nonzero and f is zero
            flips = [[(i, s) for i, (x, s) in enumerate(zip(f, g)) if s != x] for g in covers]
            if d > 1:
                plan = _ridge_plan(cells_of[f][0], covers, fs.covers)
            elif len(covers) == 2:
                plan = None
            else:
                # with no covers there is no chamber above, so no cell to name
                edge = cells_of[f][0] if covers else f
                raise InternalError(f"edge {edge} is not regular: it has {len(covers)} vertices")
            for cell in cells_of[f]:
                c = cell[1]
                facets = []
                for flip, g in zip(flips, covers):
                    x = list(c)
                    for i, s in flip:
                        x[i] = s
                    facets.append((g, chamber[tuple(x)]))
                if plan is None:
                    eps = [-1 if g == c else 1 for g, _ in facets]
                else:
                    eps = _walk_plan(cell, plan, [boundary[facet] for facet in facets])
                entries = []
                for facet, e in zip(facets, eps):
                    crossed = away[c] - away[facet[1]]
                    entries.append((facet, e, crossings.setdefault(crossed, crossed)))
                boundary[cell] = tuple(entries)
    return SalvettiComplex(fs, cells_by_dim, boundary)


def _ridge_plan(first: Cell, covers: tuple, covers_of: Mapping) -> list[tuple[int, int, int, int]]:
    """The ridge plan of a face f of codimension at least two, from its
    covers and theirs: one (a, ka, b, kb) per ridge, where facets a and b
    hold the ridge at positions ka and kb of their boundaries, ordered so
    that facet a is reached, from facet 0, before the ridge is listed.

    ``first`` is the first cell of f, which the errors name."""
    owners: dict[SignVector, list[tuple[int, int]]] = {}
    for a, g in enumerate(covers):
        for k, h in enumerate(covers_of[g]):
            owners.setdefault(h, []).append((a, k))
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in covers]
    for h, pair in owners.items():
        if len(pair) != 2:
            ridge = (h, tuple(x or y for x, y in zip(h, first[1])))
            raise InternalError(f"cell {first} is not regular: ridge {ridge} has {len(pair)} facets")
        (a, ka), (b, kb) = pair
        adjacency[a].append((ka, b, kb))
        adjacency[b].append((kb, a, ka))
    # breadth-first from facet 0; a ridge is listed from the facet met first
    walk = [0]
    order = {0: 0}
    plan = []
    for a in walk:
        for ka, b, kb in adjacency[a]:
            if b not in order:
                order[b] = len(walk)
                walk.append(b)
            if order[b] > order[a]:
                plan.append((a, ka, b, kb))
    if len(walk) != len(covers):
        raise InternalError(f"boundary of {first} is not connected")
    return plan


def _walk_plan(cell: Cell, plan: list[tuple[int, int, int, int]], facet_boundaries: list) -> list[int]:
    """Incidence signs of the facets of ``cell`` from its face's ridge plan
    and the boundaries of its facets, in the order of ``facet_boundaries``."""
    eps = [0] * len(facet_boundaries)
    eps[0] = 1
    for a, ka, b, kb in plan:
        forced = -eps[a] * facet_boundaries[a][ka][1] * facet_boundaries[b][kb][1]
        if not eps[b]:
            eps[b] = forced
        elif eps[b] != forced:
            raise InternalError(f"inconsistent incidence signs around {cell}")
    return eps


def twisted_complex(sal: SalvettiComplex, sys: RankOneSystem) -> CochainComplexData:
    """Cellular cochain complex with entries twisted by the weight
    monomials; construction re-verifies d . d = 0 with the twist.

    Each entry is a plain sum of eps * (product of crossed weights);
    :func:`make_complex` reduces it into the field.  Each distinct
    crossing set's product is taken once."""
    dims = {d: len(cells) for d, cells in enumerate(sal.cells_by_dim)}
    monomials: dict[frozenset, object] = {}
    diffs = {}
    for d in range(1, sal.dim + 1):
        index = {cell: j for j, cell in enumerate(sal.cells_by_dim[d - 1])}
        rows = []
        for cell in sal.cells_by_dim[d]:
            row = {}
            for facet, eps, crossed in sal.boundary[cell]:
                w = monomials.get(crossed)
                if w is None:
                    w = monomials[crossed] = math.prod(sys.weights[i] for i in crossed)
                j = index[facet]
                row[j] = row.get(j, 0) + eps * w
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
