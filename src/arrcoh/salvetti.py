"""Combinatorial model of the complexified complement of a real arrangement.

The faces of the real arrangement are the covectors of its oriented
matroid: sign vectors with one entry per hyperplane.  The faces just above
a face f are f composed with the cocircuits of its localization, one pair
per flat that f's zero set covers in the intersection lattice, so the
faces come from a breadth-first walk over the lattice's cover relations
with no linear programming (Bjorner, Las Vergnas, Sturmfels, White and
Ziegler, *Oriented Matroids*, 1999).  The complement of the
complexified arrangement deformation-retracts onto a regular cell complex
whose cells are pairs (face, adjacent chamber) (Salvetti, Invent. Math.
88, 1987); its cellular cochain complex, twisted by one unit weight per
hyperplane, computes the cohomology of the complement with rank-one
coefficients.  Its coboundaries are built once, with a signed monomial in
the weights for each entry, and the d^2 = 0 identity is checked on
construction for all weights at once.  A central complement splits as
M(A) = C^* x M(dA), dA the decone at hyperplane 0 (Orlik and Terao, 1992,
Prop. 5.1); the cells on the positive side of hyperplane 0 form the
Salvetti complex of dA, and Kunneth does the rest.  So the closure runs
on that side, with sign 0 or +1 on hyperplane 0, and the mirror f -> -f
gives the other faces and the full cell counts.

Incidence signs are one tuple per face, shared by all of its cells: every
cell (f, c) is a copy of the same zonotope dual to f, glued along copies
of its covers' zonotopes, so one orientation per face is consistent.  An
edge runs from the lesser of its two vertex chambers to the greater; in
higher dimension two facets that share a ridge force each other's sign
(the regularity of the complex).  The checks run once per face and so
hold for every cell: every edge on exactly two vertices, every ridge on
exactly two facets, the facets connected through their ridges, and the
forced signs in agreement.

Two output limits, each a ValueError that states it, keep inputs small:
``MAX_FACES`` faces, and ``MAX_INCIDENCES`` (cell, facet) pairs of the
complex built, counted before any boundary is built.  The second matters
in low rank: m lines in the plane have 4m + 1 faces, but 2m facets on each
2-cell of the full complex.  This module grounds the support certificates
on small inputs; it does not race dedicated solvers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, NamedTuple

from arrcoh.arrangement import Arrangement, intersection_lattice, poincare_and_beta
from arrcoh.cochain import Coboundaries, CochainComplexData, complex_cohomology, make_complex  # noqa: F401 (perfbench traces it here)
from arrcoh.linalg import InternalError, RankOneSystem

__all__ = [
    "MAX_FACES",
    "MAX_INCIDENCES",
    "FaceSystem",
    "enumerate_faces",
    "build_salvetti",
    "twisted_complex",
    "twisted_cohomology",
    "SalvettiReport",
]

MAX_FACES = 1000
MAX_INCIDENCES = 30_000

SignVector = tuple  # entries in {-1, 0, +1}, one per hyperplane
Cell = tuple  # (face, chamber) pair of sign vectors


class FaceSystem:
    """All faces of the real arrangement, as sign vectors, with their
    codimensions.  Faces are ordered by specialization: f <= g when f lies
    in the closure of g, that is when g agrees with every nonzero sign of
    f; ``covers[f]`` lists, in sorted order, the faces one codimension more
    generic with f in their closure."""

    __slots__ = ("faces", "codim", "covers")

    def __init__(self, faces: tuple, codim: Mapping[SignVector, int], covers: Mapping) -> None:
        self.faces, self.codim, self.covers = faces, codim, covers

    @property
    def chambers(self) -> tuple[SignVector, ...]:
        return tuple(f for f in self.faces if self.codim[f] == 0)


def enumerate_faces(a: Arrangement) -> FaceSystem:
    """Every face of the real arrangement: those of :func:`_decone_side` and
    their mirrors.  g covers f exactly when -g covers -f, so the covers
    across hyperplane 0 are mirrors too."""
    codim, half = _decone_side(a)
    mirror = {f: tuple(-s for s in f) for f in codim}
    codim.update({mirror[f]: d for f, d in codim.items()})
    covers = {f: list(up) for f, up in half.items()}
    for f, g in mirror.items():
        covers.setdefault(g, []).extend(mirror[h] for h in half[f] if h[0] > 0)
    return FaceSystem(tuple(sorted(codim)), codim, {f: tuple(sorted(up)) for f, up in covers.items()})


def _decone_side(a: Arrangement) -> tuple[dict, dict]:
    """Codimensions and covers of the faces with sign 0 or +1 on hyperplane
    0: a breadth-first walk up from the zero vector, kept to that side,
    which holds every face below its faces.  The covers of a face f with
    zero set Z are the cocircuits of its localization, composed with f:
    for each flat Y that Z covers, the signs s of Z's hyperplanes on a
    vector of Y outside Z are zero exactly on Y, and f o s and f o -s are
    the two covers with zero set Y, of codimension rank(Y).  When f has
    sign 0 on hyperplane 0, the one with s_0 < 0 lies on the other side.
    The pairs (s, rank(Y)) depend on Z alone, so each zero set's are worked
    out once, for the first face that has it.  ``MAX_FACES`` counts the
    mirror faces too, and so bounds the lattice; the chamber count, twice
    this side's, is checked against pi(1)."""
    lat = intersection_lattice(a, max_flats=MAX_FACES)
    rows = a.integral_normals
    zero = (0,) * a.m
    codim: dict[SignVector, int] = {zero: lat.flats[lat.top].rank}
    covers: dict[SignVector, tuple[SignVector, ...]] = {}
    steps: dict[tuple[int, ...], list] = {}
    total, queue = 1, [zero]
    for f in queue:
        z = tuple(i for i, s in enumerate(f) if s == 0)
        step = steps.get(z)
        if step is None:
            step = steps[z] = []
            for y in lat.lower_covers[z]:
                for v in lat.flats[y].kernel_basis:  # some vector of Y lies outside Z
                    s = [(d > 0) - (d < 0) for d in (sum(x * t for x, t in zip(rows[i], v)) for i in z)]
                    if any(s):
                        break
                step.append((s, lat.flats[y].rank))
        up = []
        for s, r in step:
            for e in (1, -1) if f[0] or not s[0] else (s[0],):
                g = list(f)
                for i, t in zip(z, s):
                    g[i] = e * t
                g = tuple(g)
                if g not in codim:
                    total += 1 + g[0]  # with its mirror when g[0] = +1
                    if total > MAX_FACES:
                        raise ValueError(f"face enumeration stops at {MAX_FACES} faces; this arrangement has more")
                    codim[g] = r
                    queue.append(g)
                up.append(g)
        covers[f] = tuple(sorted(up))
    if a.m >= 1:
        pi, _ = poincare_and_beta(a)
        if (chambers := 2 * list(codim.values()).count(0)) != sum(pi):
            raise InternalError(f"chamber count {chambers} disagrees with the lattice prediction {sum(pi)}")
    return codim, covers


def build_salvetti(fs: FaceSystem) -> Coboundaries:
    """The cellular coboundaries of the complex of ``fs``, with a
    consistent incidence sign function and the crossing monomials.

    The cells of dimension d are the (face, chamber) pairs of the faces of
    codimension d, numbered face by face in ``fs.faces`` order and each
    face's chambers in sorted order.  A chamber is encoded as the bitmask
    of the hyperplanes on which it differs from the base (least) chamber.
    The facets of a cell (f, c) are the cells (g, g o c) for the covers g
    of f: g o c clears c's bits where g is nonzero and f is zero, then
    sets those where g differs from the base.  The entry at (g, y) is the
    incidence sign of its cover times the product of the weights of the
    hyperplanes crossed toward the base chamber, c & ~y; so hyperplane i
    is the symbol x_i of :class:`~arrcoh.cochain.Coboundaries`, which
    checks d o d = 0 once for all weights.

    A cell's incidence signs are those of its face f, one per cover
    (:func:`_face_signs`): every cell of f is the same zonotope, with the
    same facets and ridges.  So the signs, and the regularity checks that
    go with them, are worked out once per face.  Every cover of a face
    must be one codimension more generic, and every composition g o c a
    chamber above g.  A failed check means the complex is not regular and
    raises InternalError, naming the face's first cell for the per-face
    checks.

    >>> three_lines = Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]])
    >>> build_salvetti(enumerate_faces(three_lines)).cell_counts()
    [6, 12, 6]
    """
    chambers = fs.chambers
    base = min(chambers)
    # the chambers above a face are the chambers above its covers
    above = {c: frozenset((c,)) for c in chambers}
    for f in sorted(fs.faces, key=fs.codim.__getitem__):
        if f not in above:
            for g in fs.covers[f]:
                if fs.codim.get(g) != fs.codim[f] - 1:
                    raise InternalError(f"face {f} is not regular: its cover {g} is not one codimension more generic")
            above[f] = frozenset().union(*(above[g] for g in fs.covers[f]))
    incidences = sum(len(fs.covers[f]) * len(above[f]) for f in fs.faces)
    if incidences > MAX_INCIDENCES:
        raise ValueError(f"the cell complex stops at {MAX_INCIDENCES} boundary incidences; this one needs {incidences}")
    faces_by_dim = [[f for f in fs.faces if fs.codim[f] == d] for d in range(max(fs.codim.values(), default=0) + 1)]
    chambers_of = {f: sorted(above[f]) for f in fs.faces}
    bits = {c: sum(1 << i for i, (x, y) in enumerate(zip(c, base)) if x != y) for c in chambers}
    column: dict[SignVector, dict[int, int]] = {f: {} for f in fs.faces}
    for faces in faces_by_dim:
        for j, (f, c) in enumerate((f, c) for f in faces for c in chambers_of[f]):
            column[f][bits[c]] = j

    signs: dict[SignVector, tuple[int, ...]] = {}
    rows = []
    for d in range(1, len(faces_by_dim)):
        block = []
        for f in faces_by_dim[d]:
            covers = fs.covers[f]
            # with no covers there is no chamber above, so no cell to name
            if d > 1 and covers:
                eps = _face_signs((f, chambers_of[f][0]), covers, fs.covers, signs)
            elif d > 1:
                raise InternalError(f"face {f} is not regular: it has no covers")
            elif len(covers) == 2:
                eps = (-1, 1)  # an edge runs from its lesser vertex to its greater
            else:
                edge = (f, chambers_of[f][0]) if covers else f
                raise InternalError(f"edge {edge} is not regular: it has {len(covers)} vertices")
            signs[f] = eps
            facets = []
            for g, e in zip(covers, eps):
                flip = put = 0
                for i, (x, s, b) in enumerate(zip(f, g, base)):
                    if s != x:
                        flip |= 1 << i
                        put |= (s != b) << i
                facets.append((~flip, put, column[g], e, g))
            for c in chambers_of[f]:
                here = bits[c]
                row = {}
                for keep, put, to, e, g in facets:
                    y = here & keep | put
                    j = to.get(y)
                    if j is None:
                        x = tuple(-b if y >> i & 1 else b for i, b in enumerate(base))
                        raise InternalError(f"cell {(f, c)} is not regular: its facet face {g} o c is {x}, no chamber above that face")
                    row[j] = (e, here & ~y)
                block.append(row)
        rows.append(block)
    return Coboundaries(tuple(sum(len(chambers_of[f]) for f in faces) for faces in faces_by_dim), tuple(rows))


def _face_signs(first: Cell, covers: tuple, covers_of: Mapping, signs: Mapping) -> tuple[int, ...]:
    """The incidence signs of every cell of a face f of codimension at
    least two, one per cover of f in order, from the signs of its covers.

    The ridges of f's cells are the covers of its covers.  Two facets a
    and b that hold a ridge at positions ka and kb of their boundaries are
    linked by the regularity diamond (exactly two cells between), which
    forces eps_b = -eps_a * signs[a][ka] * signs[b][kb]; a breadth-first
    walk from +1 on the first facet fixes every sign.  Every ridge must
    lie on exactly two facets, the facets must be connected through their
    ridges, and the forced signs must agree.  ``first`` is the first cell
    of f, which the errors name.
    """
    owners: dict[SignVector, list[tuple[int, int]]] = {}
    for a, g in enumerate(covers):
        for h, s in zip(covers_of[g], signs[g]):
            owners.setdefault(h, []).append((a, s))
    adjacency: list[list[tuple[int, int]]] = [[] for _ in covers]
    for h, pair in owners.items():
        if len(pair) != 2:
            ridge = (h, tuple(x or y for x, y in zip(h, first[1])))
            raise InternalError(f"cell {first} is not regular: ridge {ridge} has {len(pair)} facets")
        (a, sa), (b, sb) = pair
        adjacency[a].append((b, sa * sb))
        adjacency[b].append((a, sa * sb))
    eps = [1] + [0] * (len(covers) - 1)
    walk = [0]
    for a in walk:
        for b, product in adjacency[a]:
            forced = -eps[a] * product
            if not eps[b]:
                eps[b] = forced
                walk.append(b)
            elif eps[b] != forced:
                raise InternalError(f"inconsistent incidence signs around {first}")
    if len(walk) != len(covers):
        raise InternalError(f"boundary of {first} is not connected")
    return tuple(eps)


def twisted_complex(sal: Coboundaries, sys: RankOneSystem) -> CochainComplexData:
    """Cellular cochain complex twisted by the weights: each crossing
    monomial of :func:`build_salvetti` at x_i = the weight of hyperplane i."""
    return sal.specialize(sys.field, sys.weights)


class SalvettiReport(NamedTuple):
    """Cell counts and twisted Betti numbers of the full complement, and
    (for projective weights) Betti numbers of its projectivization."""

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


def twisted_cohomology(a: Arrangement, sys: RankOneSystem) -> SalvettiReport:
    """Betti numbers of the complexified complement with the given weights.

    M(A) = C^* x M(dA), and the cells (f, c) with f on the positive side
    of hyperplane 0 are closed under boundary (every cover of f and every
    chamber above it keep that sign) and never cross it: they form the
    Salvetti complex of the decone dA, whose Betti numbers u are the
    projective ones.  By Kunneth, with H^*(C^*; L_t) = (1, 1) when
    t = prod q = 1 and 0 otherwise, the full Betti numbers are
    u_p + u_{p-1} for projective weights and 0 for all others, whose half
    complex is built (so its limits and checks hold) but not eliminated.  The half
    complex's Euler characteristic must be beta, that of M(dA).  The cell
    counts are the full complex's: a face has as many chambers above it as
    the arrangement of its zero set has chambers, and so has its mirror.

    >>> from arrcoh.linalg import GF
    >>> three_lines = Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]])
    >>> rep = twisted_cohomology(three_lines, RankOneSystem(GF(7), (2, 2, 2)))
    >>> rep.cell_counts, rep.full_betti, rep.projective_betti
    ((6, 12, 6), (0, 1, 1), (0, 1))
    """
    if a.m == 0:  # all of C^n: one cell, and no hyperplane to decone at
        return SalvettiReport(sys.field.to_json(), (1,), (1,), None)
    codim, covers = _decone_side(a)
    half = tuple(sorted(f for f in codim if f[0] > 0))
    chambers = [f for f in half if not codim[f]]
    chambers += [tuple(-s for s in c) for c in chambers]
    zeros = {f: tuple(i for i, s in enumerate(f) if not s) for f in codim}
    above = {z: len(set(map(itemgetter(*z), chambers))) if z else 1 for z in set(zeros.values())}
    top = codim[(0,) * a.m]
    counts = [0] * (top + 1)
    for f, d in codim.items():
        counts[d] += above[zeros[f]] * (1 + f[0])
    chi = sum((-1) ** codim[f] * above[zeros[f]] for f in half)
    _, beta = poincare_and_beta(a)
    if chi != beta:
        raise InternalError(f"the decone's Salvetti complex has Euler characteristic {chi}, not beta = {beta}")
    sal = build_salvetti(FaceSystem(half, {f: codim[f] for f in half}, covers))
    if not sys.is_projective:
        return SalvettiReport(sys.field.to_json(), tuple(counts), (0,) * (top + 1), None)
    report = complex_cohomology(twisted_complex(sal, sys))
    u = tuple(report.betti(d) for d in range(top))
    padded = (0, *u, 0)
    full = tuple(x + y for x, y in zip(padded, padded[1:]))
    return SalvettiReport(sys.field.to_json(), tuple(counts), full, u)
