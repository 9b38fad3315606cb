"""Combinatorial complement model: cell counts and twisted Betti numbers.

Untwisted Betti numbers must equal the Poincare polynomial coefficients;
that identity is the strongest cheap oracle for the whole pipeline (face
enumeration, sign propagation, boundary matrices), so it is exercised on
every pinned arrangement here.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arrcoh.salvetti as salvetti
from arrcoh.arrangement import Arrangement, RankOneSystem, intersection_lattice, poincare_and_beta
from arrcoh.linalg import GF, QQ, InternalError, Matrix, rank_kernel
from arrcoh.salvetti import (
    MAX_FACES,
    MAX_INCIDENCES,
    FaceSystem,
    build_salvetti,
    enumerate_faces,
    twisted_cohomology,
)


def three_generic_lines():
    return Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]], ("a", "b", "c"))


def braid_a3_essential():
    rows, labels = [], []
    for i, j in itertools.combinations(range(4), 2):
        r = [0] * 4
        r[i], r[j] = 1, -1
        rows.append(r)
        labels.append(f"h{i}{j}")
    return Arrangement.from_rows(4, rows, labels).essentialize()


def untwisted(field, m):
    return RankOneSystem(field, (1,) * m)


# --- face enumeration -------------------------------------------------------


def test_faces_three_lines():
    fs = enumerate_faces(three_generic_lines())
    assert len(fs.faces) == 13  # 1 origin + 6 rays + 6 chambers
    assert len(fs.chambers) == 6


def test_faces_single_hyperplane():
    fs = enumerate_faces(Arrangement.from_rows(1, [[1]]))
    assert len(fs.faces) == 3
    assert len(fs.chambers) == 2


def test_faces_braid_a3():
    fs = enumerate_faces(braid_a3_essential())
    assert len(fs.faces) == 75
    assert len(fs.chambers) == 24  # |S_4|


# --- cell structure ----------------------------------------------------------


def test_cells_three_lines():
    sal = build_salvetti(three_generic_lines())
    assert sal.cell_counts() == [6, 12, 6]
    assert sal.euler_characteristic() == 0
    assert sal.dim == 2


def test_cells_braid_a3():
    sal = build_salvetti(braid_a3_essential())
    assert sal.cell_counts() == [24, 72, 72, 24]
    assert sal.euler_characteristic() == 0


def test_cells_b2():
    b2 = Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    sal = build_salvetti(b2)
    assert sal.cell_counts() == [8, 16, 8]
    pi, _ = poincare_and_beta(b2)
    rep = twisted_cohomology(b2, untwisted(QQ, 4), sal)
    assert rep.full_betti == tuple(pi)


def lines(m):
    """m lines through the origin of C^2: 2m chambers, 4m + 1 faces."""
    return Arrangement.from_rows(2, [[1, k] for k in range(m)])


def test_caps_enforced(monkeypatch):
    # nine lines were refused by the old 8-hyperplane cap; the limits count
    # output only
    assert len(enumerate_faces(lines(9)).faces) == 37
    assert twisted_cohomology(lines(9), untwisted(QQ, 9)).full_betti == (1, 9, 8)
    # 86 lines have only 345 faces, but 4 * 86^2 + 8 * 86 incidences
    with pytest.raises(ValueError, match=f"stops at {MAX_INCIDENCES} boundary incidences; this one needs 30272"):
        build_salvetti(lines(86))
    # each limit admits exactly its value; m lines have 2m two-cells with
    # 2m facets each and 4m edges with 2 each
    monkeypatch.setattr(salvetti, "MAX_INCIDENCES", 4 * 9 * 9 + 8 * 9)
    build_salvetti(lines(9))
    with pytest.raises(ValueError, match="stops at 396 boundary incidences; this one needs 480"):
        build_salvetti(lines(10))
    monkeypatch.setattr(salvetti, "MAX_FACES", 37)
    assert len(enumerate_faces(lines(9)).faces) == 37
    with pytest.raises(ValueError, match="stops at 37 faces"):
        enumerate_faces(lines(10))
    # every flat carries a face, so the lattice built for the faces stops too
    # (generic 6 planes in C^3: 23 flats, 123 faces)
    generic = Arrangement.from_rows(3, [[1, k, k * k] for k in range(6)])
    monkeypatch.setattr(salvetti, "MAX_FACES", 22)
    with pytest.raises(ValueError, match="lattice stops at 22 flats"):
        enumerate_faces(generic)


def test_default_limits_admit_generic_8_planes_in_c4():
    # the largest input of the old cap: every 4 of the 8 normals independent
    a = Arrangement.from_rows(4, [[1, k, k * k, k**3] for k in range(-4, 4)])
    fs = enumerate_faces(a)
    assert len(fs.faces) == 929 <= MAX_FACES
    sal = build_salvetti(a, fs)
    assert sum(sal.cell_counts()) == 3200
    assert sum(len(facets) for facets in sal.boundary.values()) == 26496 <= MAX_INCIDENCES


# --- covector faces against a Fourier-Motzkin oracle --------------------------


def _fm_feasible(rows):
    """Is there a point with row . t > 0 for every row?  Fourier-Motzkin
    elimination keeps a homogeneous strict system feasible exactly until
    some stage produces an all-zero row (0 > 0)."""
    if not rows:
        return True
    live = {_normalize(r) for r in rows}
    for col in range(len(rows[0])):
        if any(not any(r) for r in live):
            return False
        pos = [r for r in live if r[col] > 0]
        neg = [r for r in live if r[col] < 0]
        nxt = {r for r in live if r[col] == 0}
        for p in pos:
            for q in neg:
                nxt.add(_normalize(tuple(x * (-q[col]) + y * p[col] for x, y in zip(p, q))))
        live = nxt
    return not any(not any(r) for r in live)


def _normalize(row):
    lead = next((abs(x) for x in row if x != 0), 1)
    return tuple(Fraction(x) / lead for x in row)


def oracle_faces(a):
    """Faces by brute force: on each flat, every strict sign assignment to
    the other hyperplanes whose strict system on the flat is feasible;
    covers by the all-pairs closure test."""
    lat = intersection_lattice(a)
    codim = {}
    for cs in lat.poset.elements:
        others = [i for i in range(a.m) if i not in cs]
        sub = Matrix.from_rows(QQ, [list(a.normals.row(i)) for i in cs]) if cs else None
        basis = rank_kernel(sub)[1].entries if cs else [[int(i == j) for j in range(a.n)] for i in range(a.n)]
        restricted = [[sum(x * y for x, y in zip(a.normals.row(i), b)) for b in basis] for i in others]
        for signs in itertools.product((-1, 1), repeat=len(others)):
            if _fm_feasible([[s * x for x in r] for s, r in zip(signs, restricted)]):
                vec = [0] * a.m
                for s, i in zip(signs, others):
                    vec[i] = s
                codim[tuple(vec)] = lat.flats[cs].rank

    def leq(f, g):
        return all(x == 0 or x == y for x, y in zip(f, g))

    covers = {f: tuple(sorted(g for g in codim if codim[g] == codim[f] - 1 and leq(f, g))) for f in codim}
    return codim, covers


@st.composite
def small_arrangements(draw):
    """At most 6 distinct hyperplanes in 2 to 4 dimensions, entries in
    [-3, 3]; often non-generic and non-essential."""
    n = draw(st.integers(2, 4))
    count = draw(st.integers(1, 6))
    raw = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=count, max_size=count))
    rows = []
    for r in raw:
        if any(r) and not any(rank_kernel(Matrix.from_rows(QQ, [r, q]))[0] == 1 for q in rows):
            rows.append(r)
    if not rows:
        rows = [[1] + [0] * (n - 1)]
    return Arrangement.from_rows(n, rows)


BRAID_A3_ROWS = [[int(k == i) - int(k == j) for k in range(4)] for i, j in itertools.combinations(range(4), 2)]
PENCIL_IN_C3 = [[1, 1, 0], [1, -1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]]  # rank 3, three planes share a line


@settings(max_examples=60, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_covector_faces_match_fourier_motzkin(a):
    fs = enumerate_faces(a)
    codim, covers = oracle_faces(a)
    assert fs.faces == tuple(sorted(codim))
    assert dict(fs.codim) == codim
    assert dict(fs.covers) == covers


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_untwisted_betti_is_poincare_on_random_arrangements(a):
    pi, _ = poincare_and_beta(a)
    assert twisted_cohomology(a, untwisted(QQ, a.m)).full_betti == tuple(pi)


# --- incidence signs against a per-cell oracle ---------------------------------


def _compose(f, g):
    return tuple(a or b for a, b in zip(f, g))


def _propagate_signs(cell, facets, boundary):
    """Signs of one cell's facets from that cell alone: collect the ridges
    of its facets, link the two facets of each ridge and walk the links
    from the first facet."""
    if facets[0] not in boundary:
        # an edge: its facets are vertices, oriented away from its own chamber
        f, c = cell
        opposite = _compose(f, tuple(-x for x in c))
        return {(c, c): -1, (opposite, opposite): 1}
    ridge_owners = {}
    for facet in facets:
        for ridge, sign, _ in boundary[facet]:
            ridge_owners.setdefault(ridge, []).append((facet, sign))
    adjacency = {facet: [] for facet in facets}
    for ridge, owners in ridge_owners.items():
        assert len(owners) == 2, (cell, ridge)
        (u, su), (v, sv) = owners
        adjacency[u].append((v, su * sv))
        adjacency[v].append((u, su * sv))
    eps = {facets[0]: 1}
    queue = [facets[0]]
    while queue:
        u = queue.pop()
        for v, product in adjacency[u]:
            forced = -eps[u] * product
            if v not in eps:
                eps[v] = forced
                queue.append(v)
            assert eps[v] == forced, cell
    assert len(eps) == len(facets), cell
    return eps


def oracle_salvetti(fs):
    """Cells and boundaries with every cell's signs propagated on its own."""
    chambers = fs.chambers
    base = min(chambers)
    above = {f: frozenset(c for c in chambers if all(x == 0 or x == y for x, y in zip(f, c))) for f in fs.faces}
    top = max(fs.codim.values(), default=0)
    cells_by_dim = tuple(
        tuple(sorted((f, c) for f in fs.faces if fs.codim[f] == d for c in above[f])) for d in range(top + 1)
    )
    away = {c: frozenset(i for i, (x, y) in enumerate(zip(c, base)) if x != y) for c in chambers}
    boundary = {}
    for cells in cells_by_dim[1:]:
        for cell in cells:
            f, c = cell
            facets = sorted((g, _compose(g, c)) for g in fs.covers[f])
            eps = _propagate_signs(cell, facets, boundary)
            boundary[cell] = tuple((facet, eps[facet], away[c] - away[facet[1]]) for facet in facets)
    return cells_by_dim, boundary


@settings(max_examples=60, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_ridge_plans_match_per_cell_oracle(a):
    fs = enumerate_faces(a)
    sal = build_salvetti(a, fs)
    cells_by_dim, boundary = oracle_salvetti(fs)
    assert sal.cells_by_dim == cells_by_dim
    assert dict(sal.boundary) == boundary


def test_corrupted_face_system_is_an_internal_error():
    a = three_generic_lines()
    fs = enumerate_faces(a)
    # drop one chamber from one ray's covers: the ray's edges now have one
    # vertex, and the error names the first of them
    ray = next(f for f in fs.faces if fs.codim[f] == 1)
    covers = dict(fs.covers)
    covers[ray] = covers[ray][1:]
    with pytest.raises(InternalError, match=r"edge \(\(-1, 0, -1\), \(-1, 1, -1\)\) is not regular: it has 1 vertices") as info:
        build_salvetti(a, dataclasses.replace(fs, covers=covers))
    assert not isinstance(info.value, ValueError)  # the CLI exits 3, not 2
    # with no covers at all, no chamber lies above the ray: its face is named
    covers[ray] = ()
    with pytest.raises(InternalError, match=r"edge \(-1, 0, -1\) is not regular: it has 0 vertices"):
        build_salvetti(a, dataclasses.replace(fs, covers=covers))


def one_face_system(ray_covers):
    """A face system of one face of codimension two, the zero vector, whose
    covers are the given rays, each over the given chambers.  Its
    arrangement is a placeholder: build_salvetti reads only the faces."""
    chambers = {c for cs in ray_covers.values() for c in cs}
    zero = (0,) * len(next(iter(chambers)))
    codim = {zero: 2, **{r: 1 for r in ray_covers}, **{c: 0 for c in chambers}}
    covers = {zero: tuple(sorted(ray_covers)), **ray_covers, **{c: () for c in chambers}}
    return FaceSystem(three_generic_lines(), tuple(sorted(codim)), codim, covers)


def test_disconnected_facets_are_an_internal_error():
    # two pairs of rays, each pair under the same two chambers: every
    # chamber is a ridge of exactly two rays, but no ridge links the pairs
    low = ((1, -1, -1), (1, -1, 1))
    high = ((1, 1, -1), (1, 1, 1))
    fs = one_face_system({(1, 0, 0): low, (1, -1, 0): low, (0, 1, 0): high, (1, 1, 0): high})
    with pytest.raises(InternalError, match=r"boundary of \(\(0, 0, 0\), \(1, -1, -1\)\) is not connected"):
        build_salvetti(fs.arrangement, fs)


def test_ridge_on_one_facet_is_an_internal_error():
    # every ray lies under two chambers, but the outer chambers of the
    # chain lie under one ray each: a ridge of the 2-cells on one facet
    fs = one_face_system({(1, 0, 0): ((1, -1, 1), (1, 1, 1)), (0, 1, 0): ((1, 1, 1), (-1, 1, 1))})
    with pytest.raises(InternalError, match=r"cell \(\(0, 0, 0\), \(-1, 1, 1\)\) is not regular: ridge .* has 1 facets"):
        build_salvetti(fs.arrangement, fs)


def test_edge_with_four_vertices_is_an_internal_error():
    # the ray (0, 1, 0) lies under four chambers, the rays beside it under
    # two each: every chamber is a ridge of exactly two rays, connected,
    # and the 2-cells' ridges would force opposite signs; the edge is
    # named first, where the fault is
    middle = ((-1, 1, -1), (-1, 1, 1), (1, 1, -1), (1, 1, 1))
    fs = one_face_system({(0, 1, 0): middle, (1, 1, 0): middle[2:], (-1, 1, 0): middle[:2]})
    with pytest.raises(InternalError, match=r"edge \(\(0, 1, 0\), \(-1, 1, -1\)\) is not regular: it has 4 vertices"):
        build_salvetti(fs.arrangement, fs)


# --- untwisted cohomology = Poincare coefficients ----------------------------


@pytest.mark.parametrize(
    "rows,n",
    [
        ([[1]], 1),
        ([[1, 0], [0, 1]], 2),
        ([[1, 0], [0, 1], [1, 1]], 2),
        ([[1, 0], [0, 1], [1, 1], [1, -1]], 2),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
    ],
)
def test_untwisted_betti_equals_poincare(rows, n):
    a = Arrangement.from_rows(n, rows)
    pi, _ = poincare_and_beta(a)
    rep = twisted_cohomology(a, untwisted(QQ, a.m))
    assert rep.full_betti == tuple(pi)


def test_untwisted_braid_a3():
    e = braid_a3_essential()
    rep = twisted_cohomology(e, untwisted(QQ, 6))
    assert rep.full_betti == (1, 6, 11, 6)
    assert rep.projective_betti == (1, 5, 6)


# --- twisted cohomology -------------------------------------------------------


def test_twisted_three_lines_concentrates():
    a = three_generic_lines()
    rep = twisted_cohomology(a, RankOneSystem(GF(7), (2, 2, 2)))
    assert rep.full_betti == (0, 1, 1)
    assert rep.projective_betti == (0, 1)  # degree 1, dimension |beta| = 1


def test_twisted_single_hyperplane_vanishes():
    a = Arrangement.from_rows(1, [[1]])
    rep = twisted_cohomology(a, RankOneSystem(GF(7), (2,)))
    assert rep.full_betti == (0, 0)
    assert rep.projective_betti is None  # weights not projective


def test_failing_predicate_is_only_sufficient():
    a = three_generic_lines()
    # weight 1 on line c fails the support predicate, yet the actual
    # cohomology still happens to concentrate: the check is one-sided
    rep = twisted_cohomology(a, RankOneSystem(GF(7), (2, 4, 1)))
    assert rep.full_betti == (0, 1, 1)
    assert rep.projective_betti == (0, 1)


def test_trivial_weights_spread():
    a = three_generic_lines()
    rep = twisted_cohomology(a, RankOneSystem(GF(7), (1, 1, 1)))
    assert rep.full_betti == (1, 3, 2)
    assert rep.projective_betti == (1, 2)


def test_report_json():
    a = three_generic_lines()
    obj = twisted_cohomology(a, RankOneSystem(GF(7), (2, 2, 2))).to_json()
    assert obj["cells"] == [6, 12, 6]
    assert obj["betti"] == [0, 1, 1]
    assert obj["projective_betti"] == [0, 1]
    assert obj["field"] == {"kind": "prime", "p": 7}


def test_reuse_of_prebuilt_complex():
    a = three_generic_lines()
    sal = build_salvetti(a)
    r1 = twisted_cohomology(a, RankOneSystem(GF(7), (2, 2, 2)), sal)
    r2 = twisted_cohomology(a, RankOneSystem(GF(7), (3, 3, 4)), sal)
    assert r1.full_betti == (0, 1, 1)
    assert r2.full_betti == (0, 1, 1)
