"""Combinatorial complement model: cell counts and twisted Betti numbers.

Untwisted Betti numbers must equal the Poincare polynomial coefficients;
that identity is the strongest cheap oracle for the whole pipeline (face
enumeration, sign propagation, boundary matrices), so it is exercised on
every pinned arrangement here.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arrcoh.salvetti as salvetti
from arrcoh.arrangement import Arrangement, RankOneSystem, intersection_lattice, poincare_and_beta
from arrcoh.cochain import Coboundaries, complex_cohomology, make_complex
from arrcoh.linalg import GF, QQ, InternalError, Matrix, rank_kernel
from arrcoh.salvetti import (
    MAX_FACES,
    MAX_INCIDENCES,
    FaceSystem,
    build_salvetti,
    enumerate_faces,
    twisted_cohomology,
    twisted_complex,
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
    sal = build_salvetti(enumerate_faces(three_generic_lines()))
    assert sal.cell_counts() == [6, 12, 6]
    assert sum((-1) ** d * c for d, c in enumerate(sal.cell_counts())) == 0
    assert len(sal.rows) == 2


def test_cells_braid_a3():
    sal = build_salvetti(enumerate_faces(braid_a3_essential()))
    assert sal.cell_counts() == [24, 72, 72, 24]
    assert sum((-1) ** d * c for d, c in enumerate(sal.cell_counts())) == 0


def test_cells_b2():
    b2 = Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    sal = build_salvetti(enumerate_faces(b2))
    assert sal.cell_counts() == [8, 16, 8]
    pi, _ = poincare_and_beta(b2)
    rep = twisted_cohomology(b2, untwisted(QQ, 4))
    assert rep.full_betti == tuple(pi)
    assert rep.cell_counts == (8, 16, 8)


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
        build_salvetti(enumerate_faces(lines(86)))
    # each limit admits exactly its value; m lines have 2m two-cells with
    # 2m facets each and 4m edges with 2 each
    monkeypatch.setattr(salvetti, "MAX_INCIDENCES", 4 * 9 * 9 + 8 * 9)
    build_salvetti(enumerate_faces(lines(9)))
    with pytest.raises(ValueError, match="stops at 396 boundary incidences; this one needs 480"):
        build_salvetti(enumerate_faces(lines(10)))
    monkeypatch.setattr(salvetti, "MAX_FACES", 37)
    assert len(enumerate_faces(lines(9)).faces) == 37
    with pytest.raises(ValueError, match="stops at 37 faces"):
        enumerate_faces(lines(10))
    # twisted cohomology walks the decone side only, and the limit still
    # counts every face: 9 lines have 37, 17 of them mirrored
    assert twisted_cohomology(lines(9), untwisted(QQ, 9)).full_betti == (1, 9, 8)
    monkeypatch.setattr(salvetti, "MAX_FACES", 36)
    with pytest.raises(ValueError, match="^face enumeration stops at 36 faces; this arrangement has more$"):
        twisted_cohomology(lines(9), untwisted(QQ, 9))
    # every flat carries a face, so the lattice built for the faces stops too
    # (generic 6 planes in C^3: 23 flats, 123 faces)
    generic = Arrangement.from_rows(3, [[1, k, k * k] for k in range(6)])
    monkeypatch.setattr(salvetti, "MAX_FACES", 22)
    with pytest.raises(ValueError, match="lattice stops at 22 flats"):
        enumerate_faces(generic)
    # a lattice kept on the arrangement in full is held to the same limit
    assert len(intersection_lattice(generic).flats) == 23
    with pytest.raises(ValueError, match="lattice stops at 22 flats"):
        enumerate_faces(generic)


def test_incidence_limit_counts_the_half_complex(monkeypatch):
    # twisted cohomology builds only the decone's complex: for m lines, m - 1
    # points on a line, each point's edges over 2 chambers with 2 vertices
    rep = twisted_cohomology(lines(86), untwisted(QQ, 86))
    assert rep.full_betti == (1, 86, 85) and rep.projective_betti == (1, 85)
    assert rep.cell_counts == (172, 344, 172)
    monkeypatch.setattr(salvetti, "MAX_INCIDENCES", 4 * 8)
    assert twisted_cohomology(lines(9), untwisted(QQ, 9)).full_betti == (1, 9, 8)
    monkeypatch.setattr(salvetti, "MAX_INCIDENCES", 4 * 8 - 1)
    with pytest.raises(ValueError, match="stops at 31 boundary incidences; this one needs 32"):
        twisted_cohomology(lines(9), untwisted(QQ, 9))


def test_default_limits_admit_generic_8_planes_in_c4():
    # the largest input of the old cap: every 4 of the 8 normals independent
    a = Arrangement.from_rows(4, [[1, k, k * k, k**3] for k in range(-4, 4)])
    fs = enumerate_faces(a)
    assert len(fs.faces) == 929 <= MAX_FACES
    sal = build_salvetti(fs)
    assert sum(sal.cell_counts()) == 3200
    assert sum(len(row) for block in sal.rows for row in block) == 26496 <= MAX_INCIDENCES


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
    for cs in lat.elements:
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


def braid_rows(k):
    """x_i - x_j for i < j in C^(k+1): the braid arrangement A_k."""
    return [[int(c == i) - int(c == j) for c in range(k + 1)] for i, j in itertools.combinations(range(k + 1), 2)]


BRAID_A3_ROWS = braid_rows(3)
PENCIL_IN_C3 = [[1, 1, 0], [1, -1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]]  # rank 3, three planes share a line
B3_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]]
B3_IN_C4 = [[a, b, c, a + b] for a, b, c in B3_ROWS]


def _cocircuits(a):
    """Both sign vectors of each line of the arrangement.

    A flat of rank ``a.rank - 1`` is a line modulo the common kernel of the
    normals; any vector of the flat outside that kernel spans it, and the
    signs of the normals on it form a cocircuit."""
    lat = intersection_lattice(a)
    rows = a.integral_normals
    out = []
    for cs in lat.elements:
        if lat.flats[cs].rank != a.rank - 1:
            continue
        for v in lat.flats[cs].kernel_basis:
            y = tuple((d > 0) - (d < 0) for d in (sum(x * t for x, t in zip(row, v)) for row in rows))
            if any(y):
                out += [y, tuple(-s for s in y)]
                break
    return out


def unrestricted_closure(a):
    """Codimensions and covers of every face, from the closure of the zero
    vector under composition with the cocircuits on both sides of
    hyperplane 0, with no mirror.  Every covector is a composition of
    cocircuits, so this finds every face without the lattice's cover
    relations, which :func:`salvetti._decone_side` walks."""
    lat = intersection_lattice(a)
    cocircuits = _cocircuits(a)
    zero = (0,) * a.m
    codim, covers = {zero: lat.flats[lat.top].rank}, {}
    queue = [zero]
    for f in queue:
        up = []
        for y in cocircuits:
            g = tuple(x or t for x, t in zip(f, y))
            if g == f:
                continue
            if g not in codim:
                codim[g] = lat.flats[tuple(i for i, s in enumerate(g) if not s)].rank
                queue.append(g)
            if codim[g] == codim[f] - 1 and g not in up:
                up.append(g)
        covers[f] = tuple(sorted(up))
    return codim, covers


def assert_faces_match_unrestricted_closure(a):
    fs = enumerate_faces(a)
    codim, covers = unrestricted_closure(a)
    assert fs.faces == tuple(sorted(codim))
    assert dict(fs.codim) == codim
    assert dict(fs.covers) == covers


@pytest.mark.parametrize(
    "a",
    [
        pytest.param(Arrangement.from_rows(5, braid_rows(4)), id="braid-a4"),
        pytest.param(Arrangement.from_rows(4, [[1, k, k * k, k**3] for k in range(-4, 4)]), id="generic-8-planes-in-c4"),
        pytest.param(Arrangement.from_rows(3, PENCIL_IN_C3), id="pencil-in-c3"),
        # B3 (x_i, x_i +- x_j) read in C^4 through (a, b, c) -> (a, b, c, a + b):
        # rank 3, every normal vanishes on (1, 1, 0, -1)
        pytest.param(Arrangement.from_rows(4, B3_IN_C4), id="non-essential-b3-in-c4"),
    ],
)
def test_faces_match_unrestricted_closure(a):
    assert_faces_match_unrestricted_closure(a)


def oracle_lattice_covers(lat):
    """Cover pairs of the flats by definition, not from the kept covers:
    closed sets Y < Z by inclusion with rank(Z) = rank(Y) + 1, ordered by
    (rank, closed set) of Y, then of Z."""
    rank = {cs: flat.rank for cs, flat in lat.flats.items()}
    order = sorted(rank, key=lambda cs: (rank[cs], cs))
    return [(y, z) for y in order for z in order if set(y) < set(z) and rank[z] == rank[y] + 1]


@settings(max_examples=60, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_kept_lower_covers_are_the_cover_pairs(a):
    lat = intersection_lattice(a)
    assert set(lat.lower_covers) == set(lat.flats)
    pairs = [(y, z) for z, ys in lat.lower_covers.items() for y in ys]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(oracle_lattice_covers(lat))


@settings(max_examples=60, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_lattice_json_covers_are_the_cover_pairs_in_element_order(a):
    lat = intersection_lattice(a)
    covers = [[[a.labels[i] for i in cs] for cs in pair] for pair in oracle_lattice_covers(lat)]
    assert lat.to_json()["covers"] == covers


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
    # the decone side and its mirror give what the closure on both sides gives
    assert_faces_match_unrestricted_closure(a)


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_untwisted_betti_is_poincare_on_random_arrangements(a):
    pi, _ = poincare_and_beta(a)
    assert twisted_cohomology(a, untwisted(QQ, a.m)).full_betti == tuple(pi)


# --- the decone's half complex against the full complex -------------------------


def full_complex_reference(a, sys_):
    """Cell counts and twisted Betti numbers from the full Salvetti complex
    of the old construction (:func:`oracle_twisted_complex`), and for
    projective weights the projective Betti numbers u recovered by the
    product split h_p = u_p + u_{p-1}."""
    cx = oracle_twisted_complex(enumerate_faces(a), sys_)
    top = len(cx.dims) - 1
    report = complex_cohomology(cx)
    full = tuple(report.betti(d) for d in range(top + 1))
    projective = None
    if sys_.is_projective and top >= 1:
        u = [full[0]]
        for p in range(1, top):
            u.append(full[p] - u[p - 1])
        assert min(u) >= 0 and full[top] == u[-1], full
        projective = tuple(u)
    return tuple(cx.dims[d] for d in range(top + 1)), full, projective


RATIONAL_UNITS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def weighted_arrangements(draw):
    """A small arrangement, or none at all, with projective, arbitrary or
    trivial weights over GF(2), GF(7), GF(101) or Q."""
    a = draw(small_arrangements() | st.integers(0, 3).map(lambda n: Arrangement.from_rows(n, [])))
    field = draw(st.sampled_from((GF(2), GF(7), GF(101), QQ)))
    unit = st.sampled_from(RATIONAL_UNITS) if field is QQ else st.integers(1, field.p - 1)
    kind = draw(st.sampled_from(("projective", "arbitrary", "trivial")))
    if kind == "trivial":
        return a, RankOneSystem(field, (1,) * a.m)
    weights = [draw(unit) for _ in range(a.m)]
    if kind == "projective" and weights:
        rest = RankOneSystem(field, weights[:-1]).product()
        weights[-1] = 1 / Fraction(rest) if field is QQ else pow(rest, -1, field.p)
    return a, RankOneSystem(field, weights)


@settings(max_examples=80, deadline=None)
@given(weighted_arrangements())
@example((Arrangement.from_rows(4, BRAID_A3_ROWS), RankOneSystem(GF(7), (2, 2, 2, 2, 2, 2))))
@example((Arrangement.from_rows(3, PENCIL_IN_C3), RankOneSystem(QQ, (2, 2, 2, 2, Fraction(1, 16)))))
@example((Arrangement.from_rows(2, []), RankOneSystem(GF(7), ())))
def test_half_complex_matches_full_complex(case):
    a, sys_ = case
    rep = twisted_cohomology(a, sys_)
    assert (rep.cell_counts, rep.full_betti, rep.projective_betti) == full_complex_reference(a, sys_)
    assert_faces_match_unrestricted_closure(a)


def test_half_complex_euler_characteristic_is_beta(monkeypatch):
    a = three_generic_lines()
    side_codim, side_covers = salvetti._decone_side(a)
    # drop one chamber on the positive side of hyperplane 0 from the faces
    # and from the covers of the faces below it: the decone's complex then
    # has 2 chambers and 4 edges, Euler characteristic -2, where beta is -1
    dropped = (1, -1, -1)
    codim = {f: d for f, d in side_codim.items() if f != dropped}
    covers = {f: tuple(g for g in side_covers[f] if g != dropped) for f in codim}
    monkeypatch.setattr(salvetti, "_decone_side", lambda a: (codim, covers))
    with pytest.raises(InternalError, match="Euler characteristic -2, not beta = -1") as info:
        twisted_cohomology(a, RankOneSystem(GF(7), (2, 2, 2)))
    assert not isinstance(info.value, ValueError)


# --- incidence signs against a per-cell oracle ---------------------------------


def _compose(f, g):
    return tuple(a or b for a, b in zip(f, g))


def _propagate_signs(cell, facets, boundary):
    """Signs of one cell's facets from that cell alone: collect the ridges
    of its facets, link the two facets of each ridge and walk the links
    from the first facet."""
    if facets[0] not in boundary:
        # an edge: its facets are vertices, from the lesser to the greater
        lesser, greater = sorted(facets)
        return {lesser: -1, greater: 1}
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


def index_rows(cells_by_dim, boundary):
    """The oracle's boundary as rows {column: (sign, crossing mask)}, one
    list per dimension from 1, columns numbering the cells one dimension
    down in order."""
    rows = []
    for lower, cells in zip(cells_by_dim, cells_by_dim[1:]):
        index = {cell: j for j, cell in enumerate(lower)}
        rows.append([{index[x]: (eps, sum(1 << i for i in crossed)) for x, eps, crossed in boundary[c]} for c in cells])
    return rows


def oracle_twisted_complex(fs, sys_):
    """The old construction: the oracle's cells and boundary, one row per
    cell with eps * (product of the crossed weights) at each facet, then
    :func:`~arrcoh.cochain.make_complex`, which normalizes every entry and
    checks d o d = 0 at these weights."""
    cells_by_dim, boundary = oracle_salvetti(fs)
    diffs = {}
    for d in range(1, len(cells_by_dim)):
        index = {cell: j for j, cell in enumerate(cells_by_dim[d - 1])}
        diffs[d - 1] = [
            {index[x]: eps * sys_.weight_product(crossed) for x, eps, crossed in boundary[cell]}
            for cell in cells_by_dim[d]
        ]
    return make_complex(sys_.field, {d: len(cells) for d, cells in enumerate(cells_by_dim)}, diffs)


@settings(max_examples=60, deadline=None)
@given(small_arrangements())
@example(Arrangement.from_rows(4, BRAID_A3_ROWS))
@example(Arrangement.from_rows(3, PENCIL_IN_C3))
def test_ridge_plans_match_per_cell_oracle(a):
    fs = enumerate_faces(a)
    sal = build_salvetti(fs)
    cells_by_dim, boundary = oracle_salvetti(fs)
    assert sal.cell_counts() == [len(cells) for cells in cells_by_dim]
    assert list(sal.rows) == index_rows(cells_by_dim, boundary)
    # each cell's own walk lands on its face's signs: one tuple per face
    signs = {}
    for (f, _), entries in boundary.items():
        signs.setdefault(f, set()).add(tuple(e for _, e, _ in entries))
    assert all(len(tuples) == 1 for tuples in signs.values())


def test_corrupted_face_system_is_an_internal_error():
    a = three_generic_lines()
    fs = enumerate_faces(a)
    # drop one chamber from one ray's covers: the ray's edges now have one
    # vertex, and the error names the first of them
    ray = next(f for f in fs.faces if fs.codim[f] == 1)
    covers = dict(fs.covers)
    covers[ray] = covers[ray][1:]
    with pytest.raises(InternalError, match=r"edge \(\(-1, 0, -1\), \(-1, 1, -1\)\) is not regular: it has 1 vertices") as info:
        build_salvetti(FaceSystem(fs.faces, fs.codim, covers))
    assert not isinstance(info.value, ValueError)  # the CLI exits 3, not 2
    # with no covers at all, no chamber lies above the ray: its face is named
    covers[ray] = ()
    with pytest.raises(InternalError, match=r"edge \(-1, 0, -1\) is not regular: it has 0 vertices"):
        build_salvetti(FaceSystem(fs.faces, fs.codim, covers))
    # nor above the origin when it has no covers: the face itself is named
    covers = {**fs.covers, (0, 0, 0): ()}
    with pytest.raises(InternalError, match=r"face \(0, 0, 0\) is not regular: it has no covers") as info:
        build_salvetti(FaceSystem(fs.faces, fs.codim, covers))
    assert not isinstance(info.value, ValueError)


@settings(max_examples=60, deadline=None)
@given(weighted_arrangements())
@example((Arrangement.from_rows(4, BRAID_A3_ROWS), RankOneSystem(QQ, (1, 2, Fraction(1, 2), 1, -3, -1))))
@example((Arrangement.from_rows(3, PENCIL_IN_C3), RankOneSystem(GF(2), (1, 1, 1, 1, 1))))
def test_specialized_rows_match_the_old_construction(case):
    a, sys_ = case
    fs = enumerate_faces(a)
    twisted = twisted_complex(build_salvetti(fs), sys_)
    expected = oracle_twisted_complex(fs, sys_)
    assert (twisted.dims, twisted.rows) == (expected.dims, expected.rows)
    assert complex_cohomology(twisted) == complex_cohomology(expected)


def _one_entry_changed(sal, m):
    """Copies of the rows of ``sal``, each with one entry changed: its
    incidence sign flipped, or one bit of its crossing mask moved to a
    hyperplane it does not cross."""
    for c, block in enumerate(sal.rows):
        for i, row in enumerate(block):
            for j, (s, mask) in row.items():
                moved = [mask ^ 1 << a ^ 1 << b for a in range(m) if mask >> a & 1 for b in range(m) if not mask >> b & 1]
                for changed in [(-s, mask)] + [(s, x) for x in moved]:
                    rows = [[dict(r) for r in b] for b in sal.rows]
                    rows[c][i][j] = changed
                    yield tuple(rows)


def test_failed_twisted_square_is_an_internal_error():
    a = three_generic_lines()
    sal = build_salvetti(enumerate_faces(a))
    # every entry lies on a path of length two whose partner keeps its sign
    # and monomial, so each change breaks the symbolic d o d = 0
    cases = list(_one_entry_changed(sal, a.m))
    moves = sum(mask.bit_count() * (a.m - mask.bit_count()) for block in sal.rows for row in block for _, mask in row.values())
    assert len(cases) == 60 + moves and moves > 0
    for rows in cases:
        with pytest.raises(InternalError, match=r"d\^1 o d\^0 != 0") as info:
            Coboundaries(sal.counts, rows)
        assert not isinstance(info.value, ValueError)  # the CLI exits 3, not 2


def test_cover_of_wrong_codimension_is_an_internal_error():
    a = three_generic_lines()
    fs = enumerate_faces(a)
    # a ray covered by the origin, which is less generic than the ray
    covers = {**fs.covers, (-1, 0, -1): ((0, 0, 0),)}
    with pytest.raises(InternalError, match=r"face \(-1, 0, -1\) is not regular: its cover \(0, 0, 0\) is not one codimension more generic"):
        build_salvetti(FaceSystem(fs.faces, fs.codim, covers))


def test_composition_that_is_no_chamber_is_an_internal_error():
    a = three_generic_lines()
    fs = enumerate_faces(a)
    # the ray (-1, 0, -1) lies under (-1, -1, -1) and, falsely, under
    # (-1, 1, 1): composing the first with the second gives (-1, -1, 1),
    # which no chamber carries
    covers = {**fs.covers, (-1, 0, -1): ((-1, -1, -1), (-1, 1, 1))}
    with pytest.raises(
        InternalError,
        match=r"cell \(\(-1, 0, -1\), \(-1, 1, 1\)\) is not regular: its facet face \(-1, -1, -1\) o c is \(-1, -1, 1\), no chamber above that face",
    ):
        build_salvetti(FaceSystem(fs.faces, fs.codim, covers))


def one_face_system(ray_covers):
    """A face system of one face of codimension two, the zero vector, whose
    covers are the given rays, each over the given chambers."""
    chambers = {c for cs in ray_covers.values() for c in cs}
    zero = (0,) * len(next(iter(chambers)))
    codim = {zero: 2, **{r: 1 for r in ray_covers}, **{c: 0 for c in chambers}}
    covers = {zero: tuple(sorted(ray_covers)), **ray_covers, **{c: () for c in chambers}}
    return FaceSystem(tuple(sorted(codim)), codim, covers)


def test_disconnected_facets_are_an_internal_error():
    # two pairs of rays, each pair under the same two chambers: every
    # chamber is a ridge of exactly two rays, but no ridge links the pairs
    low = ((1, -1, -1), (1, -1, 1))
    high = ((1, 1, -1), (1, 1, 1))
    fs = one_face_system({(1, 0, 0): low, (1, -1, 0): low, (0, 1, 0): high, (1, 1, 0): high})
    with pytest.raises(InternalError, match=r"boundary of \(\(0, 0, 0\), \(1, -1, -1\)\) is not connected"):
        build_salvetti(fs)


def test_ridge_on_one_facet_is_an_internal_error():
    # every ray lies under two chambers, but the outer chambers of the
    # chain lie under one ray each: a ridge of the 2-cells on one facet
    fs = one_face_system({(1, 0, 0): ((1, -1, 1), (1, 1, 1)), (0, 1, 0): ((1, 1, 1), (-1, 1, 1))})
    with pytest.raises(InternalError, match=r"cell \(\(0, 0, 0\), \(-1, 1, 1\)\) is not regular: ridge .* has 1 facets"):
        build_salvetti(fs)


def test_edge_with_four_vertices_is_an_internal_error():
    # the ray (0, 1, 0) lies under four chambers, the rays beside it under
    # two each: every chamber is a ridge of exactly two rays, connected,
    # and the 2-cells' ridges would force opposite signs; the edge is
    # named first, where the fault is
    middle = ((-1, 1, -1), (-1, 1, 1), (1, 1, -1), (1, 1, 1))
    fs = one_face_system({(0, 1, 0): middle, (1, 1, 0): middle[2:], (-1, 1, 0): middle[:2]})
    with pytest.raises(InternalError, match=r"edge \(\(0, 1, 0\), \(-1, 1, -1\)\) is not regular: it has 4 vertices"):
        build_salvetti(fs)


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


def type_d_rows(n):
    """x_i - x_j and x_i + x_j for i < j in C^n: the reflection arrangement D_n."""
    return [[int(c == i) + s * int(c == j) for c in range(n)] for i, j in itertools.combinations(range(n), 2) for s in (-1, 1)]


@pytest.mark.parametrize(
    "rows,n,exponents",
    [
        pytest.param(braid_rows(2), 3, (1, 2), id="A2"),
        pytest.param(braid_rows(3), 4, (1, 2, 3), id="A3"),
        pytest.param(braid_rows(4), 5, (1, 2, 3, 4), id="A4"),
        pytest.param([[1, 0], [0, 1], [1, 1], [1, -1]], 2, (1, 3), id="B2"),
        pytest.param(B3_ROWS, 3, (1, 3, 5), id="B3"),
        pytest.param(type_d_rows(4), 4, (1, 3, 3, 5), id="D4"),
        *(pytest.param([[1, k] for k in range(m)], 2, (1, m - 1), id=f"{m}-lines") for m in range(2, 9)),
    ],
)
def test_untwisted_betti_is_the_exponent_product(rows, n, exponents):
    # the Poincare polynomial of a reflection arrangement, or of any lines
    # through the origin of the plane, is prod (1 + e t) over its exponents
    # e (Orlik and Terao, 1992): an answer that needs no intersection lattice
    expected = [1]
    for e in exponents:
        expected = [x + e * y for x, y in zip(expected + [0], [0] + expected)]
    a = Arrangement.from_rows(n, rows)
    assert twisted_cohomology(a, untwisted(QQ, a.m)).full_betti == tuple(expected)


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
