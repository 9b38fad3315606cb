"""Simplicial complexes: faces, links, reduced cohomology, depth checks.

Sphere and projective-plane values are classical and easy to confirm by
hand from the face counts; they are frozen here as regression anchors.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh.cochain import Coboundaries, make_complex
from arrcoh.linalg import GF, QQ, ZZ, InternalError
from arrcoh.simplicial import (
    MAX_FACES,
    SimplicialComplex,
    _canonical_key,
    _graph_cohomology,
    _image_below,
    enumerate_complexes,
    face_coboundaries,
    is_cohen_macaulay,
    link,
    link_cohomology,
    reduced_cohomology,
)
from arrcoh.toric import ToricComplex

# Minimal 6-vertex triangulation of the real projective plane.
RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


def sphere_boundary(n):
    """Boundary of the n-simplex on vertices 0..n: an (n-1)-sphere."""
    verts = tuple(range(n + 1))
    facets = list(itertools.combinations(verts, n))
    return SimplicialComplex.from_facets(verts, facets)


def full_simplex(n):
    verts = tuple(range(n + 1))
    return SimplicialComplex.from_facets(verts, [verts])


# --- basic structure ---------------------------------------------------


def test_faces_closed_downward():
    L = SimplicialComplex.from_facets([1, 2, 3], [(1, 2, 3)])
    assert L.levels == [[0], [1, 2, 4], [3, 5, 6], [7]]
    assert L.all_faces() == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert L.faces_of_card(2) == [(1, 2), (1, 3), (2, 3)]
    assert L.f_vector() == [1, 3, 3, 1]
    assert L.dim == 2
    assert L.facets() == [(1, 2, 3)]


def closure_oracle(vertices, faces):
    """Reference construction by frozensets: the downward closure of
    ``faces`` plus the empty face, sorted by cardinality and then by the
    vertices' positions.  Returns the levels (bit i for vertex i), the
    facets, every face, and the f-vector."""
    pos = {v: i for i, v in enumerate(vertices)}
    closed = {frozenset(c) for f in map(set, faces) for r in range(len(f) + 1) for c in itertools.combinations(f, r)}
    ordered = sorted(closed | {frozenset()}, key=lambda f: (len(f), sorted(map(pos.get, f))))
    levels = [[sum(1 << pos[v] for v in f) for f in ordered if len(f) == c] for c in range(len(ordered[-1]) + 1)]
    as_tuple = [tuple(sorted(f, key=pos.get)) for f in ordered]
    facets = [t for f, t in zip(ordered, as_tuple) if not any(f < g for g in ordered)]
    return levels, facets, as_tuple, list(map(len, levels))


@st.composite
def vertices_and_faces(draw):
    """Up to 6 vertices, named in a shuffled order, and up to 5 faces drawn
    with repeats ([1, 1, 2] is the face {1, 2}); faces may be empty, and
    vertices may lie in no face."""
    vertices = draw(st.permutations(range(draw(st.integers(0, 6)))))
    face = st.lists(st.sampled_from(vertices), max_size=5) if vertices else st.just([])
    return vertices, draw(st.lists(face, max_size=5))


@settings(max_examples=200, deadline=None)
@given(vertices_and_faces())
@example(([2, 1], [[1, 1, 2]]))
@example(([], []))  # the irrelevant complex
@example(([], [[]]))
@example(([0, 1, 2], [[2]]))  # two vertices in no face
def test_constructor_matches_closure_oracle(case):
    vertices, faces = case
    L = SimplicialComplex(vertices, faces)
    assert (L.levels, L.facets(), L.all_faces(), L.f_vector()) == closure_oracle(vertices, faces)
    assert L.vertices == tuple(vertices)


def test_face_limit():
    assert sum(full_simplex(11).f_vector()) == MAX_FACES  # the simplex on 12 vertices fits
    with pytest.raises(ValueError, match=f"{MAX_FACES} faces"):
        full_simplex(12)
    # many small facets pass the limit only as their closure grows
    with pytest.raises(ValueError, match=f"{MAX_FACES} faces"):
        SimplicialComplex.from_facets(range(30), itertools.combinations(range(30), 3))


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([1, 2], [(1, 3)])


def test_duplicate_vertices_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([1, 1], [(1,)])


def test_irrelevant_and_empty_distinction():
    irrelevant = SimplicialComplex.from_facets([], [()])
    assert irrelevant.dim == -1
    assert irrelevant.f_vector() == [1]
    rep = reduced_cohomology(irrelevant, QQ)
    assert rep.betti(-1) == 1  # only the empty face contributes


def test_f_vector_rp2():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    assert L.f_vector() == [1, 6, 15, 10]


def test_facets_recovered():
    L = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3), (1,), (2,), (3,), ()])
    assert sorted(L.facets()) == [(1, 2), (2, 3)]
    assert L.dim == 1


# --- links --------------------------------------------------------------


def test_link_of_vertex_in_sphere():
    S2 = sphere_boundary(3)
    lk = link(S2, (0,))
    # link of a vertex in S^2 is a circle (here: boundary of a triangle)
    assert lk.f_vector() == [1, 3, 3]
    rep = reduced_cohomology(lk, ZZ)
    assert rep.betti(1) == 1 and rep.is_zero(0)


def test_link_of_empty_face_is_whole_complex():
    L = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3)])
    assert link(L, ()) == L


def test_link_of_nonface_rejected():
    L = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        link(L, (1, 3))


def test_link_in_rp2_is_circle():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    for v in range(1, 7):
        lk = link(L, (v,))
        rep = reduced_cohomology(lk, ZZ)
        assert rep.betti(1) == 1 and rep.is_zero(0), f"link of {v} not a circle"


# --- reduced cohomology --------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_cohomology(n):
    rep = reduced_cohomology(sphere_boundary(n), ZZ)
    for k in range(-1, n):
        if k == n - 1:
            assert rep.betti(k) == 1 and rep.torsion_at(k) == ()
        else:
            assert rep.is_zero(k)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_full_simplex_acyclic(n):
    rep = reduced_cohomology(full_simplex(n), ZZ)
    assert rep.nonzero_degrees() == []


def test_two_points():
    L = SimplicialComplex.from_facets([1, 2], [(1,), (2,)])
    rep = reduced_cohomology(L, ZZ)
    assert rep.betti(0) == 1
    assert rep.is_zero(-1) and rep.is_zero(1)


def test_rp2_integral_torsion():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    rep = reduced_cohomology(L, ZZ)
    assert rep.betti(1) == 0 and rep.betti(2) == 0
    assert rep.torsion_at(2) == (2,)
    assert rep.torsion_at(1) == ()


def test_rp2_field_coefficients():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    over_q = reduced_cohomology(L, QQ)
    assert over_q.nonzero_degrees() == []
    over_f2 = reduced_cohomology(L, GF(2))
    assert over_f2.betti(1) == 1 and over_f2.betti(2) == 1
    over_f3 = reduced_cohomology(L, GF(3))
    assert over_f3.nonzero_degrees() == []


# --- Cohen-Macaulay ------------------------------------------------------


def test_cm_sphere_over_z():
    v = is_cohen_macaulay(sphere_boundary(2), ZZ)
    assert v.ok and v.failures == ()


def test_cm_disjoint_edges_fails():
    L = SimplicialComplex.from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    v = is_cohen_macaulay(L, ZZ)
    assert not v.ok
    # witness: the full complex (link of the empty face) is disconnected
    faces = [f for f, deg, rank, tors in v.failures]
    assert () in faces
    degs = [deg for f, deg, rank, tors in v.failures if f == ()]
    assert 0 in degs


def test_cm_rp2_depends_on_coefficients():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    assert is_cohen_macaulay(L, QQ).ok
    assert is_cohen_macaulay(L, GF(3)).ok
    over_z = is_cohen_macaulay(L, ZZ)
    assert not over_z.ok
    assert ((), 2, 0, (2,)) in over_z.failures  # torsion below top degree
    over_f2 = is_cohen_macaulay(L, GF(2))
    assert not over_f2.ok
    assert ((), 1, 1, ()) in over_f2.failures


def test_cm_implication_z_to_fields_on_corpus():
    for L in enumerate_complexes(4):
        if is_cohen_macaulay(L, ZZ).ok:
            for ring in (QQ, GF(2), GF(3)):
                assert is_cohen_macaulay(L, ring).ok, L.facets()


def test_cm_verdict_json():
    L = SimplicialComplex.from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    obj = is_cohen_macaulay(L, ZZ).to_json()
    assert obj["ok"] is False and obj["dim"] == 1
    assert any(f["face"] == [] and f["degree"] == 0 for f in obj["failures"])


# --- enumeration ----------------------------------------------------------


def test_enumeration_counts():
    # complexes on exactly k labeled vertices up to isomorphism, cumulative:
    # k<=0: 1 (irrelevant), <=1: 2, <=2: 4, <=3: 9, <=4: 29, <=5: 209
    assert len(enumerate_complexes(0)) == 1
    assert len(enumerate_complexes(1)) == 2
    assert len(enumerate_complexes(2)) == 4
    assert len(enumerate_complexes(3)) == 9
    assert len(enumerate_complexes(4)) == 29


def test_enumeration_five_vertices():
    assert len(enumerate_complexes(5)) == 209


def test_enumeration_six_vertices():
    # OEIS A003182(6) - 1: antichains of subsets of 6 points up to relabeling,
    # each the facets of one complex, less the empty one (the void complex)
    assert len(enumerate_complexes(6)) == 16352


def test_canonical_key_isomorphism_invariance():
    a = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (3,)])
    b = SimplicialComplex.from_facets(["x", "y", "z"], [("z", "y"), ("x",)])
    assert a.canonical_key() == b.canonical_key()
    c = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3)])
    assert a.canonical_key() != c.canonical_key()


# sha256 of repr([(cx.vertices, cx.facets()) for cx in enumerate_complexes(k)]),
# taken from the n!-relabeling enumeration: the representatives and their
# order must not depend on how canonical keys are computed.
CORPUS_DIGESTS = {
    4: "ec9186cbf278600dd1099a0601bbc4fcfd075d8382325d7e685cb4576d99d5bc",
    5: "7ac464a80978dfc114fb7e7dffb2829c312abdbf215b758a2dbe8c53721725e3",
    6: "0e876a22647e916ec2fc013be4c852b41ad2cc0f20c563833f02f70ba1506b58",
}


@pytest.mark.parametrize("k", sorted(CORPUS_DIGESTS))
def test_corpus_digest_pinned(k):
    data = [(cx.vertices, cx.facets()) for cx in enumerate_complexes(k)]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CORPUS_DIGESTS[k]


def key_dict_enumeration(max_vertices):
    """Reference enumeration: every antichain of facets in the search's
    preorder, keyed by ``_canonical_key``; each class is represented by the
    first antichain with its key."""
    out = []
    for k in range(max_vertices + 1):
        subsets = [frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(range(k), r)]
        subsets.sort(key=lambda s: (-len(s), tuple(sorted(s))))
        first = {}

        def grow(chosen, start):
            if not k or (chosen and set().union(*chosen) == set(range(k))):
                first.setdefault(_canonical_key(k, chosen or [frozenset()]), list(chosen))
            for idx in range(start, len(subsets)):
                s = subsets[idx]
                if all(not (s <= t or t <= s) for t in chosen):
                    chosen.append(s)
                    grow(chosen, idx + 1)
                    chosen.pop()

        grow([], 0)
        out.extend(SimplicialComplex.from_facets(tuple(range(k)), f or [()]) for f in first.values())
    return out


def test_enumeration_matches_key_dict_oracle():
    # the same representatives in the same order
    got = [(cx.vertices, cx.facets()) for cx in enumerate_complexes(5)]
    assert got == [(cx.vertices, cx.facets()) for cx in key_dict_enumeration(5)]


def test_enumerated_complexes_equal_their_checked_construction():
    # each representative's levels are filtered, unchecked, from the simplex's
    for cx in enumerate_complexes(5):
        ref = SimplicialComplex.from_facets(cx.vertices, cx.facets())
        assert (cx.vertices, cx.levels) == (ref.vertices, ref.levels)


@st.composite
def equal_size_index_sets(draw):
    size = draw(st.integers(0, 31))
    return [sorted(draw(st.permutations(range(31)))[:size]) for _ in range(2)]


@settings(max_examples=300, deadline=None)
@given(equal_size_index_sets())
@example([[0, 5], [1, 2]])
@example([[1, 2], [0, 5]])
@example([[3, 4, 9], [3, 4, 9]])
def test_lowest_differing_bit_orders_equal_size_sequences(pair):
    # the search's canonicity test: the image A sorts below the sequence C
    # exactly when the lowest bit of A ^ C is in A
    A, C = pair
    a, c = sum(1 << i for i in A), sum(1 << i for i in C)
    x = a ^ c
    assert (not x & -x & a) == (A >= C)


@st.composite
def packed_images(draw):
    k = draw(st.integers(1, 6))
    c = draw(st.integers(0, (1 << (1 << k) - 1) - 1))
    field = st.one_of(st.just(c), st.just(0), st.integers(0, (1 << (1 << k) - 1) - 1))
    return k, draw(st.lists(field, max_size=8)), c


@settings(max_examples=500, deadline=None)
@given(packed_images())
@example((2, [1, 2], 1))  # a borrow out of the field equal to C would make bit 1 the second field's lowest
@example((6, [0, (1 << 63) - 1, 1 << 62], 1 << 62))  # C in the top subset bit, just under the guard
def test_packed_test_matches_each_image(case):
    # fields of 2^k bits, at least a byte, as enumerate_complexes packs them
    k, images, c = case
    width = max(1 << k >> 3, 1)

    def pack(fields):
        return int.from_bytes(b"".join(f.to_bytes(width, "little") for f in fields), "little")

    rep = pack([1] * len(images))
    got = _image_below(pack(images), pack([c] * len(images)), rep, rep << ((1 << k) - 1))
    assert bool(got) == any((a ^ c) & -(a ^ c) & a for a in images)


def brute_force_key(n, facets):
    """Reference key: the lex-min facet encoding over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(sorted(tuple(sorted(perm[i] for i in f)) for f in facets))
        if best is None or enc < best:
            best = enc
    return best


def index_facets(cx):
    return [frozenset(cx.vertices.index(v) for v in f) for f in cx.facets()]


@st.composite
def complexes(draw, n):
    """A complex on vertices 0..n-1: distinct faces of one size, plus up to
    two faces of any size.  Vertices in no face are kept, so the vertex count
    is part of the complex."""
    if not n:
        return SimplicialComplex.from_facets((), [])
    pool = [frozenset(c) for c in itertools.combinations(range(n), draw(st.integers(1, n)))]
    faces = draw(st.lists(st.sampled_from(pool), unique=True, min_size=min(n - 1, len(pool)), max_size=n + 2))
    faces += draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=2))
    return SimplicialComplex.from_facets(range(n), faces)


@st.composite
def switched(draw, cx):
    """``cx`` with a vertex swapped between two facets of equal size: no
    vertex changes its facet sizes, yet the result is often not isomorphic."""
    facets = [set(f) for f in cx.facets()]
    pairs = [(f, g) for f, g in itertools.permutations(facets, 2) if len(f) == len(g) and f != g]
    if not pairs:
        return cx
    f, g = draw(st.sampled_from(pairs))
    x, y = draw(st.sampled_from(sorted(f - g))), draw(st.sampled_from(sorted(g - f)))
    f ^= {x, y}
    g ^= {x, y}
    return SimplicialComplex.from_facets(cx.vertices, facets)


@st.composite
def groups(draw):
    """Complexes on one vertex count: two random ones, then some switched
    from earlier members."""
    n = draw(st.integers(0, 6))
    group = [draw(complexes(n)), draw(complexes(n))]
    for _ in range(draw(st.integers(1, 3))):
        group.append(draw(switched(draw(st.sampled_from(group)))))
    return group


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(complexes))
@example(SimplicialComplex.from_facets(range(1, 7), RP2_FACETS))
def test_universal_coefficients(L):
    # dim H^k(L; F_p) = rank H^k(L; Z) + #{factors of H^k divisible by p}
    #                   + #{factors of H^{k+1} divisible by p}
    over_z = reduced_cohomology(L, ZZ)
    for p in (2, 3):
        over_fp = reduced_cohomology(L, GF(p))
        for k in range(-1, L.dim + 2):
            divisible = sum(t % p == 0 for t in over_z.torsion_at(k) + over_z.torsion_at(k + 1))
            assert over_fp.betti(k) == over_z.betti(k) + divisible, (p, k)


@st.composite
def named_complexes(draw):
    """A complex from ``complexes`` with its vertices renamed to strings in
    a shuffled order, so the vertex order is not the order of the names."""
    n = draw(st.integers(0, 6))
    cx = draw(complexes(n))
    names = [f"v{p}" for p in draw(st.permutations(range(n)))]
    return SimplicialComplex.from_facets(names, [[names[v] for v in f] for f in cx.facets()])


# Links shared by shape, on string labels whose vertex order is not their
# sorted order.  A cone over a path of three edges and a cone over a triangle
# plus a point: the two apexes have links with equal face counts but not equal
# cohomology, while the edges {x, b} and {y, e} both have two points as links.
# The boundary of the octahedron: every vertex link is a 4-cycle, every edge
# link two points, on different labels each time.
CONES = SimplicialComplex.from_facets(
    ["g", "x", "c", "h", "a", "y", "e", "d", "b", "f"],
    [("x", "a", "b"), ("x", "b", "c"), ("x", "c", "d"), ("y", "e", "f"), ("y", "f", "g"), ("y", "e", "g"), ("y", "h")],
)
OCTAHEDRON = SimplicialComplex.from_facets(
    ["p3", "m1", "p1", "m2", "p2", "m3"],
    [(f"{a}1", f"{b}2", f"{c}3") for a in "pm" for b in "pm" for c in "pm"],
)
# Graph links with several components and cycles.  The cone over two disjoint
# hollow triangles: the apex's link is two 3-cycles (H^0 of rank 1, H^1 of rank 2).
# The cone over a 4-cycle with a chord, a pendant edge and an isolated point:
# the apex's link has two components and two independent cycles, and the
# links of the pendant edge and of the isolated point are one point each.
TWO_TRIANGLES = SimplicialComplex.from_facets(
    ["a", "b", "c", "o", "d", "e", "f"],
    [("o", x, y) for x, y in [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]],
)
CHORDED = SimplicialComplex.from_facets(
    ["w", "k", "z", "i", "j", "l", "m"],
    [("z", x, y) for x, y in [("i", "j"), ("j", "k"), ("k", "l"), ("i", "l"), ("i", "k"), ("l", "w")]] + [("z", "m")],
)

# Links on high, non-adjacent bits of a 10-vertex complex, read without
# relabeling: the link of 9 is the two disjoint edges {0, 5} and {2, 7}, the
# link of 0 the edge {5, 9}; the tetrahedron on 1, 3, 4, 6 is relabeled and
# eliminated, and 8 is an isolated point.
SCATTERED = SimplicialComplex.from_facets(range(10), [(0, 5, 9), (2, 7, 9), (1, 3, 4, 6), (8,)])
# Simplex links, read in closed form, next to links that are not simplices:
# two tetrahedra sharing the edge {0, 1}.  The link of 2 is the triangle
# {0, 1, 3}; the link of 0 is two triangles sharing 1, with 5 vertices and
# fewer than 2^5 faces; the link of {0, 1} is two disjoint edges.
TETRAHEDRA = SimplicialComplex.from_facets(range(6), [(0, 1, 2, 3), (0, 1, 4, 5)])


@settings(max_examples=60, deadline=None)
@given(named_complexes())
@example(SimplicialComplex.from_facets(range(1, 7), RP2_FACETS))
@example(SimplicialComplex.from_facets(["a", "b", "c", "d"], [("a", "b", "c"), ("c", "d"), ("b", "d")]))
@example(CONES)
@example(OCTAHEDRON)
@example(TWO_TRIANGLES)
@example(CHORDED)
@example(SCATTERED)
@example(SimplicialComplex.from_facets(["u", "s"], [("u", "s")]))
@example(full_simplex(5))
@example(TETRAHEDRA)
def test_link_cohomology_matches_each_link(L):
    for ring in (ZZ, QQ, GF(2), GF(101)):
        table = link_cohomology(L, ring)
        assert list(table) == list(itertools.chain.from_iterable(L.levels))
        for f, report in table.items():
            assert report == reduced_cohomology(link(L, L.face(f)), ring), (L.facets(), ring, f)


@st.composite
def graphs(draw):
    """A complex of dimension at most 1 on vertices 0..n-1, n <= 8, every
    vertex a face, with any set of edges (none for n = 0: {emptyset})."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2)) or [()]), unique=True))
    return SimplicialComplex.from_facets(range(n), [(v,) for v in range(n)] + [e for e in edges if e])


@settings(max_examples=100, deadline=None)
@given(graphs())
@example(SimplicialComplex.from_facets((), []))
@example(SimplicialComplex.from_facets(range(1), [(0,)]))
@example(SimplicialComplex.from_facets(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
def test_graph_closed_form_matches_elimination(L):
    masks = list(itertools.chain.from_iterable(L.levels))
    for ring in (ZZ, QQ, GF(2)):
        expected = reduced_cohomology(L, ring)
        assert _graph_cohomology(ring, masks, len(L.vertices)) == expected
        # the link of the empty face is L: the table reads the closed form
        assert link_cohomology(L, ring)[0] == expected
        assert not expected.torsion
        assert list(expected.free_ranks) == list(range(-1, L.dim + 1))


def oracle_coboundaries(L, weight):
    """Oracle: face counts by cardinality and the weighted coboundaries
    between them, in faces_of_card order, the column of g - {v} in the row
    of g holding (-1)^pos * weight(v), pos the number of vertices of g
    before v (faces_of_card lists each face's vertices in vertex order)."""
    levels = [L.faces_of_card(c) for c in range(L.dim + 2)]
    rows = []
    for source, target in zip(levels, levels[1:]):
        index = {f: j for j, f in enumerate(source)}
        rows.append([{index[g[:pos] + g[pos + 1 :]]: (-1) ** pos * weight(v) for pos, v in enumerate(g)} for g in target])
    return [len(level) for level in levels], rows


def oracle_complex(L, ring, weight, shift=0):
    """The oracle's coboundaries through make_complex, which normalizes every
    entry and checks d o d = 0 numerically."""
    counts, rows = oracle_coboundaries(L, weight)
    return make_complex(ring, {c + shift: n for c, n in enumerate(counts)}, {c + shift: r for c, r in enumerate(rows)})


@st.composite
def ring_and_weights(draw, vertices):
    """A ring and a weight q_v per vertex, 1 among the choices; q_v - 1
    vanishes at q_v = 1 and at q_v = 1 mod p."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(101)]))
    q = st.just(1) | st.integers(-4, 6)
    if ring is QQ:
        q |= st.builds(Fraction, st.integers(-4, 6), st.integers(1, 4))
    return ring, {v: draw(q) for v in vertices}


@settings(max_examples=100, deadline=None)
@given(named_complexes().flatmap(lambda L: st.tuples(st.just(L), ring_and_weights(L.vertices))))
@example((SimplicialComplex.from_facets(range(1, 7), RP2_FACETS), (GF(2), {v: 3 for v in range(1, 7)})))
def test_face_coboundaries_specialize_like_the_oracle(case):
    L, (ring, q) = case
    faces = face_coboundaries(L)
    twisted = faces.specialize(ring, [q[v] - 1 for v in L.vertices])
    expected = oracle_complex(L, ring, lambda v: q[v] - 1)
    assert (twisted.dims, twisted.rows) == (expected.dims, expected.rows)
    reduced = faces.specialize(ring, [1] * len(L.vertices), shift=-1)
    expected = oracle_complex(L, ring, lambda v: 1, shift=-1)
    assert (reduced.dims, reduced.rows) == (expected.dims, expected.rows)


def _one_entry_changed(L):
    """Copies of the rows of L's face coboundaries, each with one entry
    changed: its sign flipped, or its vertex symbol (one bit) swapped for
    another."""
    faces = face_coboundaries(L)
    n = len(L.vertices)
    for c, block in enumerate(faces.rows):
        for i, row in enumerate(block):
            for j, (s, v) in row.items():
                for changed in [(-s, v)] + [(s, 1 << u) for u in range(n) if 1 << u != v]:
                    rows = [[dict(r) for r in b] for b in faces.rows]
                    rows[c][i][j] = changed
                    yield faces.counts, tuple(rows)


@pytest.mark.parametrize("L", [sphere_boundary(3), SimplicialComplex.from_facets(range(4), [range(4)])])
def test_face_coboundaries_reject_one_changed_entry(L):
    # every entry lies on a path of length two, so each change breaks d o d
    cases = list(_one_entry_changed(L))
    assert len(cases) == 4 * sum(len(row) for block in face_coboundaries(L).rows for row in block)
    for counts, rows in cases:
        with pytest.raises(InternalError, match=r"d\^\d o d\^\d != 0"):
            Coboundaries(counts, rows)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(complexes(n), st.permutations(range(n)))), st.randoms())
@settings(max_examples=150, deadline=None)
def test_canonical_key_invariant_under_relabeling(case, rnd):
    cx, perm = case
    names = [f"v{p}" for p in perm]
    relabeled = SimplicialComplex.from_facets(
        sorted(names), [[names[v] for v in f] for f in cx.facets()]
    )
    assert relabeled.canonical_key() == cx.canonical_key()
    facets = index_facets(relabeled)
    rnd.shuffle(facets)  # the key must not depend on the order of the facets either
    assert _canonical_key(len(relabeled.vertices), facets) == cx.canonical_key()


# Non-isomorphic complexes whose vertices have the same facet sizes, so only
# the encoding tells them apart: a triangle and an edge against a path of
# four edges (with a relabeled copy of the first), and four triangles on
# five vertices glued in two ways.
SAME_INVARIANTS = [
    [[(0, 1), (0, 2), (1, 2), (3, 4)], [(0, 1), (0, 2), (1, 3), (2, 4)], [(3, 4), (2, 4), (2, 3), (0, 1)]],
    [[(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)], [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 4)]],
]


@given(groups())
@example([SimplicialComplex.from_facets(range(5), f) for f in SAME_INVARIANTS[0]])
@example([SimplicialComplex.from_facets(range(5), f) for f in SAME_INVARIANTS[1]])
@settings(max_examples=100, deadline=None)
def test_canonical_key_agrees_with_brute_force(group):
    n = len(group[0].vertices)
    keys = [_canonical_key(n, index_facets(cx)) for cx in group]
    oracle = [brute_force_key(n, index_facets(cx)) for cx in group]
    for (a, ka), (b, kb) in itertools.combinations(zip(oracle, keys), 2):
        assert (ka == kb) == (a == b)


def test_canonical_key_classes_match_brute_force_up_to_four_vertices():
    # every complex on the labelled vertices 0..n-1, n <= 4, unused vertices
    # included: each key class is one oracle class, and there is one class per
    # complex on at most n vertices
    for n in range(5):
        subsets = [frozenset(s) for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
        classes = {}
        for mask in range(1 << len(subsets)):
            chosen = [s for i, s in enumerate(subsets) if mask >> i & 1]
            if any(a < b for a in chosen for b in chosen):
                continue
            facets = chosen or [frozenset()]
            classes.setdefault(_canonical_key(n, facets), set()).add(brute_force_key(n, facets))
        assert all(len(c) == 1 for c in classes.values())
        assert len(set().union(*classes.values())) == len(classes)
        assert len(classes) == len(enumerate_complexes(n))


def test_representatives_pairwise_non_isomorphic():
    keys = [(len(cx.vertices), brute_force_key(len(cx.vertices), index_facets(cx))) for cx in enumerate_complexes(4)]
    assert len(set(keys)) == len(keys)


def test_json_round_trip():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    again = ToricComplex.from_json(L.to_json()).base  # the reader of the toric verbs
    assert again == L
