"""Simplicial complexes: faces, links, reduced cohomology, depth checks.

Sphere and projective-plane values are classical and easy to confirm by
hand from the face counts; they are frozen here as regression anchors.
"""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh.linalg import GF, QQ, ZZ
from arrcoh.simplicial import (
    SimplicialComplex,
    _canonical_key,
    enumerate_complexes,
    is_cohen_macaulay,
    link,
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
    assert frozenset((1, 2)) in L.faces
    assert frozenset((3,)) in L.faces
    assert frozenset() in L.faces
    assert L.f_vector() == [1, 3, 3, 1]
    assert L.dim == 2
    assert L.facets() == [(1, 2, 3)]


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
    lk = link(L, ())
    assert lk.faces == L.faces


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
}


@pytest.mark.parametrize("k", sorted(CORPUS_DIGESTS))
def test_corpus_digest_pinned(k):
    data = [(cx.vertices, cx.facets()) for cx in enumerate_complexes(k)]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CORPUS_DIGESTS[k]


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


def test_json_round_trip():
    L = SimplicialComplex.from_facets(range(1, 7), RP2_FACETS)
    again = ToricComplex.from_json(L.to_json()).base  # the reader of the toric verbs
    assert again == L
