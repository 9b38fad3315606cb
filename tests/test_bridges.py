"""Bridges between the families: exact cross-checks through code paths that
share nothing but the linear algebra.

Generic arrangements and toric complexes (Hattori, Topology of C^n minus a
finite number of affine hyperplanes in general position, J. Fac. Sci. Univ.
Tokyo 22, 1975).  Let A be m > n central hyperplanes in general position in
C^n.  Its complement is C^* x M(dA), where the C^* loop is the sum of all
meridians, and the decone M(dA) is homotopy equivalent to the (n-1)-skeleton
of the torus T^{m-1} on the meridians of hyperplanes 2..m.  As a toric
complex, that product is the cone over the (n-2)-skeleton of the simplex on
hyperplanes 2..m: the apex is the C^* factor, with weight prod q, and vertex
i carries q_i.  So the Salvetti cohomology of A and the toric cohomology of
the cone agree in every degree, for every rank-one system.

Products (Kunneth).  Block-diagonal normals give the product arrangement,
whose complement is M(A1) x M(A2); the toric complex of a join L1 * L2 is
T(L1) x T(L2).  In both, the rank-one system is the product of the factors'
systems, so over a field the Betti numbers of the product are the
convolution of the factors' Betti numbers.
"""

import itertools
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import Arrangement
from arrcoh.linalg import GF, QQ, RankOneSystem
from arrcoh.salvetti import twisted_cohomology
from arrcoh.simplicial import SimplicialComplex
from arrcoh.toric import ToricComplex, toric_cohomology

RINGS = (GF(2), GF(7), GF(101), QQ)


def determinant(rows):
    """Determinant over Q by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def in_general_position(rows, n):
    return all(determinant(minor) for minor in itertools.combinations(rows, n))


@st.composite
def generic_normals(draw):
    """m > n normals in C^n, 2 <= n <= 4 and m <= 7, with every maximal minor
    nonzero: Vandermonde rows at distinct points, or small integer rows."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, 7))
    if draw(st.booleans()):
        points = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m, unique=True))
        return n, [[t**j for j in range(n)] for t in points]
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=m, max_size=m))
    assume(in_general_position(rows, n))
    return n, rows


@st.composite
def weight_systems(draw, m, field=None):
    """A rank-one system of m weights over ``field``, or a drawn one, 1
    among the choices, projective (prod q = 1) three times in four, as
    the Salvetti side is 0 otherwise."""
    field = draw(st.sampled_from(RINGS)) if field is None else field
    if field == QQ:
        unit = st.just(1) | st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
    else:
        unit = st.just(1) | st.integers(1, field.p - 1)
    q = [field.normalize(draw(unit)) for _ in range(m)]
    if draw(st.sampled_from([True, True, True, False])):
        rest = RankOneSystem(field, q[:-1]).product()
        q[-1] = 1 / rest if field == QQ else pow(rest, -1, field.p)
    return RankOneSystem(field, tuple(q))


def convolve(a, b):
    """The Betti numbers of a product from those of its factors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def cone_over_skeleton(n, m):
    """The apex joined to every (n-2)-face of the simplex on 2..m."""
    facets = [("apex",) + S for S in itertools.combinations(range(2, m + 1), n - 1)]
    return ToricComplex(SimplicialComplex.from_facets(["apex", *range(2, m + 1)], facets))


@settings(max_examples=150, deadline=None)
@given(generic_normals().flatmap(lambda case: st.tuples(st.just(case), weight_systems(len(case[1])))))
@example(((2, [[1, 0], [0, 1], [1, 1]]), RankOneSystem(GF(7), (2, 2, 2))))
@example(((3, [[1, t, t * t] for t in range(5)]), RankOneSystem(QQ, (1, 1, 1, 1, 1))))
@example(((4, [[1, t, t * t, t**3] for t in range(7)]), RankOneSystem(GF(101), (3, 1, 1, 5, 1, 1, 27))))
def test_generic_arrangement_matches_cone_over_skeleton(case):
    (n, rows), sys = case
    m = len(rows)
    salvetti = twisted_cohomology(Arrangement.from_rows(n, rows), sys)
    toric = toric_cohomology(cone_over_skeleton(n, m), RankOneSystem(sys.field, (sys.product(), *sys.weights[1:])))
    assert salvetti.full_betti == tuple(toric.betti(k) for k in range(n + 1)), (rows, sys.weights)


def proportional(r, q):
    """Every 2 x 2 minor of the rows r and q vanishes."""
    return all(x * t == y * s for (x, y), (s, t) in itertools.combinations(zip(r, q), 2))


@st.composite
def small_normals(draw):
    """1 to 3 distinct hyperplanes in C^n, 1 <= n <= 3, entries in [-2, 2]."""
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=3))
    rows = []
    for r in raw:
        if any(r) and not any(proportional(r, q) for q in rows):
            rows.append(r)
    assume(rows)
    return n, rows


def block_diagonal(n1, rows1, n2, rows2):
    return Arrangement.from_rows(n1 + n2, [r + [0] * n2 for r in rows1] + [[0] * n1 + r for r in rows2])


@st.composite
def arrangement_products(draw):
    """Two blocks of normals and a rank-one system on each, over one field."""
    field = draw(st.sampled_from(RINGS))
    (n1, rows1), (n2, rows2) = draw(small_normals()), draw(small_normals())
    return (n1, rows1, draw(weight_systems(len(rows1), field))), (n2, rows2, draw(weight_systems(len(rows2), field)))


def boolean(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(arrangement_products())
@example(((1, [[1]], RankOneSystem(QQ, (1,))), (2, boolean(2), RankOneSystem(QQ, (1, 1)))))
@example(((2, [[1, 0], [0, 1], [1, 1]], RankOneSystem(GF(7), (2, 2, 2))), (1, [[1]], RankOneSystem(GF(7), (1,)))))
@example(((2, [[1, 0], [0, 1], [1, 1]], RankOneSystem(GF(101), (1, 1, 1))), (2, [[1, 0], [0, 1], [1, -1]], RankOneSystem(GF(101), (3, 1, 34)))))
def test_block_diagonal_arrangement_is_kunneth_product(case):
    (n1, rows1, sys1), (n2, rows2, sys2) = case
    product = block_diagonal(n1, rows1, n2, rows2)
    sys_ = RankOneSystem(sys1.field, sys1.weights + sys2.weights)
    left = twisted_cohomology(Arrangement.from_rows(n1, rows1), sys1).full_betti
    right = twisted_cohomology(Arrangement.from_rows(n2, rows2), sys2).full_betti
    assert twisted_cohomology(product, sys_).full_betti == convolve(left, right), (rows1, rows2, sys_.weights)


@st.composite
def small_complexes(draw, tag):
    """A complex on 1 to 3 vertices named (tag, i), generated by at most
    three drawn faces; a vertex may lie in no face."""
    k = draw(st.integers(1, 3))
    faces = draw(st.lists(st.sets(st.integers(0, k - 1)), max_size=3))
    return SimplicialComplex.from_facets([(tag, i) for i in range(k)], [[(tag, i) for i in f] for f in faces])


def join(L1, L2):
    """The complex of the unions of a face of L1 and a face of L2."""
    return SimplicialComplex.from_facets(L1.vertices + L2.vertices, [f + g for f in L1.facets() for g in L2.facets()])


@st.composite
def complex_products(draw):
    """Two complexes on disjoint vertices and weights on both, over one field."""
    field = draw(st.sampled_from(RINGS))
    L1, L2 = draw(small_complexes("a")), draw(small_complexes("b"))
    sys_ = draw(weight_systems(len(L1.vertices) + len(L2.vertices), field))
    return L1, L2, sys_


def toric_betti(L, sys_):
    tc = ToricComplex(L)
    rep = toric_cohomology(tc, sys_)
    return tuple(rep.betti(k) for k in range(tc.space_dim + 1))


def simplex(tag, k):
    vertices = [(tag, i) for i in range(k)]
    return SimplicialComplex.from_facets(vertices, [vertices])


@settings(max_examples=120, deadline=None)
@given(complex_products())
@example((simplex("a", 1), simplex("b", 2), RankOneSystem(QQ, (1, 1, 1))))
@example((simplex("a", 2), SimplicialComplex.from_facets([("b", 0), ("b", 1)], [[("b", 0)], [("b", 1)]]), RankOneSystem(GF(2), (1, 1, 1, 1))))
@example((simplex("a", 3), simplex("b", 1), RankOneSystem(GF(7), (2, 4, 1, 3))))
def test_join_is_kunneth_product_of_toric_complexes(case):
    L1, L2, sys_ = case
    k = len(L1.vertices)
    left = toric_betti(L1, RankOneSystem(sys_.field, sys_.weights[:k]))
    right = toric_betti(L2, RankOneSystem(sys_.field, sys_.weights[k:]))
    assert toric_betti(join(L1, L2), sys_) == convolve(left, right), (L1.facets(), L2.facets(), sys_.weights)
