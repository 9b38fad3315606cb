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
def weight_systems(draw, m):
    """A rank-one system of m weights, 1 among the choices, projective
    (prod q = 1) three times in four, as both sides are 0 otherwise."""
    field = draw(st.sampled_from(RINGS))
    if field == QQ:
        unit = st.just(1) | st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
    else:
        unit = st.just(1) | st.integers(1, field.p - 1)
    q = [field.normalize(draw(unit)) for _ in range(m)]
    if draw(st.sampled_from([True, True, True, False])):
        rest = RankOneSystem(field, q[:-1]).product()
        q[-1] = 1 / rest if field == QQ else pow(rest, -1, field.p)
    return RankOneSystem(field, tuple(q))


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
