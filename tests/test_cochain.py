"""Cochain complexes and their exact cohomology over Z, Q and F_p."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh.cochain import complex_cohomology, make_complex
from arrcoh.linalg import GF, QQ, ZZ, sparse_rank
from arrcoh.simplicial import SimplicialComplex, face_coboundaries


def test_circle_over_q():
    # 0 -> k -> k -> 0 with zero differential: both degrees survive
    cx = make_complex(QQ, {0: 1, 1: 1}, {0: [{0: 0}]})
    rep = complex_cohomology(cx)
    assert rep.betti(0) == 1 and rep.betti(1) == 1
    assert sum((-1) ** k * r for k, r in rep.free_ranks.items()) == 0


def test_multiplication_by_two_over_z():
    cx = make_complex(ZZ, {0: 1, 1: 1}, {0: [{0: 2}]})
    rep = complex_cohomology(cx)
    assert rep.betti(0) == 0 and rep.betti(1) == 0
    assert rep.torsion_at(1) == (2,)
    assert rep.torsion_at(0) == ()
    assert not rep.is_zero(1)
    assert rep.nonzero_degrees() == [1]


def test_multiplication_by_two_over_f2():
    F2 = GF(2)
    cx = make_complex(F2, {0: 1, 1: 1}, {0: [{}]})
    rep = complex_cohomology(cx)
    assert rep.betti(0) == 1 and rep.betti(1) == 1


def test_exact_two_step():
    cx = make_complex(QQ, {0: 1, 1: 1}, {0: [{0: 5}]})
    rep = complex_cohomology(cx)
    assert rep.is_zero(0) and rep.is_zero(1)
    assert rep.nonzero_degrees() == []


def test_three_term_complex():
    # 0 -> Q -> Q^2 -> Q -> 0 with d0 = (1, 0)^T, d1 = (0, 1): exact in the middle
    d0 = [{0: 1}, {}]
    d1 = [{1: 1}]
    cx = make_complex(QQ, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})
    rep = complex_cohomology(cx)
    assert [rep.betti(k) for k in (0, 1, 2)] == [0, 0, 0]
    assert sum((-1) ** k * r for k, r in rep.free_ranks.items()) == 0


def test_d_squared_nonzero_rejected():
    d0 = [{0: 1}]
    d1 = [{0: 1}]
    with pytest.raises(ValueError, match="d.*o d"):
        make_complex(QQ, {0: 1, 1: 1, 2: 1}, {0: d0, 1: d1})


def test_d_squared_zero_mod_p_accepted():
    # d1 d0 = 1*1 + 1*1 = 2: zero over GF(2), not over Z
    F2 = GF(2)
    d0 = [{0: 1}, {0: 1}]
    d1 = [{0: 1, 1: 1}]
    rep = complex_cohomology(make_complex(F2, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1}))
    assert [rep.betti(k) for k in (0, 1, 2)] == [0, 0, 0]
    with pytest.raises(ValueError, match="d.*o d"):
        make_complex(ZZ, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_d_squared_nonzero_mod_p_rejected():
    # d1 d0 = 1*1 + 1*1 = 2, which is not 0 mod 3
    F3 = GF(3)
    d0 = [{0: 1}, {0: 1}]
    d1 = [{0: 1, 1: 1}]
    with pytest.raises(ValueError, match="d.*o d"):
        make_complex(F3, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def test_d_squared_check_is_exact_over_q():
    # 2 * 1/2 - 3 * 1/3 = 0 exactly
    d0 = [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}]
    cx = make_complex(QQ, {0: 1, 1: 2, 2: 1}, {0: d0, 1: [{0: 2, 1: -3}]})
    assert complex_cohomology(cx).betti(1) == 0
    with pytest.raises(ValueError, match="d.*o d"):
        make_complex(QQ, {0: 1, 1: 2, 2: 1}, {0: d0, 1: [{0: 2, 1: -2}]})


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9)), min_size=2, max_size=5),
    st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), min_size=4, max_size=4),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)
def test_d_squared_check_over_q_scales_each_differential(d0, w, shift):
    # d0 is a column, d1 a row whose last entry cancels d1 . d0 exactly;
    # the product is taken in Fractions, and any shift of that entry
    # leaves a nonzero product
    k = len(d0)
    d1 = w[: k - 1]
    d1.append(-sum(x * y for x, y in zip(d1, d0)) / d0[-1])
    dims = {0: 1, 1: k, 2: 1}
    rows0 = [{0: x} for x in d0]
    make_complex(QQ, dims, {0: rows0, 1: [dict(enumerate(d1))]})
    d1[-1] += shift
    with pytest.raises(ValueError, match="d.*o d"):
        make_complex(QQ, dims, {0: rows0, 1: [dict(enumerate(d1))]})


def test_rp2_torsion_from_sparse_elimination():
    # the 6-vertex real projective plane: reduced H^2(RP^2; Z) = Z/2
    facets = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    L = SimplicialComplex.from_facets(range(1, 7), facets)
    cx = face_coboundaries(L).specialize(ZZ, [1] * 6, shift=-1)  # augmented, empty face in degree -1
    rep = complex_cohomology(cx)
    assert [rep.betti(k) for k in (-1, 0, 1, 2)] == [0, 0, 0, 0]
    assert rep.torsion == {2: (2,)}
    # d^1 (15 edges -> 10 triangles) has rank 10 over Q and Z, 9 over GF(2)
    assert sparse_rank(ZZ, cx.rows[1]) == (10, (2,))
    assert sparse_rank(GF(2), cx.rows[1])[0] == 9


def test_shape_mismatch_rejected():
    # a wrong row count, or a column outside range(dims[0])
    for rows in ([{0: 1}, {1: 1}], [{2: 1}], [{-1: 1}]):
        with pytest.raises(ValueError, match="shape"):
            make_complex(QQ, {0: 2, 1: 1}, {0: rows})


def test_entries_are_normalized_into_the_ring():
    cx = make_complex(QQ, {0: 2, 1: 1}, {0: [{0: 3, 1: "1/2"}]})
    assert cx.rows[0] == [{0: Fraction(3), 1: Fraction(1, 2)}]
    assert all(type(x) is Fraction for x in cx.rows[0][0].values())
    assert cx.differentials[0].entries == ((Fraction(3), Fraction(1, 2)),)


def test_entries_vanishing_mod_p_are_dropped():
    F5 = GF(5)
    cx = make_complex(F5, {0: 2, 1: 1}, {0: [{0: 5, 1: -1}]})
    assert cx.rows[0] == [{1: 4}]
    assert cx.differentials[0].entries == ((0, 4),)
    assert complex_cohomology(cx).betti(0) == 1


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="negative"):
        make_complex(QQ, {0: -1}, {})


def test_missing_differentials_are_zero_maps():
    cx = make_complex(QQ, {0: 2, 3: 1}, {})
    rep = complex_cohomology(cx)
    assert rep.betti(0) == 2 and rep.betti(3) == 1
    assert cx.differentials == {}


def test_torsion_chain_over_z():
    # d = diag(1, 2, 0) from Z^3 to Z^3
    d = [{0: 1}, {1: 2}, {}]
    cx = make_complex(ZZ, {0: 3, 1: 3}, {0: d})
    rep = complex_cohomology(cx)
    assert rep.betti(0) == 1  # kernel rank
    assert rep.betti(1) == 1  # cokernel free rank
    assert rep.torsion_at(1) == (2,)


def test_json_shape():
    cx = make_complex(ZZ, {0: 1, 1: 1}, {0: [{0: 2}]})
    obj = complex_cohomology(cx).to_json()
    assert obj["cohomology"]["1"] == {"rank": 0, "torsion": [2]}
    assert obj["cohomology"]["0"] == {"rank": 0}
