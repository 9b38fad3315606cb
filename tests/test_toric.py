"""Unions of coordinate subtori: twisted cohomology, support pages, checks.

Small cases are frozen against hand computation; the two independent
computations (direct cochain complex, link-based support page) are also
cross-checked on a corpus where the collapse theorem applies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh.covers import validate_cover
from arrcoh.linalg import GF, QQ
from arrcoh.simplicial import SimplicialComplex, enumerate_complexes, is_cohen_macaulay, reduced_cohomology
from arrcoh.toric import (
    ToricComplex,
    ToricRankOneSystem,
    cover_nerve,
    toric_cohomology,
    toric_e2_page,
    verify_cm_theorem,
)


def tc_from_facets(vertices, facets):
    return ToricComplex(SimplicialComplex.from_facets(vertices, facets))


def weights(tc, field, by_vertex):
    return ToricRankOneSystem.from_mapping(field, tc, by_vertex)


# --- frozen small cases -----------------------------------------------------


def test_single_vertex_twisted_circle():
    # one circle, weight 2 over F5: unit minus one is invertible, all gone
    tc = tc_from_facets([1], [(1,)])
    rep = toric_cohomology(tc, weights(tc, GF(5), {1: 2}))
    assert rep.betti(0) == 0 and rep.betti(1) == 0
    assert rep.nonzero_degrees() == []


def test_single_vertex_trivial_circle():
    tc = tc_from_facets([1], [(1,)])
    rep = toric_cohomology(tc, weights(tc, GF(5), {1: 1}))
    assert rep.betti(0) == 1 and rep.betti(1) == 1  # plain circle


def test_two_isolated_vertices():
    # wedge-like union of two circles glued along the basepoint torus
    tc = tc_from_facets([1, 2], [(1,), (2,)])
    rep = toric_cohomology(tc, weights(tc, GF(7), {1: 2, 2: 3}))
    assert rep.betti(0) == 0
    assert rep.betti(1) == 1
    assert rep.nonzero_degrees() == [1]


def test_boundary_triangle_concentrates():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    rep = toric_cohomology(tc, weights(tc, GF(7), {1: 3, 2: 5, 3: 6}))
    assert [rep.betti(k) for k in (0, 1, 2)] == [0, 0, 1]


def test_full_simplex_trivial_weights_gives_face_counts():
    tc = tc_from_facets([1, 2], [(1, 2)])
    rep = toric_cohomology(tc, weights(tc, GF(5), {1: 1, 2: 1}))
    # zero coboundary: Betti = number of faces of each cardinality
    assert [rep.betti(k) for k in (0, 1, 2)] == [1, 2, 1]


def test_full_simplex_any_nontrivial_weight_kills_everything():
    tc = tc_from_facets([1, 2], [(1, 2)])
    rep = toric_cohomology(tc, weights(tc, GF(5), {1: 2, 2: 1}))
    assert rep.nonzero_degrees() == []


def test_disjoint_edges_generic_weights():
    # two disjoint 2-tori meeting the basepoint torus: reduced Euler
    # characteristic of the index complex forces dim H^1 - dim H^2 = 1
    tc = tc_from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    rep = toric_cohomology(tc, weights(tc, GF(101), {1: 2, 2: 3, 3: 5, 4: 7}))
    assert rep.betti(0) == 0
    assert rep.betti(1) == 1
    assert rep.betti(2) == 0


def test_euler_characteristic_is_weight_independent():
    tc = tc_from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    f = tc.base.f_vector()  # alternating sum over face cardinalities
    expected = sum((-1) ** k * c for k, c in enumerate(f))
    for q in ({1: 2, 2: 3, 3: 5, 4: 7}, {1: 1, 2: 1, 3: 1, 4: 1}, {1: 1, 2: 2, 3: 1, 4: 2}):
        rep = toric_cohomology(tc, weights(tc, GF(101), q))
        assert rep.euler_characteristic() == expected


@st.composite
def _complex_and_weights(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    facets = draw(st.lists(st.sets(vertex, min_size=1), max_size=6)) if n else []
    q = {v: draw(st.integers(min_value=2, max_value=100)) for v in range(n)}
    return SimplicialComplex.from_facets(range(n), facets), q


@given(_complex_and_weights())
@settings(max_examples=80, deadline=None)
def test_nontrivial_weights_shift_reduced_cohomology(case):
    # rescaling each face by the product of its q_v - 1 carries the toric
    # complex onto the augmented simplicial one, shifted up one degree
    L, q = case
    tc = ToricComplex(L)
    field = GF(101)
    toric = toric_cohomology(tc, weights(tc, field, q))
    reduced = reduced_cohomology(L, field)
    for k in range(0, L.dim + 2):
        assert toric.betti(k) == reduced.betti(k - 1)


# --- weight validation --------------------------------------------------------


def test_weight_missing_vertex():
    tc = tc_from_facets([1, 2], [(1, 2)])
    with pytest.raises(ValueError, match="missing weight"):
        weights(tc, GF(5), {1: 2})


def test_weight_zero_rejected():
    tc = tc_from_facets([1], [(1,)])
    with pytest.raises(ValueError, match="nonzero"):
        weights(tc, GF(5), {1: 5})


def test_weights_json_round_trip():
    tc = tc_from_facets([1, 2], [(1, 2)])
    sys = weights(tc, GF(7), {1: 9, 2: 3})
    obj = sys.to_json(tc)
    assert obj["q"] == {"1": "2", "2": "3"}
    again = ToricRankOneSystem.from_json(tc, obj)
    assert again.weights == sys.weights


def test_weights_json_unknown_vertex():
    tc = tc_from_facets([1], [(1,)])
    with pytest.raises(ValueError, match="unknown vertex"):
        ToricRankOneSystem.from_json(tc, {"field": {"kind": "prime", "p": 5}, "q": {"1": 2, "9": 2}})


def test_complex_json_round_trip():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3)])
    again = ToricComplex.from_json(tc.to_json())
    assert again.base == tc.base
    with pytest.raises(ValueError, match="bad complex JSON"):
        ToricComplex.from_json({"vertices": [1]})


# --- support page ---------------------------------------------------------------


def test_page_boundary_triangle_single_entry():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    page = toric_e2_page(tc, weights(tc, GF(7), {1: 3, 2: 5, 3: 6}))
    assert dict(page.entries) == {(2, 0): 1}
    assert page.concentration == 2
    assert page.dim_on_line(2) == 1


def test_page_all_nontrivial_weights_reduces_to_empty_face_row():
    # only tau = {} contributes: the row is the reduced cohomology of the
    # index complex itself, shifted by one
    tc = tc_from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    page = toric_e2_page(tc, weights(tc, GF(101), {1: 2, 2: 3, 3: 5, 4: 7}))
    assert dict(page.entries) == {(1, 0): 1}  # reduced H^0 of two components
    assert page.concentration == 1


def test_page_trivial_weights_spread():
    tc = tc_from_facets([1, 2], [(1, 2)])
    page = toric_e2_page(tc, weights(tc, GF(5), {1: 1, 2: 1}))
    # every face contributes the cohomology of its (acyclic or spherical) link
    assert page.concentration is None or page.total_vanishing is False


def test_page_total_vanishing():
    tc = tc_from_facets([1, 2], [(1, 2)])
    page = toric_e2_page(tc, weights(tc, GF(5), {1: 2, 2: 3}))
    assert page.total_vanishing
    assert dict(page.entries) == {}


def test_page_agrees_with_direct_computation_on_cm_corpus():
    F = GF(11)
    q_pool = [2, 3, 5, 7, 8]
    for L in enumerate_complexes(4):
        if L.dim < 0 or not is_cohen_macaulay(L, F).ok:
            continue
        tc = ToricComplex(L)
        top = tc.space_dim
        q = {v: q_pool[i % len(q_pool)] for i, v in enumerate(L.vertices)}
        rep = toric_cohomology(tc, weights(tc, F, q))
        page = toric_e2_page(tc, weights(tc, F, q))
        assert all(k == top for k in rep.nonzero_degrees()), L.facets()
        assert (page.dim_on_line(top) or 0) == rep.betti(top), L.facets()


# --- covers ----------------------------------------------------------------------


def test_cover_nerve_is_certified():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    v = validate_cover(cover_nerve(tc))
    assert v.valid
    assert v.condition2 == "certified"


def test_cover_nerve_disconnected_complex():
    tc = tc_from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    v = validate_cover(cover_nerve(tc))
    assert v.valid


# --- randomized theorem check ------------------------------------------------------


def test_verify_cm_on_sphere():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    rep = verify_cm_theorem(tc, 101, trials=10, seed=7)
    assert rep.cm.ok
    assert rep.ok
    assert len(rep.trials) == 10
    assert all(t["concentrated"] and t["agree"] for t in rep.trials)


def test_verify_cm_on_non_cm_records_only():
    tc = tc_from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    rep = verify_cm_theorem(tc, 101, trials=5, seed=0)
    assert not rep.cm.ok
    assert rep.ok  # nothing to violate; the theorem is silent here
    assert all("concentrated" not in t for t in rep.trials)


def test_verify_cm_deterministic_in_seed():
    tc = tc_from_facets([1, 2], [(1, 2)])
    a = verify_cm_theorem(tc, 101, trials=3, seed=5)
    b = verify_cm_theorem(tc, 101, trials=3, seed=5)
    assert [t["q"] for t in a.trials] == [t["q"] for t in b.trials]


def test_verify_cm_rejects_non_prime():
    tc = tc_from_facets([1], [(1,)])
    with pytest.raises(ValueError, match="not prime"):
        verify_cm_theorem(tc, 10)


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_cm_rejects_no_trials(trials):
    # a verdict from no sample would report the theorem verified on nothing
    tc = tc_from_facets([1, 2], [(1,), (2,)])
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_cm_theorem(tc, 101, trials=trials)


def test_verify_cm_rejects_small_field():
    tc = tc_from_facets([1], [(1,)])
    with pytest.raises(ValueError, match="too small"):
        verify_cm_theorem(tc, 5, trials=25)


def test_cm_report_json():
    tc = tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    obj = verify_cm_theorem(tc, 101, trials=2, seed=1).to_json()
    assert obj["ok"] is True
    assert obj["cohen_macaulay"]["ok"] is True
    assert obj["prime"] == 101 and obj["seed"] == 1
    assert len(obj["trials"]) == 2
