"""Unions of coordinate subtori: twisted cohomology, support pages, checks.

Small cases are frozen against hand computation; the two independent
computations (direct cochain complex, link-based support page) are also
cross-checked on a corpus where the collapse theorem applies.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh.covers import support_certificate
from arrcoh.linalg import GF, QQ, ZZ, RankOneSystem
from arrcoh.simplicial import (
    SimplicialComplex,
    enumerate_complexes,
    is_cohen_macaulay,
    link,
    reduced_cohomology,
)
from arrcoh.toric import (
    ToricComplex,
    _support_page,
    toric_cohomology,
    toric_e2_page,
    verify_cm_theorem,
)


def tc_from_facets(vertices, facets):
    return ToricComplex(SimplicialComplex.from_facets(vertices, facets))


def weights(tc, field, by_vertex):
    return RankOneSystem.from_mapping(field, tc, by_vertex)


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
        assert sum((-1) ** k * r for k, r in rep.free_ranks.items()) == expected


@st.composite
def _complex_and_weights(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    facets = draw(st.lists(st.sets(vertex, min_size=1), max_size=6)) if n else []
    q = {v: draw(st.integers(min_value=2, max_value=100)) for v in range(n)}
    return SimplicialComplex.from_facets(range(n), facets), q


# rational weights other than 1: integers, negatives and fractions
NOT_ONE = st.sampled_from([2, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 101])


@given(_complex_and_weights(), st.sampled_from([GF(101), GF(7), QQ]), st.data())
@settings(max_examples=80, deadline=None)
def test_nontrivial_weights_shift_reduced_cohomology(case, field, data):
    # rescaling each face by the product of its q_v - 1 carries the toric
    # complex onto the augmented simplicial one, shifted up one degree
    L, q = case
    if field == QQ:
        q = {v: data.draw(NOT_ONE) for v in q}
    else:
        q = {v: 2 + w % (field.p - 2) for v, w in q.items()}  # in 2..p-1
    tc = ToricComplex(L)
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
    again = RankOneSystem.from_json(tc, obj)
    assert again.weights == sys.weights


def test_weights_json_unknown_vertex():
    tc = tc_from_facets([1], [(1,)])
    with pytest.raises(ValueError, match="unknown label '9'"):
        RankOneSystem.from_json(tc, {"field": {"kind": "prime", "p": 5}, "q": {"1": 2, "9": 2}})


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
    # every face contributes one line, its link restricted to no vertex being
    # {emptyset}: the lines are the face counts, as the Betti numbers are
    assert {n: page.dim_on_line(n) for n in page.lines()} == {0: 1, 1: 2, 2: 1}
    assert page.concentration is None


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


@given(_complex_and_weights())
@settings(max_examples=60, deadline=None)
def test_page_matches_link_of_each_trivial_face(case):
    # oracle: per face of trivial weight, its link restricted to the
    # vertices of nontrivial weight, and that link's reduced cohomology
    L, q = case
    tc = ToricComplex(L)
    q = {v: 1 if w % 2 else w for v, w in q.items()}
    trivial = frozenset(v for v, w in q.items() if w == 1)
    table = {}
    for tau in L.faces:
        if tau <= trivial:
            lk = link(L, tau)
            restricted = SimplicialComplex([v for v in lk.vertices if v not in trivial], [f for f in lk.faces if not f & trivial])
            table[tau] = reduced_cohomology(restricted, GF(101))
    assert toric_e2_page(tc, weights(tc, GF(101), q)) == support_certificate(*_support_page(tc, table))


@st.composite
def _toric_with_weights(draw):
    """A complex on at most 6 vertices and unit weights over GF(2), GF(7),
    GF(101) or Q, about half of them 1."""
    L, _ = draw(_complex_and_weights())
    field = draw(st.sampled_from([GF(2), GF(7), GF(101), QQ]))
    unit = NOT_ONE if field == QQ else st.integers(1, field.p - 1)
    return ToricComplex(L), RankOneSystem(field, tuple(draw(st.just(1) | unit) for _ in L.vertices))


@given(_toric_with_weights())
@settings(max_examples=150, deadline=None)
@example((tc_from_facets(["v"], [("v",)]), RankOneSystem(GF(7), (1,))))
@example((tc_from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)]), RankOneSystem(GF(2), (1, 1, 1))))
@example((tc_from_facets([1, 2, 3, 4], [(1, 2, 3), (3, 4)]), RankOneSystem(QQ, (1, Fraction(1, 2), 1, -1))))
def test_page_lines_are_the_exact_betti_numbers(case):
    # the page against the direct cochain computation: each line's total is
    # the Betti number of its degree, so no concentration or vanishing it
    # claims is false; one vertex of weight 1 over GF(7) has Betti (1, 1)
    tc, sys = case
    page = toric_e2_page(tc, sys)
    rep = toric_cohomology(tc, sys)
    betti = {k: rep.betti(k) for k in rep.nonzero_degrees()}
    assert {n: page.dim_on_line(n) for n in page.lines()} == betti
    assert page.total_vanishing == (not betti)
    if page.concentration is not None:
        assert list(betti) == [page.concentration]


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


@pytest.mark.parametrize("p", [7, 101])
def test_verify_trials_read_the_shifted_reduced_cohomology(p):
    """No trial weight is 1, so each trial's complex is the augmented
    cochain complex of L, rescaled face by face by the product of its
    q_v - 1: every trial's Betti numbers are L's reduced cohomology over F_p
    shifted up one degree, on CM and non-CM complexes alike.  The trials
    re-check that one specialization and never a page with a trivial vertex."""
    field = GF(p)
    for L in enumerate_complexes(5 if p == 101 else 4):
        reduced = reduced_cohomology(L, field)
        expected = {str(k + 1): reduced.betti(k) for k in range(-1, L.dim + 1) if reduced.betti(k)}
        for trial in verify_cm_theorem(ToricComplex(L), p, trials=5, seed=len(L.vertices)).trials:
            assert 1 not in trial["q"].values()
            assert trial["betti"] == expected


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


# sha256 over enumerate_complexes(5) of the JSON of is_cohen_macaulay(cx, ZZ)
# and of verify_cm_theorem(cx, 101, trials=5, seed=s) for s = 0, 1, each
# json.dumps'd in turn; taken from the version that computed every link
# separately for the verdict and for each trial's support page.
TORIC_CORPUS_DIGEST = "88bce5731cda2df678a55ca44e577d4d5b3b62346f0aca87d47ed130a866128b"


def test_toric_corpus_digest_pinned():
    h = hashlib.sha256()
    for cx in enumerate_complexes(5):
        h.update(json.dumps(is_cohen_macaulay(cx, ZZ).to_json()).encode())
        for seed in (0, 1):
            report = verify_cm_theorem(ToricComplex(cx), 101, trials=5, seed=seed)
            h.update(json.dumps(report.to_json()).encode())
    assert h.hexdigest() == TORIC_CORPUS_DIGEST
