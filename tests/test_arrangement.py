"""Central hyperplane arrangements: lattice, invariants, rank-one checks.

The Poincare polynomial is cross-checked against a from-scratch Moebius
recursion on the lattice poset, so the packaged computation and the test
cannot share an error.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import (
    _integral,
    _nested_poset,
    _pi_beta_from_mu,
    Arrangement,
    Flat,
    RankOneSystem,
    depth_bound,
    e2_certificate,
    intersection_lattice,
    maximal_building_set,
    minimal_building_set,
    nested_complex,
    poincare_and_beta,
    vanishing_check,
)
from arrcoh.covers import POSSIBLE
from arrcoh.linalg import GF, QQ, InternalError, Matrix, rank_kernel
from arrcoh.salvetti import twisted_cohomology


def three_generic_lines():
    return Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]], ("a", "b", "c"))


def braid_a3():
    rows, labels = [], []
    for i, j in itertools.combinations(range(4), 2):
        r = [0] * 4
        r[i], r[j] = 1, -1
        rows.append(r)
        labels.append(f"h{i}{j}")
    return Arrangement.from_rows(4, rows, labels)


def boolean_b3():
    return Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("x", "y", "z"))


def oracle_poincare(a):
    """Poincare polynomial via the textbook Moebius recursion, written
    independently of the package implementation."""
    lat = intersection_lattice(a)
    poset, bottom = lat.poset, lat.bottom

    def mu(y, _cache={}):
        key = (id(poset), y)
        if key in _cache:
            return _cache[key]
        if y == bottom:
            val = 1
        else:
            val = -sum(mu(z) for z in poset.elements if poset.leq(z, y) and z != y)
        _cache[key] = val
        return val

    top_rank = max(lat.flats[cs].rank for cs in poset.elements)
    pi = [0] * (top_rank + 1)
    for cs in poset.elements:
        pi[lat.flats[cs].rank] += abs(mu(cs))
    return pi


# --- construction ---------------------------------------------------------


def test_rejects_zero_row():
    with pytest.raises(ValueError):
        Arrangement.from_rows(2, [[0, 0]])


def test_rejects_duplicate_hyperplane():
    with pytest.raises(ValueError):
        Arrangement.from_rows(2, [[1, 0], [2, 0]])  # proportional rows


def test_duplicate_hyperplane_names_first_pair():
    # a scan that stops at the first repeated class would name H2 and H3
    with pytest.raises(ValueError, match="hyperplanes 'H1' and 'H4' coincide"):
        Arrangement.from_rows(2, [[1, 0], [0, 1], [0, 2], [2, 0]])


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Arrangement.from_rows(2, [[1, 0], [0, 1]], ("a", "a"))


def test_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Arrangement.from_rows(2, [[1, 0], [0, 1, 1]])


def test_labels_and_lookup():
    a = three_generic_lines()
    assert a.labels == ("a", "b", "c")
    assert a.normals.row(2) == (1, 1)


def test_closure_and_rank():
    a = three_generic_lines()
    assert a.rank == 2 and a.is_essential


def test_essentialize_braid():
    a = braid_a3()
    assert a.rank == 3 and not a.is_essential
    e = a.essentialize()
    assert e.n == 3 and e.is_essential and e.m == 6
    assert e.labels == a.labels
    # invariants survive the coordinate change
    assert poincare_and_beta(e)[0] == oracle_poincare(e)


def test_essentialize_idempotent():
    e = three_generic_lines().essentialize()
    assert e.n == 2 and e.to_json() == three_generic_lines().to_json()


# --- lattice and invariants -----------------------------------------------


def test_lattice_three_lines_frozen():
    a = three_generic_lines()
    lat = intersection_lattice(a)
    flats = {cs: lat.flats[cs].rank for cs in lat.poset.elements}
    assert flats == {(): 0, (0,): 1, (1,): 1, (2,): 1, (0, 1, 2): 2}
    assert lat.bottom == () and lat.top == (0, 1, 2)


def test_poincare_three_lines():
    pi, beta = poincare_and_beta(three_generic_lines())
    assert pi == [1, 3, 2]
    assert beta == -1
    assert pi == oracle_poincare(three_generic_lines())


def test_poincare_braid_a3():
    e = braid_a3().essentialize()
    pi, beta = poincare_and_beta(e)
    # (1+t)(1+2t)(1+3t)
    assert pi == [1, 6, 11, 6]
    assert beta == 2
    assert pi == oracle_poincare(e)


def test_poincare_boolean_b3():
    pi, beta = poincare_and_beta(boolean_b3())
    assert pi == [1, 3, 3, 1]
    assert beta == 0  # reducible: a product of three lines
    assert pi == oracle_poincare(boolean_b3())


def test_beta_needs_poincare_divisible_by_1_plus_t():
    lat = intersection_lattice(three_generic_lines())
    mu = {cs: 1 for cs in lat.poset.elements}  # pi = 1 + 3t + t^2, pi(-1) = -1
    with pytest.raises(InternalError):
        _pi_beta_from_mu(lat, mu, lat.poset.elements)


def test_poincare_empty_rejected():
    empty = Arrangement.from_rows(1, [])
    assert empty.m == 0
    with pytest.raises(ValueError):
        poincare_and_beta(empty)


def test_lattice_json_shape():
    lat = intersection_lattice(three_generic_lines())
    obj = lat.to_json()
    assert {"hyperplanes": ["a"], "rank": 1} in obj["flats"]
    assert {"hyperplanes": ["a", "b", "c"], "rank": 2} in obj["flats"]
    assert len(obj["covers"]) == 6


# --- building sets and nested complexes ------------------------------------


def test_building_sets_three_lines():
    a = three_generic_lines()
    lat = intersection_lattice(a)
    gmin = minimal_building_set(a, lat)
    gmax = maximal_building_set(a, lat)
    assert gmin.members == ((0,), (1,), (2,), (0, 1, 2))
    assert gmax.members == gmin.members  # every flat is irreducible here


def test_nested_complex_three_lines_isolated_vertices():
    a = three_generic_lines()
    lat = intersection_lattice(a)
    for g in (minimal_building_set(a, lat), maximal_building_set(a, lat)):
        nc = nested_complex(a, g, lat)
        assert nc.f_vector() == [1, 3]  # three isolated vertices
        assert nc.dim == 0


def test_nested_complex_braid_dimension():
    e = braid_a3().essentialize()
    nc = nested_complex(e, minimal_building_set(e))
    assert nc.dim == e.rank - 2 == 1
    assert nc.f_vector() == [1, 10, 15]


def test_nested_complex_requires_essential():
    a = braid_a3()
    with pytest.raises(ValueError, match="essential"):
        nested_complex(a, minimal_building_set(a))


def test_boolean_nested_complex_is_hollow_triangle():
    b = boolean_b3()
    nc = nested_complex(b, minimal_building_set(b))
    # minimal building set = the 3 hyperplanes; pairs are nested (their
    # joins are reducible), but the full triple joins to the top flat
    assert nc.f_vector() == [1, 3, 3]
    assert nc.dim == b.rank - 2


def _rational_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1 :]:
            f = r[col] / pivot[col]
            r[:] = [x - f * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def oracle_nested_faces(a, g):
    """Nested sets by the definition: grow sets one vertex at a time and
    test every antichain of size >= 2, with each join taken as the span
    closure of the union over Q."""
    rows = [list(a.normals.row(h)) for h in range(a.m)]
    joins = {}

    def join(hyperplanes):
        key = frozenset(hyperplanes)
        if key not in joins:
            base = [rows[h] for h in key]
            r = _rational_rank(base)
            joins[key] = tuple(h for h in range(a.m) if _rational_rank(base + [rows[h]]) == r)
        return joins[key]

    top = tuple(range(a.m))
    members = set(g.members) | {top}

    def nested(S):
        for k in range(2, len(S) + 1):
            for combo in itertools.combinations(sorted(S), k):
                antichain = all(not set(x) <= set(y) and not set(y) <= set(x) for x, y in itertools.combinations(combo, 2))
                if antichain and join(set().union(*combo)) in members:
                    return False
        return True

    vertices = [cs for cs in g.members if cs != top]
    faces = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        grown = {f | {v} for f in frontier for v in vertices if v not in f}
        frontier = [S for S in grown if S not in faces and nested(S)]
        faces.update(frontier)
    return faces


@st.composite
def arrangements(draw, min_n=1, max_n=4, max_rows=6):
    """At most ``max_rows`` distinct hyperplanes in C^n, ``min_n`` <= n <=
    ``max_n``, entries in [-2, 2]; often not essential."""
    n = draw(st.integers(min_n, max_n))
    raw = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=max_rows))
    rows = []
    for r in raw:
        if any(r) and all(_rational_rank([r, q]) == 2 for q in rows):
            rows.append(r)
    assume(rows)
    return Arrangement.from_rows(n, rows)


def essential_arrangements(min_n=1, max_n=4, max_rows=6):
    """As :func:`arrangements`, with normals spanning C^n."""
    return arrangements(min_n, max_n, max_rows).filter(lambda a: _rational_rank(a.normals.entries) == a.n)


@settings(max_examples=80, deadline=None)
@given(essential_arrangements())
@example(braid_a3().essentialize())
@example(boolean_b3())
@example(Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
def test_nested_complex_matches_antichain_oracle(a):
    lat = intersection_lattice(a)
    for g in (minimal_building_set(a, lat), maximal_building_set(a, lat)):
        assert nested_complex(a, g, lat).faces == oracle_nested_faces(a, g)


@settings(max_examples=60, deadline=None)
@given(essential_arrangements(max_n=3, max_rows=5))
def test_nested_poset_is_reverse_inclusion(a):
    # the poset is built from its covers; compare it with every pair
    lat = intersection_lattice(a)
    for g in (minimal_building_set(a, lat), maximal_building_set(a, lat)):
        faces, poset, _ = _nested_poset(nested_complex(a, g, lat))
        for s in faces:
            for t in faces:
                assert poset.leq(s, t) == (set(s) >= set(t)), (s, t)


def fraction_flat(a, closed_set):
    """The flat of ``closed_set`` from scratch: rank and kernel of its
    normals by a Fraction elimination, kernel rows scaled to integers."""
    if not closed_set:
        return Flat((), 0, tuple(tuple(int(i == j) for j in range(a.n)) for i in range(a.n)))
    sub = Matrix.from_rows(QQ, [list(a.normals.row(i)) for i in closed_set])
    rk, kern = rank_kernel(sub)
    return Flat(closed_set, rk, tuple(_integral(row) for row in kern.entries))


@settings(max_examples=80, deadline=None)
@given(arrangements())
@example(braid_a3())
@example(Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
@example(Arrangement.from_rows(3, [["1/2", "1/3", 0], [1, 0, 0], [0, "3/4", 0]]))
def test_flats_match_fraction_elimination(a):
    # each flat is cut from the one below it in integers; check it against
    # an elimination of its own normals
    for cs, flat in intersection_lattice(a).flats.items():
        oracle = fraction_flat(a, cs)
        basis = list(flat.kernel_basis)
        assert flat.rank == oracle.rank, cs
        for h in range(a.m):
            # the closed set is exactly the normals vanishing on the flat
            vanishes = all(sum(x * y for x, y in zip(a.normals.row(h), v)) == 0 for v in basis)
            assert vanishes == (h in cs), (cs, h)
        k = a.n - flat.rank
        assert len(basis) == len(oracle.kernel_basis) == _rational_rank(basis) == k, cs
        assert _rational_rank(basis + list(oracle.kernel_basis)) == k, cs


# --- rank-one systems -------------------------------------------------------


def test_weights_must_be_nonzero():
    with pytest.raises(ValueError, match="nonzero"):
        RankOneSystem(GF(7), (2, 0, 2))


def test_weights_normalized_on_entry():
    sys = RankOneSystem(GF(7), (9, -5, 2))
    assert sys.weights == (2, 2, 2)
    assert sys.is_projective  # 8 = 1 mod 7


def test_weight_products():
    sys = RankOneSystem(GF(7), (2, 4, 1))
    assert sys.product() == 1
    assert sys.weight_product([0, 1]) == 1
    assert sys.weight_product([0]) == 2


def test_from_mapping_and_json_round_trip():
    a = three_generic_lines()
    sys = RankOneSystem.from_mapping(GF(7), a, {"a": 2, "b": 2, "c": 2})
    assert sys.weights == (2, 2, 2)
    with pytest.raises(ValueError, match="missing"):
        RankOneSystem.from_mapping(GF(7), a, {"a": 2})
    again = RankOneSystem.from_json(a, sys.to_json(a))
    assert again == sys


def test_from_json_rejects_malformed():
    a = three_generic_lines()
    with pytest.raises(ValueError, match="bad weights JSON"):
        RankOneSystem.from_json(a, {"field": {"kind": "prime", "p": 7}})


# --- vanishing checks --------------------------------------------------------


def test_vanishing_pass_three_lines():
    a = three_generic_lines()
    v = vanishing_check(a, RankOneSystem(GF(7), (2, 2, 2)))
    assert v.holds
    assert v.failing_flats == ()
    assert v.predicted_degree == 1
    assert v.predicted_dim == 1  # |beta|


def test_vanishing_fail_names_the_flat():
    a = three_generic_lines()
    v = vanishing_check(a, RankOneSystem(GF(7), (2, 4, 1)))
    assert not v.holds
    assert v.failing_flats == ((2,),)
    assert v.predicted_dim is None
    assert v.to_json(a)["failing_flats"] == [["c"]]


def test_vanishing_requires_projective():
    a = three_generic_lines()
    with pytest.raises(ValueError, match="projective"):
        vanishing_check(a, RankOneSystem(GF(7), (2, 2, 3)))


def test_vanishing_requires_essential():
    with pytest.raises(ValueError, match="essential"):
        vanishing_check(braid_a3(), RankOneSystem(GF(7), (1,) * 6))


def test_vanishing_include_top_variant():
    a = Arrangement.from_rows(1, [[1]])
    v = vanishing_check(a, RankOneSystem(GF(7), (2,)), include_top=True)
    assert v.holds and v.predicted_degree == 1 and v.predicted_dim is None
    w = vanishing_check(a, RankOneSystem(GF(7), (1,)), include_top=True)
    assert not w.holds and w.failing_flats == ((0,),)


def test_vanishing_top_exempt_only_in_projective_form():
    # weights (3,3,4) have product 36 = 1 mod 7: every line twisted, yet
    # projectivity forces the top flat's total monodromy to be trivial
    a = three_generic_lines()
    sys = RankOneSystem(GF(7), (3, 3, 4))
    assert sys.is_projective
    v = vanishing_check(a, sys)
    assert v.holds  # the top flat's trivial monodromy is exempt
    vt = vanishing_check(a, sys, include_top=True)
    assert not vt.holds and vt.failing_flats == ((0, 1, 2),)


# --- certificates -------------------------------------------------------------


def test_certificate_concentrates_on_pass():
    a = three_generic_lines()
    cert = e2_certificate(a, minimal_building_set(a), RankOneSystem(GF(7), (2, 2, 2)))
    assert dict(cert.entries) == {(1, 0): POSSIBLE}
    assert cert.concentration == 1
    assert cert.ambient_bound == 1
    assert not cert.total_vanishing


def test_certificate_spreads_on_failure():
    a = three_generic_lines()
    cert = e2_certificate(a, minimal_building_set(a), RankOneSystem(GF(7), (2, 4, 1)))
    assert set(cert.entries) == {(1, 0), (-1, 1), (0, 1), (-1, 2)}
    assert cert.concentration is None
    assert cert.lines() == [0, 1]


@st.composite
def projective_systems(draw):
    """An essential arrangement in C^n, n <= 3, of at most n + 3 rows, with
    random projective weights over F_p, p in {2, 3, 5, 101}."""
    n = draw(st.integers(1, 3))
    a = draw(essential_arrangements(min_n=n, max_n=n, max_rows=n + 3))
    p = draw(st.sampled_from([2, 3, 5, 101]))
    weights = draw(st.lists(st.integers(1, p - 1), min_size=a.m - 1, max_size=a.m - 1))
    last = pow(math.prod(weights), -1, p)
    return a, RankOneSystem(GF(p), (*weights, last))


@settings(max_examples=60, deadline=None)
@given(projective_systems())
@example((three_generic_lines(), RankOneSystem(GF(7), (2, 2, 2))))
@example((braid_a3().essentialize(), RankOneSystem(GF(101), (2, 2, 2, 2, 2, pow(2, -5, 101)))))
def test_certificate_bounds_salvetti_cohomology(case):
    # the certificate only excludes degrees: every degree of the exact
    # projective cohomology lies on one of its lines, and a concentration
    # with a passing vanishing check is the exact answer
    a, sys_ = case
    lat = intersection_lattice(a)
    betti = twisted_cohomology(a, sys_).projective_betti
    verdict = vanishing_check(a, sys_, lat=lat)
    for g in (minimal_building_set(a, lat), maximal_building_set(a, lat)):
        cert = e2_certificate(a, g, sys_, lat)
        assert {k for k, b in enumerate(betti) if b} <= set(cert.lines()), (g.kind, betti, cert.lines())
        if cert.concentration is not None and verdict.holds:
            assert cert.concentration == verdict.predicted_degree == len(betti) - 1
            assert betti == (0,) * cert.concentration + (verdict.predicted_dim,), g.kind


def test_depth_bound():
    a = three_generic_lines()
    g = minimal_building_set(a)
    assert depth_bound(a, g, RankOneSystem(GF(7), (1, 1, 1))) == 1
    assert depth_bound(a, g, RankOneSystem(GF(7), (2, 2, 2))) == 0


# --- serialization -------------------------------------------------------------


def test_arrangement_json_round_trip():
    a = braid_a3()
    again = Arrangement.from_json(a.to_json())
    assert again.n == a.n and again.labels == a.labels
    assert poincare_and_beta(again.essentialize()) == poincare_and_beta(a.essentialize())


def test_rational_normals_survive_json():
    a = Arrangement.from_rows(2, [["1/2", 1], [1, 0]])
    again = Arrangement.from_json(a.to_json())
    assert again.normals.row(0) == a.normals.row(0)
