"""Central hyperplane arrangements: lattice, invariants, rank-one checks.

The Poincare polynomial is cross-checked against a from-scratch Moebius
recursion over inclusion of closed sets, so the packaged computation, which
reads the kept cover relations, and the test cannot share an error.
"""

import gc
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrcoh import arrangement, fp, poset
from arrcoh.arrangement import (
    _integral,
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


def braid_a4():
    pairs = itertools.combinations(range(5), 2)
    return Arrangement.from_rows(5, [[int(t == i) - int(t == j) for t in range(5)] for i, j in pairs])


def boolean_b3():
    return Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("x", "y", "z"))


def oracle_moebius(lat):
    """mu(bottom, Y) for every flat Y by the textbook recursion, the order
    read from inclusion of closed sets over all pairs, not from the kept
    covers."""
    mu = {}
    for y in sorted(lat.flats, key=len):  # a proper subset comes first
        mu[y] = -sum(mu[z] for z in mu if set(z) < set(y)) if y else 1
    return mu


def oracle_poincare(a):
    """Poincare polynomial via the textbook Moebius recursion, written
    independently of the package implementation."""
    lat = intersection_lattice(a)
    mu = oracle_moebius(lat)
    pi = [0] * (max(flat.rank for flat in lat.flats.values()) + 1)
    for cs, flat in lat.flats.items():
        pi[flat.rank] += abs(mu[cs])
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
    flats = {cs: lat.flats[cs].rank for cs in lat.elements}
    assert flats == {(): 0, (0,): 1, (1,): 1, (2,): 1, (0, 1, 2): 2}
    assert lat.elements[0] == () and lat.top == (0, 1, 2)


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
    mu = {cs: 1 for cs in lat.elements}  # pi = 1 + 3t + t^2, pi(-1) = -1
    with pytest.raises(InternalError):
        _pi_beta_from_mu(lat.flats, mu, lat.elements)


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
    gmin = minimal_building_set(a)
    gmax = maximal_building_set(a)
    assert gmin == ((0,), (1,), (2,), (0, 1, 2))
    assert gmax == gmin  # every flat is irreducible here


def test_nested_complex_three_lines_isolated_vertices():
    a = three_generic_lines()
    for g in (minimal_building_set(a), maximal_building_set(a)):
        nc = nested_complex(a, g)
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
    members = set(g) | {top}

    def nested(S):
        for k in range(2, len(S) + 1):
            for combo in itertools.combinations(sorted(S), k):
                antichain = all(not set(x) <= set(y) and not set(y) <= set(x) for x, y in itertools.combinations(combo, 2))
                if antichain and join(set().union(*combo)) in members:
                    return False
        return True

    vertices = [cs for cs in g if cs != top]
    faces = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        grown = {f | {v} for f in frontier for v in vertices if v not in f}
        frontier = [S for S in grown if S not in faces and nested(S)]
        faces.update(frontier)
    return faces


@st.composite
def arrangements(draw, min_n=1, max_n=4, max_rows=6, entries=st.integers(-2, 2)):
    """At most ``max_rows`` distinct hyperplanes in C^n, ``min_n`` <= n <=
    ``max_n``, entries in [-2, 2] unless given; often not essential."""
    n = draw(st.integers(min_n, max_n))
    raw = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=max_rows))
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
    for g in (minimal_building_set(a), maximal_building_set(a)):
        assert set(map(frozenset, nested_complex(a, g).all_faces())) == oracle_nested_faces(a, g)


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


def oracle_lattice(a):
    """Every closed set with its rank, and the cover pairs, from the ranks
    of all subsets of the normals by Fraction elimination: S is closed when
    each hyperplane outside it raises the rank, and Y covers X when X is a
    proper subset of Y one rank below."""
    rows = [list(a.normals.row(h)) for h in range(a.m)]
    rank = {mask: _rational_rank([rows[h] for h in range(a.m) if mask >> h & 1]) for mask in range(1 << a.m)}
    closed = {
        tuple(h for h in range(a.m) if mask >> h & 1): r
        for mask, r in rank.items()
        if all(mask >> h & 1 or rank[mask | 1 << h] > r for h in range(a.m))
    }
    covers = sorted((x, y) for x in closed for y in closed if set(x) < set(y) and closed[y] == closed[x] + 1)
    return closed, covers


@settings(max_examples=80, deadline=None)
@given(arrangements())
@example(Arrangement.from_rows(3, [[1, t, t * t] for t in range(-4, 4)]))
@example(braid_a3())
@example(Arrangement.from_rows(3, [[1, 2, 0]]))
def test_lattice_covers_match_all_subsets_oracle(a):
    # the shortcut one rank below the top adds covers without restricting:
    # check the order itself, pair by pair, against every subset
    lat = intersection_lattice(a)
    closed, covers = oracle_lattice(a)
    assert {cs: flat.rank for cs, flat in lat.flats.items()} == closed
    assert sorted((x, y) for y, xs in lat.lower_covers.items() for x in xs) == covers


def seeded_arrangements(seed, count):
    """``count`` arrangements of 1 to 9 distinct hyperplanes in C^n, 1 <= n
    <= 5, entries in [-3, 3], drawn by ``random.Random(seed)``."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randint(1, 5)
        rows = []
        for _ in range(rnd.randint(1, 9)):
            r = [rnd.randint(-3, 3) for _ in range(n)]
            if any(r) and all(_rational_rank([r, q]) == 2 for q in rows):
                rows.append(r)
        if rows:
            out.append(Arrangement.from_rows(n, rows))
    return out


# sha256 over 60 arrangements from seeded_arrangements(37, 60) and braid A4 of
# json.dumps of, in turn, the lattice's to_json() and [rank, kernel_basis] of
# every flat in element order; taken from the version that restricted every
# flat one rank below the top.
LATTICE_DIGEST = "1237af0c39a21154d0b5df3b627def9b289f88fd6457d404b7f473280b448d42"


def test_lattice_digest_pinned():
    h = hashlib.sha256()
    for a in seeded_arrangements(37, 60) + [braid_a4()]:
        lat = intersection_lattice(a)
        h.update(json.dumps(lat.to_json()).encode())
        h.update(json.dumps([[lat.flats[cs].rank, lat.flats[cs].kernel_basis] for cs in lat.elements]).encode())
    assert h.hexdigest() == LATTICE_DIGEST


@settings(max_examples=100, deadline=None)
@given(arrangements(entries=st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))))
@example(braid_a3())
@example(Arrangement.from_rows(3, [["1/2", "1/3", 0], [1, 0, 0], [0, "3/4", 0]]))
def test_rank_and_essentialize_follow_the_rref_pivots(a):
    # the rank and the essentialized coordinates are read in integers;
    # check them against a Fraction row reduction of the normals
    _, pivots = fp._rref(a.normals.to_lists())
    assert a.rank == len(pivots)
    coords = [[row[p] for p in pivots] for row in a.normals.entries]
    assert a.essentialize().to_json() == Arrangement.from_rows(len(pivots), coords, a.labels).to_json()


def oracle_connected_flats(a):
    """Closed sets of the flats X of positive rank with beta([bottom, X])
    nonzero, the interval and the Moebius function read from inclusion of
    closed sets over all pairs, in the order (rank, closed set)."""
    lat = intersection_lattice(a)
    rank = {cs: flat.rank for cs, flat in lat.flats.items()}
    mu = oracle_moebius(lat)
    out = []
    for cs in sorted(rank, key=lambda cs: (rank[cs], cs)):
        pi = [0] * (rank[cs] + 1)
        for z in rank:
            if set(z) <= set(cs):
                pi[rank[z]] += abs(mu[z])
        if rank[cs] and sum(k * c * (-1) ** k for k, c in enumerate(pi)):
            out.append(cs)
    return out


@settings(max_examples=60, deadline=None)
@given(arrangements())
@example(braid_a3())
@example(braid_a4())
@example(Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
def test_connected_flats_match_all_pairs_oracle(a):
    # the Moebius table and the intervals come from the kept covers: the
    # lattice and its connected flats close no order into a FinitePoset
    fresh = Arrangement(a.n, a.normals, a.labels)  # no kept lattice yet
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poset.FinitePoset, "__init__", lambda *args: pytest.fail("FinitePoset constructed"))
        flats = arrangement.connected_flats(fresh)
    assert [f.closed_set for f in flats] == oracle_connected_flats(a)


@settings(max_examples=80, deadline=None)
@given(arrangements())
@example(braid_a3())
@example(braid_a4())
@example(Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
def test_lattice_moebius_matches_inclusion_oracle(a):
    lat = intersection_lattice(a)
    assert lat.moebius == oracle_moebius(lat)
    for y in lat.elements:
        assert lat.below[y] == {z for z in lat.flats if set(z) <= set(y)}, y
        # sum over [bottom, Y] of mu(bottom, Z) is 0 above the bottom
        assert sum(lat.moebius[z] for z in lat.below[y]) == (y == ())


def test_moebius_of_the_boolean_arrangement():
    # the coordinate hyperplanes: the lattice of subsets, mu = (-1)^|S|
    lat = intersection_lattice(boolean_b3())
    assert lat.moebius == {cs: (-1) ** len(cs) for r in range(4) for cs in itertools.combinations(range(3), r)}


def test_one_lattice_and_one_moebius_table_per_arrangement(monkeypatch):
    built, intervals, tables = [], [], []
    Lattice = arrangement.IntersectionLattice

    class CountedLattice(Lattice):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        @cached_property
        def below(self):
            intervals.append(self)
            return Lattice.below.func(self)

        @cached_property
        def moebius(self):
            tables.append(self)
            return Lattice.moebius.func(self)

    monkeypatch.setattr(arrangement, "IntersectionLattice", CountedLattice)
    a = braid_a3().essentialize()
    sys_ = RankOneSystem(GF(101), (2, 2, 2, 2, 2, pow(2, -5, 101)))
    g = minimal_building_set(a)
    assert vanishing_check(a, sys_).holds
    assert e2_certificate(a, g, sys_).concentration == 2
    assert depth_bound(a, g, sys_) == 0
    assert twisted_cohomology(a, sys_).projective_betti == (0, 0, 2)
    assert len(built) == 1 and intervals == tables == built


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
    betti = twisted_cohomology(a, sys_).projective_betti
    verdict = vanishing_check(a, sys_)
    for g in (minimal_building_set(a), maximal_building_set(a)):
        cert = e2_certificate(a, g, sys_)
        assert {k for k, b in enumerate(betti) if b} <= set(cert.lines()), (g, betti, cert.lines())
        if cert.concentration is not None and verdict.holds:
            assert cert.concentration == verdict.predicted_degree == len(betti) - 1
            assert betti == (0,) * cert.concentration + (verdict.predicted_dim,), g


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


# --- memory -------------------------------------------------------------------


def _salvetti_item():
    a = braid_a3().essentialize()
    weights = RankOneSystem(GF(101), (2, 2, 2, 2, 2, pow(2, -5, 101)))
    vanishing_check(a, weights)
    twisted_cohomology(a, weights)


def test_no_reference_cycles():
    # a lattice kept on its arrangement, an elliptic certificate and the
    # orderly search leave nothing that only the cyclic GC would free
    from arrcoh.elliptic import EllipticArrangement, elliptic_vanishing_certificate
    from arrcoh.simplicial import enumerate_complexes

    gc.collect()
    gc.disable()
    try:
        _salvetti_item()
        ell = EllipticArrangement.from_rows(2, [[2, 2], [-1, 1], [1, 2], [0, 2]])
        elliptic_vanishing_certificate(ell, RankOneSystem(GF(101), (2, 3, 5, 7)))
        assert len(enumerate_complexes(4)) == 1 + 1 + 2 + 5 + 20
        assert gc.collect() == 0
    finally:
        gc.enable()
