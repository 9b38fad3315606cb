"""Finite posets: order machinery and rank validation; the intersection
lattice's Moebius function against the textbook recursion on a poset read
from inclusion of closed sets over all pairs."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import Arrangement, intersection_lattice
from arrcoh.poset import FinitePoset, RankVerdict, from_leq, validate_ranked


def oracle_moebius(poset, x, y):
    """mu(x, x) = 1; mu(x, y) = -sum_{x <= z < y} mu(x, z); 0 if x !<= y."""
    if not poset.leq(x, y):
        return 0
    if x == y:
        return 1
    return -sum(oracle_moebius(poset, x, z) for z in poset.elements if poset.leq(x, z) and poset.leq(z, y) and z != y)


def inclusion_poset(lat):
    """The flats of ``lat`` ordered by inclusion of closed sets, every pair
    compared; the lattice's kept covers are not read."""
    return from_leq(list(lat.flats), lambda y, z: set(y) <= set(z))


def boolean_arrangement(n):
    # its lattice is the boolean lattice on n atoms (for n = 3, the divisors of 30)
    return Arrangement.from_rows(n, [[int(i == j) for j in range(n)] for i in range(n)])


def braid_arrangement(n):
    return Arrangement.from_rows(n, [[int(t == i) - int(t == j) for t in range(n)] for i, j in itertools.combinations(range(n), 2)])


@st.composite
def arrangements(draw):
    """Up to 6 distinct hyperplanes in C^n, 1 <= n <= 4, entries in [-2, 2]."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=6))
    rows = []
    for r in raw:
        parallel = any(all(r[i] * q[j] == r[j] * q[i] for i in range(n) for j in range(n)) for q in rows)
        if any(r) and not parallel:
            rows.append(r)
    return Arrangement.from_rows(n, rows or [[1] + [0] * (n - 1)])


def oracle_down_set(poset, x):
    """The elements below x, in element order, one ``leq`` call per element."""
    return [e for e in poset.elements if poset.leq(e, x)]


def oracle_covers(poset):
    """Cover pairs by definition: x < y with no z strictly between, over
    all pairs, in element order."""
    els, leq = poset.elements, poset.leq
    return [
        (x, y)
        for x in els
        for y in els
        if x != y and leq(x, y) and not any(z not in (x, y) and leq(x, z) and leq(z, y) for z in els)
    ]


def _refuse_leq(self, x, y):
    raise AssertionError("leq called")


@settings(max_examples=80, deadline=None)
@given(arrangements())
@example(boolean_arrangement(3))
@example(braid_arrangement(4))
@example(Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
def test_moebius_table_matches_all_pairs_oracle(a):
    lat = intersection_lattice(a)
    poset = inclusion_poset(lat)
    oracle = {y: oracle_moebius(poset, (), y) for y in poset.elements}
    # the table is read from the kept covers alone: no comparison of pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FinitePoset, "leq", _refuse_leq)
        table = lat.moebius
    assert table == oracle
    assert next(iter(table)) == ()


def test_moebius_sum_property():
    # sum over [bottom, y] of mu(bottom, z) = 0 for every flat y above the bottom
    for a in (boolean_arrangement(3), braid_arrangement(4), braid_arrangement(5)):
        lat = intersection_lattice(a)
        poset = inclusion_poset(lat)
        for y in poset.elements:
            total = sum(v for z, v in lat.moebius.items() if poset.leq(z, y))
            assert total == (1 if y == () else 0), y


def test_order_basics():
    p = FinitePoset(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")  # transitivity
    assert not p.leq("a", "d") and not p.leq("d", "a")
    assert oracle_down_set(p, "c") == ["a", "b", "c"]


def test_cycle_rejected():
    with pytest.raises(ValueError):
        FinitePoset([1, 2], [(1, 2), (2, 1)])


def test_validate_ranked():
    elements, pairs = ["x", "y", "z"], [("x", "y"), ("y", "z")]
    ok = validate_ranked(elements, pairs, {"x": 0, "y": 1, "z": 2})
    assert ok.ok
    bad = validate_ranked(elements, pairs, {"x": 0, "y": 0, "z": 1})  # comparable pair shares a rank
    assert bad == RankVerdict(False, "comparable pair shares a rank (fiber not an antichain)", ("x", "y"))
    backwards = validate_ranked(elements, pairs, {"x": 2, "y": 1, "z": 0})
    assert backwards == RankVerdict(False, "rank decreases along order", ("x", "y"))
    missing = validate_ranked(elements, pairs, {"x": 0, "y": 1})
    assert missing == RankVerdict(False, "missing rank for 'z'", ("z",))


def _all_pairs_rank_verdict(poset, rho):
    # oracle: every ordered pair of elements, for a rho defined everywhere
    for x in poset.elements:
        for y in poset.elements:
            if x != y and poset.leq(x, y):
                if rho[x] > rho[y]:
                    return RankVerdict(False, "rank decreases along order", (x, y))
                if rho[x] == rho[y]:
                    return RankVerdict(False, "comparable pair shares a rank (fiber not an antichain)", (x, y))
    return RankVerdict(True)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_validate_ranked_matches_all_pairs(n, data):
    # elements listed in a shuffled order, so element order need not extend the order
    elements = data.draw(st.permutations([f"e{i}" for i in range(n)]))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    generators = [(f"e{i}", f"e{j}") for i, j in pairs if i != j]
    rho = {f"e{i}": data.draw(st.integers(0, 3)) for i in range(n)}
    verdict = validate_ranked(elements, generators, rho)
    try:
        poset = FinitePoset(elements, generators)
    except ValueError:  # a cycle: no rank increases strictly around it
        assert not verdict.ok
        return
    oracle = _all_pairs_rank_verdict(poset, rho)
    # the generators decide whether rho is a rank map ...
    assert verdict.ok == oracle.ok
    # ... and the comparable pairs, walked as validate_cover walks them, give the oracle's witness too
    comparable = [(x, y) for x in poset.elements for y in poset.strictly_above(x)]
    assert validate_ranked(poset.elements, comparable, rho) == oracle
