"""Finite posets: order machinery, Moebius function, rank validation.

The Moebius values are checked against an independent implementation of
the defining recursion, written here from scratch so the two cannot share
a bug.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh.poset import (
    FinitePoset,
    RankVerdict,
    from_leq,
    moebius_table,
    validate_ranked,
)


def oracle_moebius(poset, x, y):
    """mu(x, x) = 1; mu(x, y) = -sum_{x <= z < y} mu(x, z); 0 if x !<= y."""
    if not poset.leq(x, y):
        return 0
    if x == y:
        return 1
    return -sum(oracle_moebius(poset, x, z) for z in poset.elements if poset.leq(x, z) and poset.leq(z, y) and z != y)


def oracle_down_set(poset, x):
    """The elements below x, in element order, one ``leq`` call per element."""
    return [e for e in poset.elements if poset.leq(e, x)]


def boolean_lattice(n):
    elems = [frozenset(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    return from_leq(elems, lambda a, b: a <= b)


def divisor_lattice(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return from_leq(divs, lambda a, b: b % a == 0)


def test_moebius_boolean_lattice():
    p = boolean_lattice(3)
    bottom = frozenset()
    mu = moebius_table(p, bottom)
    for e in p.elements:
        assert mu.get(e, 0) == (-1) ** len(e)
        assert mu.get(e, 0) == oracle_moebius(p, bottom, e)


def test_moebius_divisor_lattice():
    p = divisor_lattice(12)
    # mu(1, n) is the number-theoretic Moebius function
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0}
    table = moebius_table(p, 1)
    for d, mu in expected.items():
        assert table.get(d, 0) == mu
        assert table.get(d, 0) == oracle_moebius(p, 1, d)


def test_moebius_table_matches_pointwise():
    p = boolean_lattice(3)
    bottom = frozenset()
    table = moebius_table(p, bottom)
    assert set(table) == set(p.elements)
    for e, v in table.items():
        assert v == oracle_moebius(p, bottom, e)


@pytest.mark.parametrize(
    "poset, x",
    [
        (FinitePoset(["top", "mid", "bot"], [("bot", "mid"), ("mid", "top")]), "bot"),
        # the boolean lattice on three atoms listed top first
        (from_leq([frozenset(s) for r in range(3, -1, -1) for s in itertools.combinations(range(3), r)],
                  lambda a, b: a <= b), frozenset()),
    ],
)
def test_moebius_table_when_element_order_lists_the_top_first(poset, x):
    table = moebius_table(poset, x)
    assert set(table) == {y for y in poset.elements if poset.leq(x, y)}
    for y, v in table.items():
        assert v == oracle_moebius(poset, x, y)


@st.composite
def posets_with_an_element(draw):
    """A poset on up to 7 elements, from relations that go up a hidden
    order, with its elements listed in a shuffled order (so the element
    order need not extend the partial order), and one of its elements."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    elements = [f"e{i}" for i in draw(st.permutations(range(n)))]
    poset = FinitePoset(elements, [(f"e{min(i, j)}", f"e{max(i, j)}") for i, j in pairs if i != j])
    return poset, draw(st.sampled_from(elements))


def _refuse_leq(self, x, y):
    raise AssertionError("leq called")


@settings(max_examples=150, deadline=None)
@given(posets_with_an_element())
@example((boolean_lattice(3), frozenset()))
@example((boolean_lattice(3), frozenset({1})))  # an interior element
@example((from_leq([frozenset(s) for r in range(3, -1, -1) for s in itertools.combinations(range(3), r)],
                   lambda a, b: a <= b), frozenset({2})))  # listed top first
@example((divisor_lattice(60), 2))
def test_moebius_table_matches_all_pairs_oracle(case):
    poset, x = case
    oracle = {y: oracle_moebius(poset, x, y) for y in poset.elements if poset.leq(x, y)}
    # one pass over the kept up-sets: no comparison of pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FinitePoset, "leq", _refuse_leq)
        table = moebius_table(poset, x)
    assert table == oracle
    assert next(iter(table)) == x


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


def test_moebius_sum_property():
    # sum_{x <= z <= y} mu(x, z) = 0 for x < y
    p = divisor_lattice(30)
    for x in p.elements:
        mu = moebius_table(p, x)
        for y in p.elements:
            if p.leq(x, y) and x != y:
                total = sum(v for z, v in mu.items() if p.leq(z, y))
                assert total == 0


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
