"""Finite posets: order machinery, Moebius function, rank validation.

The Moebius values are checked against an independent implementation of
the defining recursion, written here from scratch so the two cannot share
a bug.
"""

import itertools

import pytest

from arrcoh.poset import (
    from_leq,
    from_relations,
    moebius_table,
    validate_ranked,
)


def oracle_moebius(poset, x, y):
    """mu(x, x) = 1; mu(x, y) = -sum_{x <= z < y} mu(x, z); 0 if x !<= y."""
    if not poset.leq(x, y):
        return 0
    if x == y:
        return 1
    return -sum(oracle_moebius(poset, x, z) for z in poset.elements if poset.leq(x, z) and poset.less(z, y))


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


def test_moebius_sum_property():
    # sum_{x <= z <= y} mu(x, z) = 0 for x < y
    p = divisor_lattice(30)
    for x in p.elements:
        mu = moebius_table(p, x)
        for y in p.elements:
            if p.less(x, y):
                total = sum(v for z, v in mu.items() if p.leq(z, y))
                assert total == 0


def test_order_basics():
    p = from_relations(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")  # transitivity
    assert not p.leq("a", "d") and not p.leq("d", "a")
    assert p.down_set("c") == ["a", "b", "c"]
    assert p.covers() == [("a", "b"), ("b", "c")]


def test_cycle_rejected():
    with pytest.raises(ValueError):
        from_relations([1, 2], [(1, 2), (2, 1)])


def _count_chains_brute(p):
    n = 0
    elems = list(p.elements)
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if all(p.leq(x, y) or p.leq(y, x) for x, y in itertools.combinations(combo, 2)):
                n += 1
    return n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chains_complete(n):
    p = boolean_lattice(n)
    assert len(p.chains()) == _count_chains_brute(p)


def test_chains_found_regardless_of_insertion_order():
    # insert the top first: a naive index-ordered extension would miss chains
    p = from_leq([frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset()], lambda a, b: a <= b)
    chains = p.chains()
    assert len(chains) == _count_chains_brute(p)
    for c in chains:
        for x, y in zip(c, c[1:]):
            assert p.less(x, y)


def test_validate_ranked():
    p = from_relations(["x", "y", "z"], [("x", "y"), ("y", "z")])
    ok = validate_ranked(p, {"x": 0, "y": 1, "z": 2})
    assert ok.ok
    bad = validate_ranked(p, {"x": 0, "y": 0, "z": 1})  # comparable pair shares a rank
    assert not bad.ok
    backwards = validate_ranked(p, {"x": 2, "y": 1, "z": 0})
    assert not backwards.ok
    missing = validate_ranked(p, {"x": 0, "y": 1})
    assert not missing.ok


def test_json_shape():
    p = boolean_lattice(2)
    obj = p.to_json()
    assert len(obj["elements"]) == 4
    assert len(obj["covers"]) == 4  # 2 atoms in, 2 atoms out
    assert all(len(pair) == 2 for pair in obj["covers"])
