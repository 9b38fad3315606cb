"""Nerves of set covers, cover validation, and sparse E2 support bookkeeping."""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh import cli
from arrcoh.covers import (
    MAX_WITNESSES,
    POSSIBLE,
    E2Support,
    build_nerve,
    e2_support,
    support_certificate,
    validate_cover,
)
from arrcoh.poset import FinitePoset


def test_nerve_pairwise_meeting_empty_triple():
    # U async V, V async W, U async W pairwise; no common point
    sets = {
        "U": frozenset({1, 2}),
        "V": frozenset({2, 3}),
        "W": frozenset({1, 3}),
    }
    nerve, keys = build_nerve(sets)
    assert len(nerve) == 6  # three singletons, three pairs, no triple
    assert frozenset({"U", "V", "W"}) not in nerve
    assert keys[frozenset({"U", "V"})] == {2}
    assert nerve.leq(frozenset({"U"}), frozenset({"U", "V"}))


def test_nerve_with_common_point():
    sets = {"A": frozenset({0, 1}), "B": frozenset({0, 2}), "C": frozenset({0, 3})}
    nerve, keys = build_nerve(sets)
    assert len(nerve) == 7
    assert keys[frozenset({"A", "B", "C"})] == {0}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 4), min_size=1), max_size=7))
def test_nerve_matches_all_subsets_in_order(pools):
    # oracle: every label subset in combinations order, kept when it meets
    sets = {f"U{i}": s for i, s in enumerate(pools)}
    expected = [
        frozenset(c)
        for r in range(1, len(sets) + 1)
        for c in itertools.combinations(sets, r)
        if frozenset.intersection(*(sets[lab] for lab in c))
    ]
    nerve, keys = build_nerve(sets)
    assert list(nerve.elements) == expected
    assert all(keys[s] == frozenset.intersection(*(sets[lab] for lab in s)) for s in expected)
    for a in expected:
        for b in expected:
            assert (nerve.leq(a, b) and a != b) == (a < b)


def _two_set_cover():
    sets = {"U1": frozenset({1, 2}), "U2": frozenset({2, 3})}
    nerve, keys = build_nerve(sets)
    poset = FinitePoset(["x", "y"], [("x", "y")])
    phi = {
        frozenset({"U1"}): "x",
        frozenset({"U2"}): "x",
        frozenset({"U1", "U2"}): "y",
    }
    rho = {"x": 0, "y": 1}
    return nerve, keys, poset, phi, rho


def test_validate_cover_assumed_with_nonconstant_fiber_keys():
    nerve, keys, poset, phi, rho = _two_set_cover()
    # phi sends both singletons to "x" but their intersection keys differ
    v = validate_cover(nerve, poset, rho, phi, keys)
    assert v.valid
    assert v.condition2 == "assumed"
    assert v.assumptions


def test_validate_cover_certified_with_constant_fiber_keys():
    sets = {"U1": frozenset({1, 2}), "U2": frozenset({1, 2})}
    nerve, keys = build_nerve(sets)
    poset = FinitePoset(["x"], [])
    phi = {s: "x" for s in nerve.elements}
    v = validate_cover(nerve, poset, {"x": 0}, phi, keys)
    assert v.valid and v.condition2 == "certified"
    assert v.assumptions == ()


def test_validate_cover_certified_on_the_triangle_boundary():
    # the boundary of a triangle covered by its three edges: two edges meet
    # in a vertex, all three in nothing; phi sends each nerve element to
    # its intersection, ordered by reverse inclusion and ranked by -size,
    # so each of the six fibers carries one key
    edges = {"a": frozenset({1, 2}), "b": frozenset({2, 3}), "c": frozenset({1, 3})}
    nerve, keys = build_nerve(edges)
    vertices = [frozenset({v}) for v in (1, 2, 3)]
    poset = FinitePoset([*edges.values(), *vertices], [(e, v) for e in edges.values() for v in vertices if v <= e])
    rho = {x: -len(x) for x in poset.elements}
    v = validate_cover(nerve, poset, rho, dict(keys), keys)
    assert v.valid and v.condition2 == "certified"
    assert v.assumptions == ()


def test_validate_cover_condition3_failure():
    sets = {"U1": frozenset({1}), "U2": frozenset({1})}
    nerve, keys = build_nerve(sets)
    # equal keys on a comparable pair, yet phi separates them
    poset = FinitePoset(["x", "y"], [("x", "y")])
    phi = {
        frozenset({"U1"}): "x",
        frozenset({"U2"}): "x",
        frozenset({"U1", "U2"}): "y",
    }
    v = validate_cover(nerve, poset, {"x": 0, "y": 1}, phi, keys)
    assert not v.valid
    assert v.condition2 == "failed"
    assert any(code == "condition3" for code, _ in v.failures)


def test_validate_cover_missing_phi():
    nerve, keys, poset, phi, rho = _two_set_cover()
    del phi[frozenset({"U1", "U2"})]
    v = validate_cover(nerve, poset, rho, phi, keys)
    assert not v.valid
    assert any(code == "phi-missing" for code, _ in v.failures)


# the README cover with phi's ["U1", "U2"] pair dropped, or sent outside the poset
README_COVER = {
    "sets": {"U1": [1, 2], "U2": [2, 3]},
    "poset": {"elements": ["x", "y"], "relations": [["x", "y"]]},
    "rho": {"x": 0, "y": 1},
    "phi": [[["U1"], "x"], [["U2"], "x"], [["U1", "U2"], "y"]],
}


@pytest.mark.parametrize("code, pair", [("phi-missing", None), ("phi-range", [["U1", "U2"], "z"])], ids=["missing", "range"])
def test_phi_failure_leaves_the_homotopy_condition_unchecked(tmp_path, capsys, code, pair):
    # phi is checked before any condition: the verdict must not read "assumed"
    cover = dict(README_COVER, phi=README_COVER["phi"][:2] + ([pair] if pair else []))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    assert cli.main(["covers-validate", "--format", "json", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c for c, _ in report["failures"]] == [code]
    assert report["condition2"] == "unchecked" and report["assumptions"] == []
    assert cli.main(["covers-validate", "--format", "table", str(path)]) == 1
    table = capsys.readouterr().out.splitlines()
    assert "homotopy condition: unchecked" in table
    assert not any("assumption" in line for line in table)


def test_validate_cover_not_order_preserving():
    nerve, keys, poset, phi, rho = _two_set_cover()
    phi = dict(phi)
    phi[frozenset({"U1"})] = "y"
    phi[frozenset({"U1", "U2"})] = "x"
    v = validate_cover(nerve, poset, rho, phi, keys)
    assert not v.valid
    assert any(code == "phi-not-order-preserving" for code, _ in v.failures)


def test_validate_cover_not_surjective():
    nerve, keys, poset, phi, rho = _two_set_cover()
    poset = FinitePoset(["x", "y", "z"], [("x", "y")])
    v = validate_cover(nerve, poset, {"x": 0, "y": 1, "z": 0}, phi, keys)
    assert not v.valid
    assert any(code == "phi-not-surjective" for code, _ in v.failures)


def test_validate_cover_bad_rank():
    nerve, keys, poset, phi, rho = _two_set_cover()
    v = validate_cover(nerve, poset, {"x": 1, "y": 0}, phi, keys)
    assert not v.valid
    assert any(code == "rho-not-ranked" for code, _ in v.failures)


def _all_pairs_failures(nerve, P, phi, keys):
    # oracle: the pair checks of validate_cover over all N^2 nerve pairs
    pairs = [(s, t) for s in nerve.elements for t in nerve.elements if s != t and nerve.leq(s, t)]
    out = [("phi-not-order-preserving", (s, t)) for s, t in pairs if not P.leq(phi[s], phi[t])]
    return out + [("condition3", (s, t)) for s, t in pairs if keys[s] == keys[t] and phi[s] != phi[t]]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 3), min_size=1), min_size=1, max_size=5),
    st.integers(1, 4),
    st.data(),
)
def test_validate_cover_pair_checks_match_all_pairs(pools, k, data):
    nerve, keys = build_nerve({f"U{i}": s for i, s in enumerate(pools)})
    elements = [f"p{i}" for i in range(k)]
    below = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    poset = FinitePoset(elements, [(elements[i], elements[j]) for i, j in below if i < j])
    rho = {x: data.draw(st.integers(0, 3)) for x in elements}
    phi = {s: data.draw(st.sampled_from(elements)) for s in nerve.elements}
    pair_codes = ("phi-not-order-preserving", "condition3")
    verdict = validate_cover(nerve, poset, rho, phi, keys)
    expected = _all_pairs_failures(nerve, poset, phi, keys)
    first, seen = [], Counter()
    for f in expected:
        seen[f[0]] += 1
        if seen[f[0]] <= MAX_WITNESSES:
            first.append(f)
    assert [f for f in verdict.failures if f[0] in pair_codes] == first
    assert {c: n for c, n in verdict.counts.items() if c in pair_codes} == Counter(code for code, _ in expected)


def test_cover_verdict_json():
    nerve, keys, poset, phi, rho = _two_set_cover()
    obj = validate_cover(nerve, poset, rho, phi, keys).to_json()
    assert obj["valid"] is True
    assert obj["condition2"] == "assumed"
    assert isinstance(obj["assumptions"], list)


# --- E2 support -----------------------------------------------------------


def _chain():
    """rho on a < b, and the one pair that generates the order."""
    return {"a": 0, "b": 1}, [("a", "b")]


def test_e2_support_basic_placement():
    rho, relations = _chain()
    sup = e2_support(rho, relations, {"a": ([0], [0]), "b": ([-1], [1, 2])}, 3)
    # (p, q) = (base + rho, coeff)
    assert set(sup.entries) == {(0, 0), (2, -1), (3, -1)}
    assert all(v == POSSIBLE for v in sup.entries.values())
    assert sup.lines() == [0, 1, 2]
    assert sup.concentration is None


def test_e2_support_concentration_and_ambient_cut():
    rho, relations = _chain()
    sup = e2_support(rho, relations, {"a": ([1], [0]), "b": ([0], [0])}, ambient_bound=1)
    assert set(sup.entries) == {(0, 1), (1, 0)}
    assert sup.concentration == 1
    cut = e2_support(rho, relations, {"a": ([1], [0]), "b": ([5], [0])}, ambient_bound=1)
    assert set(cut.entries) == {(0, 1)}
    assert any("discarded" in n for n in cut.notes)


def test_e2_support_total_vanishing():
    rho, relations = _chain()
    sup = e2_support(rho, relations, {"a": ([], [0])}, 0)
    assert sup.total_vanishing
    assert sup.entries == {}
    assert sup.concentration is None


def test_e2_support_unknown_element():
    rho, relations = _chain()
    with pytest.raises(ValueError, match="missing rank for 'zz'"):
        e2_support(rho, relations, {"zz": ([0], [0])}, 0)
    with pytest.raises(ValueError, match="missing rank for 'zz'"):
        e2_support(rho, relations + [("b", "zz")], {"a": ([0], [0])}, 0)


def test_e2_support_bad_rank_map():
    rho, relations = _chain()
    with pytest.raises(ValueError, match="rank"):
        e2_support({"a": 1, "b": 0}, relations, {"a": ([0], [0])}, 0)
    # a cycle of generators cannot increase strictly
    with pytest.raises(ValueError, match="rank"):
        e2_support(rho, relations + [("b", "a")], {"a": ([0], [0])}, 0)


def test_dim_on_line_exact_vs_possible():
    sup = support_certificate({(0, 1): 2, (1, 0): 3, (2, 0): POSSIBLE}, ambient_bound=2)
    assert sup.dim_on_line(1) == 5
    assert sup.dim_on_line(2) is None  # a 'possible' entry blocks exactness
    assert sup.dim_on_line(7) == 0


def test_support_certificate_drops_exact_zeros():
    sup = support_certificate({(0, 0): 0, (1, 1): 4}, ambient_bound=2)
    assert set(sup.entries) == {(1, 1)}
    assert sup.concentration == 2


def test_e2_json_shape():
    sup = support_certificate({(1, 1): 4}, ambient_bound=3, notes=["hello"])
    obj = sup.to_json()
    assert obj["entries"] == {"1,1": 4}
    assert obj["ambient_bound"] == 3
    assert obj["concentration"] == 2
    assert obj["total_vanishing"] is False
    assert obj["notes"] == ["hello"]
