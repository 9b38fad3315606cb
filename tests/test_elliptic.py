"""Products of a genus-one curve cut by integer character hypersurfaces.

Component counts are cross-checked against a brute-force congruence
count over a finite model of the torus: for a row set of rank r and any
modulus M divisible by every elementary divisor, the number of
components equals (#solutions of A x = 0 in (Z/M)^n)^2 / M^(2(n-r)).
The oracle below computes M from scratch (minor determinants), never
touching the packaged Smith form code.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrcoh.covers import POSSIBLE
from arrcoh.arrangement import RankOneSystem
from arrcoh.elliptic import (
    MAX_ROWS,
    EllipticArrangement,
    _closure,
    _coset_frame,
    _coset_key,
    _point_on_component,
    _stratum_contained,
    _tangent_data,
    analyze,
    components,
    convenient_check,
    elliptic_vanishing_certificate,
    enumerate_strata,
)
from arrcoh.linalg import GF, QQ, smith_normal_form
from arrcoh.poset import from_leq
from test_poset import oracle_covers


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def oracle_component_count(rows, n):
    """Component count via minor determinants and congruence counting."""
    m = len(rows)
    r, minors = 0, []
    for k in range(min(m, n), 0, -1):
        minors = [
            d
            for ri in itertools.combinations(range(m), k)
            for ci in itertools.combinations(range(n), k)
            if (d := _det([[rows[i][j] for j in ci] for i in ri]))
        ]
        if minors:
            r = k
            break
    if r == 0:
        return 1
    M = lcm(*(abs(d) for d in minors))
    count = sum(
        1
        for x in itertools.product(range(M), repeat=n)
        if all(sum(a * b for a, b in zip(row, x)) % M == 0 for row in rows)
    )
    assert count % M ** (n - r) == 0
    return (count // M ** (n - r)) ** 2


# --- construction -----------------------------------------------------------


def test_rejects_zero_row():
    with pytest.raises(ValueError, match="zero"):
        EllipticArrangement.from_rows(2, [[1, 0], [0, 0]])


def test_rejects_bad_translation():
    with pytest.raises(ValueError, match="torsion"):
        EllipticArrangement.from_rows(1, [[1]], translations=[(2, 2)])
    with pytest.raises(ValueError, match="torsion"):
        EllipticArrangement.from_rows(1, [[1]], translations=[(0, 0)])


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        EllipticArrangement.from_rows(1, [[1], [2]], labels=("f", "f"))


def test_basic_accessors():
    a = EllipticArrangement.from_rows(2, [[1, 0], [0, 1]])
    assert a.m == 2 and a.rank == 2 and a.corank == 0
    assert a.is_essential and not a.is_translated
    assert a.rows.row(1) == (0, 1)
    assert a.labels == ("f1", "f2")


def test_json_round_trip_with_translation():
    a = EllipticArrangement.from_rows(2, [[1, -1], [0, 2]], translations=[None, (1, 3)])
    obj = a.to_json()
    assert obj["translations"] == [0, [1, 3]]
    again = EllipticArrangement.from_json(obj)
    assert again == a
    with pytest.raises(ValueError, match="bad elliptic JSON"):
        EllipticArrangement.from_json({"n": 1})


# --- analysis ----------------------------------------------------------------


def test_analyze_identity():
    rep = analyze(EllipticArrangement.from_rows(2, [[1, 0], [0, 1]]))
    assert rep.corank == 0 and rep.essential
    assert rep.unimodular
    assert rep.homotopy_dim == 2


def test_analyze_torsion_row():
    rep = analyze(EllipticArrangement.from_rows(1, [[2]]))
    assert rep.essential and not rep.unimodular
    assert rep.homotopy_dim == 1


def test_analyze_corank():
    rep = analyze(EllipticArrangement.from_rows(2, [[1, 1]]))
    assert rep.corank == 1 and not rep.essential
    assert rep.homotopy_dim == 3


def test_empty_row_list_keeps_the_ambient_columns():
    # the empty matrix still has n columns: the whole product, of corank n
    a = EllipticArrangement.from_rows(2, [])
    assert (a.m, a.rows.nrows, a.rows.ncols, a.rank) == (0, 0, 2, 0)
    rep = analyze(a)
    assert rep.corank == 2 and not rep.essential
    assert EllipticArrangement.from_json(a.to_json()) == a


def test_analyze_unimodular_pair_with_bad_subset():
    # each row is primitive, yet together they span index 3
    rep = analyze(EllipticArrangement.from_rows(2, [[1, 2], [2, 1]]))
    assert not rep.unimodular


def test_analyze_row_cap():
    a = EllipticArrangement.from_rows(1, [[1]] * (MAX_ROWS + 1))
    with pytest.raises(ValueError, match="capped"):
        analyze(a)


# --- components ----------------------------------------------------------------


FROZEN_COUNTS = [
    (1, [[2]], 4),
    (2, [[2, 0], [0, 3]], 36),
    (2, [[2, 4]], 4),
    (3, [[1, 2, 3], [0, 2, 0]], 4),
]


@pytest.mark.parametrize("n,rows,count", FROZEN_COUNTS)
def test_component_counts_frozen(n, rows, count):
    a = EllipticArrangement.from_rows(n, rows)
    comps = components(a, range(a.m))
    assert len(comps) == count
    assert len(comps) == oracle_component_count(rows, n)
    assert len({c.torsion_label for c in comps}) == count


def test_components_exhaustive_single_row():
    for n in (1, 2):
        for row in itertools.product(range(-3, 4), repeat=n):
            if all(x == 0 for x in row):
                continue
            a = EllipticArrangement.from_rows(n, [list(row)])
            assert len(components(a, [0])) == oracle_component_count([list(row)], n)


def test_components_sampled_pairs():
    rng = random.Random(20260825)
    done = 0
    while done < 15:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        if any(all(x == 0 for x in r) for r in rows):
            continue
        a = EllipticArrangement.from_rows(n, rows)
        expected = oracle_component_count(rows, n)
        if expected > 100:  # keep the brute-force model affordable
            continue
        assert len(components(a, [0, 1])) == expected
        done += 1


def test_components_have_valid_representatives():
    a = EllipticArrangement.from_rows(2, [[2, 0], [0, 3]])
    for c in components(a, [0, 1]):
        for coords in c.point:
            assert all(0 <= x < 1 for x in coords)
            # the representative satisfies its own congruences
        u, w = c.point
        for row in ([2, 0], [0, 3]):
            for coords in (u, w):
                val = sum(Fraction(r) * x for r, x in zip(row, coords))
                assert val.denominator == 1


def test_components_empty_subset_is_ambient():
    a = EllipticArrangement.from_rows(2, [[1, 0]])
    (amb,) = components(a, [])
    assert amb.dim == 2 and amb.rows == ()


def test_components_unimodular_rows_connected():
    a = EllipticArrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for r in range(1, 4):
        for I in itertools.combinations(range(3), r):
            assert len(components(a, I)) == 1


def test_components_reject_translations_and_bad_index():
    t = EllipticArrangement.from_rows(1, [[1]], translations=[(1, 2)])
    with pytest.raises(ValueError, match="translations"):
        components(t, [0])
    a = EllipticArrangement.from_rows(1, [[1]])
    with pytest.raises(ValueError, match="out of range"):
        components(a, [3])


# --- strata ----------------------------------------------------------------------


def test_strata_doubled_row_direction():
    # x = 0 and 2x = 0 share the origin; three extra 2-torsion points
    a = EllipticArrangement.from_rows(1, [[1], [2]])
    strata = enumerate_strata(a)
    assert len(strata) == 5
    dims = sorted(s.dim for s in strata)
    assert dims == [0, 0, 0, 0, 1]
    origin = [s for s in strata if s.dim == 0 and all(x == 0 for x in s.component.point[0] + s.component.point[1])]
    assert len(origin) == 1
    assert origin[0].component.rows == (0,)  # first subset wins the dedup


def test_strata_identity_pair():
    a = EllipticArrangement.from_rows(2, [[1, 0], [0, 1]])
    strata = enumerate_strata(a)
    # ambient, two curves, one point
    assert sorted(s.dim for s in strata) == [0, 1, 1, 2]


def test_strata_tangent_rank_complements_dimension():
    for n, rows in [(1, [[1], [2]]), (2, [[1, 0], [0, 1], [1, 1]]), (2, [[2, 0], [0, 2]])]:
        a = EllipticArrangement.from_rows(n, rows)
        for s in enumerate_strata(a):
            t, _ = _tangent_data(a, s.component, s.closure)
            assert t.rank + s.dim == a.n


def test_tangent_merges_proportional_rows():
    a = EllipticArrangement.from_rows(1, [[1], [2]])
    strata = {s.component.point: s for s in enumerate_strata(a) if s.dim == 0}
    origin, half = strata[(Fraction(0),), (Fraction(0),)], strata[(Fraction(1, 2),), (Fraction(1, 2),)]
    at_origin, groups = _tangent_data(a, origin.component, origin.closure)
    assert at_origin.m == 1 and groups == [[0, 1]]  # both rows share the direction
    away, groups = _tangent_data(a, half.component, half.closure)
    assert away.m == 1 and groups == [[1]]  # only 2x = 0 passes through


def test_tangent_honors_translations():
    # the rows of base, with 2x translated to the torsion point 1/2; the
    # strata are base's, since translated strata are refused
    a = EllipticArrangement.from_rows(1, [[2], [1]], translations=[(1, 2), None])
    base = EllipticArrangement.from_rows(1, [[2], [1]])
    half = [s for s in enumerate_strata(base) if s.component.point[0] == (Fraction(1, 2),) and s.component.point[1] == (Fraction(1, 2),)]
    (stratum,) = half
    assert _tangent_data(base, stratum.component, stratum.closure)[1] == [[0]]
    # 2x = 1/2+Z fails at x = 1/2 (2*(1/2) = 1 = 0 != 1/2 mod 1), and x = 0 does too: no rows
    t, groups = _tangent_data(a, stratum.component, stratum.closure)
    assert t.m == 0 and groups == []


def test_strata_reject_translated():
    t = EllipticArrangement.from_rows(1, [[1]], translations=[(1, 2)])
    with pytest.raises(ValueError, match="translations"):
        enumerate_strata(t)


# --- closures against Fraction row reduction ---------------------------------------


def span_key(rows):
    """The reduced row echelon basis of the rows' span over Q."""
    basis = []  # (pivot, row) pairs, each row reduced against the others
    for row in rows:
        resid = [Fraction(x) for x in row]
        for p, b in basis:
            resid = [x - resid[p] * y for x, y in zip(resid, b)]
        p = next((j for j, x in enumerate(resid) if x), None)
        if p is None:
            continue
        resid = [x / resid[p] for x in resid]
        basis = [(q, [x - b[p] * y for x, y in zip(b, resid)]) for q, b in basis] + [(p, resid)]
    return tuple(tuple(b) for _, b in sorted(basis))


def span_subset(small, big):
    """Does every row of ``small`` reduce to zero against ``big``?"""
    pivots = [next(j for j, x in enumerate(r) if x) for r in big]
    for row in small:
        resid = list(row)
        for b, p in zip(big, pivots):
            resid = [x - resid[p] * y for x, y in zip(resid, b)]
        if any(resid):
            return False
    return True


def span_strata(a):
    """Strata as enumerated when spans were Fraction echelon keys: buckets
    by span key, then the same point tests."""
    by_span, out = {}, []
    for r in range(a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            sub = a.submatrix(I)
            span = span_key(sub.entries)
            bucket = by_span.setdefault(span, [])
            for comp in components(a, I):
                if any(_point_on_component(a, seen, comp.point) for seen in bucket):
                    continue
                stratum = SimpleNamespace(component=comp, defining=sub, snf=smith_normal_form(sub), span=span)
                bucket.append(stratum)
                out.append(stratum)
    return out


@st.composite
def elliptic_arrangements(draw):
    """At most 4 rows in E^n, n <= 3, entries in [-2, 2]; a row may repeat
    an earlier one or be proportional to it."""
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            multiples = [[k * x for x in base] for k in (1, -1, 2, -2) if all(abs(k * x) <= 2 for x in base)]
            rows.append(draw(st.sampled_from(multiples)))
        else:
            rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)))
    return EllipticArrangement.from_rows(n, rows)


@settings(max_examples=100, deadline=None)
@given(elliptic_arrangements())
@example(EllipticArrangement.from_rows(2, [[1, 0], [2, 0], [0, 1]]))
@example(EllipticArrangement.from_rows(2, [[1, 2], [2, 1], [1, 2], [-1, -1]]))
def test_closures_decide_spans_as_fraction_keys(a):
    subsets = [I for r in range(a.m + 1) for I in itertools.combinations(range(a.m), r)]
    closure = {I: _closure(a, smith_normal_form(a.submatrix(I))) for I in subsets}
    span = {I: span_key(a.submatrix(I).entries) for I in subsets}
    for I in subsets:
        assert set(I) <= closure[I]
        for J in subsets:
            assert (closure[I] == closure[J]) == (span[I] == span[J])
            assert (closure[I] <= closure[J]) == span_subset(span[I], span[J])


@settings(max_examples=100, deadline=None)
@given(elliptic_arrangements())
@example(EllipticArrangement.from_rows(2, [[1, 2], [2, 1], [1, 2], [-1, -1]]))
def test_strata_match_fraction_span_strata(a):
    # each candidate component is tested against the strata of its span:
    # keep the candidates (prod d_i^2 summed over the subsets) few, or one
    # example takes seconds
    candidates = 0
    for r in range(a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            candidates += prod(d * d for d in smith_normal_form(a.submatrix(I)).divisors if d)
    assume(candidates <= 64)
    new, old = enumerate_strata(a), span_strata(a)
    assert [s.key for s in new] == [(s.component.rows, s.component.torsion_label) for s in old]
    for x, x_old in zip(new, old):
        for y, y_old in zip(new, old):
            was = span_subset(y_old.span, x_old.span) and _point_on_component(a, y_old, x_old.component.point)
            assert _stratum_contained(a, x, y) == was


@settings(max_examples=100, deadline=None)
@given(elliptic_arrangements())
@example(EllipticArrangement.from_rows(2, [[1, 0], [2, 0], [0, 1]]))
@example(EllipticArrangement.from_rows(2, [[1, 2], [2, 1], [1, 2], [-1, -1]]))
def test_coset_keys_decide_point_on_component(a):
    # the buckets of both examples hold subsets with different divisors;
    # under the frame of every subset of a closure, a candidate's key equals
    # a stratum's exactly when the Fraction point test puts it on the stratum
    walk = []
    for r in range(a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            sub = a.submatrix(I)
            snf = smith_normal_form(sub)
            walk.append((I, sub, snf, _closure(a, snf)))
    assume(sum(prod(d * d for d in snf.divisors if d) for _, _, snf, _ in walk) <= 64)
    strata = enumerate_strata(a)
    for I, _, _, closure in walk:
        same = [X for X in strata if X.closure == closure]
        frames = [_coset_frame(sub, snf) for _, sub, snf, c in walk if c == closure]
        for comp in components(a, I):
            on = [_point_on_component(a, X, comp.point) for X in same]
            assert sum(on) == 1
            for frame in frames:
                key = _coset_key(frame, comp.point)
                assert [key == _coset_key(frame, X.component.point) for X in same] == on


# sha256 over the five certificate arrangements of the elliptic-strata
# benchmark workload (rows unsigned) of json.dumps of, in turn, the strata
# keys in enumeration order, the covers of the containment poset and the
# certificate at GF(101) weights 2, 3, ...; taken from the version that
# decided spans by Fraction row reduction.
ELLIPTIC_DIGEST = "5e822a91ecec528cfd3c9d1f246be6fc8a9bc2f7671051f2a13e014b3d327c20"

DIGEST_ARRANGEMENTS = (
    (2, ((2, 2), (-1, 1), (1, 2), (0, 2))),
    (2, ((2, 1), (-1, 2), (-1, 2), (2, 0), (-1, -1))),
    (3, ((0, 2, 1), (0, -1, 2), (1, 0, 2))),
    (3, ((0, 2, -1), (-1, 0, 1), (-1, -1, -1), (1, 2, -1))),
    (3, ((1, -1, 2), (0, -1, 0), (-1, 1, 2), (0, 2, -1), (0, -1, 0))),
)


def test_elliptic_digest_pinned():
    h = hashlib.sha256()
    for n, rows in DIGEST_ARRANGEMENTS:
        a = EllipticArrangement.from_rows(n, rows)
        keyed = {s.key: s for s in enumerate_strata(a)}
        poset = from_leq(sorted(keyed), lambda x, y: _stratum_contained(a, keyed[x], keyed[y]))
        cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(101), tuple(range(2, 2 + a.m))))
        for part in (list(keyed), oracle_covers(poset), cert.to_json()):
            h.update(json.dumps(part).encode())
    assert h.hexdigest() == ELLIPTIC_DIGEST


# --- convenient position test -------------------------------------------------------


def test_convenient_single_curve():
    a = EllipticArrangement.from_rows(1, [[1]])
    good = convenient_check(a, GF(7), [3, 1])
    assert good.holds and good.vanishing_below == 0
    bad = convenient_check(a, GF(7), [1, 1])
    assert not bad.holds and bad.vanishing_below is None
    assert bad.failures[0][0] == ()  # the ambient subset witnesses failure


def test_convenient_identity_pair():
    a = EllipticArrangement.from_rows(2, [[1, 0], [0, 1]])
    assert convenient_check(a, GF(7), [3, 3, 3, 3]).holds
    partial = convenient_check(a, GF(7), [3, 1, 1, 1])
    assert not partial.holds
    failing_rows = {rows for rows, basis in partial.failures}
    assert (0,) in failing_rows  # the curve x = 0 has character trivial on it


def test_convenient_validates_input():
    a = EllipticArrangement.from_rows(1, [[1]])
    with pytest.raises(ValueError, match="character values"):
        convenient_check(a, GF(7), [3])
    with pytest.raises(ValueError, match="nonzero"):
        convenient_check(a, GF(7), [0, 3])
    t = EllipticArrangement.from_rows(1, [[1]], translations=[(1, 2)])
    with pytest.raises(ValueError, match="translations"):
        convenient_check(t, GF(7), [3, 3])


def test_convenient_json():
    a = EllipticArrangement.from_rows(1, [[1]])
    obj = convenient_check(a, GF(7), [1, 1]).to_json()
    assert obj["holds"] is False
    assert obj["failures"][0]["lattice_basis"] == [[1, 0], [0, 1]]


# --- vanishing certificates ------------------------------------------------------------


def test_certificate_single_curve_pass():
    a = EllipticArrangement.from_rows(1, [[1]])
    cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(7), (3,)))
    assert dict(cert.entries) == {(2, -1): POSSIBLE}
    assert cert.concentration == 1
    assert any("duality space" in note for note in cert.notes)


def test_certificate_single_curve_trivial_weight():
    a = EllipticArrangement.from_rows(1, [[1]])
    cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(7), (1,)))
    assert set(cert.entries) == {(0, 0), (0, 1), (2, -1)}
    assert cert.concentration is None
    assert cert.lines() == [0, 1]


def test_certificate_identity_pair():
    a = EllipticArrangement.from_rows(2, [[1, 0], [0, 1]])
    cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(101), (3, 5)))
    assert dict(cert.entries) == {(4, -2): POSSIBLE}
    assert cert.concentration == 2


def test_certificate_configuration_space_reduction():
    # three hypersurfaces cutting the 2-torus: differences and coordinates
    a = EllipticArrangement.from_rows(2, [[1, -1], [1, 0], [0, 1]])
    cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(101), (2, 3, 5)))
    assert dict(cert.entries) == {(4, -2): POSSIBLE}
    assert cert.concentration == 2


def test_certificate_merged_weight_can_cancel():
    # x = 0 and 2x = 0 merge at the origin with weight q0 * q1 = 8 = 1 in F7
    a = EllipticArrangement.from_rows(1, [[1], [2]])
    cert = elliptic_vanishing_certificate(a, RankOneSystem(GF(7), (2, 4)))
    assert cert.concentration is None
    assert (0, 0) in cert.entries
    good = elliptic_vanishing_certificate(a, RankOneSystem(GF(7), (2, 3)))
    assert good.concentration == 1


def test_certificate_input_validation():
    with pytest.raises(ValueError, match="essential"):
        elliptic_vanishing_certificate(
            EllipticArrangement.from_rows(2, [[1, 1]]), RankOneSystem(GF(7), (2,))
        )
    with pytest.raises(ValueError, match="translations"):
        elliptic_vanishing_certificate(
            EllipticArrangement.from_rows(1, [[1]], translations=[(1, 2)]),
            RankOneSystem(GF(7), (2,)),
        )
    with pytest.raises(ValueError, match="one weight per row"):
        elliptic_vanishing_certificate(
            EllipticArrangement.from_rows(1, [[1]]), RankOneSystem(GF(7), (2, 3))
        )
