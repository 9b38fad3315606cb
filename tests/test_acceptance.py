"""End-to-end acceptance gate.

One test per shipped guarantee, in a fixed order; run

    pytest tests/test_acceptance.py -v

and read one PASSED/FAILED line per criterion.  Each test additionally
prints a ``[criterion NN] PASS/FAIL`` line with its wall-clock time
(visible under ``-s`` or on failure), and fails outright when it overruns
its stated time budget.  Expected values are either frozen literals or
recomputed here by independent oracles that share no code with the
package internals.
"""

import functools
import itertools
import math
import random
import time

from arrcoh.arrangement import (
    Arrangement,
    e2_certificate,
    intersection_lattice,
    maximal_building_set,
    minimal_building_set,
    nested_complex,
    poincare_and_beta,
    vanishing_check,
)
from arrcoh.elliptic import (
    EllipticArrangement,
    components,
    elliptic_vanishing_certificate,
)
from arrcoh.linalg import GF, QQ, ZZ, RankOneSystem
from arrcoh.salvetti import build_salvetti, enumerate_faces, twisted_cohomology
from arrcoh.simplicial import SimplicialComplex, enumerate_complexes, is_cohen_macaulay
from arrcoh.toric import (
    ToricComplex,
    toric_cohomology,
    toric_e2_page,
    verify_cm_theorem,
)

SEED = 20260825
F101 = GF(101)

# Normal vectors for lines in the plane; the first m of them give an
# essential arrangement of m pairwise-transverse lines.
SLOPES = [(0, 1), (1, 0), (1, -1), (1, 1), (1, -2), (1, 2)]


def _criterion(number, summary, budget=None):
    """Print one PASS/FAIL line per criterion and enforce the time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {summary}")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed >= budget:
                print(
                    f"[criterion {number:02d}] FAIL  {summary}"
                    f"  ({elapsed:.2f}s, budget {budget:.0f}s)"
                )
                raise AssertionError(
                    f"criterion {number} overran its {budget:.0f}s budget: {elapsed:.2f}s"
                )
            print(f"[criterion {number:02d}] PASS  {summary}  ({elapsed:.2f}s)")

        return run

    return wrap


# --- shared builders and oracles -------------------------------------------


def three_generic_lines():
    return Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]], ("a", "b", "c"))


def braid(n):
    """The braid arrangement x_i = x_j in C^n (rank n - 1)."""
    rows, labels = [], []
    for i, j in itertools.combinations(range(n), 2):
        r = [0] * n
        r[i], r[j] = 1, -1
        rows.append(r)
        labels.append(f"h{i}{j}")
    return Arrangement.from_rows(n, rows, labels)


def braid_a3():
    return braid(4)


def boolean_b3():
    return Arrangement.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ("x", "y", "z"))


def oracle_poincare_beta(a):
    """Characteristic-polynomial data via the textbook Moebius recursion,
    written independently of the packaged computation: the order is
    inclusion of closed sets, compared over all pairs."""
    lat = intersection_lattice(a)
    mu = {}
    for y in sorted(lat.flats, key=len):  # a proper subset comes first
        mu[y] = -sum(mu[z] for z in mu if set(z) < set(y)) if y else 1
    pi = [0] * (max(flat.rank for flat in lat.flats.values()) + 1)
    for cs, flat in lat.flats.items():
        pi[flat.rank] += abs(mu[cs])
    # divide by (1 + t) and evaluate the quotient at -1
    quot = []
    for i, c in enumerate(pi[:-1]):
        quot.append(c - quot[-1] if i else c)
    assert pi[-1] == quot[-1], "polynomial not divisible by 1 + t"
    beta = sum(c * (-1) ** i for i, c in enumerate(quot))
    return pi, beta


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def oracle_component_count(rows, n):
    """Intersection-component count via minor determinants and congruence
    counting: any modulus divisible by every elementary divisor works, and
    the nonzero maximal minors supply one."""
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
    M = math.lcm(*(abs(d) for d in minors))
    count = sum(
        1
        for x in itertools.product(range(M), repeat=n)
        if all(sum(a * b for a, b in zip(row, x)) % M == 0 for row in rows)
    )
    assert count % M ** (n - r) == 0
    return (count // M ** (n - r)) ** 2


_CORPUS = None


def corpus():
    """All isomorphism classes of complexes on at most five vertices."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = enumerate_complexes(5)
    return _CORPUS


def toric_weights(tc, by_vertex):
    return RankOneSystem.from_mapping(F101, tc, by_vertex)


def projective_weights(rng, m):
    """Random units of GF(101) multiplying to 1, all different from 1."""
    while True:
        qs = [rng.randrange(2, 101) for _ in range(m - 1)]
        prod = 1
        for q in qs:
            prod = prod * q % 101
        last = pow(prod, -1, 101)
        if last != 1:
            return qs + [last]


def rank2_lines(m):
    return Arrangement.from_rows(2, [list(s) for s in SLOPES[:m]])


# --- criterion 1: lattice invariants ----------------------------------------


@_criterion(1, "lattice polynomials and their residues match a Moebius oracle", budget=1.0)
def test_c01_lattice_invariants_match_moebius_oracle():
    lines = three_generic_lines()
    pi, beta = poincare_and_beta(lines)
    assert (pi, beta) == ([1, 3, 2], -1)
    assert oracle_poincare_beta(lines) == ([1, 3, 2], -1)

    braid = braid_a3().essentialize()
    pi, beta = poincare_and_beta(braid)
    # coefficients of (1+t)(1+2t)(1+3t)
    assert (pi, beta) == ([1, 6, 11, 6], 2)
    assert oracle_poincare_beta(braid) == ([1, 6, 11, 6], 2)

    boolean = boolean_b3()
    pi, beta = poincare_and_beta(boolean)
    assert (pi, beta) == ([1, 3, 3, 1], 0)
    assert oracle_poincare_beta(boolean) == ([1, 3, 3, 1], 0)


# --- criterion 2: nested complexes ------------------------------------------


@_criterion(2, "nested complexes: isolated vertices for generic lines, dim rank-2", budget=1.0)
def test_c02_nested_complexes():
    lines = three_generic_lines()
    for g in (minimal_building_set(lines), maximal_building_set(lines)):
        nc = nested_complex(lines, g)
        assert nc.f_vector() == [1, 3]  # three isolated vertices, no edges
        assert nc.dim == 0

    braid = braid_a3().essentialize()
    nc = nested_complex(braid, minimal_building_set(braid))
    assert nc.dim == braid.rank - 2 == 1


# --- criterion 3: rank-2 sweep, twisted and untwisted ------------------------


@_criterion(3, "rank-2 sweep: twisted Betti (0, m-2), untwisted equals lattice polynomial", budget=30.0)
def test_c03_rank2_concentration_sweep():
    for m in range(3, 7):
        a = rank2_lines(m)
        pi, beta = poincare_and_beta(a)
        assert abs(beta) == m - 2

        untwisted = twisted_cohomology(a, RankOneSystem(F101, [1] * m))
        assert untwisted.full_betti == tuple(pi) == (1, m, m - 1)

        for trial in range(20):
            rng = random.Random(SEED + 1_000_000 * m + trial)
            sys_ = RankOneSystem(F101, projective_weights(rng, m))
            assert vanishing_check(a, sys_).holds
            rep = twisted_cohomology(a, sys_)
            assert rep.projective_betti == (0, m - 2), (m, trial, rep.projective_betti)


# --- criterion 4: braid arrangement end to end -------------------------------


@_criterion(4, "essential braid end to end: twisted Betti, projective part, certificate", budget=60.0)
def test_c04_braid_end_to_end():
    a = braid_a3().essentialize()
    qs = [pow(2, e, 101) for e in (1, 1, 1, 1, 1, 95)]
    prod = 1
    for q in qs:
        prod = prod * q % 101
    assert prod == 1  # projective by construction

    sys_ = RankOneSystem(F101, qs)
    assert vanishing_check(a, sys_).holds

    rep = twisted_cohomology(a, sys_)
    assert rep.full_betti == (0, 0, 2, 2)
    assert rep.projective_betti == (0, 0, 2)
    _, beta = poincare_and_beta(a)
    assert rep.projective_betti[2] == abs(beta) == 2

    cert = e2_certificate(a, minimal_building_set(a), sys_)
    assert cert.concentration == 2


# --- criterion 5: toric two-oracle corpus sweep -------------------------------


@_criterion(5, "toric corpus sweep: page concentration agrees with direct cohomology", budget=120.0)
def test_c05_toric_corpus_two_oracles():
    complexes = corpus()
    assert len(complexes) == 209
    cm_members = 0
    for L in complexes:
        tc = ToricComplex(L)
        rep = verify_cm_theorem(tc, 101, trials=25, seed=SEED)
        assert rep.ok, (L.facets(), rep.to_json())
        if rep.cm.ok:
            cm_members += 1
            assert rep.trials, "no weight samples recorded"
    assert cm_members == 68


# --- criterion 6: toric anchor values ----------------------------------------


@_criterion(6, "toric anchors: full simplices and untwisted face counts are exact")
def test_c06_toric_anchors():
    # full simplex on k vertices: trivial weights leave the face counts,
    # any nontrivial vertex weight wipes everything out
    for k in range(1, 5):
        verts = list(range(1, k + 1))
        tc = ToricComplex(SimplicialComplex.from_facets(verts, [tuple(verts)]))
        rep = toric_cohomology(tc, toric_weights(tc, {v: 1 for v in verts}))
        assert [rep.betti(j) for j in range(k + 1)] == [math.comb(k, j) for j in range(k + 1)]
        assert rep.betti(k) == 1

        patterns = [{v: (2 if v == verts[0] else 1) for v in verts}, {v: 2 for v in verts}]
        if k >= 2:
            patterns.append({v: (3 if v % 2 else 1) for v in verts})
        for q in patterns:
            rep = toric_cohomology(tc, toric_weights(tc, q))
            assert rep.nonzero_degrees() == []

    # untwisted Betti numbers are the face counts for the whole corpus
    for L in corpus():
        tc = ToricComplex(L)
        rep = toric_cohomology(tc, toric_weights(tc, {v: 1 for v in L.vertices}))
        f = L.f_vector()
        assert [rep.betti(j) for j in range(len(f))] == f, L.facets()


# --- criterion 7: Cohen-Macaulay testing --------------------------------------


@_criterion(7, "Cohen-Macaulay verdicts: anchors plus integral-implies-field on the corpus")
def test_c07_cohen_macaulay():
    triangle = SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert is_cohen_macaulay(triangle, ZZ).ok

    disjoint = SimplicialComplex.from_facets([1, 2, 3, 4], [(1, 2), (3, 4)])
    verdict = is_cohen_macaulay(disjoint, ZZ)
    assert not verdict.ok
    # witness: the empty face's link (the whole complex) has reduced
    # cohomology in degree 0, below the top degree 1
    assert any(face == () and deg == 0 and rank > 0 for face, deg, rank, _ in verdict.failures)

    for L in corpus():
        if is_cohen_macaulay(L, ZZ).ok:
            for ring in (QQ, GF(2), GF(3)):
                assert is_cohen_macaulay(L, ring).ok, (L.facets(), ring)


# --- criterion 8: component counts against a congruence oracle ----------------


@_criterion(8, "intersection-component counts match the congruence-counting oracle", budget=60.0)
def test_c08_component_counts():
    def nonzero_rows(n):
        return [list(v) for v in itertools.product(range(-3, 4), repeat=n) if any(v)]

    checked = 0

    for n in (1, 2, 3):
        for row in nonzero_rows(n):
            a = EllipticArrangement.from_rows(n, [row])
            assert len(components(a, [0])) == oracle_component_count([row], n)
            checked += 1

    for n in (1, 2):
        for r1, r2 in itertools.combinations_with_replacement(nonzero_rows(n), 2):
            a = EllipticArrangement.from_rows(n, [r1, r2])
            assert len(components(a, [0, 1])) == oracle_component_count([r1, r2], n)
            checked += 1

    # seeded triples and pairs in three variables, capped so the oracle's
    # brute-force congruence count stays affordable
    pool = nonzero_rows(3)
    rng = random.Random(SEED)
    for m in (2, 3):
        done = 0
        while done < 30:
            rows = [rng.choice(pool) for _ in range(m)]
            expected = oracle_component_count(rows, 3)
            if expected > 400:
                continue
            a = EllipticArrangement.from_rows(3, rows)
            assert len(components(a, list(range(m)))) == expected
            done += 1
            checked += 1

    assert checked == 1653


# --- criterion 9: certificates are sound, seeded ------------------------------


@_criterion(9, "certificates: passing checks concentrate, failing ones never claim")
def test_c09_certificate_soundness():
    # hyperplane side: rank-2 sweeps plus the essential braid
    for m in range(3, 7):
        a = rank2_lines(m)
        g = minimal_building_set(a)
        for trial in range(5):
            rng = random.Random(SEED + 10_000 * m + trial)
            good = RankOneSystem(F101, projective_weights(rng, m))
            assert vanishing_check(a, good).holds
            assert e2_certificate(a, g, good).concentration == a.rank - 1 == 1

            # force a failure: one trivial weight, still projective
            mid = [rng.randrange(2, 101) for _ in range(m - 2)]
            prod = 1
            for q in mid:
                prod = prod * q % 101
            bad = RankOneSystem(F101, [1] + mid + [pow(prod, -1, 101)])
            assert not vanishing_check(a, bad).holds
            assert e2_certificate(a, g, bad).concentration is None

    braid = braid_a3().essentialize()
    g = minimal_building_set(braid)
    good = RankOneSystem(F101, [pow(2, e, 101) for e in (1, 1, 1, 1, 1, 95)])
    assert e2_certificate(braid, g, good).concentration == braid.rank - 1 == 2
    trivial = RankOneSystem(F101, [1] * 6)
    assert e2_certificate(braid, g, trivial).concentration is None

    # elliptic side: weights built to pass or fail the stratum checks
    rng = random.Random(SEED)
    line = EllipticArrangement.from_rows(1, [[1]])
    plane = EllipticArrangement.from_rows(2, [[1, 0], [0, 1]])
    triple = EllipticArrangement.from_rows(2, [[1, -1], [1, 0], [0, 1]])
    for _ in range(10):
        q = rng.randrange(2, 101)
        cert = elliptic_vanishing_certificate(line, RankOneSystem(F101, [q]))
        assert cert.concentration == 1
        assert elliptic_vanishing_certificate(
            line, RankOneSystem(F101, [1])
        ).concentration is None

        # identity pair: only the two atom weights are checked; the join of
        # the two independent directions is reducible, hence exempt, so a
        # product of 1 does not spoil the concentration
        q1, q2 = rng.randrange(2, 101), rng.randrange(2, 101)
        assert elliptic_vanishing_certificate(
            plane, RankOneSystem(F101, [q1, q2])
        ).concentration == 2
        assert elliptic_vanishing_certificate(
            plane, RankOneSystem(F101, [q1, pow(q1, -1, 101)])
        ).concentration == 2
        assert elliptic_vanishing_certificate(
            plane, RankOneSystem(F101, [1, q2])
        ).concentration is None

        # three concurrent directions: the origin's check multiplies all
        while True:
            ws = [rng.randrange(2, 101) for _ in range(3)]
            prod = 1
            for w in ws:
                prod = prod * w % 101
            if prod != 1:
                break
        cert = elliptic_vanishing_certificate(triple, RankOneSystem(F101, ws))
        assert cert.concentration == 2
        bad = [ws[0], ws[1], pow(ws[0] * ws[1], -1, 101)]
        assert elliptic_vanishing_certificate(
            triple, RankOneSystem(F101, bad)
        ).concentration is None

    # toric side: any concentration the page claims must match the direct
    # computation, and Cohen-Macaulay inputs must concentrate on the top line
    complexes = corpus()
    rng = random.Random(SEED + 9)
    for _ in range(20):
        L = rng.choice(complexes)
        tc = ToricComplex(L)
        sys_ = toric_weights(tc, {v: rng.randrange(2, 101) for v in L.vertices})
        page = toric_e2_page(tc, sys_)
        direct = toric_cohomology(tc, sys_)
        top = L.dim + 1
        if is_cohen_macaulay(L, ZZ).ok:
            assert page.total_vanishing or page.concentration == top, L.facets()
        if page.total_vanishing:
            assert direct.nonzero_degrees() == [], L.facets()
        elif page.concentration is not None:
            line = page.concentration
            assert set(direct.nonzero_degrees()) <= {line}, L.facets()
            claimed = page.dim_on_line(line)
            if claimed is not None:
                assert claimed == direct.betti(line), L.facets()


# --- criterion 10: out-of-scope statement -------------------------------------


@_criterion(10, "group-ring coefficients stay out of scope; rank-one suites stand in")
def test_c10_scope_statement():
    # Coefficient modules over whole group rings (and the Laurent-module
    # converse direction) are beyond desk scale and are not shipped; the
    # rank-one specializations above are the deliverable.  This entry
    # records the substitution explicitly and pins the substitute APIs.
    for fn in (
        vanishing_check,
        twisted_cohomology,
        e2_certificate,
        toric_cohomology,
        toric_e2_page,
        elliptic_vanishing_certificate,
    ):
        assert callable(fn)


# --- criterion 11: braid A4 past the old face-enumeration cap -----------------


@_criterion(11, "essential braid A4: faces, cells, untwisted Betti = pi, twisted concentration", budget=10.0)
def test_c11_braid_a4():
    a = braid(5).essentialize()
    assert (a.m, a.n) == (10, 4)
    fs = enumerate_faces(a)
    assert len(fs.faces) == 541
    assert len(fs.chambers) == 120  # |S_5|
    sal = build_salvetti(fs)
    assert sal.cell_counts() == [120, 480, 720, 480, 120]

    pi, beta = poincare_and_beta(a)
    assert pi == [1, 10, 35, 50, 24] and abs(beta) == 6
    untwisted = twisted_cohomology(a, RankOneSystem(QQ, [1] * 10))
    assert untwisted.full_betti == tuple(pi)
    assert untwisted.cell_counts == tuple(sal.cell_counts())

    rng = random.Random(SEED + 11)
    while True:
        sys_ = RankOneSystem(F101, projective_weights(rng, 10))
        if vanishing_check(a, sys_).holds:
            break
    rep = twisted_cohomology(a, sys_)
    assert rep.projective_betti == (0, 0, 0, 6)
    assert rep.full_betti == (0, 0, 0, 6, 6)
