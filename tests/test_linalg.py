"""Exact linear algebra: ranks, kernels, Smith form, prime-field kernels.

The Smith-form tests freeze hand-computed divisors (gcd of entries, then
gcd of 2x2 minors, and so on).  One rank-one system type serves all three
families of spaces, so its JSON form is checked on each.  The sparse elimination is checked against
the dense references (``arrcoh.fp`` over F_p, the rational RREF over Q,
the Smith form over Z) on random small integer matrices.
"""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcoh import fp, linalg
from arrcoh.linalg import (
    GF,
    QQ,
    ZZ,
    Matrix,
    RankOneSystem,
    is_prime,
    parse_fraction,
    rank_kernel,
    smith_normal_form,
    sparse_rank,
)


# --- field tags -----------------------------------------------------------


def test_gf_arithmetic():
    F = GF(7)
    assert F.mul(3, 5) == 1
    assert F.normalize(-1) == 6
    assert F.is_zero(F.normalize(14))
    assert F.one == 1


def test_qq_normalize_and_format():
    assert QQ.normalize("3/4") == Fraction(3, 4)
    assert QQ.normalize(2) == Fraction(2)
    assert QQ.format_scalar(Fraction(6, 4)) == "3/2"
    assert QQ.format_scalar(Fraction(-2, 1)) == "-2"


def test_float_rejected_everywhere():
    with pytest.raises(TypeError):
        QQ.normalize(0.5)
    with pytest.raises(TypeError):
        GF(5).normalize(1.0)
    with pytest.raises(TypeError):
        ZZ.normalize(2.0)


def test_zero_denominator_is_value_error():
    assert parse_fraction("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        QQ.normalize("1/0")


def test_zz_rejects_proper_fraction():
    assert ZZ.normalize(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))


def test_field_json_round_trip():
    from arrcoh.linalg import FieldTag

    for tag in (QQ, GF(101)):
        assert FieldTag.from_json(tag.to_json()) == tag


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


# --- matrices -------------------------------------------------------------


def test_matrix_basics():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.identity(QQ, 2)
    assert a.mul(b).entries == a.entries
    assert a.entries == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        Matrix.from_rows(QQ, [[1, 2], [3]])


def test_rank_kernel_rational():
    rank, kern = rank_kernel(Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6]]))
    assert rank == 1
    assert kern.nrows == 2
    # each kernel row is annihilated
    for row in kern.entries:
        assert sum(Fraction(1) * r * x for r, x in zip((1, 2, 3), row)) == 0


def test_integer_kernel_is_saturated():
    # kernel of [2, 4] over Z must contain the primitive (2, -1), not (4, -2)
    _, kern = rank_kernel(Matrix.from_rows(ZZ, [[2, 4]]))
    (row,) = kern.entries
    assert math.gcd(*[int(x) for x in row]) == 1


# --- smith normal form ----------------------------------------------------

SNF_CASES = [
    # (rows, divisors): d1 = gcd of entries, d1 d2 = gcd of 2x2 minors, ...
    ([[1, 0], [0, 1]], (1, 1)),
    ([[2]], (2,)),
    ([[0]], (0,)),
    ([[2, 4], [6, 8]], (2, 4)),
    ([[1, 2], [3, 4]], (1, 2)),
    ([[2, 0], [0, 3]], (1, 6)),
    ([[4, 6, 8]], (2,)),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], (1, 3, 0)),
]


@pytest.mark.parametrize("rows,divisors", SNF_CASES)
def test_smith_divisors_frozen(rows, divisors):
    snf = smith_normal_form(Matrix.from_rows(ZZ, rows))
    assert snf.divisors == divisors


def test_smith_witnesses():
    a = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
    snf = smith_normal_form(a)
    d = snf.left.mul(a).mul(snf.right)
    assert d.entries == ((2, 0), (0, 4))
    assert snf.rank == 2
    assert snf.nontrivial


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_smith_properties(rows):
    a = Matrix.from_rows(ZZ, rows)
    snf = smith_normal_form(a)
    divs = snf.divisors
    assert len(divs) == min(a.nrows, a.ncols)
    # divisibility chain over the nonzero part, zeros trailing
    nonzero = [d for d in divs if d != 0]
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    assert list(divs) == nonzero + [0] * (len(divs) - len(nonzero))
    # rank agrees with the rational rank, with rank_kernel and with sparse_rank
    assert snf.rank == rank_kernel(Matrix.from_rows(QQ, rows))[0]
    assert rank_kernel(a)[0] == snf.rank == sparse_rank(ZZ, _sparse(rows))[0]


def _fraction_det(rows) -> Fraction:
    """Determinant by Fraction elimination, independent of the Smith form."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((i for i in range(c, len(a)) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _product(x, y, inner: int):
    return [[sum(x[i][k] * y[k][j] for k in range(inner)) for j in range(len(y[0]) if y else 0)] for i in range(len(x))]


@st.composite
def _integer_matrices(draw):
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    return ncols, draw(st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))


@given(_integer_matrices())
@example((3, []))
@example((3, [[0, 0, 0], [0, 0, 0]]))
@example((4, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0], [3, 6, 9, 12]]))
@example((5, [[2, 4, -6, 0, 2], [4, 8, -12, 0, 4], [6, 6, 6, 6, 6]]))
@settings(max_examples=150, deadline=None)
def test_smith_witnesses_are_unimodular_and_diagonalize(case):
    ncols, rows = case
    nrows = len(rows)
    snf = smith_normal_form(Matrix(ZZ, tuple(map(tuple, rows)), nrows, ncols))
    u, v = snf.left.to_lists(), snf.right.to_lists()
    assert (snf.left.nrows, snf.left.ncols, snf.right.nrows, snf.right.ncols) == (nrows, nrows, ncols, ncols)
    assert abs(_fraction_det(u)) == 1 and abs(_fraction_det(v)) == 1
    d = _product(_product(u, rows, nrows), v, ncols)
    assert d == [[snf.divisors[i] if i == j else 0 for j in range(ncols)] for i in range(nrows)]


# sha256 of the witnesses and divisors of every 1x3, 2x2 and 2x3 matrix with
# entries in [-2, 2], in itertools.product order: U, V and the divisors must
# stay bit-identical, since strata keys, goldens and digests are read off them
SMITH_WITNESS_DIGEST = "bfac47e7fb84ed355a9e2e3373430dd0ef4f5bf1e1c312e7c1100d90db5a35e1"


def test_smith_witness_digest_pinned():
    h = hashlib.sha256()
    for nrows, ncols in ((1, 3), (2, 2), (2, 3)):
        for flat in itertools.product(range(-2, 3), repeat=nrows * ncols):
            snf = smith_normal_form(Matrix.from_rows(ZZ, [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]))
            h.update(repr((snf.left.entries, snf.right.entries, snf.divisors)).encode())
    assert h.hexdigest() == SMITH_WITNESS_DIGEST


# invertible, with invariant factors 2, 6, 12: every row of A V and every
# column of U A is nonzero, so a change to any one witness entry shows
WITNESS_CASE = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def test_witness_check_rejects_one_corrupted_entry():
    snf = smith_normal_form(Matrix.from_rows(ZZ, WITNESS_CASE))
    assert snf.divisors == (2, 6, 12)
    u, v = snf.left.to_lists(), snf.right.to_lists()
    linalg._check_witness(WITNESS_CASE, u, v, snf.divisors)
    for side in ("u", "v", "divisors"):
        for i, j in itertools.product(range(3), repeat=2):
            bad_u, bad_v, bad_d = [row[:] for row in u], [row[:] for row in v], list(snf.divisors)
            if side == "divisors":
                if j:
                    continue
                bad_d[i] += 1
            else:
                (bad_u if side == "u" else bad_v)[i][j] += 1
            with pytest.raises(linalg.InternalError, match="witness check failed"):
                linalg._check_witness(WITNESS_CASE, bad_u, bad_v, tuple(bad_d))


def test_every_smith_form_runs_the_witness_check(monkeypatch):
    """The check runs on every call, on the witnesses the call returns:
    corrupting one entry on its way in makes the call raise."""
    check, calls = linalg._check_witness, []

    def corrupting(rows, u, v, divisors):
        calls.append(len(rows))
        if len(calls) == 3 and u:
            u[0][0] += 1
        check(rows, u, v, divisors)

    monkeypatch.setattr(linalg, "_check_witness", corrupting)
    smith_normal_form(Matrix.from_rows(ZZ, [[2, 4], [6, 8]]))
    smith_normal_form(Matrix.zeros(ZZ, 0, 3))
    with pytest.raises(linalg.InternalError, match="witness check failed"):
        smith_normal_form(Matrix.from_rows(ZZ, WITNESS_CASE))
    assert calls == [2, 0, 3]


# --- prime-field kernels --------------------------------------------------


def test_fp_rank_small():
    assert fp.fp_rank([[1, 2], [2, 4]], 5) == 1
    assert fp.fp_rank([[1, 2], [2, 4]], 2) == 1
    assert fp.fp_rank([[2, 0], [0, 3]], 3) == 1  # 3 == 0 mod 3
    assert fp.fp_rank([], 7) == 0


def test_fp_kernel_annihilates():
    rows = [[1, 2, 3], [4, 5, 6]]
    p = 7
    basis = fp.fp_kernel(rows, p)
    assert len(basis) == 3 - fp.fp_rank(rows, p)
    for v in basis:
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) % p == 0


def test_fp_modulus_bounds():
    with pytest.raises(ValueError):
        fp.fp_rank([[1]], 1)


# 2147483659 > 2**31: a modulus wider than 32 bits
@pytest.mark.parametrize("p", [2, 101, 2147483659])
def test_rank_kernel_prime_field(p):
    # row 3 = row 1 + row 2 and row 4 = 2 * row 1, so the rank is 2 for every p
    rows = [[1, 2, 0, 5], [0, 1, p - 1, 3], [1, 3, -1, 8], [2, 4, 0, 10]]
    rank, kern = rank_kernel(Matrix.from_rows(GF(p), rows))
    assert rank == 2 == fp.fp_rank(rows, p)
    assert kern.nrows == 2 and kern.ncols == 4
    for v in kern.entries:
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) % p == 0


# --- sparse elimination against the dense references ---------------------


def _sparse(rows):
    """Raw {column: entry} rows, entries not reduced mod any prime."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _matrices(entries):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=7)
    )


@st.composite
def _long_sparse(draw, entries):
    """Up to 25 x 25 with a few entries per row: zero rows, repeated rows,
    random rows and chained rows (entries at columns j and j + 1), so that
    chains of pivot rows get long."""
    size = st.integers(min_value=1, max_value=25) | st.integers(min_value=15, max_value=25)
    ncols = draw(size)
    column = st.integers(min_value=0, max_value=ncols - 1)
    rows: list[list] = []
    for _ in range(draw(size)):
        kind = draw(st.sampled_from(["chain", "random", "zero", "chain", "random", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
            continue
        row = [0] * ncols
        if kind == "chain":
            j = draw(column)
            row[j], row[(j + 1) % ncols] = draw(entries), draw(entries)
        elif kind == "random":
            for j in draw(st.lists(column, min_size=1, max_size=4)):
                row[j] = draw(entries)
        rows.append(row)
    return rows


SMALL = st.integers(min_value=-4, max_value=4)
NO_UNITS = st.sampled_from([-4, -3, -2, 0, 2, 3, 4])
# also entries that vanish mod 2, 3 or 101 but not over Q
WIDE = SMALL | st.sampled_from([6, -12, 101, -202, 303])


@given(_matrices(SMALL) | _long_sparse(WIDE), st.sampled_from([2, 3, 5, 101]))
@settings(max_examples=150, deadline=None)
def test_sparse_rank_fp_matches_dense_kernel(rows, p):
    # entries such as 2 and 4 vanish mod 2, 3 mod 3: the rows go in unreduced
    assert sparse_rank(GF(p), _sparse(rows)) == (fp.fp_rank(rows, p), ())


FRACTIONS = st.builds(Fraction, SMALL, st.integers(min_value=1, max_value=6))
NO_UNIT_FRACTIONS = st.builds(Fraction, NO_UNITS, st.sampled_from([1, 5, 7]))


@given(
    _matrices(SMALL.map(Fraction))
    | _matrices(FRACTIONS)
    | _matrices(NO_UNIT_FRACTIONS)
    | _long_sparse(WIDE.map(Fraction) | FRACTIONS)
)
@settings(max_examples=200, deadline=None)
def test_sparse_rank_qq_matches_rational_rref(rows):
    # integral entries go in as ints; real denominators and pivots other
    # than +-1 take the Fraction inverse
    rank = len(fp._rref(rows)[1])
    assert sparse_rank(QQ, _sparse(rows)) == (rank, ())


def test_sparse_rank_qq_is_exact_on_int_entries():
    # rank 1; in floats, 15 - (5 * (1/3)) * 9 is 1.8e-15, not 0
    assert sparse_rank(QQ, _sparse([[3, 9], [5, 15]])) == (1, ())
    assert sparse_rank(QQ, _sparse([[3, 9], [5, Fraction(46, 3)]])) == (2, ())


@given(_matrices(SMALL) | _matrices(NO_UNITS) | _long_sparse(WIDE))
@settings(max_examples=200, deadline=None)
def test_sparse_rank_zz_matches_smith_form(rows):
    # without unit entries the whole matrix is the remainder the Smith form sees
    snf = smith_normal_form(Matrix.from_rows(ZZ, rows))
    assert sparse_rank(ZZ, _sparse(rows)) == (snf.rank, snf.nontrivial)


def test_sparse_rank_units_then_remainder():
    # one unit pivot at (0, 0), then the remainder [[2, 4], [4, 6]] goes to the
    # Smith form: invariant factors 1, 2, 2
    rows = [[1, 0, 0], [0, 2, 4], [0, 4, 6]]
    assert sparse_rank(ZZ, _sparse(rows)) == (3, (2, 2))
    assert sparse_rank(ZZ, _sparse([[2, 0], [0, 0]])) == (1, (2,))
    # the last row pivots first; the second then has a unit and pivots; the
    # first, reduced by it in a third round, is the remainder [2] (det 2)
    assert sparse_rank(ZZ, _sparse([[2, 3, 0], [0, 3, 2], [0, 1, 1]])) == (3, (2,))
    assert sparse_rank(QQ, []) == (0, ())
    assert sparse_rank(GF(3), _sparse([[3, 6], [9, 0]])) == (0, ())


# --- small utilities ------------------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert is_prime(101)


# 399165290221 * 798330580441: a strong pseudoprime to every prime base up to
# 37, caught by base 41
PSEUDOPRIME_37 = 318665857834031151167461
# the bound below which bases 2..41 decide primality (Sorenson-Webster 2017);
# itself a strong pseudoprime to all of them
PRIME_BOUND = 3317044064679887385961981


def test_is_prime_past_base_37():
    assert 399165290221 * 798330580441 == PSEUDOPRIME_37
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(PSEUDOPRIME_37)
    with pytest.raises(ValueError, match="must be prime"):
        GF(PSEUDOPRIME_37)
    assert is_prime(2**61 - 1) and not is_prime(41 * 43)
    assert not is_prime(PRIME_BOUND - 1)  # even


def test_is_prime_refuses_at_the_bound():
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            is_prime(n)
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            GF(n)


# --- rank-one local systems ---------------------------------------------------


def _arrangement():
    from arrcoh.arrangement import Arrangement

    return Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]], ("a", "b", "c"))


def _elliptic():
    from arrcoh.elliptic import EllipticArrangement

    return EllipticArrangement.from_rows(2, [[1, 0], [1, 1]])


def _toric():
    from arrcoh.simplicial import SimplicialComplex
    from arrcoh.toric import ToricComplex

    return ToricComplex(SimplicialComplex.from_facets([1, 2, 3], [(1, 2), (2, 3)]))


@pytest.mark.parametrize(
    "make_space, field, by_label",
    [
        (_arrangement, QQ, {"a": 2, "b": "1/3", "c": Fraction(-3, 2)}),
        (_elliptic, GF(7), {"f1": 3, "f2": 9}),
        (_toric, GF(101), {1: 3, 2: 1, 3: -1}),
    ],
    ids=["arrangement", "elliptic", "toric"],
)
def test_rank_one_json_round_trip(make_space, field, by_label):
    space = make_space()
    sys = RankOneSystem.from_mapping(field, space, by_label)
    obj = json.loads(json.dumps(sys.to_json(space)))
    assert list(obj["q"]) == [str(lab) for lab in space.labels]
    assert RankOneSystem.from_json(space, obj) == sys


@pytest.mark.parametrize("field, weights", [(GF(7), (3, 5, 6, 1)), (QQ, (Fraction(2, 3), -4, 5, 1))])
def test_monomial_extends_weight_product(field, weights):
    sys = RankOneSystem(field, weights)
    for bits in itertools.product((0, 1), repeat=len(weights)):
        assert sys.monomial(bits) == sys.weight_product(i for i, b in enumerate(bits) if b)
    for e in itertools.product(range(-3, 4), repeat=len(weights)):
        assert field.mul(sys.monomial(e), sys.monomial([-x for x in e])) == field.one


def test_monomial_values():
    assert RankOneSystem(GF(7), (3, 5)).monomial((2, -1)) == 6  # 9 * 3, as 5 * 3 = 1 mod 7
    assert RankOneSystem(QQ, (Fraction(2, 3), 5)).monomial((-2, 1)) == Fraction(45, 4)
