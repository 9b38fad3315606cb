"""Exact linear algebra: ranks, kernels, Smith form, prime-field kernels.

The Smith-form tests freeze hand-computed divisors (gcd of entries, then
gcd of 2x2 minors, and so on).  The sparse elimination is checked against
the dense references (``arrcoh.fp`` over F_p, the rational RREF over Q,
the Smith form over Z) on random small integer matrices.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh import fp
from arrcoh.linalg import (
    GF,
    QQ,
    ZZ,
    Matrix,
    _rational_rref,
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
    assert F.inv(3) == 5
    assert F.normalize(-1) == 6
    assert F.is_zero(F.normalize(14))
    assert F.one == 1


def test_qq_normalize_and_format():
    assert QQ.normalize("3/4") == Fraction(3, 4)
    assert QQ.normalize(2) == Fraction(2)
    assert QQ.format_scalar(Fraction(6, 4)) == "3/2"
    assert QQ.format_scalar(Fraction(-2, 1)) == "-2"
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


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
    assert d.entries == snf.diagonal_matrix().entries
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


SMALL = st.integers(min_value=-4, max_value=4)
NO_UNITS = st.sampled_from([-4, -3, -2, 0, 2, 3, 4])


@given(_matrices(SMALL), st.sampled_from([2, 3, 5, 101]))
@settings(max_examples=150, deadline=None)
def test_sparse_rank_fp_matches_dense_kernel(rows, p):
    # entries such as 2 and 4 vanish mod 2, 3 mod 3: the rows go in unreduced
    assert sparse_rank(GF(p), _sparse(rows)) == (fp.fp_rank(rows, p), ())


FRACTIONS = st.builds(Fraction, SMALL, st.integers(min_value=1, max_value=6))
NO_UNIT_FRACTIONS = st.builds(Fraction, NO_UNITS, st.sampled_from([1, 5, 7]))


@given(_matrices(SMALL.map(Fraction)) | _matrices(FRACTIONS) | _matrices(NO_UNIT_FRACTIONS))
@settings(max_examples=200, deadline=None)
def test_sparse_rank_qq_matches_rational_rref(rows):
    # integral entries go in as ints; real denominators and pivots other
    # than +-1 take the Fraction inverse
    rank = len(_rational_rref(rows)[1])
    assert sparse_rank(QQ, _sparse(rows)) == (rank, ())


def test_sparse_rank_qq_is_exact_on_int_entries():
    # rank 1; in floats, 15 - (5 * (1/3)) * 9 is 1.8e-15, not 0
    assert sparse_rank(QQ, _sparse([[3, 9], [5, 15]])) == (1, ())
    assert sparse_rank(QQ, _sparse([[3, 9], [5, Fraction(46, 3)]])) == (2, ())


@given(_matrices(SMALL) | _matrices(NO_UNITS))
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
    assert sparse_rank(QQ, []) == (0, ())
    assert sparse_rank(GF(3), _sparse([[3, 6], [9, 0]])) == (0, ())


# --- small utilities ------------------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert is_prime(101)
