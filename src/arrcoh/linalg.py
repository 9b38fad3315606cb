"""Exact linear algebra over Q, F_p and Z.

Everything here is exact: rationals are :class:`fractions.Fraction`, prime
field elements are ints in ``[0, p)``, integers are ints.  No floats are
ever produced or accepted.  Dense matrices carry kernels and Smith
witnesses; :func:`sparse_rank` is the rank-only elimination that cochain
complexes use, one routine for all three rings, which over Q keeps
integral values as ints and forms a Fraction only where a pivot is not
+-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from arrcoh import fp

__all__ = [
    "FieldTag",
    "QQ",
    "GF",
    "ZZ",
    "IntegerRing",
    "Matrix",
    "rank_kernel",
    "sparse_rank",
    "parse_fraction",
    "SmithForm",
    "smith_normal_form",
    "is_prime",
    "InternalError",
]


class InternalError(Exception):
    """A failed internal invariant: a bug in arrcoh, never bad input, and
    so not a ValueError (the CLI exits 3 on it, 2 on bad input)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2**31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_fraction(x) -> Fraction:
    """Fraction from an int, a Fraction or a string such as ``"-3/4"``.

    A zero denominator is bad input, so it raises ValueError rather than
    the ZeroDivisionError of :class:`fractions.Fraction`.  A bool is not
    a number here, though Python counts it as an int.
    """
    if isinstance(x, bool):
        raise TypeError(f"boolean input rejected: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


@dataclass(frozen=True)
class FieldTag:
    """A coefficient field: the rationals or a prime field F_p."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # --- scalar arithmetic ------------------------------------------------

    def normalize(self, x) -> Fraction | int:
        """Coerce x into a canonical scalar of this field."""
        if type(x) is int:
            return x % self.p if self.kind == "prime" else Fraction(x)
        if isinstance(x, (float, bool)):
            raise TypeError(f"{type(x).__name__} input rejected; use int, Fraction or str")
        if self.kind == "rational":
            return parse_fraction(x)
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "rational" else 1

    def format_scalar(self, a) -> str:
        """Canonical text form: lowest-term 'p/q' for rationals, residue for F_p."""
        if self.kind == "rational":
            a = Fraction(a)
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a % self.p)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldTag":
        kind = obj.get("kind")
        if kind == "rational":
            return QQ
        if kind == "prime":
            return GF(obj["p"])
        raise ValueError(f"unknown field description {obj!r}")

    def __repr__(self) -> str:
        return "QQ" if self.kind == "rational" else f"GF({self.p})"


QQ = FieldTag("rational")


def GF(p: int) -> FieldTag:
    return FieldTag("prime", p)


class IntegerRing:
    """Marker for Z coefficients (handled through Smith normal form)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def normalize(self, x) -> int:
        if type(x) is int:
            return x
        if isinstance(x, (float, bool)):
            raise TypeError(f"{type(x).__name__} input rejected")
        if isinstance(x, str):
            return int(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def to_json(self) -> dict:
        return {"kind": "integer"}

    def __repr__(self) -> str:
        return "ZZ"


ZZ = IntegerRing()

Ring = Union[FieldTag, IntegerRing]


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix with an explicit coefficient ring."""

    ring: Ring
    entries: tuple[tuple, ...]
    nrows: int
    ncols: int

    @classmethod
    def from_rows(cls, ring: Ring, rows: Iterable[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        norm = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")
            norm.append(tuple(ring.normalize(x) for x in r))
        return cls(ring, tuple(norm), nrows, ncols)

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int) -> "Matrix":
        zero = ring.normalize(0)
        return cls(ring, tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows)), nrows, ncols)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring.normalize(1), ring.normalize(0)
        return cls(ring, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), n, n)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        modp = self.ring.p if isinstance(self.ring, FieldTag) and self.ring.kind == "prime" else None
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = sum(self.entries[i][k] * other.entries[k][j] for k in range(self.ncols))
                row.append(s % modp if modp else s)
            out.append(tuple(row))
        return Matrix(self.ring, tuple(out), self.nrows, other.ncols)

    def to_lists(self) -> list[list]:
        return [list(r) for r in self.entries]

    def __repr__(self) -> str:
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"


def _rational_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), -1)
        if pivot_row < 0:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank_kernel(mat: Matrix) -> tuple[int, Matrix]:
    """Rank and a right-kernel basis (rows of the returned matrix).

    Each call runs one elimination.  Over F_p the rank is the number of
    columns less the kernel's dimension.  Over Z rank and kernel both come
    from the Smith form; the kernel basis is saturated (primitive integer
    vectors spanning the full rational kernel lattice), read off the
    Smith-form witness V.
    """
    ring = mat.ring
    if mat.nrows == 0 or mat.ncols == 0:
        return 0, Matrix.identity(ring, mat.ncols)
    if isinstance(ring, IntegerRing):
        sf = smith_normal_form(mat)
        r = sf.rank
        basis = [tuple(sf.right.entries[i][j] for i in range(mat.ncols)) for j in range(r, mat.ncols)]
        return r, Matrix(ZZ, tuple(basis), mat.ncols - r, mat.ncols)
    if ring.kind == "prime":
        basis = fp.fp_kernel([list(r) for r in mat.entries], ring.p)
        kern = Matrix.from_rows(ring, basis) if basis else Matrix.zeros(ring, 0, mat.ncols)
        return mat.ncols - len(basis), kern
    rref, pivots = _rational_rref([list(r) for r in mat.entries])
    pivot_set = set(pivots)
    free_cols = [c for c in range(mat.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * mat.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    kern = Matrix.from_rows(ring, basis) if basis else Matrix.zeros(ring, 0, mat.ncols)
    return len(pivots), kern


def sparse_rank(ring: Ring, rows: Iterable[Mapping[int, object]]) -> tuple[int, tuple[int, ...]]:
    """Rank of a sparse matrix and, over Z, its invariant factors above 1.

    ``rows`` gives each row as a {column: entry} mapping of its nonzero
    entries in ``ring``; nothing is formed but ranks.  Each pivot (r, c)
    subtracts multiples of row r from every other row that meets column c,
    then drops row r and column c (a Schur complement).  Pivots are taken in
    short rows first, each in its column with the fewest rows, to keep
    fill-in low.

    Over F_p (arithmetic mod p) and Q any nonzero entry may pivot, and the
    rank is the number of pivots.  Over Q an integral entry goes in as an
    ``int``, a pivot of +-1 is its own inverse and any other pivot is
    inverted as ``1 / Fraction(pivot)``: a matrix of integers with unit
    pivots, such as an untwisted Salvetti complex, is eliminated in ints,
    and every value is the same exact number as in Fraction arithmetic.
    Over Z
    only an entry of +-1 may: those steps are unimodular and keep the
    invariant factors, so what no unit pivot reaches goes to
    :func:`smith_normal_form`, and the rank is the unit pivots plus the rank
    of that remainder (Dumas, Saunders and Villard, *On efficient sparse
    integer matrix Smith normal form computations*, J. Symb. Comput. 32,
    2001).  Over a field the returned factors are always ``()``.
    """
    integral = isinstance(ring, IntegerRing)
    p = ring.p if not integral and ring.kind == "prime" else None
    active: dict[int, dict] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if p:
            row = {j: x % p for j, x in row.items() if x % p}
        else:  # an integral Fraction goes in as an int
            row = {j: x.numerator if x.denominator == 1 else x for j, x in row.items() if x}
        if row:
            active[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    rank = 0
    progress = True
    while progress and active:
        progress = False
        for i in sorted(active, key=lambda i: len(active[i])):
            row = active.get(i)
            if row is None:
                continue
            eligible = [j for j, x in row.items() if x == 1 or x == -1] if integral else row
            if not eligible:
                continue
            c = min(eligible, key=lambda j: len(cols[j]))
            del active[i]
            for j in row:
                cols[j].discard(i)
            pivot = row[c]
            if p:
                inverse = pow(pivot, -1, p)
            elif pivot == 1 or pivot == -1:
                inverse = pivot  # its own inverse, and every unit pivot over Z
            else:
                inverse = 1 / Fraction(pivot)
            rest = [(j, x) for j, x in row.items() if j != c]
            for t in cols.pop(c):
                target = active[t]
                f = target.pop(c) * inverse
                for j, x in rest:
                    y = target.get(j, 0) - f * x
                    if p:
                        y %= p
                    if y:
                        if j not in target:
                            cols[j].add(t)
                        target[j] = y
                    elif j in target:
                        del target[j]
                        cols[j].discard(t)
                if not target:
                    del active[t]
            rank += 1
            progress = True
    if not active:
        return rank, ()
    used = sorted({j for row in active.values() for j in row})
    sf = smith_normal_form(Matrix.from_rows(ZZ, [[row.get(j, 0) for j in used] for row in active.values()]))
    return rank + sf.rank, sf.nontrivial


@dataclass(frozen=True)
class SmithForm:
    """Smith normal form D = U A V with unimodular witnesses.

    ``divisors`` is the full diagonal of D (length min(nrows, ncols)),
    nonnegative, each dividing the next among the nonzero entries.
    """

    left: Matrix
    right: Matrix
    divisors: tuple[int, ...]
    nrows: int
    ncols: int

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)

    def diagonal_matrix(self) -> Matrix:
        rows = [[self.divisors[i] if i == j and i < len(self.divisors) else 0
                 for j in range(self.ncols)] for i in range(self.nrows)]
        return Matrix.from_rows(ZZ, rows)


def smith_normal_form(mat: Matrix) -> SmithForm:
    """Exact Smith normal form over Z with verified unimodular witnesses.

    Pivots are chosen by minimal absolute value to tame coefficient growth.
    Raises InternalError if the witness check U A V == D fails.
    """
    if not isinstance(mat.ring, IntegerRing):
        raise TypeError("smith_normal_form expects a matrix over ZZ")
    m, n = mat.nrows, mat.ncols
    a = [list(row) for row in mat.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    det_u = 1
    det_v = 1

    def swap_rows(i, j):
        nonlocal det_u
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            det_u = -det_u

    def swap_cols(i, j):
        nonlocal det_v
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
            det_v = -det_v

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        nonlocal det_u
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        det_u = -det_u

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate minimal-absolute-value nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        # clear column and row; pivot may need refreshing when remainders appear
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every entry of the trailing block
        violation = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    violation = i
                    break
            if violation is not None:
                break
        if violation is not None:
            add_row(violation, t, 1)
            continue
        t += 1

    divisors = tuple(a[i][i] for i in range(limit))
    if abs(det_u) != 1 or abs(det_v) != 1:
        raise InternalError("unimodularity lost")  # pragma: no cover - defensive
    left = Matrix.from_rows(ZZ, u)
    right = Matrix.from_rows(ZZ, v)
    sf = SmithForm(left=left, right=right, divisors=divisors, nrows=m, ncols=n)
    check = left.mul(mat).mul(right)
    if check.entries != sf.diagonal_matrix().entries:
        raise InternalError("smith form witness check failed")  # pragma: no cover
    for i in range(len(divisors) - 1):
        if divisors[i] and divisors[i + 1] % (divisors[i] or 1) != 0:
            raise InternalError("divisibility chain broken")  # pragma: no cover
        if divisors[i] == 0 and divisors[i + 1] != 0:
            raise InternalError("zero divisor out of order")  # pragma: no cover
    return sf
