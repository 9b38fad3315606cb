"""Exact linear algebra over Q, F_p and Z.

Everything here is exact: rationals are :class:`fractions.Fraction`, prime
field elements are ints in ``[0, p)``, integers are ints.  No floats are
ever produced or accepted.  Dense matrices carry kernels, from the one
dense row reduction of :mod:`arrcoh.fp` over F_p and Q, and Smith
witnesses over Z; :func:`sparse_rank` is the rank-only elimination that cochain
complexes use, one routine for all three rings, which over Q keeps
integral values as ints and forms a Fraction only where a pivot is not
+-1.  :class:`RankOneSystem` is a rank-one local system over a field, one
type for every space arrcoh twists: hyperplane arrangements, elliptic
arrangements and toric complexes, each keyed by its ``labels``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from arrcoh import fp

__all__ = [
    "FieldTag",
    "QQ",
    "GF",
    "RankOneSystem",
    "ZZ",
    "IntegerRing",
    "Matrix",
    "rank_kernel",
    "sparse_rank",
    "parse_fraction",
    "json_array",
    "SmithForm",
    "smith_normal_form",
    "is_prime",
    "InternalError",
]


class InternalError(Exception):
    """A failed internal invariant: a bug in arrcoh, never bad input, and
    so not a ValueError (the CLI exits 3 on it, 2 on bad input)."""


# Miller-Rabin to the prime bases 2..41 decides every n below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017); the bases 2..37 alone pass
# composites past 3.2e23.  Above the bound no base set here is proven.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below ``_MR_BOUND`` (about 3.3e24);
    raises ValueError for any larger n rather than guess."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: primality is decided only below {_MR_BOUND}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def json_array(value, name: str):
    """``value``, where JSON input puts the array ``name``: a string or an
    object there is refused rather than read one character or one key at a
    time.  Scalars may still be strings, such as ``"1/2"``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be an array, got {value!r}")
    return value


class FieldTag:
    """A coefficient field: the rationals or a prime field F_p.  Equal
    fields compare and hash equal, so ``ring == QQ`` holds for any copy."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind == "rational":
            if p is not None:
                raise ValueError("rational field takes no modulus")
        elif kind == "prime":
            if type(p) is not int or not is_prime(p):
                raise ValueError(f"modulus must be prime, got {p!r}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind, self.p = kind, p

    def __eq__(self, other):
        if other.__class__ is not FieldTag:
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

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
    def from_json(obj: Mapping) -> "FieldTag":
        if not isinstance(obj, Mapping):
            raise ValueError(f"field must be an object, got {obj!r}")
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


class RankOneSystem:
    """A rank-one local system: one unit weight per generator of first
    homology, the monodromy around it, in the order of ``space.labels``.

    One type serves every space: the meridians of a hyperplane arrangement
    or the rows of an elliptic one (one weight per hyperplane or row), the
    circle factors of a toric complex (one per vertex), and the 2n basis
    loops of a power of an elliptic curve (a character, read through
    :meth:`monomial`).
    """

    __slots__ = ("field", "weights")

    def __init__(self, field: FieldTag, weights: tuple) -> None:
        self.field, self.weights = field, tuple(field.normalize(w) for w in weights)
        for w in self.weights:
            if field.is_zero(w):
                raise ValueError("weights must be nonzero")

    def __eq__(self, other):
        if other.__class__ is not RankOneSystem:
            return NotImplemented
        return (self.field, self.weights) == (other.field, other.weights)

    def product(self):
        return self.weight_product(range(len(self.weights)))

    @property
    def is_projective(self) -> bool:
        return self.product() == self.field.one

    def weight_product(self, indices: Iterable[int]):
        acc = self.field.one
        for i in indices:
            acc = self.field.mul(acc, self.weights[i])
        return acc

    def monomial(self, exponents: Iterable[int]):
        """The product of the weights raised to ``exponents``, one integer
        per weight; a negative exponent takes the inverse."""
        p = self.field.p
        acc = self.field.one
        for w, e in zip(self.weights, exponents):
            if e:
                acc = acc * pow(w, e, p) % p if p else acc * w**e
        return acc

    @classmethod
    def from_mapping(cls, field: FieldTag, space, by_label: Mapping) -> "RankOneSystem":
        missing = [lab for lab in space.labels if lab not in by_label]
        if missing:
            raise ValueError(f"missing weights for {missing}")
        for lab in by_label:
            if lab not in space.labels:
                raise ValueError(f"weight for unknown label {lab!r}")
        return cls(field, tuple(by_label[lab] for lab in space.labels))

    @classmethod
    def from_json(cls, space, obj: Mapping) -> "RankOneSystem":
        """Weights ``{"field": ..., "q": {name: scalar}}``, each name the
        ``str`` of a label of ``space``."""
        try:
            field = FieldTag.from_json(obj["field"])
            q = obj["q"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad weights JSON: {exc}") from exc
        if not isinstance(q, Mapping):
            raise ValueError(f"weights q must map labels to scalars, got {q!r}")
        by_name = {str(lab): lab for lab in space.labels}
        return cls.from_mapping(field, space, {by_name.get(name, name): val for name, val in q.items()})

    def to_json(self, space) -> dict:
        return {
            "field": self.field.to_json(),
            "q": {str(lab): self.field.format_scalar(w) for lab, w in zip(space.labels, self.weights)},
        }


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


class Matrix:
    """Immutable exact matrix with an explicit coefficient ring."""

    __slots__ = ("ring", "entries", "nrows", "ncols")

    def __init__(self, ring: Ring, entries: tuple[tuple, ...], nrows: int, ncols: int) -> None:
        self.ring = ring
        self.entries = entries
        self.nrows = nrows
        self.ncols = ncols

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


def rank_kernel(mat: Matrix) -> tuple[int, Matrix]:
    """Rank and a right-kernel basis (rows of the returned matrix).

    Each call runs one elimination.  Over a field, F_p or Q, the kernel
    comes from the dense row reduction of :mod:`arrcoh.fp`, and the rank is
    the number of columns less the kernel's dimension.  Over Z rank and kernel both come
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
    basis = fp.fp_kernel([list(r) for r in mat.entries], ring.p)
    kern = Matrix.from_rows(ring, basis) if basis else Matrix.zeros(ring, 0, mat.ncols)
    return mat.ncols - len(basis), kern


def sparse_rank(ring: Ring, rows: Iterable[Mapping[int, object]]) -> tuple[int, tuple[int, ...]]:
    """Rank of a sparse matrix and, over Z, its invariant factors above 1.

    ``rows`` gives each row as a {column: entry} mapping of its nonzero
    entries in ``ring``; nothing is formed but ranks.  Each row in turn is
    reduced against the pivot rows found so far, in the order found (a
    pivot row is zero in earlier pivot columns, so no step refills a
    cleared column), and what is left becomes a pivot row, pivoting on its
    greatest column.  On face complexes, columns in ``faces_of_card``
    order, that drops a face's least vertex: the rows through the first
    vertex come first and pivot with no reduction, keeping fill-in low.

    Over F_p (arithmetic mod p) and Q any nonzero entry may pivot, and the
    rank is the number of pivot rows.  Over Q an integral entry goes in as
    an ``int``, a pivot of +-1 is its own inverse and any other pivot is
    inverted as ``1 / Fraction(pivot)``: a matrix of integers with unit
    pivots, such as an untwisted Salvetti complex, is eliminated in ints,
    and every value is the same exact number as in Fraction arithmetic.
    Over Z only an entry of +-1 may pivot, on the greatest such column: those
    steps are unimodular and keep the invariant factors.  A reduced row
    with no unit entry waits, and is reduced again after pivot rows that
    came later; what no unit pivot reaches goes to
    :func:`smith_normal_form`, and the rank is the unit pivots plus the rank
    of that remainder (Dumas, Saunders and Villard, *On efficient sparse
    integer matrix Smith normal form computations*, J. Symb. Comput. 32,
    2001).  Over a field the returned factors are always ``()``.
    """
    integral = isinstance(ring, IntegerRing)
    p = ring.p if not integral and ring.kind == "prime" else None
    if p:
        pending = [r for row in rows if (r := {j: x % p for j, x in row.items() if x % p})]
    else:  # an integral Fraction goes in as an int
        pending = [r for row in rows if (r := {j: x.numerator if x.denominator == 1 else x for j, x in row.items() if x})]
    # (pivot column, the rest of its row, the inverse of its pivot entry) in
    # the order found, and each pivot column's place in that order
    pivots: list[tuple[int, dict, object]] = []
    place: dict[int, int] = {}
    while True:
        found, waiting = len(pivots), []
        for row in pending:
            heap = [place[j] for j in row if j in place]
            heapify(heap)
            while heap:
                c, rest, inverse = pivots[heappop(heap)]
                if c not in row:  # cancelled by an earlier pivot row
                    continue
                f = row.pop(c) * inverse
                for j, x in rest.items():
                    y = row.get(j, 0) - f * x
                    if p:
                        y %= p
                    if y:
                        if j not in row and j in place:
                            heappush(heap, place[j])
                        row[j] = y
                    else:
                        del row[j]
            if not row:
                continue
            units = [j for j, x in row.items() if x == 1 or x == -1] if integral else row
            if not units:
                waiting.append(row)
                continue
            c = max(units)
            x = row.pop(c)
            place[c] = len(pivots)
            # +-1 is its own inverse, and every unit pivot over Z is +-1
            pivots.append((c, row, pow(x, -1, p) if p else x if x == 1 or x == -1 else 1 / Fraction(x)))
        if not waiting or len(pivots) == found:
            break
        pending = waiting
    if not waiting:
        return len(pivots), ()
    used = sorted({j for row in waiting for j in row})
    sf = smith_normal_form(Matrix.from_rows(ZZ, [[row.get(j, 0) for j in used] for row in waiting]))
    return len(pivots) + sf.rank, sf.nontrivial


class SmithForm:
    """Smith normal form D = U A V with unimodular witnesses.

    ``divisors`` is the full diagonal of D (length min(nrows, ncols)),
    nonnegative, each dividing the next among the nonzero entries.
    """

    __slots__ = ("left", "right", "divisors", "nrows", "ncols")

    def __init__(self, left: Matrix, right: Matrix, divisors: tuple[int, ...], nrows: int, ncols: int) -> None:
        self.left, self.right, self.divisors, self.nrows, self.ncols = left, right, divisors, nrows, ncols

    @property
    def rank(self) -> int:
        return sum(1 for d in self.divisors if d != 0)

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)


def smith_normal_form(mat: Matrix) -> SmithForm:
    """Exact Smith normal form over Z with verified unimodular witnesses.

    Pivots are chosen by minimal absolute value to tame coefficient growth.
    U and V are products of elementary steps, so unimodular by construction;
    every call checks U A V == D on plain int rows (:func:`_check_witness`,
    no Matrix product) and raises InternalError if it fails.
    """
    if not isinstance(mat.ring, IntegerRing):
        raise TypeError("smith_normal_form expects a matrix over ZZ")
    m, n = mat.nrows, mat.ncols
    a = [list(row) for row in mat.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

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
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
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
    _check_witness(mat.entries, u, v, divisors)
    for i in range(len(divisors) - 1):
        if divisors[i] and divisors[i + 1] % (divisors[i] or 1) != 0:
            raise InternalError("divisibility chain broken")  # pragma: no cover
        if divisors[i] == 0 and divisors[i + 1] != 0:
            raise InternalError("zero divisor out of order")  # pragma: no cover
    return SmithForm(Matrix(ZZ, tuple(map(tuple, u)), m, m), Matrix(ZZ, tuple(map(tuple, v)), n, n), divisors, m, n)


def _check_witness(rows: Sequence[Sequence[int]], u: list[list[int]], v: list[list[int]], divisors: tuple) -> None:
    """Raise InternalError unless U A V is the diagonal of ``divisors``: each
    row of U A is formed once, then each entry of (U A) V, all in ints."""
    a_cols, v_cols = list(zip(*rows)), list(zip(*v))
    for i, u_row in enumerate(u):
        ua = [sum(map(mul, u_row, col)) for col in a_cols]
        for j, col in enumerate(v_cols):
            if sum(map(mul, ua, col)) != (divisors[i] if i == j else 0):
                raise InternalError("smith form witness check failed")
