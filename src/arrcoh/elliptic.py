"""Arrangements of subgroup translates inside a power of an elliptic curve.

Each row of an integer matrix defines a hypersurface {x : sum_j a_ij x_j = t_i}
in the n-fold product of a fixed elliptic curve, with t_i a torsion point
(zero in the subgroup case).  Topologically the curve is modeled as
(R/Z)^2, so a point of the product carries two rational coordinate
vectors and the first homology of the product is Z^(2n).

Intersections of these hypersurfaces are finite disjoint unions of
subtorus cosets; components are counted and labeled through the Smith
normal form of the defining rows.  One walk over the row subsets takes
each subset's Smith form once.  Its witness V also gives the subset's
closure: the rows whose normals lie in the rational span of the subset's
rows.  Closures decide every question of linear dependence here: two
subsets span the same space exactly when their closures are equal, and
one span lies inside another exactly when the closures do.  The
components of one closure are disjoint cosets of one subtorus, so each is
named within its closure by a coset key (:func:`_coset_key`), and a
duplicate is a set lookup.  On
top of the strata sit the tangent arrangements (rational hyperplane
arrangements in C^n), the convenient predicate for characters of the
ambient product, and the spectral support certificate assembling
tangent-level vanishing checks into a concentration statement for the
arrangement complement.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from arrcoh.linalg import QQ, ZZ, FieldTag, Matrix, RankOneSystem, SmithForm, json_array, smith_normal_form, sparse_rank

if TYPE_CHECKING:
    from arrcoh.arrangement import Arrangement
    from arrcoh.covers import E2Support

__all__ = [
    "MAX_ROWS",
    "MAX_CANDIDATES",
    "MAX_FACTORS",
    "EllipticArrangement",
    "EllipticAnalysis",
    "analyze",
    "EllipticComponent",
    "components",
    "enumerate_strata",
    "ConvenientVerdict",
    "convenient_check",
    "elliptic_vanishing_certificate",
]

MAX_ROWS = 12
# candidate components, prod d_i^2 summed over the row subsets: each is
# enumerated and keyed, and the certificate tests every ordered pair of the
# strata they leave, so its work grows with the square of the strata
MAX_CANDIDATES = 256
# curve factors read from JSON: each subset's Smith witness V is n x n; at 16,
# 12 random rows take about 1.5 s in analyze and 2.2 s in convenient_check
MAX_FACTORS = 16


class EllipticArrangement:
    """Integer rows acting on the n-fold product of the curve; per-row
    translations are torsion labels (c, m) on the diagonal torsion copy,
    or None for the subgroup through the origin.  Arrangements with the
    same rows, translations and labels compare equal."""

    def __init__(self, n: int, rows: Matrix, translations: tuple, labels: tuple[str, ...]) -> None:
        self.n, self.rows, self.translations, self.labels = n, rows, translations, labels
        if n < 0:
            raise ValueError(f"the number of curve factors must be nonnegative, got {n}")
        if rows.ncols != n:
            raise ValueError(f"rows have {rows.ncols} columns, ambient has {n} factors")
        if len(labels) != rows.nrows or len(translations) != rows.nrows:
            raise ValueError("one label and one translation per row required")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        for i, row in enumerate(rows.entries):
            if all(x == 0 for x in row):
                raise ValueError(f"row {labels[i]!r} is zero")
        for i, t in enumerate(translations):
            if t is None:
                continue
            c, m = t
            if m < 1 or not (0 <= c < m):
                raise ValueError(f"translation {t!r} on row {labels[i]!r} is not a torsion label")

    def __eq__(self, other):
        if other.__class__ is not EllipticArrangement:
            return NotImplemented
        mine = (self.n, self.rows.entries, self.translations, self.labels)
        return mine == (other.n, other.rows.entries, other.translations, other.labels)

    @classmethod
    def from_rows(
        cls,
        n: int,
        rows: Iterable[Sequence[int]],
        translations: Sequence | None = None,
        labels: Sequence[str] | None = None,
    ) -> "EllipticArrangement":
        rows = [list(r) for r in rows]
        if translations is None:
            translations = [None] * len(rows)
        if labels is None:
            labels = [f"f{i + 1}" for i in range(len(rows))]
        return cls(n, Matrix.from_rows(ZZ, rows) if rows else Matrix.zeros(ZZ, 0, n), tuple(translations), tuple(labels))

    @property
    def m(self) -> int:
        return self.rows.nrows

    @cached_property
    def rank(self) -> int:
        return sparse_rank(QQ, ({j: x for j, x in enumerate(row) if x} for row in self.rows.entries))[0]

    @property
    def corank(self) -> int:
        return self.n - self.rank

    @property
    def is_essential(self) -> bool:
        return self.corank == 0

    @property
    def is_translated(self) -> bool:
        return any(t is not None for t in self.translations)

    def submatrix(self, I: Iterable[int]) -> Matrix:
        idx = sorted(set(I))  # the rows were normalized once, on the way in
        return Matrix(ZZ, tuple(self.rows.entries[i] for i in idx), len(idx), self.n)

    @classmethod
    def from_json(cls, obj: Mapping) -> "EllipticArrangement":
        try:
            n = ZZ.normalize(obj["n"])
            if n > MAX_FACTORS:
                raise ValueError(f"the ambient product is capped at {MAX_FACTORS} curve factors, got {n}")
            rows = [[ZZ.normalize(x) for x in json_array(r, "row")] for r in json_array(obj["rows"], "rows")]
            translations = [_parse_translation(t) for t in json_array(obj.get("translations", [0] * len(rows)), "translations")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad elliptic JSON: {exc}") from exc
        labels = [str(x) for x in json_array(obj["labels"], "labels")] if "labels" in obj else None
        return cls.from_rows(n, rows, translations, labels)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rows": self.rows.to_lists(),
            "translations": [0 if t is None else [t[0], t[1]] for t in self.translations],
            "labels": list(self.labels),
        }


def _parse_translation(t) -> tuple | None:
    """JSON translation: ``0`` for the subgroup through the origin, or
    ``[c, m]`` (integers) for the torsion point c/m; ``to_json`` writes the same."""
    if type(t) is int and t == 0:
        return None
    if isinstance(t, list) and len(t) == 2 and all(type(x) is int for x in t):
        return (t[0], t[1])
    raise ValueError(f"translation must be 0 or [c, m], got {t!r}")


def _subsets(a: EllipticArrangement) -> Iterator[tuple[tuple[int, ...], Matrix, SmithForm]]:
    """Every row subset I with its submatrix and Smith form, by size and
    then in ``itertools.combinations`` order: the one walk over all 2^m
    subsets."""
    if a.m > MAX_ROWS:
        raise ValueError(f"subset analysis capped at {MAX_ROWS} rows")
    for r in range(a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            sub = a.submatrix(I)
            yield I, sub, smith_normal_form(sub)


def _kernel(snf: SmithForm) -> list[tuple[int, ...]]:
    """Columns rank.. of the witness V: a saturated basis of the integer
    kernel of the rows behind the Smith form, which spans their kernel over Q."""
    return [tuple(row[j] for row in snf.right.entries) for j in range(snf.rank, snf.ncols)]


def _closure(a: EllipticArrangement, snf: SmithForm) -> frozenset[int]:
    """The closure of a row subset, given its Smith form: the rows h of
    ``a`` whose normal lies in the subset's rational span, that is, that
    vanish on the subset's kernel.

    >>> a = EllipticArrangement.from_rows(2, [[1, 0], [2, 0], [0, 1]])
    >>> sorted(_closure(a, smith_normal_form(a.submatrix([0]))))
    [0, 1]
    """
    kernel = _kernel(snf)
    return frozenset(
        h for h, row in enumerate(a.rows.entries) if all(sum(x * y for x, y in zip(row, v)) == 0 for v in kernel)
    )


class EllipticAnalysis(NamedTuple):
    corank: int
    essential: bool
    unimodular: bool
    homotopy_dim: int

    def to_json(self) -> dict:
        return {
            "corank": self.corank,
            "essential": self.essential,
            "unimodular": self.unimodular,
            "homotopy_dim": self.homotopy_dim,
        }


def analyze(a: EllipticArrangement) -> EllipticAnalysis:
    """Corank over Q, unimodularity over Z, and the homotopy dimension
    bound n + corank for the complement.

    Unimodular means every subset of rows spans a saturated sublattice
    (all elementary divisors 1), which makes every intersection connected.
    """
    unimodular = not any(snf.nontrivial for _, _, snf in _subsets(a))
    corank = a.corank
    return EllipticAnalysis(corank, corank == 0, unimodular, a.n + corank)


class EllipticComponent:
    """One connected component of the intersection of the rows in ``rows``.

    ``torsion_label`` picks the component out of the finite group
    prod (Z/d_i)^2: a pair of residue tuples, one per coordinate copy of
    the curve.  ``point`` is an exact representative, two rational vectors
    with entries in [0, 1)."""

    __slots__ = ("rows", "torsion_label", "dim", "point")

    def __init__(self, rows: tuple[int, ...], torsion_label: tuple, dim: int, point: tuple) -> None:
        self.rows, self.torsion_label, self.dim, self.point = rows, torsion_label, dim, point


def components(a: EllipticArrangement, I: Iterable[int]) -> list[EllipticComponent]:
    """All components of the intersection of the chosen rows, with exact
    representative points; the count is the squared product of the
    nonzero elementary divisors."""
    if a.is_translated:
        raise ValueError("component enumeration requires all translations zero")
    idx = tuple(sorted(set(I)))
    for i in idx:
        if not 0 <= i < a.m:
            raise ValueError(f"row index {i} out of range")
    return _components(a, idx, smith_normal_form(a.submatrix(idx)))


def _components(a: EllipticArrangement, idx: tuple[int, ...], snf: SmithForm) -> list[EllipticComponent]:
    """The components of the rows ``idx``, given their Smith form.  Label
    c names V . (c_1/d_1, ..., c_r/d_r, 0, ...) reduced into [0,1)^n, a
    solution in that torsion component, taken once in integers over d_r:
    one Fraction per residue mod d_r that occurs."""
    if not idx:
        zero = tuple(Fraction(0) for _ in range(a.n))
        return [EllipticComponent((), ((), ()), a.n, (zero, zero))]
    divisors = [d for d in snf.divisors if d != 0]
    top = divisors[-1]
    scale = [top // d for d in divisors]
    labels = list(itertools.product(*(range(d) for d in divisors)))
    weights = [[c * s for c, s in zip(label, scale)] for label in labels]
    residues = [tuple(sum(map(mul, row, w)) % top for row in snf.right.entries) for w in weights]
    fractions = {r: Fraction(r, top) for r in set().union(*residues)}
    points = [tuple(map(fractions.__getitem__, res)) for res in residues]
    dim = a.n - snf.rank
    return [
        EllipticComponent(idx, (c1, c2), dim, (u, w)) for c1, u in zip(labels, points) for c2, w in zip(labels, points)
    ]


def _in_kernel_plus_lattice(sub: Matrix, snf: SmithForm, z: Sequence[Fraction]) -> bool:
    """Is the rational vector z in ker_Q(rows) + Z^n?  Tested through the
    Smith witnesses: U.(A z) must be divisible coordinatewise by the
    elementary divisors (and vanish past the rank)."""
    az = [sum(sub.entries[i][j] * z[j] for j in range(sub.ncols)) for i in range(sub.nrows)]
    for i in range(sub.nrows):
        y = sum(snf.left.entries[i][k] * az[k] for k in range(sub.nrows))
        if i < len(snf.divisors) and snf.divisors[i] != 0:
            if y.denominator != 1 or y % snf.divisors[i] != 0:
                return False
        elif y != 0:
            return False
    return True


def _point_on_component(a: EllipticArrangement, X: "Stratum", point: tuple) -> bool:
    """Does the doubled rational point lie on the stratum?"""
    u, w = point
    zu = [x - y for x, y in zip(u, X.component.point[0])]
    zw = [x - y for x, y in zip(w, X.component.point[1])]
    return _in_kernel_plus_lattice(X.defining, X.snf, zu) and _in_kernel_plus_lattice(X.defining, X.snf, zw)


class Stratum:
    """A deduplicated intersection component together with its defining
    data: the first row subset that produced it, the Smith form used for
    membership tests, and the subset's closure (the rows whose normals lie
    in the rational span of the defining rows)."""

    __slots__ = ("component", "defining", "snf", "closure")

    def __init__(self, component: EllipticComponent, defining: Matrix, snf: SmithForm, closure: frozenset[int]) -> None:
        self.component, self.defining, self.snf, self.closure = component, defining, snf, closure

    @property
    def dim(self) -> int:
        return self.component.dim

    @property
    def key(self) -> tuple:
        return (self.component.rows, self.component.torsion_label)


def _coset_frame(sub: Matrix, snf: SmithForm) -> list[tuple[int, ...]]:
    """Rows 0..rank-1 of V^-1 for the Smith form D = U A V of the rows
    ``sub``: row i of U A is d_i times row i of V^-1, so each is an exact
    integer division.  A rational z lies in ker_Q(A) + Z^n exactly when
    these rows take integer values on z, since V^-1 is unimodular and maps
    ker_Q(A) onto the span of the coordinates rank.. ."""
    cols = list(zip(*sub.entries))
    return [
        tuple(sum(map(mul, u, col)) // d for col in cols)
        for u, d in zip(snf.left.entries, snf.divisors)
        if d
    ]


def _coset_key(frame: Sequence[tuple[int, ...]], point: tuple) -> tuple:
    """The coset of the doubled rational point modulo ker_Q(A) + Z^n, on
    both coordinate copies, where ``frame`` is :func:`_coset_frame` of the
    rows A: each frame row's value on the point, mod 1, as a reduced pair
    (numerator, denominator).  Values are formed in integers over the
    copy's common denominator.  ker_Q(A) depends only on A's rational row
    span, so two points on the components of subsets with one closure get
    equal keys under any one of those subsets' frames exactly when they
    lie on the same component.

    The row 2x in E has four components, x = 0 and x = 1/2 on each copy:

    >>> a = EllipticArrangement.from_rows(1, [[2]])
    >>> frame = _coset_frame(a.submatrix([0]), smith_normal_form(a.submatrix([0])))
    >>> zero, half = (Fraction(0),), (Fraction(1, 2),)
    >>> _coset_key(frame, (zero, zero)), _coset_key(frame, (half, zero))
    ((((0, 1),), ((0, 1),)), (((1, 2),), ((0, 1),)))
    """
    key = []
    for coords in point:
        q = math.lcm(*(x.denominator for x in coords))
        y = [x.numerator * (q // x.denominator) for x in coords]
        values = []
        for row in frame:
            t = sum(map(mul, row, y)) % q
            g = math.gcd(t, q)
            values.append((t // g, q // g))
        key.append(tuple(values))
    return tuple(key)


def enumerate_strata(a: EllipticArrangement) -> list[Stratum]:
    """Every component of every row-subset intersection, each listed once.

    Subsets are scanned by increasing size; a candidate component is new
    unless an already-seen stratum has the same closure (so the same
    rational row span) and the same coset key, taken under the frame of
    the closure's first subset.  Past ``MAX_CANDIDATES`` candidates,
    counted over the whole walk before any is keyed, it raises a
    ValueError.
    """
    if a.is_translated:
        raise ValueError("strata enumeration requires all translations zero")
    walk = list(_subsets(a))
    if sum(math.prod(d * d for d in snf.divisors if d) for _, _, snf in walk) > MAX_CANDIDATES:
        raise ValueError(f"strata enumeration stops at {MAX_CANDIDATES} candidate components; this arrangement has more")
    by_closure: dict[frozenset[int], tuple[list[tuple[int, ...]], set[tuple]]] = {}
    out: list[Stratum] = []
    for I, sub, snf in walk:
        closure = _closure(a, snf)
        if closure not in by_closure:
            by_closure[closure] = (_coset_frame(sub, snf), set())
        frame, seen = by_closure[closure]
        for comp in _components(a, I, snf):
            key = _coset_key(frame, comp.point)
            if key in seen:
                continue
            seen.add(key)
            out.append(Stratum(comp, sub, snf, closure))
    return out


def _stratum_contained(a: EllipticArrangement, X: Stratum, Y: Stratum) -> bool:
    """X subset of Y: Y's closure inside X's (Y's row span inside X's)
    and X's point on Y."""
    return Y.closure <= X.closure and _point_on_component(a, Y, X.component.point)


def _row_vanishes_at(a: EllipticArrangement, h: int, point: tuple) -> bool:
    """Does the hypersurface of row h pass through the doubled point?  A
    translation (c, m) is read as the diagonal torsion point (c/m, c/m)."""
    u, w = point
    row = a.rows.row(h)
    t = a.translations[h]
    offset = Fraction(t[0], t[1]) if t is not None else Fraction(0)
    for coords in (u, w):
        val = sum(r * x for r, x in zip(row, coords)) - offset
        if val.denominator != 1:
            return False
    return True


def _tangent_data(
    a: EllipticArrangement, X: EllipticComponent, closure: frozenset[int]
) -> tuple[Arrangement, list[list[int]]]:
    """Tangent directions at the component, with the row indices merged
    into each direction.

    A row is tangent-relevant when it lies in the closure of the
    component's defining rows and its hypersurface passes through the
    representative point.  Rows with proportional directions define the
    same tangent hyperplane, so they are merged; callers combine their
    weights multiplicatively (a small loop around the common tangent
    hyperplane winds once around each merged hypersurface branch).
    """
    from arrcoh.arrangement import Arrangement, _primitive

    groups: dict[tuple, list[int]] = {}
    for h in sorted(closure):
        if _row_vanishes_at(a, h, X.point):
            groups.setdefault(_primitive(a.rows.row(h)), []).append(h)
    directions = sorted(groups)
    arr = Arrangement.from_rows(a.n, [list(d) for d in directions], [f"t{k}" for k in range(len(directions))])
    return arr, [groups[d] for d in directions]


class ConvenientVerdict(NamedTuple):
    """Outcome of the positive-dimensional-strata character test."""

    holds: bool
    failures: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]
    vanishing_below: int | None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "failures": [
                {"rows": list(rows), "lattice_basis": [list(v) for v in basis]}
                for rows, basis in self.failures
            ],
            "vanishing_below": self.vanishing_below,
        }


def _interleave(vec: Sequence[int], copy: int) -> tuple[int, ...]:
    out = []
    for x in vec:
        pair = [0, 0]
        pair[copy] = x
        out.extend(pair)
    return tuple(out)


def convenient_check(a: EllipticArrangement, field: FieldTag, values: Sequence) -> ConvenientVerdict:
    """Is the character nontrivial on every positive-dimensional stratum?

    The character assigns a nonzero scalar to each of the 2n basis loops
    of the ambient product (two per curve factor, interleaved): a rank-one
    system on the loops, read on a lattice vector as a monomial.  Each
    stratum lattice is the saturated integer kernel of a row subset (the
    first subset of each closure, read off its Smith witness), doubled
    across the two coordinate copies; the test passes when some lattice
    basis vector has character value different from 1.  A passing verdict
    reports cohomology vanishing in all degrees up to n-1.
    """
    if a.is_translated:
        raise ValueError("the convenient test requires all translations zero")
    chi = RankOneSystem(field, tuple(values))
    if len(chi.weights) != 2 * a.n:
        raise ValueError(f"need {2 * a.n} character values, got {len(chi.weights)}")
    first: dict[frozenset[int], tuple[int, tuple[int, ...], SmithForm]] = {}
    for I, _, snf in _subsets(a):
        first.setdefault(_closure(a, snf), (snf.rank, I, snf))
    failures = []
    for rank, I, snf in sorted(first.values(), key=lambda t: t[:2]):
        if rank >= a.n:
            continue  # only finitely many points on these strata
        basis = [_interleave(v, copy) for v in _kernel(snf) for copy in (0, 1)]
        if all(chi.monomial(v) == field.one for v in basis):
            failures.append((I, tuple(basis)))
    holds = not failures
    return ConvenientVerdict(holds, tuple(failures), a.n - 1 if holds else None)


def elliptic_vanishing_certificate(a: EllipticArrangement, weights: RankOneSystem) -> E2Support:
    """Support certificate for the stratified spectral sequence of the
    arrangement complement.

    Per stratum X of dimension k, the coefficient column comes from the
    tangent arrangement complement (rank n-k).  When the tangent vanishing
    check passes and the tangent arrangement is nonempty, the column is
    concentrated in one degree but its dimension is forced to zero: the
    complement of a nonempty central arrangement splits off a punctured
    line, so its Euler characteristic vanishes, and a one-degree column
    with zero Euler characteristic is zero.  Such strata drop out.  The
    ambient stratum (empty tangent arrangement) always contributes its
    single column at n-2k = -n.  A failing check spreads the column over
    [-k, n-2k].  The base row is bounded by the Stein property of the
    stratum piece: offsets between k and 2k.  Entries above total degree
    n are cut by the ambient homotopy dimension; concentration at n is
    declared exactly when every tangent check passes.
    """
    from arrcoh.arrangement import vanishing_check
    from arrcoh.covers import e2_support

    if not a.is_essential:
        raise ValueError("certificates require an essential arrangement (corank 0)")
    if a.is_translated:
        raise ValueError("certificates require all translations zero")
    if len(weights.weights) != a.m:
        raise ValueError("one weight per row required")
    strata = enumerate_strata(a)
    keyed = {s.key: s for s in strata}
    keys = sorted(keyed)
    contained = [(x, y) for x in keys for y in keys if x != y and _stratum_contained(a, keyed[x], keyed[y])]
    rho = {k: keyed[k].dim for k in keyed}
    field = weights.field
    n = a.n
    data = {}
    all_pass = True
    for k in keys:
        X = keyed[k]
        arr, groups = _tangent_data(a, X.component, X.closure)
        merged = [weights.weight_product(rows_here) for rows_here in groups]
        ess = arr.essentialize()
        try:
            verdict = vanishing_check(ess, RankOneSystem(field, tuple(merged)), include_top=True)
            ok = verdict.holds
        except ValueError:
            # a merged weight can vanish in a prime field; treat as failing
            ok = False
        if not ok:
            all_pass = False
        kdim = X.dim
        if ok:
            # nonempty tangent arrangement + passing check: the single
            # surviving degree carries the Euler characteristic, which is 0
            coeff: Iterable[int] = () if ess.m >= 1 else (n - 2 * kdim,)
        else:
            coeff = range(-kdim, n - 2 * kdim + 1)
        base = range(kdim, 2 * kdim + 1)
        data[k] = (coeff, base)
    notes = [
        f"ambient bound {n}: the complement is Stein of dimension {n}",
        "weights act through tangent arrangements; characters of the complement "
        "not restricted from hypersurface meridians are out of scope",
    ]
    if all_pass:
        notes.append(
            f"single-degree conclusion: behaves as a duality space of dimension {n} "
            "for these coefficients"
        )
    return e2_support(rho, contained, data, ambient_bound=n, notes=tuple(notes))
