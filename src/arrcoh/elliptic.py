"""Arrangements of subgroup translates inside a power of an elliptic curve.

Each row of an integer matrix defines a hypersurface {x : sum_j a_ij x_j = t_i}
in the n-fold product of a fixed elliptic curve, with t_i a torsion point
(zero in the subgroup case).  Topologically the curve is modeled as
(R/Z)^2, so a point of the product carries two rational coordinate
vectors and the first homology of the product is Z^(2n).

Intersections of these hypersurfaces are finite disjoint unions of
subtorus cosets; components are counted and labeled through the Smith
normal form of the defining rows, deduplicated across defining subsets
by exact coset membership tests.  On top of the strata sit the tangent
arrangements (rational hyperplane arrangements in C^n), the convenient
predicate for characters of the ambient product, and the spectral
support certificate assembling tangent-level vanishing checks into a
concentration statement for the arrangement complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from arrcoh.arrangement import Arrangement, RankOneSystem, _in_span, vanishing_check
from arrcoh.covers import E2Support, LocalDatum, e2_support
from arrcoh.linalg import QQ, ZZ, FieldTag, Matrix, SmithForm, _rational_rref, rank_kernel, smith_normal_form
from arrcoh.poset import from_leq

__all__ = [
    "MAX_ROWS",
    "EllipticArrangement",
    "EllipticAnalysis",
    "analyze",
    "EllipticComponent",
    "components",
    "enumerate_strata",
    "tangent_arrangement",
    "ConvenientVerdict",
    "convenient_check",
    "elliptic_vanishing_certificate",
]

MAX_ROWS = 12


@dataclass(frozen=True)
class EllipticArrangement:
    """Integer rows acting on the n-fold product of the curve; per-row
    translations are torsion labels (c, m) on the diagonal torsion copy,
    or None for the subgroup through the origin."""

    n: int
    rows: Matrix
    translations: tuple
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.rows.ncols != self.n:
            raise ValueError(f"rows have {self.rows.ncols} columns, ambient has {self.n} factors")
        if len(self.labels) != self.rows.nrows or len(self.translations) != self.rows.nrows:
            raise ValueError("one label and one translation per row required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for i, row in enumerate(self.rows.entries):
            if all(x == 0 for x in row):
                raise ValueError(f"row {self.labels[i]!r} is zero")
        for i, t in enumerate(self.translations):
            if t is None:
                continue
            c, m = t
            if m < 1 or not (0 <= c < m):
                raise ValueError(f"translation {t!r} on row {self.labels[i]!r} is not a torsion label")

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
        return cls(n, Matrix.from_rows(ZZ, rows), tuple(translations), tuple(labels))

    @property
    def m(self) -> int:
        return self.rows.nrows

    @property
    def rank(self) -> int:
        return rank_kernel(self.rows)[0]

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
        idx = sorted(set(I))
        if not idx:
            return Matrix.zeros(ZZ, 0, self.n)
        return Matrix.from_rows(ZZ, [list(self.rows.row(i)) for i in idx])

    @classmethod
    def from_json(cls, obj: Mapping) -> "EllipticArrangement":
        try:
            n = ZZ.normalize(obj["n"])
            rows = [[ZZ.normalize(x) for x in r] for r in obj["rows"]]
            translations = [_parse_translation(t) for t in obj.get("translations", [0] * len(rows))]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad elliptic JSON: {exc}") from exc
        labels = [str(x) for x in obj["labels"]] if "labels" in obj else None
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


@dataclass(frozen=True)
class EllipticAnalysis:
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
    if a.m > MAX_ROWS:
        raise ValueError(f"subset analysis capped at {MAX_ROWS} rows")
    unimodular = True
    for r in range(1, a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            if smith_normal_form(a.submatrix(I)).nontrivial:
                unimodular = False
                break
        if not unimodular:
            break
    corank = a.corank
    return EllipticAnalysis(corank, corank == 0, unimodular, a.n + corank)


@dataclass(frozen=True)
class EllipticComponent:
    """One connected component of the intersection of the rows in ``rows``.

    ``torsion_label`` picks the component out of the finite group
    prod (Z/d_i)^2: a pair of residue tuples, one per coordinate copy of
    the curve.  ``point`` is an exact representative, two rational vectors
    with entries in [0, 1)."""

    rows: tuple[int, ...]
    torsion_label: tuple[tuple[int, ...], tuple[int, ...]]
    dim: int
    point: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "torsion_label": [list(self.torsion_label[0]), list(self.torsion_label[1])],
            "dim": self.dim,
            "point": [[str(x) for x in self.point[0]], [str(x) for x in self.point[1]]],
        }


def _label_point(snf: SmithForm, label: Sequence[int], n: int) -> tuple[Fraction, ...]:
    """V . (c_1/d_1, ..., c_r/d_r, 0, ...) reduced into [0,1)^n: a solution
    of the defining congruences in the torsion component named by label."""
    divisors = [d for d in snf.divisors if d != 0]
    z = [Fraction(c, d) for c, d in zip(label, divisors)] + [Fraction(0)] * (n - len(divisors))
    out = []
    for i in range(n):
        acc = sum(snf.right.entries[i][j] * z[j] for j in range(n))
        out.append(acc - (acc // 1))
    return tuple(out)


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
    sub = a.submatrix(idx)
    if not idx:
        zero = tuple(Fraction(0) for _ in range(a.n))
        return [EllipticComponent((), ((), ()), a.n, (zero, zero))]
    snf = smith_normal_form(sub)
    divisors = [d for d in snf.divisors if d != 0]
    dim = a.n - snf.rank
    out = []
    for c1 in itertools.product(*(range(d) for d in divisors)):
        u = _label_point(snf, c1, a.n)
        for c2 in itertools.product(*(range(d) for d in divisors)):
            w = _label_point(snf, c2, a.n)
            out.append(EllipticComponent(idx, (c1, c2), dim, (u, w)))
    return out


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


@dataclass(frozen=True)
class Stratum:
    """A deduplicated intersection component together with its defining
    data: the first row subset that produced it and the Smith form used
    for membership tests."""

    component: EllipticComponent
    defining: Matrix
    snf: SmithForm
    span_key: tuple  # canonical reduced basis of the row span over Q

    @property
    def dim(self) -> int:
        return self.component.dim

    @property
    def key(self) -> tuple:
        return (self.component.rows, self.component.torsion_label)


def _span_key(sub: Matrix) -> tuple:
    if sub.nrows == 0:
        return ()
    rref, pivots = _rational_rref([[Fraction(x) for x in row] for row in sub.entries])
    return tuple(tuple(r) for r in rref[: len(pivots)])


def enumerate_strata(a: EllipticArrangement) -> list[Stratum]:
    """Every component of every row-subset intersection, each listed once.

    Subsets are scanned by increasing size; a candidate component is new
    unless an already-seen stratum has the same rational row span and
    contains the candidate's representative point.
    """
    if a.is_translated:
        raise ValueError("strata enumeration requires all translations zero")
    if a.m > MAX_ROWS:
        raise ValueError(f"strata enumeration capped at {MAX_ROWS} rows")
    by_span: dict[tuple, list[Stratum]] = {}
    out: list[Stratum] = []
    for r in range(0, a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            sub = a.submatrix(I)
            snf = smith_normal_form(sub)
            span = _span_key(sub)
            bucket = by_span.setdefault(span, [])
            for comp in components(a, I):
                if any(_point_on_component(a, seen, comp.point) for seen in bucket):
                    continue
                stratum = Stratum(comp, sub, snf, span)
                bucket.append(stratum)
                out.append(stratum)
    return out


def _stratum_contained(a: EllipticArrangement, X: Stratum, Y: Stratum) -> bool:
    """X subset of Y: Y's span inside X's span and X's point on Y."""
    if not _span_subset(Y.span_key, X.span_key):
        return False
    return _point_on_component(a, Y, X.component.point)


def _span_subset(small: tuple, big: tuple) -> bool:
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in big]
    return all(_in_span(row, big, pivots) for row in small)


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


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in row:
        g = gcd(g, x)
    out = tuple(x // g for x in row)
    lead = next(x for x in out if x != 0)
    return out if lead > 0 else tuple(-x for x in out)


def _tangent_data(a: EllipticArrangement, X: EllipticComponent) -> tuple[Arrangement, list[list[int]]]:
    """Tangent directions at the component, with the row indices merged
    into each direction.

    A row is tangent-relevant when it lies in the rational span of the
    component's defining rows and its hypersurface passes through the
    representative point.  Rows with proportional directions define the
    same tangent hyperplane, so they are merged; callers combine their
    weights multiplicatively (a small loop around the common tangent
    hyperplane winds once around each merged hypersurface branch).
    """
    span = _span_key(a.submatrix(X.rows))
    groups: dict[tuple, list[int]] = {}
    for h in range(a.m):
        row_q = tuple(Fraction(x) for x in a.rows.row(h))
        if not _span_subset((row_q,), span):
            continue
        if not _row_vanishes_at(a, h, X.point):
            continue
        groups.setdefault(_primitive(a.rows.row(h)), []).append(h)
    directions = sorted(groups)
    if directions:
        arr = Arrangement.from_rows(a.n, [list(d) for d in directions], [f"t{k}" for k in range(len(directions))])
    else:
        arr = Arrangement(a.n, Matrix.zeros(QQ, 0, a.n), ())
    return arr, [groups[d] for d in directions]


def tangent_arrangement(a: EllipticArrangement, X: EllipticComponent) -> Arrangement:
    """The rational hyperplane arrangement tangent to the elliptic one
    at the component: one linear hyperplane in C^n per tangent direction
    of a hypersurface containing the component."""
    return _tangent_data(a, X)[0]


@dataclass(frozen=True)
class ConvenientVerdict:
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
    of the ambient product (two per curve factor, interleaved).  Each
    stratum lattice is the saturated integer kernel of a row subset,
    doubled across the two coordinate copies; the test passes when some
    lattice basis vector has character value different from 1.  A passing
    verdict reports cohomology vanishing in all degrees up to n-1.
    """
    if a.is_translated:
        raise ValueError("the convenient test requires all translations zero")
    if a.m > MAX_ROWS:
        raise ValueError(f"subset analysis capped at {MAX_ROWS} rows")
    vals = [field.normalize(v) for v in values]
    if len(vals) != 2 * a.n:
        raise ValueError(f"need {2 * a.n} character values, got {len(vals)}")
    if any(field.is_zero(v) for v in vals):
        raise ValueError("character values must be nonzero")

    def value_on(vec: Sequence[int]):
        acc = field.one
        for v, e in zip(vals, vec):
            if e == 0:
                continue
            base = v if e > 0 else field.inv(v)
            for _ in range(abs(e)):
                acc = field.mul(acc, base)
        return acc

    seen_spans: dict[tuple, tuple[int, ...]] = {}
    for r in range(0, a.m + 1):
        for I in itertools.combinations(range(a.m), r):
            sub = a.submatrix(I)
            span = _span_key(sub)
            if span not in seen_spans:
                seen_spans[span] = I
    failures = []
    for span, I in sorted(seen_spans.items(), key=lambda kv: (len(kv[0]), kv[1])):
        sub = a.submatrix(I)
        rank, kern = rank_kernel(sub)
        if rank >= a.n:
            continue  # only finitely many points on these strata
        basis = [
            _interleave([int(x) for x in row], copy)
            for row in kern.entries
            for copy in (0, 1)
        ]
        if all(value_on(v) == field.one for v in basis):
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
    if not a.is_essential:
        raise ValueError("certificates require an essential arrangement (corank 0)")
    if a.is_translated:
        raise ValueError("certificates require all translations zero")
    if len(weights.weights) != a.m:
        raise ValueError("one weight per row required")
    strata = enumerate_strata(a)
    keyed = {s.key: s for s in strata}
    poset = from_leq(sorted(keyed), lambda x, y: _stratum_contained(a, keyed[x], keyed[y]))
    rho = {k: keyed[k].dim for k in keyed}
    field = weights.field
    n = a.n
    data = []
    all_pass = True
    for k in sorted(keyed):
        X = keyed[k]
        arr, groups = _tangent_data(a, X.component)
        merged = []
        for rows_here in groups:
            acc = field.one
            for h in rows_here:
                acc = field.mul(acc, weights.weights[h])
            merged.append(acc)
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
        data.append(LocalDatum.of(k, coeff, base))
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
    return e2_support(poset, rho, data, ambient_bound=n, notes=tuple(notes))
