"""Central hyperplane arrangements over the rationals.

Everything is driven by the lattice of flats: a flat is stored as the
closed set of hyperplane indices whose normals lie in a common row span,
with an integer kernel basis cut from the flat below it, so lattice
construction is exact, fraction-free and runs identically on every machine.
On top of the lattice sit the Poincare polynomial and beta invariant,
connected (dense) flats, minimal/maximal building sets with their nested
complexes, and the rank-one weight predicates that feed the support
certificates in :mod:`arrcoh.covers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from arrcoh.covers import E2Support, LocalDatum, e2_support
from arrcoh.linalg import QQ, ZZ, FieldTag, InternalError, Matrix, _rational_rref, parse_fraction, rank_kernel
from arrcoh.poset import FinitePoset, from_relations, moebius_table
from arrcoh.simplicial import SimplicialComplex

__all__ = [
    "MAX_AMBIENT_DIM",
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "intersection_lattice",
    "poincare_and_beta",
    "connected_flats",
    "BuildingSetChoice",
    "minimal_building_set",
    "maximal_building_set",
    "nested_complex",
    "RankOneSystem",
    "flat_monodromy",
    "VanishingVerdict",
    "vanishing_check",
    "depth_bound",
    "e2_certificate",
]

# flats carry n x n kernel bases, so the work grows with n even at rank 1
MAX_AMBIENT_DIM = 64


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("refusing float input; pass int, Fraction or 'p/q' string")
    return parse_fraction(x)


@dataclass(frozen=True)
class Arrangement:
    """Finitely many linear hyperplanes ker(f_i) through the origin of C^n.

    ``normals`` holds one row per hyperplane.  Rows must be nonzero and
    pairwise non-proportional (each hyperplane listed once).
    """

    n: int
    normals: Matrix
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"ambient dimension must be nonnegative, got {self.n}")
        if self.normals.ncols != self.n:
            raise ValueError(f"normals have {self.normals.ncols} columns, ambient dimension is {self.n}")
        if len(self.labels) != self.normals.nrows:
            raise ValueError("one label per hyperplane required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate hyperplane labels")
        for i, row in enumerate(self.normals.entries):
            if all(x == 0 for x in row):
                raise ValueError(f"hyperplane {self.labels[i]!r} has zero normal")
        classes: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(self.integral_normals):
            classes.setdefault(_primitive(row), []).append(i)
        # classes are listed by first index, so the pair named is the first
        # (i, j) in lexicographic order with proportional normals
        for group in classes.values():
            if len(group) > 1:
                raise ValueError(f"hyperplanes {self.labels[group[0]]!r} and {self.labels[group[1]]!r} coincide")

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Sequence], labels: Sequence[str] | None = None) -> "Arrangement":
        rows = [[_as_fraction(x) for x in row] for row in rows]
        if labels is None:
            labels = [f"H{i + 1}" for i in range(len(rows))]
        mat = Matrix.from_rows(QQ, rows) if rows else Matrix.zeros(QQ, 0, n)
        return cls(n, mat, tuple(labels))

    @property
    def m(self) -> int:
        return self.normals.nrows

    @cached_property
    def rank(self) -> int:
        return rank_kernel(self.normals)[0]

    @cached_property
    def integral_normals(self) -> tuple[tuple[int, ...], ...]:
        """Each normal scaled by a positive integer to integer entries: the
        same hyperplanes, with the same positive sides."""
        return tuple(_integral(row) for row in self.normals.entries)

    @property
    def is_essential(self) -> bool:
        return self.rank == self.n

    def essentialize(self) -> "Arrangement":
        """The same lattice in coordinates spanned by the normals.

        Each normal is rewritten in terms of a reduced row basis of the row
        space, so the result lives in C^rank and has full rank there.  The
        flats and all lattice invariants are unchanged.
        """
        if self.m == 0:
            return Arrangement(0, Matrix.zeros(QQ, 0, 0), ())
        rref, pivots = _rational_rref([list(r) for r in self.normals.entries])
        # in reduced form, the coordinate of a row along basis vector j is
        # just its entry at the j-th pivot column
        new_rows = [[row[p] for p in pivots] for row in self.normals.entries]
        return Arrangement(len(pivots), Matrix.from_rows(QQ, new_rows), self.labels)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hyperplanes": [
                {"label": lab, "normal": [str(x) for x in self.normals.row(i)]}
                for i, lab in enumerate(self.labels)
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Arrangement":
        try:
            n = ZZ.normalize(obj["n"])
            if n > MAX_AMBIENT_DIM:
                raise ValueError(f"ambient dimension is capped at {MAX_AMBIENT_DIM}, got {n}")
            hyps = obj["hyperplanes"]
            rows = [[_as_fraction(x) for x in h["normal"]] for h in hyps]
            labels = [str(h["label"]) for h in hyps]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad arrangement JSON: {exc}") from exc
        return cls.from_rows(n, rows, labels)

    def __repr__(self) -> str:
        return f"Arrangement(n={self.n}, m={self.m})"


def _integral(row: Sequence[Fraction]) -> tuple[int, ...]:
    den = math.lcm(*(x.denominator for x in row))
    return tuple(int(x * den) for x in row)


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The projective class of a nonzero integer row: divided by the gcd of
    its entries, first nonzero entry positive."""
    g = math.gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


@dataclass(frozen=True)
class Flat:
    """A lattice element: the subspace cut out by a closed set of hyperplanes."""

    closed_set: tuple[int, ...]
    rank: int  # codimension of the subspace
    # integer rows spanning the subspace over Q, each with gcd 1: the unit
    # vectors for the bottom flat, cut by one integer restriction per cover
    # above it (see intersection_lattice)
    kernel_basis: tuple[tuple[int, ...], ...]

    def __repr__(self) -> str:
        return f"Flat({list(self.closed_set)}, rank={self.rank})"


@dataclass(frozen=True)
class IntersectionLattice:
    """Flats ordered by inclusion of closed sets (= reverse inclusion of
    subspaces), ranked by codimension.  Elements of ``poset`` are the
    closed-set tuples; ``flats`` holds the full data per element."""

    arrangement: Arrangement
    poset: FinitePoset
    flats: Mapping[tuple[int, ...], Flat]

    @property
    def bottom(self) -> tuple[int, ...]:
        return ()

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(range(self.arrangement.m))

    def to_json(self) -> dict:
        labels = self.arrangement.labels
        return {
            "flats": [
                {
                    "hyperplanes": [labels[i] for i in cs],
                    "rank": self.flats[cs].rank,
                }
                for cs in self.poset.elements
            ],
            "covers": [
                [[labels[i] for i in a], [labels[i] for i in b]] for a, b in self.poset.covers()
            ],
        }


def intersection_lattice(a: Arrangement, max_flats: int | None = None) -> IntersectionLattice:
    """Enumerate all flats bottom-up, with their cover relations; raise a
    ValueError past ``max_flats`` flats when a limit is given.

    The flats covering X are the subspaces X cut by one more hyperplane.
    Restricted to X (dotted with the rows of X's kernel basis), each
    hyperplane not in X gives a nonzero integer functional r, and two
    hyperplanes cut X in the same subspace exactly when their functionals
    are proportional; so each projective class of restrictions adds one
    cover, already closed.  The cover's rank is X's rank + 1, and its
    kernel basis is cut from X's by r in integers (:func:`_restrict`), so
    no flat is eliminated from scratch and no fraction is formed.
    """
    identity = tuple(tuple(int(i == j) for j in range(a.n)) for i in range(a.n))
    seen: dict[tuple[int, ...], Flat] = {(): Flat((), 0, identity)}
    relations: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    frontier = [()]
    while frontier:
        nxt: set[tuple[int, ...]] = set()
        for cs in frontier:
            flat = seen[cs]
            classes: dict[tuple[int, ...], list[int]] = {}
            have = set(cs)
            for h in range(a.m):
                if h not in have:
                    row = a.integral_normals[h]
                    r = [sum(x * y for x, y in zip(row, b)) for b in flat.kernel_basis]
                    classes.setdefault(_primitive(r), []).append(h)
            for r, group in classes.items():
                bigger = tuple(sorted(cs + tuple(group)))
                relations.append((cs, bigger))
                if bigger not in seen:
                    if len(seen) == max_flats:
                        raise ValueError(f"the lattice stops at {max_flats} flats; this arrangement has more")
                    seen[bigger] = Flat(bigger, flat.rank + 1, _restrict(flat.kernel_basis, r))
                    nxt.add(bigger)
        frontier = sorted(nxt)
    elements = sorted(seen, key=lambda cs: (seen[cs].rank, cs))
    return IntersectionLattice(a, from_relations(elements, relations), seen)


def _restrict(basis: tuple[tuple[int, ...], ...], r: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A basis of the vectors in the span of ``basis`` on which the
    functional taking the values r on it vanishes: with p the first index
    where r_p != 0, the vectors r_p b_i - r_i b_p for i != p, each divided
    by the gcd of its entries.

    >>> _restrict(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 2, -3))
    ((1, 0, 0), (0, 3, 2))
    """
    p = next(i for i, x in enumerate(r) if x)
    rp, bp = r[p], basis[p]
    out = []
    for i, (b, ri) in enumerate(zip(basis, r)):
        if i != p:
            v = [rp * x - ri * y for x, y in zip(b, bp)]
            g = math.gcd(*v)
            out.append(tuple(x // g for x in v))
    return tuple(out)


def _poly_eval(coeffs: Sequence[int], t: int) -> int:
    return sum(c * t**k for k, c in enumerate(coeffs))


def poincare_and_beta(a: Arrangement, lat: IntersectionLattice | None = None) -> tuple[list[int], int]:
    """Poincare polynomial (ascending coefficients) and the beta invariant.

    pi(t) sums |mu(bottom, X)| t^rank(X) over all flats; beta is pi/(1+t)
    evaluated at -1, reported with the sign as computed.  beta != 0 exactly
    when the arrangement is irreducible.

    >>> poincare_and_beta(Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]]))
    ([1, 3, 2], -1)
    """
    if a.m == 0:
        raise ValueError("empty arrangement has no Poincare polynomial")
    lat = lat or intersection_lattice(a)
    mu = moebius_table(lat.poset, lat.bottom)
    return _pi_beta_from_mu(lat, mu, lat.poset.elements)


def _pi_beta_from_mu(lat: IntersectionLattice, mu: Mapping, flats: Iterable[tuple[int, ...]]) -> tuple[list[int], int]:
    top_rank = max(lat.flats[cs].rank for cs in flats)
    pi = [0] * (top_rank + 1)
    for cs in flats:
        pi[lat.flats[cs].rank] += abs(mu[cs])
    if _poly_eval(pi, -1) != 0:
        raise InternalError(f"Poincare polynomial {pi} does not vanish at -1")
    # pi = (1 + t) q gives pi'(-1) = q(-1)
    return pi, -sum(k * c * (-1) ** k for k, c in enumerate(pi))


def connected_flats(a: Arrangement, lat: IntersectionLattice | None = None) -> list[Flat]:
    """Flats X of positive rank whose localized arrangement is irreducible
    (beta of the interval [bottom, X] is nonzero).  Hyperplanes always
    qualify."""
    lat = lat or intersection_lattice(a)
    mu = moebius_table(lat.poset, lat.bottom)
    out = []
    for cs in lat.poset.elements:
        if lat.flats[cs].rank == 0:
            continue
        below = lat.poset.down_set(cs)
        _, beta = _pi_beta_from_mu(lat, mu, below)
        if beta != 0:
            out.append(lat.flats[cs])
    return out


@dataclass(frozen=True)
class BuildingSetChoice:
    """A supported building set: the connected flats (minimal) or all of
    the positive-rank lattice (maximal), as closed-set tuples."""

    kind: str
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("minimal", "maximal"):
            raise ValueError(f"unsupported building set kind {self.kind!r}")


def minimal_building_set(a: Arrangement, lat: IntersectionLattice | None = None) -> BuildingSetChoice:
    lat = lat or intersection_lattice(a)
    members = tuple(f.closed_set for f in connected_flats(a, lat))
    return BuildingSetChoice("minimal", members)


def maximal_building_set(a: Arrangement, lat: IntersectionLattice | None = None) -> BuildingSetChoice:
    lat = lat or intersection_lattice(a)
    members = tuple(cs for cs in lat.poset.elements if lat.flats[cs].rank >= 1)
    return BuildingSetChoice("maximal", members)


def nested_complex(
    a: Arrangement,
    g: BuildingSetChoice,
    lat: IntersectionLattice | None = None,
) -> SimplicialComplex:
    """The nested-set complex on vertex set g minus the top flat.

    A subset S is nested when every antichain in S of size >= 2 has its
    join (the smallest flat containing the union) outside g.  For the
    maximal building set every join lies in g, so nested sets degenerate
    to chains.  A candidate is tested only once all its proper subsets
    are faces; their antichains have passed already, so the one antichain
    left to check is the candidate itself.
    """
    if a.m == 0:
        raise ValueError("empty arrangement has no nested-set complex")
    if not a.is_essential:
        raise ValueError("nested complexes require an essential arrangement")
    lat = lat or intersection_lattice(a)
    # the top flat always blocks antichain joins, member or not: in the
    # projectivized picture its divisor is the ambient space itself, so a
    # family of divisors joining to it can never meet
    members = set(g.members) | {lat.top}
    vertices = sorted((cs for cs in g.members if cs != lat.top), key=lambda cs: (lat.flats[cs].rank, cs))
    faces: set[frozenset] = {frozenset()}
    frontier: list[frozenset] = [frozenset()]
    while frontier:
        new: list[frozenset] = []
        for face in frontier:
            for v in vertices:
                if v in face:
                    continue
                cand = face | {v}
                if frozenset(cand) in faces:
                    continue
                if all(frozenset(cand) - {u} in faces for u in cand) and _is_nested(lat, members, cand):
                    faces.add(frozenset(cand))
                    new.append(frozenset(cand))
        frontier = new
    out = SimplicialComplex.from_facets(vertices, [tuple(f) for f in faces])
    if out.dim > a.n - 2:
        raise InternalError("nested complex exceeds its dimension bound")
    return out


def _is_nested(lat: IntersectionLattice, members: set, S: frozenset) -> bool:
    """Is S nested, given that all its proper subsets are?"""
    if len(S) < 2 or any(set(x) < set(y) for x in S for y in S):
        return True
    union = set().union(*S)
    join = min((cs for cs in lat.flats if union.issubset(cs)), key=len)
    return join not in members


@dataclass(frozen=True)
class RankOneSystem:
    """One unit weight per hyperplane: the monodromy of a rank-one system
    around each meridian, in arrangement row order.  The readers take the
    row labels from ``a.labels``, so an elliptic arrangement serves too."""

    field: FieldTag
    weights: tuple

    def __post_init__(self) -> None:
        normalized = tuple(self.field.normalize(w) for w in self.weights)
        object.__setattr__(self, "weights", normalized)
        for w in normalized:
            if self.field.is_zero(w):
                raise ValueError("weights must be nonzero")

    def product(self):
        acc = self.field.one
        for w in self.weights:
            acc = self.field.mul(acc, w)
        return acc

    @property
    def is_projective(self) -> bool:
        return self.product() == self.field.one

    def weight_product(self, indices: Iterable[int]):
        acc = self.field.one
        for i in indices:
            acc = self.field.mul(acc, self.weights[i])
        return acc

    @classmethod
    def from_mapping(cls, field: FieldTag, a: Arrangement, by_label: Mapping[str, object]) -> "RankOneSystem":
        missing = [lab for lab in a.labels if lab not in by_label]
        if missing:
            raise ValueError(f"missing weights for {missing}")
        for lab in by_label:
            if lab not in a.labels:
                raise ValueError(f"weight for unknown hyperplane {lab!r}")
        return cls(field, tuple(by_label[lab] for lab in a.labels))

    @classmethod
    def from_json(cls, a: Arrangement, obj: Mapping) -> "RankOneSystem":
        try:
            field = FieldTag.from_json(obj["field"])
            q = obj["q"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad weights JSON: {exc}") from exc
        return cls.from_mapping(field, a, q)

    def to_json(self, a: Arrangement) -> dict:
        return {
            "field": self.field.to_json(),
            "q": {lab: self.field.format_scalar(w) for lab, w in zip(a.labels, self.weights)},
        }


def flat_monodromy(sys: RankOneSystem, X: Flat | tuple[int, ...]):
    """Total monodromy around a flat: the product of the weights of the
    hyperplanes containing it."""
    cs = X.closed_set if isinstance(X, Flat) else tuple(X)
    return sys.weight_product(cs)


@dataclass(frozen=True)
class VanishingVerdict:
    holds: bool
    failing_flats: tuple[tuple[int, ...], ...]
    predicted_degree: int
    predicted_dim: int | None

    def to_json(self, a: Arrangement) -> dict:
        failing = [[a.labels[i] for i in cs] for cs in self.failing_flats]
        return {
            "holds": self.holds,
            "failing_flats": failing,
            "predicted_degree": self.predicted_degree,
            "predicted_dim": self.predicted_dim,
        }


def vanishing_check(
    a: Arrangement,
    sys: RankOneSystem,
    *,
    include_top: bool = False,
    lat: IntersectionLattice | None = None,
) -> VanishingVerdict:
    """Does every relevant connected flat have nontrivial monodromy?

    Default form: the system must be projective (total weight 1), the top
    flat is exempt (its monodromy is forced to 1 by projectivity), and a
    passing verdict predicts cohomology of the projectivized complement
    concentrated in degree rank-1 with dimension |beta|.

    ``include_top=True`` is the affine-complement variant: no projectivity
    constraint, the top flat is checked too, and the predicted degree is
    the rank.  This is the form consumed by the elliptic certificates.
    """
    if not a.is_essential:
        raise ValueError("vanishing check requires an essential arrangement")
    if a.m == 0 and not include_top:
        raise ValueError("empty arrangement has no projectivized complement")
    if not include_top and not sys.is_projective:
        raise ValueError("projective system required (total weight 1)")
    lat = lat or intersection_lattice(a)
    one = sys.field.one
    failing = []
    for flat in connected_flats(a, lat):
        if flat.closed_set == lat.top and not include_top:
            continue
        if flat_monodromy(sys, flat) == one:
            failing.append(flat.closed_set)
    holds = not failing
    if include_top:
        return VanishingVerdict(holds, tuple(failing), a.rank, None)
    _, beta = poincare_and_beta(a, lat)
    return VanishingVerdict(holds, tuple(failing), a.rank - 1, abs(beta) if holds else None)


def depth_bound(
    a: Arrangement,
    g: BuildingSetChoice,
    sys: RankOneSystem,
    lat: IntersectionLattice | None = None,
) -> int:
    """Largest cardinality of a nested set all of whose flats have trivial
    monodromy (the empty set always qualifies, so the bound is >= 0).
    A positive bound certifies nonvanishing below the top degree."""
    lat = lat or intersection_lattice(a)
    nc = nested_complex(a, g, lat)
    one = sys.field.one
    best = 0
    for k in range(1, nc.dim + 2):
        for face in nc.faces_of_card(k):
            if all(flat_monodromy(sys, cs) == one for cs in face):
                best = max(best, k)
                break
    return best


def _nested_poset(nc: SimplicialComplex) -> tuple[list[tuple], FinitePoset, dict]:
    """Faces of the nested complex (including the empty face), ordered by
    reverse inclusion, ranked by minus cardinality."""
    faces = [tuple(sorted(f)) for f in nc.all_faces()]
    faces.sort(key=lambda f: (len(f), f))
    # the complex is closed under subsets: dropping one flat gives a cover
    covers = [(S, S[:i] + S[i + 1 :]) for S in faces for i in range(len(S))]
    poset = from_relations(faces, covers)
    rho = {f: -len(f) for f in faces}
    return faces, poset, rho


def e2_certificate(
    a: Arrangement,
    g: BuildingSetChoice,
    sys: RankOneSystem,
    lat: IntersectionLattice | None = None,
) -> E2Support:
    """Support certificate for the nested-set spectral sequence.

    Per nested set S the coefficient row is torus cohomology: {0} for the
    empty set; degrees |S|..2|S| when every flat in S has trivial
    monodromy; empty otherwise (a unit acting on a one-dimensional module
    kills all invariants).  The base column combines the lower bound for
    compactly supported cohomology of a Stein piece with its real
    dimension.  Entries above total degree rank-1 are cut by the ambient
    homotopy dimension; concentration is declared when one line survives.
    """
    if not a.is_essential:
        raise ValueError("certificates require an essential arrangement")
    lat = lat or intersection_lattice(a)
    n = a.rank
    nc = nested_complex(a, g, lat)
    faces, poset, rho = _nested_poset(nc)
    one = sys.field.one
    data = []
    for S in faces:
        k = len(S)
        if k == 0:
            coeff: Iterable[int] = (0,)
        elif all(flat_monodromy(sys, cs) == one for cs in S):
            coeff = range(k, 2 * k + 1)
        else:
            coeff = ()
        base = range(n - 1 - k, 2 * (n - 1) - k + 1)
        data.append(LocalDatum.of(S, coeff, base))
    notes = (
        f"ambient bound {n - 1}: the complement is Stein of dimension {n - 1}",
        "base supports: compactly supported cohomology of each stratum piece "
        "vanishes below its complex dimension and above its real dimension",
    )
    return e2_support(poset, rho, data, ambient_bound=n - 1, notes=notes)
