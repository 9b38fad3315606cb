"""Central hyperplane arrangements over the rationals.

Everything is driven by the lattice of flats: a flat is stored as the
closed set of hyperplane indices whose normals lie in a common row span,
so lattice construction is exact and runs identically on every machine.
On top of the lattice sit the Poincare polynomial and beta invariant,
connected (dense) flats, minimal/maximal building sets with their nested
complexes, and the rank-one weight predicates that feed the support
certificates in :mod:`arrcoh.covers`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from arrcoh.covers import CoverDescription, E2Support, LocalDatum, e2_support
from arrcoh.linalg import QQ, ZZ, FieldTag, Matrix, _rational_rref, parse_fraction, poly_div_exact, rank_kernel
from arrcoh.poset import FinitePoset, from_leq, moebius_table
from arrcoh.simplicial import SimplicialComplex

__all__ = [
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
    "nested_cover",
    "RankOneSystem",
    "flat_monodromy",
    "VanishingVerdict",
    "vanishing_check",
    "depth_bound",
    "e2_certificate",
]


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
        rows = self.normals.entries
        for i, row in enumerate(rows):
            if all(x == 0 for x in row):
                raise ValueError(f"hyperplane {self.labels[i]!r} has zero normal")
        for i, j in itertools.combinations(range(len(rows)), 2):
            if _proportional(rows[i], rows[j]):
                raise ValueError(f"hyperplanes {self.labels[i]!r} and {self.labels[j]!r} coincide")

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

    def closure(self, subset: Iterable[int]) -> tuple[int, ...]:
        """All hyperplane indices whose normal lies in the span of ``subset``."""
        idx = sorted(set(subset))
        if not idx:
            return ()
        rref, pivots = _rational_rref([list(self.normals.row(i)) for i in idx])
        basis = rref[: len(pivots)]
        out = []
        for h in range(self.m):
            if h in idx or _in_span(self.normals.row(h), basis, pivots):
                out.append(h)
        return tuple(sorted(out))

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
            hyps = obj["hyperplanes"]
            rows = [[_as_fraction(x) for x in h["normal"]] for h in hyps]
            labels = [str(h["label"]) for h in hyps]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad arrangement JSON: {exc}") from exc
        return cls.from_rows(n, rows, labels)

    def __repr__(self) -> str:
        return f"Arrangement(n={self.n}, m={self.m})"


def _proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    # both rows are nonzero here
    ratio = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if a != 0:
            r = b / a
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


def _in_span(row: Sequence[Fraction], basis: list[list[Fraction]], pivots: list[int]) -> bool:
    resid = list(row)
    for b, p in zip(basis, pivots):
        f = resid[p]
        if f != 0:
            resid = [x - f * y for x, y in zip(resid, b)]
    return all(x == 0 for x in resid)


@dataclass(frozen=True)
class Flat:
    """A lattice element: the subspace cut out by a closed set of hyperplanes."""

    closed_set: tuple[int, ...]
    rank: int  # codimension of the subspace
    kernel_basis: tuple[tuple[Fraction, ...], ...]  # rows spanning the subspace

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


def intersection_lattice(a: Arrangement) -> IntersectionLattice:
    """Enumerate all flats by iterated closure, bottom-up.

    Starting from the closure of the empty set, each flat is extended by
    one hyperplane at a time; the closures so reached are exactly the
    fixed points of the closure operator.
    """
    bottom = a.closure(())
    seen: dict[tuple[int, ...], Flat] = {}
    frontier = [bottom]
    seen[bottom] = _make_flat(a, bottom)
    while frontier:
        nxt: list[tuple[int, ...]] = []
        for cs in frontier:
            have = set(cs)
            for h in range(a.m):
                if h in have:
                    continue
                bigger = a.closure(have | {h})
                if bigger not in seen:
                    seen[bigger] = _make_flat(a, bigger)
                    nxt.append(bigger)
        frontier = sorted(set(nxt))
    elements = sorted(seen, key=lambda cs: (seen[cs].rank, cs))
    poset = from_leq(elements, lambda x, y: set(x) <= set(y))
    return IntersectionLattice(a, poset, seen)


def _make_flat(a: Arrangement, closed_set: tuple[int, ...]) -> Flat:
    if not closed_set:
        basis = tuple(tuple(Fraction(int(i == j)) for j in range(a.n)) for i in range(a.n))
        return Flat((), 0, basis)
    sub = Matrix.from_rows(QQ, [list(a.normals.row(i)) for i in closed_set])
    rk, kern = rank_kernel(sub)
    return Flat(closed_set, rk, tuple(tuple(row) for row in kern.entries))


def _poly_eval(coeffs: Sequence[int], t: int) -> int:
    return sum(c * t**k for k, c in enumerate(coeffs))


def poincare_and_beta(a: Arrangement, lat: IntersectionLattice | None = None) -> tuple[list[int], int]:
    """Poincare polynomial (ascending coefficients) and the beta invariant.

    pi(t) sums |mu(bottom, X)| t^rank(X) over all flats; beta is pi/(1+t)
    evaluated at -1, reported with the sign as computed.  beta != 0 exactly
    when the arrangement is irreducible.
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
    quotient = poly_div_exact(pi, [1, 1])
    return pi, _poly_eval(quotient, -1)


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
    join (closure of the union) outside g.  For the maximal building set
    every join lies in g, so nested sets degenerate to chains.
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
        raise AssertionError("nested complex exceeds its dimension bound")
    return out


def _is_nested(lat: IntersectionLattice, members: set, S: frozenset) -> bool:
    elems = sorted(S)
    for r in range(2, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if _is_antichain(lat, combo):
                join = lat.arrangement.closure(set().union(*combo))
                if join in members:
                    return False
    return True


def _is_antichain(lat: IntersectionLattice, combo: Sequence[tuple[int, ...]]) -> bool:
    for x, y in itertools.combinations(combo, 2):
        if set(x) <= set(y) or set(y) <= set(x):
            return False
    return True


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
    poset = from_leq(faces, lambda s, t: set(s) >= set(t))
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


def nested_cover(
    a: Arrangement,
    g: BuildingSetChoice,
    lat: IntersectionLattice | None = None,
) -> CoverDescription:
    """The cover description behind :func:`e2_certificate`.

    Cover sets are indexed by nested sets; two of them meet exactly when
    the nested sets are comparable, so the nerve consists of chains in the
    face poset, mapped by phi to their poset maximum.  No intersection
    keys are available (the sets are tubular neighborhoods, all distinct),
    so validation reports the homotopy condition as assumed.
    """
    lat = lat or intersection_lattice(a)
    nc = nested_complex(a, g, lat)
    faces, poset, rho = _nested_poset(nc)
    chains = [frozenset(c) for c in poset.chains()]
    nerve = from_leq(chains, lambda s, t: s <= t)
    # a chain's poset maximum is its inclusion-smallest nested set
    phi = {chain: max(chain, key=rho.get) for chain in chains}
    return CoverDescription(nerve, poset, rho, phi, keys=None)
