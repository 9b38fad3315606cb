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
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from arrcoh.linalg import QQ, ZZ, InternalError, Matrix, RankOneSystem, json_array, sparse_rank

if TYPE_CHECKING:
    from arrcoh.covers import E2Support
    from arrcoh.simplicial import SimplicialComplex

__all__ = [
    "MAX_AMBIENT_DIM",
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "intersection_lattice",
    "poincare_and_beta",
    "connected_flats",
    "minimal_building_set",
    "maximal_building_set",
    "nested_complex",
    "VanishingVerdict",
    "vanishing_check",
    "depth_bound",
    "e2_certificate",
]

# flats carry n x n kernel bases, so the work grows with n even at rank 1
MAX_AMBIENT_DIM = 64


class Arrangement:
    """Finitely many linear hyperplanes ker(f_i) through the origin of C^n.

    ``normals`` holds one row per hyperplane.  Rows must be nonzero and
    pairwise non-proportional (each hyperplane listed once).  The instance
    dict holds the cached properties and the lattice that
    :func:`intersection_lattice` keeps.
    """

    def __init__(self, n: int, normals: Matrix, labels: tuple[str, ...]) -> None:
        self.n, self.normals, self.labels = n, normals, labels
        if n < 0:
            raise ValueError(f"ambient dimension must be nonnegative, got {n}")
        if normals.ncols != n:
            raise ValueError(f"normals have {normals.ncols} columns, ambient dimension is {n}")
        if len(labels) != normals.nrows:
            raise ValueError("one label per hyperplane required")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate hyperplane labels")
        for i, row in enumerate(normals.entries):
            if all(x == 0 for x in row):
                raise ValueError(f"hyperplane {labels[i]!r} has zero normal")
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
        rows = list(rows)
        if labels is None:
            labels = [f"H{i + 1}" for i in range(len(rows))]
        mat = Matrix.from_rows(QQ, rows) if rows else Matrix.zeros(QQ, 0, n)
        return cls(n, mat, tuple(labels))

    @property
    def m(self) -> int:
        return self.normals.nrows

    @cached_property
    def rank(self) -> int:
        return _rank(self.integral_normals)

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
        # the pivots of the reduced form are the columns that raise the rank
        # of the columns before them; in reduced form, the coordinate of a
        # row along basis vector j is just its entry at the j-th pivot column
        pivots: list[int] = []
        for c in range(self.n):
            if len(pivots) == self.rank:
                break
            if _rank([[row[j] for j in pivots + [c]] for row in self.integral_normals]) > len(pivots):
                pivots.append(c)
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
            hyps = json_array(obj["hyperplanes"], "hyperplanes")
            rows = [json_array(h["normal"], "normal") for h in hyps]
            labels = [str(h["label"]) for h in hyps]
            return cls.from_rows(n, rows, labels)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad arrangement JSON: {exc}") from exc

    def __repr__(self) -> str:
        return f"Arrangement(n={self.n}, m={self.m})"


def _rank(rows: Iterable[Sequence[int]]) -> int:
    return sparse_rank(QQ, ({j: x for j, x in enumerate(row) if x} for row in rows))[0]


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


class Flat:
    """A lattice element: the subspace cut out by a closed set of hyperplanes."""

    __slots__ = ("closed_set", "rank", "kernel_basis")

    def __init__(self, closed_set: tuple[int, ...], rank: int, kernel_basis: tuple[tuple[int, ...], ...]) -> None:
        self.closed_set = closed_set
        self.rank = rank  # codimension of the subspace
        # integer rows spanning the subspace over Q, each with gcd 1: the unit
        # vectors for the bottom flat, cut by one integer restriction per cover
        # above it (see intersection_lattice)
        self.kernel_basis = kernel_basis

    def __repr__(self) -> str:
        return f"Flat({list(self.closed_set)}, rank={self.rank})"


class IntersectionLattice:
    """Flats ordered by inclusion of closed sets (= reverse inclusion of
    subspaces), ranked by codimension.  ``elements`` lists the closed-set
    tuples by (rank, closed set), the empty one first; ``flats`` holds the
    full data per element, and ``lower_covers`` the kept cover relations:
    the flats each flat covers.  The order is kept only as those covers.
    Its ``labels`` are the arrangement's: a reference back would be a cycle."""

    def __init__(self, labels: tuple[str, ...], elements: tuple, flats: Mapping, lower_covers: Mapping) -> None:
        self.labels, self.elements, self.flats, self.lower_covers = labels, elements, flats, lower_covers

    @property
    def top(self) -> tuple[int, ...]:
        return tuple(range(len(self.labels)))

    @cached_property
    def below(self) -> dict:
        """The interval [bottom, X] of every flat X: X and the intervals of
        its lower covers, which come before it in element order."""
        below: dict = {}
        for cs in self.elements:
            below[cs] = frozenset((cs,)).union(*(below[y] for y in self.lower_covers[cs]))
        return below

    @cached_property
    def moebius(self) -> dict:
        """mu(bottom, X) for every flat X: 1 at the bottom, else minus the
        sum over the rest of [bottom, X]."""
        below, mu = self.below, {(): 1}
        for cs in self.elements[1:]:
            mu[cs] = -sum(mu[y] for y in below[cs] if y != cs)
        return mu

    def to_json(self) -> dict:
        """The flats in element order, and the kept cover pairs [lower,
        upper], sorted by that order of the lower, then the upper."""
        labels, elements = self.labels, self.elements
        index = {cs: i for i, cs in enumerate(elements)}
        pairs = sorted((index[y], index[z]) for z, ys in self.lower_covers.items() for y in ys)
        return {
            "flats": [
                {
                    "hyperplanes": [labels[i] for i in cs],
                    "rank": self.flats[cs].rank,
                }
                for cs in elements
            ],
            "covers": [[[labels[i] for i in elements[y]], [labels[i] for i in elements[z]]] for y, z in pairs],
        }


def intersection_lattice(a: Arrangement, max_flats: int | None = None) -> IntersectionLattice:
    """Enumerate all flats bottom-up, with their cover relations; raise a
    ValueError past ``max_flats`` flats when a limit is given.

    The lattice is built once per arrangement and kept on it; a later call
    returns the kept lattice, or raises the same ValueError when it has
    more than that call's ``max_flats`` flats.

    The flats covering X are the subspaces X cut by one more hyperplane.
    Restricted to X (dotted with the rows of X's kernel basis), each
    hyperplane not in X gives a nonzero integer functional r, and two
    hyperplanes cut X in the same subspace exactly when their functionals
    are proportional; so each projective class of restrictions adds one
    cover, already closed.  The cover's rank is X's rank + 1, and its
    kernel basis is cut from X's by r in integers (:func:`_restrict`), so
    no flat is eliminated from scratch and no fraction is formed.  Every
    cover pair is found this way, once, and kept in ``lower_covers``.
    """
    lat = getattr(a, "_lattice", None)
    if lat is not None:
        if max_flats is not None and len(lat.flats) > max_flats:
            raise ValueError(_past_limit(max_flats))
        return lat
    identity = tuple(tuple(int(i == j) for j in range(a.n)) for i in range(a.n))
    seen: dict[tuple[int, ...], Flat] = {(): Flat((), 0, identity)}
    lower: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}
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
                if bigger not in seen:
                    if len(seen) == max_flats:
                        raise ValueError(_past_limit(max_flats))
                    seen[bigger] = Flat(bigger, flat.rank + 1, _restrict(flat.kernel_basis, r))
                    nxt.add(bigger)
                lower.setdefault(bigger, []).append(cs)
        frontier = sorted(nxt)
    elements = tuple(sorted(seen, key=lambda cs: (seen[cs].rank, cs)))
    lat = IntersectionLattice(a.labels, elements, seen, lower)
    a._lattice = lat
    return lat


def _past_limit(max_flats: int) -> str:
    return f"the lattice stops at {max_flats} flats; this arrangement has more"


def _restrict(basis: tuple[tuple[int, ...], ...], r: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A basis of the vectors in the span of ``basis`` on which the
    functional taking the values r on it vanishes: with p the first index
    where r_p != 0, the vectors r_p b_i - r_i b_p for i != p, each divided
    by the gcd of its entries.

    >>> _restrict(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 2, -3))
    ((1, 0, 0), (0, 3, 2))

    The vectors span the kernel over Q, but not always over Z:

    >>> _restrict(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (2, 1, 1))
    ((-1, 2, 0), (-1, 0, 2))

    These span an index-2 sublattice of the integer kernel, which holds
    (0, 1, -1).  Linear flats need only the rational span; a walk over
    torus flats would have to saturate.
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


def poincare_and_beta(a: Arrangement) -> tuple[list[int], int]:
    """Poincare polynomial (ascending coefficients) and the beta invariant.

    pi(t) sums |mu(bottom, X)| t^rank(X) over all flats; beta is pi/(1+t)
    evaluated at -1, reported with the sign as computed.  beta != 0 exactly
    when the arrangement is irreducible.

    >>> poincare_and_beta(Arrangement.from_rows(2, [[1, 0], [0, 1], [1, 1]]))
    ([1, 3, 2], -1)
    """
    if a.m == 0:
        raise ValueError("empty arrangement has no Poincare polynomial")
    lat = intersection_lattice(a)
    return _pi_beta_from_mu(lat.flats, lat.moebius, lat.elements)


def _pi_beta_from_mu(flats: Mapping[tuple[int, ...], Flat], mu: Mapping, interval: Sequence) -> tuple[list[int], int]:
    """pi and beta of an interval [bottom, X], given by its closed sets."""
    pi = [0] * (max(flats[cs].rank for cs in interval) + 1)
    for cs in interval:
        pi[flats[cs].rank] += abs(mu[cs])
    if _poly_eval(pi, -1) != 0:
        raise InternalError(f"Poincare polynomial {pi} does not vanish at -1")
    # pi = (1 + t) q gives pi'(-1) = q(-1)
    return pi, -sum(k * c * (-1) ** k for k, c in enumerate(pi))


def connected_flats(a: Arrangement) -> list[Flat]:
    """Flats X of positive rank whose localized arrangement is irreducible
    (beta of the interval [bottom, X] is nonzero).  Hyperplanes always
    qualify."""
    lat = intersection_lattice(a)
    return [
        lat.flats[cs]
        for cs in lat.elements
        if lat.flats[cs].rank and _pi_beta_from_mu(lat.flats, lat.moebius, lat.below[cs])[1]
    ]


def minimal_building_set(a: Arrangement) -> tuple[tuple[int, ...], ...]:
    """The connected flats, as closed sets."""
    return tuple(f.closed_set for f in connected_flats(a))


def maximal_building_set(a: Arrangement) -> tuple[tuple[int, ...], ...]:
    """Every flat of positive rank, as closed sets."""
    lat = intersection_lattice(a)
    return tuple(cs for cs in lat.elements if lat.flats[cs].rank >= 1)


def nested_complex(a: Arrangement, g: Sequence[tuple[int, ...]]) -> SimplicialComplex:
    """The nested-set complex on the building set g, closed sets of flats,
    minus the top flat.

    A subset S is nested when every antichain in S of size >= 2 has its
    join (the smallest flat containing the union) outside g.  For the
    maximal building set every join lies in g, so nested sets degenerate
    to chains.  A candidate is tested only once all its proper subsets
    are faces; their antichains have passed already, so the one antichain
    left to check is the candidate itself.
    """
    from arrcoh.simplicial import SimplicialComplex

    if a.m == 0:
        raise ValueError("empty arrangement has no nested-set complex")
    if not a.is_essential:
        raise ValueError("nested complexes require an essential arrangement")
    lat = intersection_lattice(a)
    # the top flat always blocks antichain joins, member or not: in the
    # projectivized picture its divisor is the ambient space itself, so a
    # family of divisors joining to it can never meet
    members = set(g) | {lat.top}
    vertices = sorted((cs for cs in g if cs != lat.top), key=lambda cs: (lat.flats[cs].rank, cs))
    faces: set[frozenset] = {frozenset()}
    frontier: list[frozenset] = [frozenset()]
    while frontier:
        new: list[frozenset] = []
        for face in frontier:
            for v in vertices:
                cand = face | {v}
                if cand not in faces and all(cand - {u} in faces for u in cand) and _is_nested(lat.flats, members, cand):
                    faces.add(cand)
                    new.append(cand)
        frontier = new
    out = SimplicialComplex.from_facets(vertices, [tuple(f) for f in faces])
    if out.dim > a.n - 2:
        raise InternalError("nested complex exceeds its dimension bound")
    return out


def _is_nested(flats: Mapping[tuple[int, ...], Flat], members: set, S: frozenset) -> bool:
    """Is S nested, given that all its proper subsets are?"""
    if len(S) < 2 or any(set(x) < set(y) for x in S for y in S):
        return True
    union = set().union(*S)
    join = min((cs for cs in flats if union.issubset(cs)), key=len)
    return join not in members


class VanishingVerdict(NamedTuple):
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


def vanishing_check(a: Arrangement, sys: RankOneSystem, *, include_top: bool = False) -> VanishingVerdict:
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
    top = intersection_lattice(a).top
    one = sys.field.one
    failing = []
    for flat in connected_flats(a):
        if flat.closed_set == top and not include_top:
            continue
        if sys.weight_product(flat.closed_set) == one:
            failing.append(flat.closed_set)
    holds = not failing
    if include_top:
        return VanishingVerdict(holds, tuple(failing), a.rank, None)
    _, beta = poincare_and_beta(a)
    return VanishingVerdict(holds, tuple(failing), a.rank - 1, abs(beta) if holds else None)


def depth_bound(a: Arrangement, g: Sequence[tuple[int, ...]], sys: RankOneSystem) -> int:
    """Largest cardinality of a nested set all of whose flats have trivial
    monodromy (the empty set always qualifies, so the bound is >= 0).
    A positive bound certifies nonvanishing below the top degree."""
    nc = nested_complex(a, g)
    one = sys.field.one
    best = 0
    for k in range(1, nc.dim + 2):
        for face in nc.faces_of_card(k):
            if all(sys.weight_product(cs) == one for cs in face):
                best = max(best, k)
                break
    return best


def e2_certificate(a: Arrangement, g: Sequence[tuple[int, ...]], sys: RankOneSystem) -> E2Support:
    """Support certificate for the nested-set spectral sequence.

    Per nested set S the coefficient row is torus cohomology: {0} for the
    empty set; degrees |S|..2|S| when every flat in S has trivial
    monodromy; empty otherwise (a unit acting on a one-dimensional module
    kills all invariants).  The base column combines the lower bound for
    compactly supported cohomology of a Stein piece with its real
    dimension.  Entries above total degree rank-1 are cut by the ambient
    homotopy dimension; concentration is declared when one line survives.
    """
    from arrcoh.covers import e2_support

    if not a.is_essential:
        raise ValueError("certificates require an essential arrangement")
    n = a.rank
    # nested sets ordered by reverse inclusion, ranked by minus cardinality;
    # the complex is closed under subsets, so dropping one flat gives a cover
    faces = [tuple(sorted(f)) for f in nested_complex(a, g).all_faces()]
    rho = {S: -len(S) for S in faces}
    covers = [(S, S[:i] + S[i + 1 :]) for S in faces for i in range(len(S))]
    one = sys.field.one
    data = {}
    for S in faces:
        k = len(S)
        if k == 0:
            coeff: Iterable[int] = (0,)
        elif all(sys.weight_product(cs) == one for cs in S):
            coeff = range(k, 2 * k + 1)
        else:
            coeff = ()
        base = range(n - 1 - k, 2 * (n - 1) - k + 1)
        data[S] = (coeff, base)
    notes = (
        f"ambient bound {n - 1}: the complement is Stein of dimension {n - 1}",
        "base supports: compactly supported cohomology of each stratum piece "
        "vanishes below its complex dimension and above its real dimension",
    )
    return e2_support(rho, covers, data, ambient_bound=n - 1, notes=notes)
