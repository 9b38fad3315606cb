"""Unions of coordinate subtori indexed by a simplicial complex.

A simplicial complex L on a vertex set V selects, inside the |V|-torus,
the union of the coordinate subtori spanned by the faces of L.  That
space has dimension dim L + 1; its cohomology twisted by one unit weight
per circle factor is computed by a tiny cochain complex whose basis is
the faces of L, with coboundary coefficients (q_v - 1).

Two independent descriptions of the answer live here: the direct cochain
computation, and a support page assembled from the reduced cohomology of
face links.  When the complex is Cohen-Macaulay over the coefficient
field and every weight is a nontrivial unit, the page collapses onto the
top antidiagonal and the two computations must agree; ``verify_cm_theorem``
samples random weights and checks exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from arrcoh.cochain import CochainComplexData, CohomologyReport, complex_cohomology, make_complex
from arrcoh.covers import CoverDescription, E2Support, build_nerve, support_certificate
from arrcoh.linalg import GF, FieldTag, is_prime
from arrcoh.poset import from_leq
from arrcoh.simplicial import (
    CMVerdict,
    SimplicialComplex,
    face_coboundaries,
    is_cohen_macaulay,
    link,
    reduced_cohomology,
)

__all__ = [
    "ToricComplex",
    "ToricRankOneSystem",
    "twisted_cochain",
    "toric_cohomology",
    "cover_nerve",
    "toric_e2_page",
    "verify_cm_theorem",
    "ToricCmReport",
]


@dataclass(frozen=True)
class ToricComplex:
    """The union of coordinate subtori picked out by the faces of ``base``."""

    base: SimplicialComplex

    @property
    def space_dim(self) -> int:
        """Top dimension of the space: largest face cardinality."""
        return self.base.dim + 1

    @classmethod
    def from_json(cls, obj: Mapping) -> "ToricComplex":
        try:
            return cls(SimplicialComplex.from_facets(obj["vertices"], obj["facets"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad complex JSON: {exc}") from exc

    def to_json(self) -> dict:
        return self.base.to_json()


@dataclass(frozen=True)
class ToricRankOneSystem:
    """One unit weight per vertex circle."""

    field: FieldTag
    weights: Mapping

    def is_trivial_on(self, face: Iterable) -> bool:
        one = self.field.one
        return all(self.weights[v] == one for v in face)

    @classmethod
    def from_mapping(cls, field: FieldTag, tc: ToricComplex, by_vertex: Mapping) -> "ToricRankOneSystem":
        weights = {}
        for v in tc.base.vertices:
            if v not in by_vertex:
                raise ValueError(f"missing weight for vertex {v!r}")
            w = field.normalize(by_vertex[v])
            if field.is_zero(w):
                raise ValueError(f"weight at vertex {v!r} must be nonzero")
            weights[v] = w
        return cls(field, weights)

    @classmethod
    def from_json(cls, tc: ToricComplex, obj: Mapping) -> "ToricRankOneSystem":
        try:
            field = FieldTag.from_json(obj["field"])
            q = obj["q"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad weights JSON: {exc}") from exc
        by_name = {str(v): v for v in tc.base.vertices}
        mapped = {}
        for name, val in q.items():
            if name not in by_name:
                raise ValueError(f"weight for unknown vertex {name!r}")
            mapped[by_name[name]] = val
        return cls.from_mapping(field, tc, mapped)

    def to_json(self, tc: ToricComplex) -> dict:
        return {
            "field": self.field.to_json(),
            "q": {str(v): self.field.format_scalar(self.weights[v]) for v in tc.base.vertices},
        }


def twisted_cochain(tc: ToricComplex, sys: ToricRankOneSystem) -> CochainComplexData:
    """Cochain complex on the faces of the indexing complex.

    Degree k has basis the faces of cardinality k (the empty face sits in
    degree 0); extending a face by a vertex contributes the usual
    alternating sign times (q_v - 1).  This is the augmented simplicial
    complex shifted up one degree, with q_v - 1 in place of 1.  At trivial
    weights the coboundary is identically zero, so every Betti number is a
    face count.
    """
    counts, rows = face_coboundaries(tc.base, lambda v: sys.weights[v] - 1)
    return make_complex(sys.field, dict(enumerate(counts)), dict(enumerate(rows)))


def toric_cohomology(tc: ToricComplex, sys: ToricRankOneSystem) -> CohomologyReport:
    return complex_cohomology(twisted_cochain(tc, sys))


def cover_nerve(tc: ToricComplex) -> CoverDescription:
    """Cover of the space by the subtori of the facets.

    Nerve elements are facet subsets whose faces share a vertex; the
    shared face is both the intersection key and the target of phi, so
    fibers carry constant keys and validation certifies the homotopy
    condition (each intersection piece is itself a subtorus).
    """
    facets = tc.base.facets()
    nerve, keys = build_nerve({f: frozenset(f) for f in facets})
    images = sorted(set(keys.values()), key=lambda s: (-len(s), tuple(sorted(map(str, s)))))
    poset = from_leq(images, lambda x, y: x >= y)
    rho = {x: -len(x) for x in images}
    phi = dict(keys)
    return CoverDescription(nerve, poset, rho, phi, keys=keys)


def toric_e2_page(tc: ToricComplex, sys: ToricRankOneSystem) -> E2Support:
    """Exact support page from face links.

    A face with any nontrivial weight contributes nothing (a nontrivial
    unit on a rank-one module has no invariants); a face with all weights
    trivial contributes the reduced cohomology of its link, reindexed so
    its column is twice the face cardinality.  Everything above the space
    dimension is cut.
    """
    L = tc.base
    field = sys.field
    entries: dict[tuple[int, int], int] = {}
    for tau in L.all_faces():
        if not sys.is_trivial_on(tau):
            continue
        lk = link(L, tau)
        report = reduced_cohomology(lk, field)
        for i in range(-1, lk.dim + 1):
            h = report.betti(i)
            if h:
                p = i + 1 - len(tau)
                q = 2 * len(tau)
                entries[(p, q)] = entries.get((p, q), 0) + h
    notes = (f"ambient bound {tc.space_dim}: the space is a union of {tc.space_dim}-tori and smaller",)
    return support_certificate(entries, ambient_bound=tc.space_dim, notes=notes)


@dataclass(frozen=True)
class ToricCmReport:
    """Outcome of randomized agreement checks between the direct cochain
    computation and the link-based support page."""

    cm: CMVerdict
    space_dim: int
    prime: int
    seed: int
    trials: tuple[dict, ...]
    ok: bool

    def to_json(self) -> dict:
        return {
            "cohen_macaulay": self.cm.to_json(),
            "space_dim": self.space_dim,
            "prime": self.prime,
            "seed": self.seed,
            "trials": list(self.trials),
            "ok": self.ok,
        }


def verify_cm_theorem(tc: ToricComplex, p: int, trials: int = 25, seed: int = 0) -> ToricCmReport:
    """Sample weight systems with every weight a nontrivial unit mod p.

    If the complex is Cohen-Macaulay over F_p, each sample must have its
    support page concentrated on the top antidiagonal and the direct
    cohomology must be concentrated there too, with equal total dimension.
    If it is not Cohen-Macaulay, samples are only recorded.  Any violation
    of the concentration or agreement checks makes ``ok`` false.  At least
    one trial is required: a verdict needs a sample.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if p - 1 < trials + 1:
        raise ValueError(f"field F_{p} too small: need at least {trials + 1} units")
    field = GF(p)
    L = tc.base
    cm = is_cohen_macaulay(L, field)
    top = tc.space_dim
    rng = random.Random(seed)
    out = []
    ok = True
    for _ in range(trials):
        q = {v: rng.randrange(2, p) for v in L.vertices}
        sys = ToricRankOneSystem.from_mapping(field, tc, q)
        report = toric_cohomology(tc, sys)
        page = toric_e2_page(tc, sys)
        betti = {k: report.betti(k) for k in range(0, top + 1) if report.betti(k)}
        trial = {
            "q": {str(v): q[v] for v in L.vertices},
            "betti": {str(k): v for k, v in sorted(betti.items())},
            "page_lines": page.lines(),
        }
        if cm.ok:
            page_ok = page.total_vanishing or page.concentration == top
            degrees_ok = all(k == top for k in betti)
            agree = sum(betti.values()) == (page.dim_on_line(top) or 0)
            trial["concentrated"] = bool(page_ok and degrees_ok)
            trial["agree"] = bool(agree)
            if not (page_ok and degrees_ok and agree):
                ok = False
        out.append(trial)
    return ToricCmReport(cm, top, p, seed, tuple(out), ok)
