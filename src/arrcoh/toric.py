"""Unions of coordinate subtori indexed by a simplicial complex.

A simplicial complex L on a vertex set V selects, inside the |V|-torus,
the union of the coordinate subtori spanned by the faces of L.  That
space has dimension dim L + 1.  Its cohomology twisted by one unit weight
per circle factor, a :class:`~arrcoh.linalg.RankOneSystem` (the type the
arrangements use) keyed by the vertices as ``ToricComplex.labels``, is
computed by a tiny cochain complex whose basis is the faces of L, with
coboundary coefficients (q_v - 1): the face coboundaries of L, checked
once (:func:`~arrcoh.simplicial.face_coboundaries`, a
:class:`~arrcoh.cochain.Coboundaries`), specialized at each weight system.

Two independent descriptions of the answer live here: the direct cochain
computation, and a support page assembled from the reduced cohomology of
face links restricted to the vertices of nontrivial weight.  When the
complex is Cohen-Macaulay over the coefficient field and every weight is a
nontrivial unit, the page collapses onto the top antidiagonal and the two
computations must agree; ``verify_cm_theorem`` samples random weights and
checks exactly that.  Both key their link tables by the face masks of
:class:`~arrcoh.simplicial.SimplicialComplex`.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Mapping, NamedTuple

from arrcoh.cochain import CochainComplexData, CohomologyReport, complex_cohomology
from arrcoh.linalg import GF, RankOneSystem, is_prime, json_array
from arrcoh.simplicial import (
    CMVerdict,
    SimplicialComplex,
    _cm_verdict,
    _link_reports,
    face_coboundaries,
    link_cohomology,
)

if TYPE_CHECKING:
    from arrcoh.covers import E2Support

__all__ = [
    "ToricComplex",
    "twisted_cochain",
    "toric_cohomology",
    "toric_e2_page",
    "verify_cm_theorem",
    "ToricCmReport",
]


class ToricComplex:
    """The union of coordinate subtori picked out by the faces of ``base``."""

    __slots__ = ("base",)

    def __init__(self, base: SimplicialComplex) -> None:
        self.base = base

    @property
    def labels(self) -> tuple:
        """The vertices: one circle factor, and one weight, each."""
        return self.base.vertices

    @property
    def space_dim(self) -> int:
        """Top dimension of the space: largest face cardinality."""
        return self.base.dim + 1

    @classmethod
    def from_json(cls, obj: Mapping) -> "ToricComplex":
        """The complex ``{"vertices": [...], "facets": [[...], ...]}``; JSON
        weights name a vertex by its ``str``, so two vertices may not share one."""
        try:
            facets = [json_array(f, "facet") for f in json_array(obj["facets"], "facets")]
            base = SimplicialComplex.from_facets(json_array(obj["vertices"], "vertices"), facets)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad complex JSON: {exc}") from exc
        names: dict = {}
        for v in base.vertices:
            if names.setdefault(str(v), v) is not v:
                raise ValueError(f"vertices {names[str(v)]!r} and {v!r} have the same name {str(v)!r}")
        return cls(base)

    def to_json(self) -> dict:
        return self.base.to_json()


def twisted_cochain(tc: ToricComplex, sys: RankOneSystem) -> CochainComplexData:
    """Cochain complex on the faces of the indexing complex.

    Degree k has basis the faces of cardinality k (the empty face sits in
    degree 0); extending a face by a vertex contributes the usual
    alternating sign times (q_v - 1).  This is the augmented simplicial
    complex shifted up one degree, with q_v - 1 in place of 1.  At trivial
    weights the coboundary is identically zero, so every Betti number is a
    face count.
    """
    return face_coboundaries(tc.base).specialize(sys.field, [w - 1 for w in sys.weights])


def toric_cohomology(tc: ToricComplex, sys: RankOneSystem) -> CohomologyReport:
    return complex_cohomology(twisted_cochain(tc, sys))


def toric_e2_page(tc: ToricComplex, sys: RankOneSystem) -> E2Support:
    """Exact support page from restricted face links.

    Let T be the vertices of weight 1 and U the others.  A face with any
    nontrivial weight contributes nothing (a nontrivial unit on a rank-one
    module has no invariants); a face sigma inside T contributes the
    reduced cohomology of its link restricted to U, (lk sigma)|_U,
    reindexed so its column is twice the face cardinality.  Each line
    p + q = k then sums to the exact Betti number b_k, by
    b_k = sum over sigma in L inside T of dim H~^{k-1-|sigma|}((lk sigma)|_U)
    (Papadima-Suciu, Toric complexes and Artin kernels, Adv. Math. 220,
    2009), so every concentration the page claims is true.

    One sweep over the faces, as bitmasks, builds every restricted link: a
    face g lies in that of g & T, as g - T, and the faces of each arrive by
    cardinality, as :func:`~arrcoh.simplicial._link_reports` reads them.
    """
    from arrcoh.covers import support_certificate

    trivial = sum(1 << i for i, w in enumerate(sys.weights) if w == sys.field.one)
    links: dict[int, list[int]] = {}
    for g in itertools.chain.from_iterable(tc.base.levels):
        links.setdefault(g & trivial, []).append(g & ~trivial)
    return support_certificate(*_support_page(tc, _link_reports(sys.field, links)))


def _support_page(tc: ToricComplex, table: Mapping) -> tuple[dict, int, tuple[str]]:
    """The support page read from link cohomology, as the arguments of
    :func:`~arrcoh.covers.support_certificate`.

    ``table`` maps the mask of each face whose weights are all 1, in face
    order, to the reduced cohomology of its link restricted to the other
    vertices.
    """
    entries: dict[tuple[int, int], int] = {}
    for tau, report in table.items():
        q = 2 * tau.bit_count()
        for i, h in report.free_ranks.items():
            if h:
                p = i + 1 - tau.bit_count()
                entries[(p, q)] = entries.get((p, q), 0) + h
    note = f"ambient bound {tc.space_dim}: the space is a union of {tc.space_dim}-tori and smaller"
    return entries, tc.space_dim, (note,)


class ToricCmReport(NamedTuple):
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

    The reduced cohomology of every face link over F_p is computed once,
    in one :func:`~arrcoh.simplicial.link_cohomology` table; the
    Cohen-Macaulay verdict and the one support page all trials share are
    read from it.  So are the face coboundaries, which each trial specializes.

    Weights are drawn from 2..p-1, so no vertex is trivial: scaled face by
    face by the product of its q_v - 1, each trial's complex is the base's
    augmented cochain complex shifted up one degree.  So the trials re-check
    that twisted specialization, never a page with a trivial vertex.
    """
    from arrcoh.covers import support_certificate

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if p - 1 < trials + 1:
        raise ValueError(f"field F_{p} too small: need at least {trials + 1} units")
    field = GF(p)
    L = tc.base
    table = link_cohomology(L, field)
    cm = _cm_verdict(L, field, table)
    faces = face_coboundaries(L)
    top = tc.space_dim
    # no weight is 1, so every trial reads the same page: the link of the empty face
    page = support_certificate(*_support_page(tc, {0: table[0]}))
    rng = random.Random(seed)
    out = []
    ok = True
    for _ in range(trials):
        sys = RankOneSystem(field, tuple(rng.randrange(2, p) for _ in L.vertices))
        report = complex_cohomology(faces.specialize(field, [w - 1 for w in sys.weights]))
        betti = {k: report.betti(k) for k in range(0, top + 1) if report.betti(k)}
        trial = {
            "q": {str(v): w for v, w in zip(L.vertices, sys.weights)},
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
