"""Combinatorial covers: nerves, validation, and E2 support bookkeeping.

A cover is described by its nerve (subsets of cover labels with nonempty
intersection, ordered by inclusion), a target poset P, a rank map rho on P
and an order-preserving map phi from the nerve onto P.  The homotopy
condition on unions over up-sets is not decidable from this data alone;
the validator certifies a set-level surrogate when intersection keys are
available and otherwise records the condition as an assumption.

The E2 engine deliberately works with *supports*, not modules: each datum
says in which degrees a local coefficient may be nonzero, and the engine
reports which bidegrees survive, plus a concentration line when there is
one.  It never claims nonvanishing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from arrcoh.poset import FinitePoset, validate_ranked

__all__ = [
    "build_nerve",
    "CoverDescription",
    "CoverVerdict",
    "validate_cover",
    "LocalDatum",
    "E2Support",
    "e2_support",
]


def build_nerve(sets: Mapping[Hashable, frozenset]) -> tuple[FinitePoset, dict]:
    """Nerve of a family of sets, with intersection keys.

    Returns (poset of label-subsets with nonempty intersection, ordered by
    inclusion; map from each nerve element to its intersection as a
    frozenset).  Label order follows the mapping's iteration order.
    """
    pools = {lab: frozenset(s) for lab, s in sets.items()}

    def intersection(subset: frozenset) -> frozenset | None:
        inter = None
        for lab in subset:
            inter = pools[lab] if inter is None else inter & pools[lab]
            if not inter:
                return None
        return inter

    return build_nerve_from_key(list(pools), intersection)


def build_nerve_from_key(labels: Sequence[Hashable], key) -> tuple[FinitePoset, dict]:
    """Nerve via a delegated intersection key: ``key(subset)`` returns a
    hashable key for nonempty intersections and None for empty ones."""
    elements: list[frozenset] = []
    keys: dict[frozenset, Hashable] = {}
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            k = key(frozenset(combo))
            if k is not None:
                s = frozenset(combo)
                elements.append(s)
                keys[s] = k
    relations = [(a, b) for a in elements for b in elements if a < b]
    return FinitePoset(elements, relations), keys


@dataclass(frozen=True)
class CoverDescription:
    """A candidate combinatorial cover: nerve, poset, rank map, and phi."""

    nerve: FinitePoset
    poset: FinitePoset
    rho: Mapping
    phi: Mapping
    keys: Mapping | None = None


@dataclass(frozen=True)
class CoverVerdict:
    valid: bool
    failures: tuple = ()
    condition2: str = "assumed"  # "certified" when keys witness the surrogate
    assumptions: tuple = ()

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "failures": [[code, [str(w) for w in wit]] for code, wit in self.failures],
            "condition2": self.condition2,
            "assumptions": list(self.assumptions),
        }


def validate_cover(cover: CoverDescription) -> CoverVerdict:
    """Check the decidable cover conditions; see the module docstring.

    Hard checks: phi total, order-preserving and surjective; rho an
    order-preserving rank with antichain fibers; equal intersection keys on
    a comparable nerve pair force equal phi values (condition 3).  The
    homotopy condition itself is undecidable from set data; it is reported
    as "certified" only when every phi fiber carries a constant intersection
    key (so collapsing the fiber loses nothing), and "assumed" otherwise.
    """
    failures: list[tuple[str, tuple]] = []
    nerve, P = cover.nerve, cover.poset
    for s in nerve.elements:
        if s not in cover.phi:
            failures.append(("phi-missing", (s,)))
    if failures:
        return CoverVerdict(False, tuple(failures))
    for s in nerve.elements:
        if cover.phi[s] not in P:
            failures.append(("phi-range", (s, cover.phi[s])))
    if failures:
        return CoverVerdict(False, tuple(failures))
    for s in nerve.elements:
        for t in nerve.elements:
            if s != t and nerve.less(s, t) and not P.leq(cover.phi[s], cover.phi[t]):
                failures.append(("phi-not-order-preserving", (s, t)))
    image = {cover.phi[s] for s in nerve.elements}
    for x in P.elements:
        if x not in image:
            failures.append(("phi-not-surjective", (x,)))
    rk = validate_ranked(P, cover.rho)
    if not rk.ok:
        failures.append(("rho-not-ranked", rk.witness or ()))
    if cover.keys is not None:
        key_failures: list[tuple[str, tuple]] = []
        for s in nerve.elements:
            for t in nerve.elements:
                if s != t and nerve.less(s, t) and cover.keys[s] == cover.keys[t]:
                    if cover.phi[s] != cover.phi[t]:
                        key_failures.append(("condition3", (s, t)))
        failures.extend(key_failures)
        fibers_constant = True
        fiber_key: dict = {}
        for s in nerve.elements:
            x = cover.phi[s]
            if x in fiber_key and fiber_key[x] != cover.keys[s]:
                fibers_constant = False
            else:
                fiber_key.setdefault(x, cover.keys[s])
        if key_failures:
            condition2 = "failed"
            assumptions: tuple = ()
        elif fibers_constant:
            condition2 = "certified"
            assumptions = ()
        else:
            condition2 = "assumed"
            assumptions = ("fiber keys not constant: homotopy condition on fiber unions assumed",)
    else:
        condition2 = "assumed"
        assumptions = ("homotopy condition on up-set unions assumed (no intersection keys)",)
    return CoverVerdict(not failures, tuple(failures), condition2, assumptions)


@dataclass(frozen=True)
class LocalDatum:
    """Support of a local coefficient at x: which rows (coefficient degrees)
    and which base degrees may be nonzero."""

    x: Hashable
    coeff_support: frozenset
    base_support: frozenset

    @classmethod
    def of(cls, x, coeff: Iterable[int], base: Iterable[int]) -> "LocalDatum":
        return cls(x, frozenset(coeff), frozenset(base))


POSSIBLE = "possible"


@dataclass(frozen=True)
class E2Support:
    """Sparse E2 support: absent bidegrees are provably zero.

    Entries map (p, q) either to the sentinel ``"possible"`` or to an exact
    dimension (int > 0).  ``concentration`` is the single surviving
    antidiagonal p + q, when there is one.
    """

    entries: Mapping[tuple[int, int], object]
    ambient_bound: int | None = None
    concentration: int | None = None
    total_vanishing: bool = False
    notes: tuple[str, ...] = ()

    def lines(self) -> list[int]:
        return sorted({p + q for p, q in self.entries})

    def dim_on_line(self, n: int) -> int | None:
        """Total exact dimension on an antidiagonal, None if any entry is
        only 'possible'."""
        total = 0
        for (p, q), v in self.entries.items():
            if p + q != n:
                continue
            if v == POSSIBLE:
                return None
            total += v
        return total

    def to_json(self) -> dict:
        return {
            "entries": {f"{p},{q}": (v if isinstance(v, int) else v) for (p, q), v in sorted(self.entries.items())},
            "ambient_bound": self.ambient_bound,
            "concentration": self.concentration,
            "total_vanishing": self.total_vanishing,
            "notes": list(self.notes),
        }


def support_certificate(
    entries: Mapping[tuple[int, int], object],
    ambient_bound: int | None,
    notes: Iterable[str] = (),
) -> E2Support:
    """Apply the ambient-dimension cut and decide concentration."""
    kept = {}
    cut = 0
    for (p, q), v in entries.items():
        if ambient_bound is not None and p + q > ambient_bound:
            cut += 1
            continue
        if v == 0:
            continue
        kept[(p, q)] = v
    notes = list(notes)
    if cut:
        notes.append(f"{cut} bidegrees discarded beyond total degree {ambient_bound}")
    lines = sorted({p + q for p, q in kept})
    concentration = lines[0] if len(lines) == 1 else None
    return E2Support(
        entries=kept,
        ambient_bound=ambient_bound,
        concentration=concentration,
        total_vanishing=not kept,
        notes=tuple(notes),
    )


def e2_support(
    poset: FinitePoset,
    rho: Mapping,
    data: Sequence[LocalDatum],
    ambient_bound: int | None = None,
    notes: Iterable[str] = (),
) -> E2Support:
    """Assemble possibly-nonzero bidegrees from per-element local data.

    (p, q) survives iff some datum at x has q in its coefficient support
    and p - rho(x) in its base support; bidegrees beyond the ambient bound
    are zero.  Dimensions are never claimed.
    """
    rk = validate_ranked(poset, rho)
    if not rk.ok:
        raise ValueError(f"rho is not a rank map: {rk.reason} {rk.witness}")
    seen = set()
    for datum in data:
        if datum.x not in poset:
            raise ValueError(f"datum for unknown element {datum.x!r}")
        if datum.x in seen:
            raise ValueError(f"duplicate datum for {datum.x!r}")
        seen.add(datum.x)
    entries: dict[tuple[int, int], object] = {}
    for datum in data:
        r = rho[datum.x]
        for q in datum.coeff_support:
            for j in datum.base_support:
                entries[(j + r, q)] = POSSIBLE
    return support_certificate(entries, ambient_bound, notes)
