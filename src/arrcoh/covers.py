"""Combinatorial covers: nerves, validation, and E2 support bookkeeping.

A cover is described by its nerve (subsets of cover labels with nonempty
intersection, ordered by inclusion), a target poset P, a rank map rho on P
and an order-preserving map phi from the nerve onto P.  The homotopy
condition on unions over up-sets is not decidable from this data alone;
the validator reads it from the nerve's intersection keys: certified when
every phi fiber carries one key, failed with condition 3, and otherwise
recorded as an assumption.

The E2 engine deliberately works with *supports*, not modules: each datum
says in which degrees a local coefficient may be nonzero, and the engine
reports which bidegrees survive, plus a concentration line when there is
one.  It never claims nonvanishing.  The page is indexed by a ranked
poset, but the support reads the order only through rho: it takes the
rank map, pairs x < y that generate the order, and one datum per element.
Checking that rho strictly increases along the generators is enough,
since every chain is a path of generators, and a cycle of generators
could not increase strictly; so no transitive closure is built.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from arrcoh.poset import FinitePoset, validate_ranked

__all__ = [
    "MAX_NERVE_ELEMENTS",
    "MAX_WITNESSES",
    "build_nerve",
    "CoverVerdict",
    "validate_cover",
    "E2Support",
    "e2_support",
]

# k sets that share a point have 2^k - 1 nerve elements; 11 such sets fit
MAX_NERVE_ELEMENTS = 2048
# a verdict lists this many failures of each code and counts the rest: sets
# that share a point can fail condition 3 on almost every comparable pair
MAX_WITNESSES = 10


def build_nerve(sets: Mapping[Hashable, frozenset]) -> tuple[FinitePoset, dict]:
    """Nerve of a family of sets, with intersection keys.

    Returns (poset of label-subsets with nonempty intersection, ordered by
    inclusion; map from each nerve element to its intersection as a
    frozenset).

    A nerve is closed under subsets, so it is found level by level: an
    element of size r extends one of size r - 1 by a later label, and only
    those extensions are tried, not all 2^k label subsets.  Elements are
    listed by size, then in ``itertools.combinations`` order over the
    labels in the mapping's iteration order.  Past ``MAX_NERVE_ELEMENTS``
    elements a ValueError states the limit.
    """
    labels = list(sets)
    pools = [frozenset(s) for s in sets.values()]
    elements: list[frozenset] = []
    keys: dict[frozenset, frozenset] = {}
    # each element of a level with its intersection; the empty one has none
    level: list[tuple[tuple[int, ...], frozenset | None]] = [((), None)]
    while level:
        found = []
        for combo, inter in level:
            for j in range(combo[-1] + 1 if combo else 0, len(labels)):
                meet = pools[j] if inter is None else inter & pools[j]
                if not meet:
                    continue
                if len(elements) == MAX_NERVE_ELEMENTS:
                    raise ValueError(f"the nerve stops at {MAX_NERVE_ELEMENTS} elements; this cover has more")
                s = frozenset(labels[i] for i in combo + (j,))
                elements.append(s)
                keys[s] = meet
                found.append((combo + (j,), meet))
        level = found
    # the order is the transitive closure of removing one label
    relations = [(s - {lab}, s) for s in elements if len(s) > 1 for lab in s]
    return FinitePoset(elements, relations), keys


class CoverVerdict:
    """``failures`` lists (code, witness) pairs, the first ``MAX_WITNESSES``
    found of each code; ``counts`` (a fresh empty dict by default) says how
    many failures of each code were found, listed or not."""

    __slots__ = ("valid", "failures", "condition2", "assumptions", "counts")

    def __init__(
        self,
        valid: bool,
        failures: tuple = (),
        condition2: str = "unchecked",  # or "certified", "assumed", "failed"
        assumptions: tuple = (),
        counts: Mapping[str, int] | None = None,
    ) -> None:
        self.valid, self.failures, self.condition2, self.assumptions = valid, failures, condition2, assumptions
        self.counts = {} if counts is None else counts

    def to_json(self) -> dict:
        out = {
            "valid": self.valid,
            "failures": [[code, [_witness_json(w) for w in wit]] for code, wit in self.failures],
            "condition2": self.condition2,
            "assumptions": list(self.assumptions),
        }
        if self.counts:
            out["failure_counts"] = dict(self.counts)
        return out


def _witness_json(w) -> list[str] | str:
    """A nerve element as the sorted list of its labels, so the output does
    not depend on set iteration order; a poset element as its string."""
    return sorted(map(str, w)) if isinstance(w, frozenset) else str(w)


def validate_cover(nerve: FinitePoset, P: FinitePoset, rho: Mapping, phi: Mapping, keys: Mapping) -> CoverVerdict:
    """Check the decidable cover conditions of the nerve, with intersection
    ``keys`` as :func:`build_nerve` gives them, over the poset P with rank
    map ``rho`` and ``phi`` from the nerve to P; see the module docstring.

    Hard checks: phi total, order-preserving and surjective; rho an
    order-preserving rank with antichain fibers; equal intersection keys on
    a comparable nerve pair force equal phi values (condition 3).  The
    homotopy condition itself is undecidable from set data; it is reported
    as "certified" only when every phi fiber carries a constant intersection
    key (so collapsing the fiber loses nothing), "failed" with condition 3,
    and "assumed" otherwise.  When phi misses a nerve element or maps one
    outside P, no condition is examined and the verdict says "unchecked".

    Every failure is counted; the verdict lists the first
    ``MAX_WITNESSES`` of each code, in the order they are found.
    """
    failures: list[tuple[str, tuple]] = []
    counts: dict[str, int] = {}

    def fail(code: str, witness: tuple) -> None:
        counts[code] = counts.get(code, 0) + 1
        if counts[code] <= MAX_WITNESSES:
            failures.append((code, witness))

    for s in nerve.elements:
        if s not in phi:
            fail("phi-missing", (s,))
    if failures:
        return CoverVerdict(False, tuple(failures), counts=counts)
    for s in nerve.elements:
        if phi[s] not in P:
            fail("phi-range", (s, phi[s]))
    if failures:
        return CoverVerdict(False, tuple(failures), counts=counts)
    # only a comparable pair can fail a check below: walk each element's up-set
    comparable = [(s, t) for s in nerve.elements for t in nerve.strictly_above(s)]
    for s, t in comparable:
        if not P.leq(phi[s], phi[t]):
            fail("phi-not-order-preserving", (s, t))
    image = {phi[s] for s in nerve.elements}
    for x in P.elements:
        if x not in image:
            fail("phi-not-surjective", (x,))
    rk = validate_ranked(P.elements, ((x, y) for x in P.elements for y in P.strictly_above(x)), rho)
    if not rk.ok:
        fail("rho-not-ranked", rk.witness or ())
    for s, t in comparable:
        if keys[s] == keys[t] and phi[s] != phi[t]:
            fail("condition3", (s, t))
    fibers_constant = True
    fiber_key: dict = {}
    for s in nerve.elements:
        x = phi[s]
        if x in fiber_key and fiber_key[x] != keys[s]:
            fibers_constant = False
        else:
            fiber_key.setdefault(x, keys[s])
    if "condition3" in counts:
        condition2 = "failed"
        assumptions: tuple = ()
    elif fibers_constant:
        condition2 = "certified"
        assumptions = ()
    else:
        condition2 = "assumed"
        assumptions = ("fiber keys not constant: homotopy condition on fiber unions assumed",)
    return CoverVerdict(not failures, tuple(failures), condition2, assumptions, counts)


POSSIBLE = "possible"


class E2Support:
    """Sparse E2 support: absent bidegrees are provably zero.

    Entries map (p, q) either to the sentinel ``"possible"`` or to an exact
    dimension (int > 0).  ``concentration`` is the single surviving
    antidiagonal p + q, when there is one.  Supports with equal fields
    compare equal.
    """

    __slots__ = ("entries", "ambient_bound", "concentration", "total_vanishing", "notes")

    def __init__(
        self,
        entries: Mapping[tuple[int, int], object],
        ambient_bound: int,
        concentration: int | None,
        total_vanishing: bool,
        notes: tuple[str, ...],
    ) -> None:
        self.entries, self.ambient_bound, self.concentration = entries, ambient_bound, concentration
        self.total_vanishing, self.notes = total_vanishing, notes

    def __eq__(self, other):
        if other.__class__ is not E2Support:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

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
            "entries": {f"{p},{q}": v for (p, q), v in sorted(self.entries.items())},
            "ambient_bound": self.ambient_bound,
            "concentration": self.concentration,
            "total_vanishing": self.total_vanishing,
            "notes": list(self.notes),
        }


def support_certificate(
    entries: Mapping[tuple[int, int], object],
    ambient_bound: int,
    notes: Iterable[str] = (),
) -> E2Support:
    """Apply the ambient-dimension cut and decide concentration."""
    kept = {}
    cut = 0
    for (p, q), v in entries.items():
        if p + q > ambient_bound:
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
    return E2Support(kept, ambient_bound, concentration, not kept, tuple(notes))


def e2_support(
    rho: Mapping,
    relations: Iterable[tuple[Hashable, Hashable]],
    data: Mapping[Hashable, tuple[Iterable[int], Iterable[int]]],
    ambient_bound: int,
    notes: Iterable[str] = (),
) -> E2Support:
    """Assemble possibly-nonzero bidegrees from per-element local data.

    ``relations`` are pairs x < y that generate the order and ``data``
    maps each element x to (coefficient support, base support).  rho must
    rank every element named in either and strictly increase along each
    relation; that is all the order is checked for, and the generators
    suffice (see :func:`~arrcoh.poset.validate_ranked`).

    (p, q) survives iff some x has q in its coefficient support and
    p - rho(x) in its base support; bidegrees beyond the ambient bound
    are zero.  Dimensions are never claimed.
    """
    relations = list(relations)
    rk = validate_ranked([*data, *(e for pair in relations for e in pair)], relations, rho)
    if not rk.ok:
        raise ValueError(f"rho is not a rank map: {rk.reason} {rk.witness}")
    entries: dict[tuple[int, int], object] = {}
    for x, (coeff, base) in data.items():
        r = rho[x]
        for q in coeff:
            for j in base:
                entries[(j + r, q)] = POSSIBLE
    return support_certificate(entries, ambient_bound, notes)
