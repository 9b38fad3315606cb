"""Finite posets: closure from relations, cover pairs, chains, the Moebius
function and rank validation.

Elements are arbitrary hashable labels; all iteration orders are the
insertion order of the element list, so every derived object is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

__all__ = [
    "FinitePoset",
    "from_relations",
    "from_leq",
    "moebius_table",
    "validate_ranked",
    "RankVerdict",
]


class FinitePoset:
    """An explicit finite poset with precomputed reachability.

    Use :func:`from_relations` to build one; the constructor expects the
    relation pairs to already be consistent (it closes transitively and
    rejects cycles).
    """

    def __init__(self, elements: Sequence[Hashable], relations: Iterable[tuple[Hashable, Hashable]]):
        self.elements: tuple = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        succ: list[set[int]] = [set() for _ in range(n)]
        for x, y in relations:
            if x not in self._index or y not in self._index:
                raise ValueError(f"relation ({x!r}, {y!r}) uses unknown elements")
            if x != y:
                succ[self._index[x]].add(self._index[y])
        # transitive closure (DFS from each node), with cycle rejection
        above: list[frozenset[int]] = []
        for i in range(n):
            seen: set[int] = set()
            stack = [i]
            while stack:
                v = stack.pop()
                for w in succ[v]:
                    if w == i:
                        raise ValueError(f"cycle through {self.elements[i]!r}")
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            above.append(frozenset(seen))
        self._above = above  # strict upper sets, as index sets
        self._covers: list[tuple[int, int]] | None = None

    # --- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def leq(self, x, y) -> bool:
        i, j = self._index[x], self._index[y]
        return i == j or j in self._above[i]

    def less(self, x, y) -> bool:
        return self._index[y] in self._above[self._index[x]]

    def down_set(self, x) -> list:
        return [e for e in self.elements if self.leq(e, x)]

    def covers(self) -> list[tuple, ]:
        """Cover pairs (x, y) with x < y and nothing in between."""
        if self._covers is None:
            out = []
            for i, e in enumerate(self.elements):
                for j in self._above[i]:
                    if not any(j in self._above[k] for k in self._above[i]):
                        out.append((i, j))
            self._covers = sorted(out)
        return [(self.elements[i], self.elements[j]) for i, j in self._covers]

    def chains(self) -> list[tuple]:
        """All nonempty chains, as increasing tuples."""
        pool = list(self.elements)
        # sort by a linear extension: x < y forces |above(x)| > |above(y)|
        pool.sort(key=lambda e: (-len(self._above[self._index[e]]), self._index[e]))
        out: list[tuple] = []

        def extend(chain: tuple, start: int) -> None:
            for k in range(start, len(pool)):
                e = pool[k]
                if not chain or self.less(chain[-1], e):
                    new = chain + (e,)
                    out.append(new)
                    extend(new, k + 1)

        extend((), 0)
        return out

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "elements": [str(e) for e in self.elements],
            "covers": [[str(x), str(y)] for x, y in self.covers()],
        }

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"


def from_relations(elements: Sequence[Hashable], relations: Iterable[tuple[Hashable, Hashable]]) -> FinitePoset:
    """Build a poset from arbitrary (x <= y) pairs; cycles are rejected."""
    return FinitePoset(elements, relations)


def from_leq(elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]) -> FinitePoset:
    rels = [(x, y) for x in elements for y in elements if x != y and leq(x, y)]
    return FinitePoset(elements, rels)


def moebius_table(poset: FinitePoset, x) -> dict:
    """mu(x, y) for every y above x, computed in one sweep."""
    table: dict = {}
    ups = [y for y in poset.elements if poset.leq(x, y)]
    # iterate in a linear extension: element order may not extend the order,
    # so sort by the size of the lower set within ups
    ups.sort(key=lambda y: sum(1 for z in ups if poset.leq(z, y)))
    for y in ups:
        if y == x:
            table[y] = 1
        else:
            table[y] = -sum(table[z] for z in ups if poset.leq(z, y) and z != y)
    return table


@dataclass(frozen=True)
class RankVerdict:
    ok: bool
    reason: str = ""
    witness: tuple | None = None


def validate_ranked(poset: FinitePoset, rho: Mapping) -> RankVerdict:
    """Check that rho is order-preserving and has antichain fibers.

    Fibers must be antichains: two comparable elements sharing a rank value
    is a violation even though it does not break monotonicity.
    """
    for e in poset.elements:
        if e not in rho:
            return RankVerdict(False, f"missing rank for {e!r}", (e,))
    for x in poset.elements:
        for y in poset.elements:
            if x != y and poset.less(x, y):
                if rho[x] > rho[y]:
                    return RankVerdict(False, "rank decreases along order", (x, y))
                if rho[x] == rho[y]:
                    return RankVerdict(False, "comparable pair shares a rank (fiber not an antichain)", (x, y))
    return RankVerdict(True)
