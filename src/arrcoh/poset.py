"""Finite posets: closure from relations and rank validation, for the
index posets and nerves of covers.

Elements are arbitrary hashable labels; all iteration orders are the
insertion order of the element list, so every derived object is
deterministic.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "FinitePoset",
    "from_leq",
    "validate_ranked",
    "RankVerdict",
]


class FinitePoset:
    """An explicit finite poset with precomputed reachability, built from
    arbitrary (x <= y) pairs: the constructor closes them transitively and
    rejects duplicate elements, pairs on unknown elements, and cycles.
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

    # --- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def leq(self, x, y) -> bool:
        i, j = self._index[x], self._index[y]
        return i == j or j in self._above[i]

    def strictly_above(self, x) -> list:
        """The elements y with x < y, in element order."""
        return [self.elements[j] for j in sorted(self._above[self._index[x]])]

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements)"


def from_leq(elements: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]) -> FinitePoset:
    rels = [(x, y) for x in elements for y in elements if x != y and leq(x, y)]
    return FinitePoset(elements, rels)


class RankVerdict(NamedTuple):
    ok: bool
    reason: str = ""
    witness: tuple | None = None


def validate_ranked(elements: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]], rho: Mapping) -> RankVerdict:
    """Check that rho ranks every element and strictly increases along each
    pair x < y, so its fibers are antichains; the first failing pair is the
    witness.  Pairs that generate the order suffice: strict increase along
    them gives it along every chain, and no cycle can increase strictly.
    """
    for e in elements:
        if e not in rho:
            return RankVerdict(False, f"missing rank for {e!r}", (e,))
    for x, y in pairs:
        if rho[x] > rho[y]:
            return RankVerdict(False, "rank decreases along order", (x, y))
        if rho[x] == rho[y]:
            return RankVerdict(False, "comparable pair shares a rank (fiber not an antichain)", (x, y))
    return RankVerdict(True)
