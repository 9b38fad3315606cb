"""Abstract simplicial complexes: links, reduced cohomology, CM testing.

Complexes are nonvoid (they always contain the empty face) and carry an
explicit vertex order so that every chain-level object is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Hashable, Iterable, Sequence

from arrcoh.cochain import CochainComplexData, CohomologyReport, complex_cohomology, make_complex
from arrcoh.linalg import Ring, ZZ

__all__ = [
    "SimplicialComplex",
    "link",
    "face_coboundaries",
    "reduced_cohomology",
    "is_cohen_macaulay",
    "CMVerdict",
    "flag_complex",
    "enumerate_complexes",
]


class SimplicialComplex:
    """A finite abstract simplicial complex with ordered vertices."""

    def __init__(self, vertices: Sequence[Hashable], faces: Iterable[frozenset]):
        self.vertices: tuple = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        faces = set(faces)
        faces.add(frozenset())
        for f in faces:
            for v in f:
                if v not in self._vindex:
                    raise ValueError(f"face {sorted(map(repr, f))} uses unknown vertex {v!r}")
        # downward closure
        closed: set[frozenset] = set()
        for f in faces:
            fs = sorted(f, key=self._vindex.get)
            for r in range(len(fs) + 1):
                closed.update(frozenset(c) for c in itertools.combinations(fs, r))
        self.faces: frozenset = frozenset(closed)

    @classmethod
    def from_faces(cls, vertices: Sequence, faces: Iterable[Iterable]) -> "SimplicialComplex":
        return cls(vertices, [frozenset(f) for f in faces])

    @classmethod
    def from_facets(cls, vertices: Sequence, facets: Iterable[Iterable]) -> "SimplicialComplex":
        return cls(vertices, [frozenset(f) for f in facets])

    # --- structure ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def facets(self) -> list[tuple]:
        maximal = [f for f in self.faces if not any(f < g for g in self.faces)]
        return [self.sort_face(f) for f in sorted(maximal, key=self._face_key)]

    def sort_face(self, face: Iterable) -> tuple:
        return tuple(sorted(face, key=self._vindex.get))

    def _face_key(self, face: frozenset) -> tuple:
        return (len(face), tuple(sorted(self._vindex[v] for v in face)))

    def faces_of_card(self, c: int) -> list[frozenset]:
        return sorted((f for f in self.faces if len(f) == c), key=self._face_key)

    def all_faces(self) -> list[tuple]:
        return [self.sort_face(f) for f in sorted(self.faces, key=self._face_key)]

    def f_vector(self) -> list[int]:
        """Face counts by cardinality, starting with the empty face."""
        out = [0] * (self.dim + 2)
        for f in self.faces:
            out[len(f)] += 1
        return out

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets()}) <= 1

    def has_face(self, face: Iterable) -> bool:
        return frozenset(face) in self.faces

    def euler_characteristic_reduced(self) -> int:
        return sum((-1) ** (len(f) - 1) for f in self.faces)

    def canonical_key(self) -> tuple:
        """Isomorphism-invariant key: two complexes have equal keys exactly
        when a bijection of their vertices carries faces onto faces.

        See ``_canonical_key`` for the form of the key.
        """
        facets = [frozenset(self._vindex[v] for v in f) for f in self.facets()]
        return _canonical_key(len(self.vertices), facets)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": [list(f) for f in self.facets()],
        }

    @staticmethod
    def from_json(obj: dict) -> "SimplicialComplex":
        return SimplicialComplex.from_facets(obj["vertices"], obj["facets"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.faces == other.faces
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.faces))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, dim {self.dim})"


def link(L: SimplicialComplex, sigma: Iterable) -> SimplicialComplex:
    """The link of a face: all tau disjoint from sigma with tau | sigma in L."""
    s = frozenset(sigma)
    if s not in L.faces:
        raise ValueError(f"{sorted(map(repr, s))} is not a face")
    faces = [f for f in L.faces if not (f & s) and (f | s) in L.faces]
    verts = [v for v in L.vertices if frozenset([v]) in faces or any(v in f for f in faces)]
    return SimplicialComplex(verts, faces)


def face_coboundaries(L: SimplicialComplex, weight: Callable) -> tuple[list[int], list[list[dict]]]:
    """Face counts by cardinality and the weighted coboundaries between them.

    ``counts[c]`` is the number of faces of cardinality c (c = 0 .. dim+1).
    ``rows[c]`` maps the faces of cardinality c to those of cardinality
    c+1, both in :meth:`SimplicialComplex.faces_of_card` order: one
    {column: entry} dict per face g, whose column for each facet g - {v}
    holds (-1)^pos * weight(v), with pos the number of vertices of g
    before v.  Weight 1 gives the augmented simplicial coboundary.
    """
    faces = [L.faces_of_card(c) for c in range(L.dim + 2)]
    rows = []
    for source, target in zip(faces, faces[1:]):
        index = {f: j for j, f in enumerate(source)}
        rows.append([
            {index[g - {v}]: (-1) ** pos * weight(v) for pos, v in enumerate(L.sort_face(g))}
            for g in target
        ])
    return [len(f) for f in faces], rows


def reduced_cochain_complex(L: SimplicialComplex, ring: Ring) -> CochainComplexData:
    """Augmented simplicial cochain complex; degree k has basis the k-faces
    (cardinality k+1), with the empty face in degree -1."""
    counts, rows = face_coboundaries(L, lambda v: 1)
    dims = {c - 1: n for c, n in enumerate(counts)}
    return make_complex(ring, dims, {c - 1: r for c, r in enumerate(rows)})


def reduced_cohomology(L: SimplicialComplex, ring: Ring = ZZ) -> CohomologyReport:
    """Reduced simplicial cohomology of a nonvoid complex.

    The irrelevant complex {emptyset} reports rank 1 in degree -1.
    """
    return complex_cohomology(reduced_cochain_complex(L, ring))


@dataclass(frozen=True)
class CMVerdict:
    ok: bool
    dim: int
    ring: Ring
    failures: tuple = ()
    """Each failure is (face, degree, rank, torsion): a nonvanishing reduced
    cohomology group of a link away from (or torsion in) the top degree."""

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "dim": self.dim,
            "ring": self.ring.to_json(),
            "failures": [
                {"face": list(face), "degree": deg, "rank": rank, "torsion": list(tors)}
                for face, deg, rank, tors in self.failures
            ],
        }


def is_cohen_macaulay(L: SimplicialComplex, ring: Ring = ZZ) -> CMVerdict:
    """Reisner-style test: for every face s (including the empty one) the
    reduced cohomology of its link is concentrated in degree dim L - |s|,
    and over Z is torsion-free there.

    Purity is a consequence, not a hypothesis: a too-small facet has a link
    whose cohomology sits in degree -1 < dim L - |facet|.
    """
    d = L.dim
    failures = []
    for f in sorted(L.faces, key=L._face_key):
        lk = link(L, f)
        expected = d - len(f)
        report = reduced_cohomology(lk, ring)
        for k in range(-1, lk.dim + 1):
            rank_k = report.betti(k)
            tors = report.torsion_at(k)
            if k != expected and (rank_k or tors):
                failures.append((L.sort_face(f), k, rank_k, tors))
            elif k == expected and tors:
                failures.append((L.sort_face(f), k, rank_k, tors))
    return CMVerdict(ok=not failures, dim=d, ring=ring, failures=tuple(failures))


def flag_complex(vertices: Sequence, edges: Iterable[tuple]) -> SimplicialComplex:
    """Clique complex of a graph: faces are the vertex sets of cliques."""
    vset = list(vertices)
    adj = {v: set() for v in vset}
    for a, b in edges:
        if a == b:
            raise ValueError("loops not allowed")
        adj[a].add(b)
        adj[b].add(a)
    cliques: list[frozenset] = [frozenset()]
    current = [frozenset([v]) for v in vset]
    while current:
        cliques.extend(current)
        nxt = set()
        for c in current:
            for v in vset:
                if v not in c and all(v in adj[u] for u in c):
                    nxt.add(c | {v})
        current = sorted(nxt, key=lambda f: tuple(sorted(map(vset.index, f))))
    return SimplicialComplex(vset, cliques)


def enumerate_complexes(max_vertices: int) -> list[SimplicialComplex]:
    """All isomorphism classes of complexes on at most ``max_vertices``
    vertices (every vertex used), including the irrelevant complex.

    Vertices are 0..k-1.  Each class is represented by the first antichain
    of facets, in a fixed enumeration order, that has its canonical key.
    """
    out: list[SimplicialComplex] = []
    for k in range(max_vertices + 1):
        subsets = [frozenset(s) for r in range(1, k + 1) for s in itertools.combinations(range(k), r)]
        subsets.sort(key=lambda s: (-len(s), tuple(sorted(s))))
        vertices = set(range(k))
        first: dict[tuple, list[frozenset]] = {}  # canonical key -> first antichain with it

        def grow(chosen: list[frozenset], start: int) -> None:
            # antichains in preorder, each keyed as it is found
            if not k or (chosen and set().union(*chosen) == vertices):
                key = _canonical_key(k, chosen or [frozenset()])
                if key not in first:
                    first[key] = list(chosen)
            for idx in range(start, len(subsets)):
                s = subsets[idx]
                if all(not (s <= t or t <= s) for t in chosen):
                    chosen.append(s)
                    grow(chosen, idx + 1)
                    chosen.pop()

        grow([], 0)
        # built after the search: interleaved with its short-lived objects, the
        # complexes fragment the allocator's arenas and peak memory grows per call
        out.extend(SimplicialComplex.from_facets(tuple(range(k)), f or [()]) for f in first.values())
    return out


def _canonical_key(n: int, facets: Sequence[Collection[int]]) -> tuple:
    """Canonical form of the complex on vertices 0..n-1 with these facets.

    Each vertex gets an invariant, the sorted sizes of the facets that
    contain it; the distinct invariants, in sorted order, split the vertices
    into blocks.  A relabeling is admissible when it sends block i onto its
    own range of labels (after the labels of blocks 0..i-1).  The key is
    ``(invariants, block sizes, encoding)``, where the encoding is the least,
    over admissible relabelings, of the sorted tuple of relabeled facets,
    each facet written as the bitmask of its labels.

    An isomorphism preserves the invariants, so it maps blocks onto blocks
    and isomorphic complexes share their admissible encodings and hence the
    key; equal keys encode the same relabeled complex, so complexes with
    equal keys are isomorphic.  Only the product of the block factorials is
    tried, not all n! relabelings (vertex-invariant refinement, as in
    McKay-Piperno, Practical graph isomorphism II, J. Symb. Comput. 60, 2014).
    """
    inv = [tuple(sorted(len(f) for f in facets if v in f)) for v in range(n)]
    invariants = tuple(sorted(set(inv)))
    blocks = [[v for v in range(n) if inv[v] == x] for x in invariants]
    bit = [0] * n
    best = None
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        for label, v in enumerate(itertools.chain.from_iterable(parts)):
            bit[v] = 1 << label
        enc = sorted(sum(bit[v] for v in f) for f in facets)
        if best is None or enc < best:
            best = enc
    return invariants, tuple(len(b) for b in blocks), tuple(best)
