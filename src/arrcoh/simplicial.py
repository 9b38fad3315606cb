"""Abstract simplicial complexes: links, reduced cohomology, CM testing.

Complexes are nonvoid (they always contain the empty face) and carry an
explicit vertex order so that every chain-level object is deterministic.
Faces are bitmasks over that order, and so are the keys of every table here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Collection, Hashable, Iterable, NamedTuple, Sequence

from arrcoh.cochain import Coboundaries, CohomologyReport, complex_cohomology
from arrcoh.linalg import Ring, ZZ

__all__ = [
    "MAX_FACES",
    "SimplicialComplex",
    "link",
    "link_cohomology",
    "face_coboundaries",
    "reduced_cohomology",
    "is_cohen_macaulay",
    "CMVerdict",
    "enumerate_complexes",
]

# every face of the simplex on 12 vertices, the empty face included; the link
# table of a complex with F faces sweeps up to F^log2(3) (face, subface) pairs
MAX_FACES = 4096


class SimplicialComplex:
    """A finite abstract simplicial complex with ordered vertices, its faces
    kept as bitmasks, bit i for vertex i: ``levels[c]`` lists those of
    cardinality c in :func:`_levels` order.  A vertex may lie in no face.

    >>> L = SimplicialComplex("abcd", [("a", "b"), ("c", "c")])
    >>> L.levels, L.face(3), L.facets()
    ([[0], [1, 2, 4], [3]], ('a', 'b'), [('c',), ('a', 'b')])
    """

    def __init__(self, vertices: Sequence[Hashable], faces: Iterable[Iterable[Hashable]]):
        self.vertices: tuple = tuple(vertices)
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        if len(bit) != len(self.vertices):
            raise ValueError("duplicate vertices")
        too_many = f"a simplicial complex stops at {MAX_FACES} faces; this one has more"
        closed = {0}
        for f in map(set, faces):
            if not f <= bit.keys():
                raise ValueError(f"face {sorted(map(repr, f))} uses unknown vertices {sorted(map(repr, f - bit.keys()))}")
            if 1 << len(f) > MAX_FACES:
                raise ValueError(too_many)
            # downward closure, stopped as soon as it passes the limit
            g = s = sum(map(bit.__getitem__, f))
            if g in closed:
                continue
            while s:
                closed.add(s)
                s = (s - 1) & g
            if len(closed) > MAX_FACES:
                raise ValueError(too_many)
        self.levels: list[list[int]] = _levels(closed, len(self.vertices))

    @classmethod
    def _from_levels(cls, vertices: Sequence[Hashable], levels: list[list[int]]) -> "SimplicialComplex":
        """The complex with these face masks, as :func:`_levels` groups them, unchecked."""
        L = cls.__new__(cls)
        L.vertices, L.levels = tuple(vertices), levels
        return L

    @classmethod
    def from_facets(cls, vertices: Sequence, facets: Iterable[Iterable]) -> "SimplicialComplex":
        """The complex generated by ``facets``; any faces may be listed."""
        return cls(vertices, facets)

    # --- structure ----------------------------------------------------------

    def face(self, mask: int) -> tuple:
        """The vertices of a face mask, in vertex order."""
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    @property
    def dim(self) -> int:
        return len(self.levels) - 2

    def facets(self) -> list[tuple]:
        covered = {g ^ 1 << i for level in self.levels[1:] for g in level for i in range(g.bit_length()) if g >> i & 1}
        return [self.face(f) for level in self.levels for f in level if f not in covered]

    def faces_of_card(self, c: int) -> list[tuple]:
        return list(map(self.face, self.levels[c])) if c < len(self.levels) else []

    def all_faces(self) -> list[tuple]:
        return list(map(self.face, itertools.chain.from_iterable(self.levels)))

    def f_vector(self) -> list[int]:
        """Face counts by cardinality, starting with the empty face."""
        return list(map(len, self.levels))

    def canonical_key(self) -> tuple:
        """Isomorphism-invariant key: two complexes have equal keys exactly
        when a bijection of their vertices carries faces onto faces.

        See ``_canonical_key`` for the form of the key.
        """
        n = len(self.vertices)
        return _canonical_key(n, self._from_levels(range(n), self.levels).facets())

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "facets": [list(f) for f in self.facets()],
        }

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and (self.vertices, self.levels) == (other.vertices, other.levels)

    def __hash__(self) -> int:
        return hash((self.vertices, *map(tuple, self.levels)))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, dim {self.dim})"


def link(L: SimplicialComplex, sigma: Iterable) -> SimplicialComplex:
    """The link of a face: all tau disjoint from sigma with tau | sigma in L,
    on the vertices its faces use."""
    sigma = set(sigma)
    s = sum(1 << i for i, v in enumerate(L.vertices) if v in sigma)
    faces = set(itertools.chain.from_iterable(L.levels))
    if s not in faces or s.bit_count() != len(sigma):
        raise ValueError(f"{sorted(map(repr, sigma))} is not a face")
    lk = [f for f in faces if not f & s and f | s in faces]
    return SimplicialComplex(L.face(sum(f for f in lk if f.bit_count() == 1)), map(L.face, lk))


def _levels(faces: Collection[int], n: int) -> list[list[int]]:
    """The masks of a face set closed under subsets, over n vertices,
    grouped by cardinality, each group in increasing order of its faces'
    sorted vertex tuples (the order of :meth:`SimplicialComplex.faces_of_card`
    when bit i is vertex i).  A face of cardinality c + 1 is a face of
    cardinality c extended by a vertex after its last one, so extending
    each group in order lists the next group in order too.
    """
    levels = [[0]]
    while True:
        nxt = [g | 1 << v for g in levels[-1] for v in range(g.bit_length(), n) if g | 1 << v in faces]
        if not nxt:
            return levels
        levels.append(nxt)


def link_cohomology(L: SimplicialComplex, ring: Ring) -> dict[int, CohomologyReport]:
    """Reduced cohomology of the link of every face of L over ``ring``;
    each report equals what :func:`reduced_cohomology` gives for
    :func:`link` of the face.

    Keyed by face mask (:meth:`SimplicialComplex.face` gives its
    vertices) in the order of ``L.levels``, the empty face 0 (whose link
    is L) first.  One sweep over the faces builds every link: a face g
    lies in the link of each submask s of g, as g - s, and every face of
    the link of s arises so from g = s | tau.  The sweep takes the faces
    by cardinality, so each link lists its faces by cardinality too;
    :func:`_link_reports` reads the links.
    """
    links: dict[int, list[int]] = {s: [] for level in L.levels for s in level}
    for g in itertools.chain.from_iterable(L.levels):
        s = g
        while True:
            links[s].append(g ^ s)
            if not s:
                break
            s = (s - 1) & g
    return _link_reports(ring, links)


def _link_reports(ring: Ring, links: dict[int, list[int]]) -> dict[int, CohomologyReport]:
    """Reduced cohomology over ``ring`` of each complex in ``links``, under
    the same key: a complex is its face masks, closed under subsets,
    listed by cardinality (so the empty face first).

    A complex with no face of three vertices is {emptyset}, a set of points
    or a graph: its cohomology is read off its own masks
    (:func:`_graph_cohomology`), and one with m vertices and 2^m faces is a
    simplex, acyclic: neither is relabeled.  Any other complex is relabeled
    onto bits 0..m-1, its m vertices in increasing order of their bits, and
    eliminated once per distinct relabeled mask set, with coboundaries from
    the masks (:func:`face_coboundaries`, with its d o d check).
    """
    by_shape: dict[frozenset, CohomologyReport] = {}
    table = {}
    for s, faces in links.items():
        m = bisect_right(faces, 1, key=int.bit_count) - 1
        if faces[-1].bit_count() < 3:
            table[s] = _graph_cohomology(ring, faces, m)
            continue
        if len(faces) == 1 << m:  # a simplex on m >= 3 vertices: acyclic
            table[s] = CohomologyReport(ring, dict.fromkeys(range(-1, m), 0))
            continue
        # a face's new mask is that of the face without its least vertex,
        # plus that vertex's new bit
        new = {v: 1 << j for j, v in enumerate(sorted(faces[1 : m + 1]))}
        new[0] = 0
        for f in faces[m + 1 :]:
            low = f & -f
            new[f] = new[f ^ low] | new[low]
        shape = frozenset(new.values())
        if shape not in by_shape:
            relabeled = SimplicialComplex._from_levels(range(m), _levels(shape, m))
            cx = face_coboundaries(relabeled).specialize(ring, [1] * m, shift=-1)
            by_shape[shape] = complex_cohomology(cx)
        table[s] = by_shape[shape]
    return table


def _graph_cohomology(ring: Ring, faces: Collection[int], m: int) -> CohomologyReport:
    """Reduced cohomology of a complex with no face of three vertices, from
    its masks ``faces``: m vertices, each one a face, on any bits.

    With E edges and c components (by union-find over the vertices' bits):
    H^0 has rank c - 1 and H^1 rank E - m + c, as the signed incidence
    matrix of a graph has rank m - c and is totally unimodular, so there is
    no torsion over any ring.  {emptyset} (m = 0) has rank 1 in degree -1.
    Every degree from -1 to the dimension is reported, zeros included, as
    :func:`reduced_cohomology` does.
    """
    if not m:
        return CohomologyReport(ring, {-1: 1})
    root: dict[int, int] = {}  # a vertex's bit -> a bit nearer its component's root
    edges = merges = 0
    for f in faces:
        if f.bit_count() == 2:
            edges += 1
            a, b = f & -f, f & (f - 1)
            while a in root:
                a = root[a]
            while b in root:
                b = root[b]
            if a != b:
                root[a] = b
                merges += 1
    c = m - merges
    free = {-1: 0, 0: c - 1}
    if edges:
        free[1] = edges - m + c
    return CohomologyReport(ring, free)


def face_coboundaries(L: SimplicialComplex) -> Coboundaries:
    """The coboundaries between the faces of L, with a symbol x_v per
    vertex v, bit i of a mask for the vertex at position i.  Module c is
    spanned by ``L.levels[c]`` in order; the row of a face g holds
    (-1)^pos * x_v at g - {v}, pos the number of vertices of g before v,
    with d o d = 0 checked by :class:`~arrcoh.cochain.Coboundaries`."""
    rows = []
    for source, target in zip(L.levels, L.levels[1:]):
        index = {f: j for j, f in enumerate(source)}
        block = []
        for g in target:
            row = {}
            sign, rest = 1, g
            while rest:
                low = rest & -rest
                row[index[g ^ low]] = (sign, low)
                sign, rest = -sign, rest ^ low
            block.append(row)
        rows.append(block)
    return Coboundaries(tuple(map(len, L.levels)), tuple(rows))


def reduced_cohomology(L: SimplicialComplex, ring: Ring = ZZ) -> CohomologyReport:
    """Reduced simplicial cohomology of a nonvoid complex, from the
    augmented cochain complex: degree k has basis the k-faces (cardinality
    k+1), with the empty face in degree -1.

    The irrelevant complex {emptyset} reports rank 1 in degree -1.
    """
    return complex_cohomology(face_coboundaries(L).specialize(ring, [1] * len(L.vertices), shift=-1))


class CMVerdict(NamedTuple):
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
    whose cohomology sits in degree -1 < dim L - |facet|.  The links'
    cohomology comes from one :func:`link_cohomology` table.
    """
    return _cm_verdict(L, ring, link_cohomology(L, ring))


def _cm_verdict(L: SimplicialComplex, ring: Ring, table: dict[int, CohomologyReport]) -> CMVerdict:
    """The Cohen-Macaulay verdict read from a :func:`link_cohomology` table."""
    d = L.dim
    failures = []
    for f, report in table.items():
        expected = d - f.bit_count()
        # a reduced complex reports every degree from -1 to the link's dimension
        for k in report.free_ranks:
            rank_k = report.betti(k)
            tors = report.torsion_at(k)
            if (k != expected and (rank_k or tors)) or (k == expected and tors):
                failures.append((L.face(f), k, rank_k, tors))
    return CMVerdict(ok=not failures, dim=d, ring=ring, failures=tuple(failures))


def enumerate_complexes(max_vertices: int) -> list[SimplicialComplex]:
    """All isomorphism classes of complexes on at most ``max_vertices``
    vertices (every vertex used), including the irrelevant complex.

    Vertices are 0..k-1.  The nonempty subsets of range(k) are listed by
    size, largest first, then lexicographically; an antichain of facets is
    the increasing sequence of its subsets' indices in that list.  Each
    class is represented by its lexicographically least sequence over all
    k! relabelings, and the classes come in the order of their
    representatives.

    The search is orderly (R. C. Read, Every one a winner, Ann. Discrete
    Math. 2, 1978): it extends only sequences that are least among their
    own relabelings.  That loses nothing, because every prefix of a least
    sequence is least too: if some relabeling sorts a prefix below itself,
    the same relabeling sorts the whole sequence below it, as merging more
    indices into a sorted sequence can only lower each of its positions.
    So no canonical key is computed and no class is met twice.

    The test runs on masks of subset indices: C for the sequence and, per
    relabeling, A for its image.  A and C agree below their lowest differing
    index, so sorted(A) >= sorted(C) exactly when A = C or the lowest set bit
    of A ^ C is in C.  Each relabeling but the identity keeps A in a field
    of 2^k bits (at least 8) of one integer, with a guard bit above A.  An
    extension ORs in its image bit in every field, from a table per subset,
    and its bit into every field of a spread copy of C.  Per field, x = A ^ C
    and x & ~(x - 1) is its lowest set bit: one subtraction takes 1 from
    every field, as the guard bits, set first, stop each borrow.
    """
    out: list[SimplicialComplex] = []
    for k in range(max_vertices + 1):
        masks = [sum(1 << v for v in s) for r in range(k, 0, -1) for s in itertools.combinations(range(k), r)]
        width = max(1 << k >> 3, 1)  # bytes a field, not a C type's size
        code = {m: (1 << i).to_bytes(width, "little") for i, m in enumerate(masks)}
        perms = list(itertools.islice(itertools.permutations(range(k)), 1, None))
        # per relabeling but the identity, the image of every mask, doubled up
        # from the images of single vertices; then per subset, its image bits
        relabeled = [[0] for _ in perms]
        for img, p in zip(relabeled, perms):
            for v in range(k):
                img += [x | 1 << p[v] for x in img]
        packed = [int.from_bytes(b"".join([code[img[m]] for img in relabeled]), "little") for m in masks]
        rep = int.from_bytes((1).to_bytes(width, "little") * len(perms), "little")
        guard = rep << len(masks)
        above = [sum(1 << t for t in range(i) if m & masks[t] == m) for i, m in enumerate(masks)]
        found: list[int] = []

        def grow(chosen: int, images: int, spread: int, uncovered: int, start: int) -> None:
            # least sequences in preorder, which is lexicographic order
            if not uncovered:
                found.append(chosen)
            for idx in range(start, len(masks)):
                # an earlier subset is no smaller: only those above it can clash
                if above[idx] & chosen:
                    continue
                new, c = images | packed[idx], spread | rep << idx
                if not _image_below(new, c, rep, guard):
                    grow(chosen | 1 << idx, new, c, uncovered & ~masks[idx], idx + 1)

        grow(0, 0, 0, (1 << k) - 1, 0)
        del grow  # the closure refers to itself: a cycle only the cyclic GC frees
        # built after the search: interleaved with its short-lived objects, the
        # complexes fragment the allocator's arenas and peak memory grows per call
        within = [sum(1 << i for i, m in enumerate(masks) if f & m == f) for f in range(1 << k)]
        full = _levels(range(1 << k), k)
        for chosen in found:
            levels = [kept for level in full if (kept := [f for f in level if within[f] & chosen or not f])]
            out.append(SimplicialComplex._from_levels(range(k), levels))
    return out


def _image_below(images: int, spread: int, rep: int, guard: int) -> int:
    """Nonzero when, in some field, the lowest set bit of images ^ spread is in images."""
    x = images ^ spread
    return x & ~((x | guard) - rep) & images


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
