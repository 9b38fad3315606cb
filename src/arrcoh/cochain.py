"""Finite cochain complexes and their exact cohomology.

A complex is a finite family of based free modules C^k (k in a contiguous
degree range) with differentials d^k : C^k -> C^{k+1}.  Over a field the
report carries dimensions; over Z it carries free ranks and invariant
factors (torsion) per degree.

Each differential is stored only as sparse rows, one {column: entry} dict
of nonzero entries per row.  Face complexes of simplicial complexes and
twisted Salvetti complexes come from :class:`Coboundaries`: entries are
signed monomials in one symbol per vertex or hyperplane, d o d = 0 is
checked once per structure as an identity in the symbols, and each weight
system only specializes the monomials.  :func:`make_complex` takes
hand-built numeric rows: it normalizes each entry once and checks
d o d = 0 with an exact product over the nonzero normalized entries only
(reduced mod p over F_p).  :func:`complex_cohomology` needs ranks alone,
which it takes from one sparse elimination per differential
(:func:`~arrcoh.linalg.sparse_rank`).
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

from arrcoh.linalg import FieldTag, InternalError, Matrix, Ring, sparse_rank

__all__ = ["CochainComplexData", "Coboundaries", "CohomologyReport", "complex_cohomology"]


class CochainComplexData:
    """Degrees, dimensions and differentials of a finite cochain complex.

    ``rows[k]`` holds d^k as dims[k+1] {column: entry} dicts of nonzero
    entries, columns in range(dims[k]); missing keys mean zero maps.
    d o d = 0 is checked by the maker: :func:`make_complex`, or
    :class:`Coboundaries` once for all values.
    """

    __slots__ = ("ring", "dims", "rows")

    def __init__(self, ring: Ring, dims: Mapping[int, int], rows: Mapping[int, list[dict]]) -> None:
        self.ring, self.dims, self.rows = ring, dims, rows

    @property
    def differentials(self) -> dict[int, Matrix]:
        """Dense view of every stored differential: d^k as a matrix of
        shape (dims[k+1], dims[k])."""
        zero = self.ring.normalize(0)
        out = {}
        for k, rows in self.rows.items():
            ncols = self.dims.get(k, 0)
            entries = tuple(tuple(row.get(j, zero) for j in range(ncols)) for row in rows)
            out[k] = Matrix(self.ring, entries, len(entries), ncols)
        return out


class Coboundaries:
    """The differentials of a cochain complex with signed monomials for
    entries: a symbol x_i per vertex or hyperplane i in place of a weight.

    ``counts[c]`` is the rank of the c-th module; ``rows[c]`` maps it to
    the next one, one {column: (sign, mask)} dict per basis element of the
    target, for sign * (product of x_i over the bits i of mask).  d o d = 0
    is checked once, on construction, as an identity in the symbols: the
    product of two entries is keyed by its column and monomial, (column,
    m1 | m2, m1 & m2), and the signs per key must cancel.  So it holds at
    any values in any commutative ring, and :meth:`specialize` checks
    nothing.  A failure is arrcoh's own fault, an InternalError.
    """

    __slots__ = ("counts", "rows")

    def __init__(self, counts: tuple[int, ...], rows: tuple[list[dict], ...]) -> None:
        self.counts, self.rows = counts, rows
        for k, (outer, inner) in enumerate(zip(rows[1:], rows)):
            for row in outer:
                acc: dict = {}
                for mid, (s, m1) in row.items():
                    for j, (t, m2) in inner[mid].items():
                        key = (j, m1 | m2, m1 & m2)
                        acc[key] = acc.get(key, 0) + s * t
                if any(acc.values()):
                    raise InternalError(f"coboundaries: d^{k + 1} o d^{k} != 0")

    def cell_counts(self) -> list[int]:
        return list(self.counts)

    def specialize(self, ring: Ring, values: Sequence, shift: int = 0) -> CochainComplexData:
        """The complex over ``ring`` at x_i = values[i], values in ``ring``,
        with the c-th module in degree c + shift.  Each distinct
        (sign, mask) is normalized once; entries that vanish are dropped.
        The symbols and their negatives, all that face complexes use, are
        valued up front; the first entry of another mask values them all."""
        entry = {(s, 1 << i): ring.normalize(s * x) for i, x in enumerate(values) for s in (1, -1)}
        try:
            return self._at(ring, entry, shift)
        except KeyError:
            pass
        for e in set().union(*map(dict.values, chain.from_iterable(self.rows))) - entry.keys():
            y, mask = e
            while mask:
                low = mask & -mask
                y *= values[low.bit_length() - 1]
                mask ^= low
            entry[e] = ring.normalize(y)
        return self._at(ring, entry, shift)

    def _at(self, ring: Ring, entry: Mapping, shift: int) -> CochainComplexData:
        rows = {
            c + shift: [{j: y for j, e in row.items() if (y := entry[e])} for row in block]
            for c, block in enumerate(self.rows)
        }
        return CochainComplexData(ring, {c + shift: n for c, n in enumerate(self.counts)}, rows)


def _composes_to_zero(outer: list[dict], inner: list[dict], p: int | None) -> bool:
    """Is the product outer @ inner of two sparse-row matrices zero?

    Exact: each entry is summed over the integers or rationals and reduced
    mod p only at the end when p is given.
    """
    for row in outer:
        acc: dict = {}
        for mid, a in row.items():
            for j, b in inner[mid].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(x % p for x in acc.values()) if p else any(acc.values()):
            return False
    return True


def make_complex(
    ring: Ring, dims: Mapping[int, int], differentials: Mapping[int, Sequence[Mapping[int, object]]]
) -> CochainComplexData:
    """Validate shapes, reduce the entries into ``ring`` and check d^2 = 0.

    ``differentials[k]`` gives d^k as one {column: entry} mapping per row:
    dims[k+1] rows, columns in range(dims[k]).  Each entry is normalized
    once through ``ring.normalize``, and entries that become zero (a
    multiple of p over F_p) are dropped.

    The d o d = 0 check multiplies the normalized entries exactly: ints
    over Z and F_p, :class:`~fractions.Fraction` over Q.
    """
    dims = dict(dims)
    for k, dim in dims.items():
        if dim < 0:
            raise ValueError(f"negative dimension in degree {k}")
    rows = {}
    for k, diff in differentials.items():
        nrows, ncols = dims.get(k + 1, 0), dims.get(k, 0)
        if len(diff) != nrows or any(not 0 <= j < ncols for row in diff for j in row):
            raise ValueError(f"differential d^{k} does not fit the shape {nrows}x{ncols}")
        normalized = [{j: ring.normalize(x) for j, x in row.items()} for row in diff]
        rows[k] = [{j: x for j, x in row.items() if x} for row in normalized]
    p = ring.p if isinstance(ring, FieldTag) and ring.kind == "prime" else None
    for k in rows:
        nxt = rows.get(k + 1)
        if nxt is not None and not _composes_to_zero(nxt, rows[k], p):
            raise ValueError(f"d^{k + 1} o d^{k} != 0")
    return CochainComplexData(ring=ring, dims=dims, rows=rows)


class CohomologyReport:
    """Per-degree cohomology: free rank plus invariant factors over Z
    (a fresh empty dict when no torsion is given).  Reports with equal
    fields compare equal."""

    __slots__ = ("ring", "free_ranks", "torsion")

    def __init__(self, ring: Ring, free_ranks: Mapping[int, int], torsion: Mapping | None = None) -> None:
        self.ring, self.free_ranks, self.torsion = ring, free_ranks, {} if torsion is None else torsion

    def __eq__(self, other):
        if other.__class__ is not CohomologyReport:
            return NotImplemented
        return (self.ring, self.free_ranks, self.torsion) == (other.ring, other.free_ranks, other.torsion)

    def betti(self, k: int) -> int:
        return self.free_ranks.get(k, 0)

    def torsion_at(self, k: int) -> tuple[int, ...]:
        return tuple(self.torsion.get(k, ()))

    def is_zero(self, k: int) -> bool:
        return self.betti(k) == 0 and not self.torsion_at(k)

    def nonzero_degrees(self) -> list[int]:
        degs = set(k for k, r in self.free_ranks.items() if r) | set(
            k for k, t in self.torsion.items() if t
        )
        return sorted(degs)

    def to_json(self) -> dict:
        out: dict = {"field": self.ring.to_json(), "cohomology": {}}
        degs = sorted(set(self.free_ranks) | set(self.torsion))
        for k in degs:
            entry: dict = {"rank": self.betti(k)}
            if self.torsion_at(k):
                entry["torsion"] = list(self.torsion_at(k))
            out["cohomology"][str(k)] = entry
        return out


def complex_cohomology(cx: CochainComplexData) -> CohomologyReport:
    """Exact cohomology of a finite complex, from ranks alone.

    One sparse elimination per differential gives rank d^k and, over Z,
    the invariant factors of d^k above 1.  Then
    rank H^k = dim C^k - rank d^k - rank d^{k-1} (the free rank over Z),
    and the torsion of H^{k+1} is the nontrivial invariant factors of d^k.
    No kernel basis and no Smith witness of a full differential is formed.
    """
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k, rows in cx.rows.items():
        ranks[k], factors = sparse_rank(cx.ring, rows)
        if factors:
            torsion[k + 1] = factors
    free = {}
    for k, dim in cx.dims.items():
        free[k] = dim - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if free[k] < 0:
            raise ValueError(f"negative rank in degree {k}; complex is inconsistent")
    return CohomologyReport(ring=cx.ring, free_ranks=free, torsion=torsion)
