"""Finite cochain complexes and their exact cohomology.

A complex is a finite family of based free modules C^k (k in a contiguous
degree range) with differentials d^k : C^k -> C^{k+1}.  Over a field the
report carries dimensions; over Z it carries free ranks and invariant
factors (torsion) per degree.

Each differential is stored only as sparse rows, one {column: entry} dict
of nonzero entries per row.  :func:`make_complex` is the one place where
entries meet the ring: it normalizes each entry once and checks d o d = 0
with an exact product over the nonzero entries only, in integers on every
ring (mod p over F_p; over Q on each differential scaled to integers).
:func:`complex_cohomology` needs ranks alone, which it takes from one
sparse elimination per differential (:func:`~arrcoh.linalg.sparse_rank`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from arrcoh.linalg import FieldTag, Matrix, Ring, sparse_rank

__all__ = ["CochainComplexData", "CohomologyReport", "complex_cohomology"]


@dataclass(frozen=True)
class CochainComplexData:
    """Degrees, dimensions and differentials of a finite cochain complex.

    ``rows[k]`` holds d^k as dims[k+1] {column: entry} dicts of nonzero
    entries, columns in range(dims[k]); missing keys mean zero maps.
    d o d = 0 is verified on construction via :func:`make_complex`.
    """

    ring: Ring
    dims: Mapping[int, int]
    rows: Mapping[int, list[dict]]

    @property
    def differentials(self) -> dict[int, Matrix]:
        """Dense view of every stored differential."""
        return {k: self.differential(k) for k in self.rows}

    def differential(self, k: int) -> Matrix:
        """The dense matrix of d^k, of shape (dims[k+1], dims[k])."""
        zero = self.ring.normalize(0)
        ncols = self.dims.get(k, 0)
        rows = self.rows.get(k) or [{}] * self.dims.get(k + 1, 0)
        entries = tuple(tuple(row.get(j, zero) for j in range(ncols)) for row in rows)
        return Matrix(self.ring, entries, len(entries), ncols)


def _composes_to_zero(outer: list[dict], inner: list[dict], p: int | None) -> bool:
    """Is the product outer @ inner of two sparse-row integer matrices zero?

    Exact: each entry is summed over the integers and reduced mod p only at
    the end when p is given.
    """
    for row in outer:
        acc: dict = {}
        for mid, a in row.items():
            for j, b in inner[mid].items():
                acc[j] = acc.get(j, 0) + a * b
        if any(x % p for x in acc.values()) if p else any(acc.values()):
            return False
    return True


def _scaled_to_integers(rows: list[dict]) -> list[dict]:
    """Rational sparse rows times the lcm of their entries' denominators:
    integer rows with the same kernel, and a zero product with another
    matrix exactly when the unscaled rows have one."""
    scale = math.lcm(*(x.denominator for row in rows for x in row.values()))
    return [{j: x.numerator * (scale // x.denominator) for j, x in row.items()} for row in rows]


def make_complex(
    ring: Ring, dims: Mapping[int, int], differentials: Mapping[int, Sequence[Mapping[int, object]]]
) -> CochainComplexData:
    """Validate shapes, reduce the entries into ``ring`` and check d^2 = 0.

    ``differentials[k]`` gives d^k as one {column: entry} mapping per row:
    dims[k+1] rows, columns in range(dims[k]).  Each entry is normalized
    once through ``ring.normalize``, and entries that become zero (a
    multiple of p over F_p) are dropped.

    The d o d = 0 check multiplies integers only.  Over Q each
    differential is first scaled by the lcm of its entries' denominators;
    a nonzero scalar per matrix keeps the check exact, and the stored rows
    keep their :class:`~fractions.Fraction` entries.
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
    rational = isinstance(ring, FieldTag) and ring.kind == "rational"
    integral = {k: _scaled_to_integers(diff) for k, diff in rows.items()} if rational else rows
    for k in rows:
        nxt = integral.get(k + 1)
        if nxt is not None and not _composes_to_zero(nxt, integral[k], p):
            raise ValueError(f"d^{k + 1} o d^{k} != 0")
    return CochainComplexData(ring=ring, dims=dims, rows=rows)


@dataclass(frozen=True)
class CohomologyReport:
    """Per-degree cohomology: free rank plus invariant factors over Z."""

    ring: Ring
    free_ranks: Mapping[int, int]
    torsion: Mapping[int, tuple[int, ...]] = dc_field(default_factory=dict)

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

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in self.free_ranks.items())

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
