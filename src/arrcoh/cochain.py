"""Finite cochain complexes and their exact cohomology.

A complex is a finite family of based free modules C^k (k in a contiguous
degree range) with differentials d^k : C^k -> C^{k+1}.  Over a field the
report carries dimensions; over Z it carries free ranks and invariant
factors (torsion) per degree.

:func:`make_complex` keeps each differential both as a dense
:class:`~arrcoh.linalg.Matrix` and as sparse rows, and checks d o d = 0
with an exact product over the nonzero entries only (mod p over F_p).
:func:`complex_cohomology` needs ranks alone, which it takes from one
sparse elimination per differential (:func:`~arrcoh.linalg.sparse_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping

from arrcoh.linalg import FieldTag, Matrix, Ring, sparse_rank

__all__ = ["CochainComplexData", "CohomologyReport", "complex_cohomology"]


@dataclass(frozen=True)
class CochainComplexData:
    """Degrees, dimensions and differentials of a finite cochain complex.

    ``differentials[k]`` is the matrix of d^k with shape
    (dims[k+1], dims[k]); missing keys mean zero maps.  ``rows[k]`` holds
    the same map as one {column: entry} dict of nonzero entries per row.
    d o d = 0 is verified on construction via :func:`make_complex`.
    """

    ring: Ring
    dims: Mapping[int, int]
    differentials: Mapping[int, Matrix]
    rows: Mapping[int, list[dict]] = dc_field(compare=False, repr=False)

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def differential(self, k: int) -> Matrix:
        d = self.differentials.get(k)
        if d is not None:
            return d
        return Matrix.zeros(self.ring, self.dims.get(k + 1, 0), self.dims.get(k, 0))


def _composes_to_zero(outer: list[dict], inner: list[dict], p: int | None) -> bool:
    """Is the product outer @ inner of two sparse-row matrices zero?

    Exact: each entry is summed over integers or fractions and reduced
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


def make_complex(ring: Ring, dims: Mapping[int, int], differentials: Mapping[int, Matrix]) -> CochainComplexData:
    """Validate shapes and d^2 = 0, then freeze the complex."""
    dims = dict(dims)
    for k, dim in dims.items():
        if dim < 0:
            raise ValueError(f"negative dimension in degree {k}")
    diffs = {}
    for k, mat in differentials.items():
        if mat.nrows != dims.get(k + 1, 0) or mat.ncols != dims.get(k, 0):
            raise ValueError(
                f"differential d^{k} has shape {mat.nrows}x{mat.ncols}, "
                f"expected {dims.get(k + 1, 0)}x{dims.get(k, 0)}"
            )
        if mat.nrows and mat.ncols:
            diffs[k] = mat
    rows = {k: mat.sparse_rows() for k, mat in diffs.items()}
    p = ring.p if isinstance(ring, FieldTag) and ring.kind == "prime" else None
    for k in rows:
        nxt = rows.get(k + 1)
        if nxt is not None and not _composes_to_zero(nxt, rows[k], p):
            raise ValueError(f"d^{k + 1} o d^{k} != 0")
    return CochainComplexData(ring=ring, dims=dims, differentials=diffs, rows=rows)


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
