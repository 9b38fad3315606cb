"""Exact cohomology certificates for arrangement-type spaces.

Everything is computed over exact coefficients (rationals, prime fields,
or the integers through Smith normal form): intersection lattices and
characteristic polynomials of hyperplane arrangements, nested-set
complexes, rank-one vanishing checks with spectral support certificates,
the chamber complex of a real arrangement with twisted cohomology, toric
subtorus unions over simplicial complexes with the Cohen-Macaulay
criterion, and subgroup arrangements in powers of an elliptic curve.

Submodules load on first use, and a sibling that one function needs is
imported in that function, so a verb loads only the modules it runs: for
``arr-lattice``, ``cli``, ``linalg``, ``fp`` and ``arrangement``.
"""

import importlib

_EXPORTS = {  # exported name -> the module that defines it
    "Arrangement": "arrangement",
    "IntersectionLattice": "arrangement",
    "VanishingVerdict": "arrangement",
    "e2_certificate": "arrangement",
    "intersection_lattice": "arrangement",
    "maximal_building_set": "arrangement",
    "minimal_building_set": "arrangement",
    "nested_complex": "arrangement",
    "poincare_and_beta": "arrangement",
    "vanishing_check": "arrangement",
    "Coboundaries": "cochain",
    "CohomologyReport": "cochain",
    "complex_cohomology": "cochain",
    "make_complex": "cochain",
    "E2Support": "covers",
    "build_nerve": "covers",
    "validate_cover": "covers",
    "EllipticArrangement": "elliptic",
    "analyze": "elliptic",
    "components": "elliptic",
    "convenient_check": "elliptic",
    "elliptic_vanishing_certificate": "elliptic",
    "enumerate_strata": "elliptic",
    "GF": "linalg",
    "QQ": "linalg",
    "RankOneSystem": "linalg",
    "ZZ": "linalg",
    "Matrix": "linalg",
    "smith_normal_form": "linalg",
    "build_salvetti": "salvetti",
    "twisted_cohomology": "salvetti",
    "SimplicialComplex": "simplicial",
    "is_cohen_macaulay": "simplicial",
    "link": "simplicial",
    "reduced_cohomology": "simplicial",
    "ToricComplex": "toric",
    "toric_cohomology": "toric",
    "toric_e2_page": "toric",
    "verify_cm_theorem": "toric",
}


def __getattr__(name: str):
    """Import the module that defines ``name`` on first access (PEP 562).

    ``import arrcoh`` loads no submodule, so a command compiles only the
    modules it runs.
    """
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
