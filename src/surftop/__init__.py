"""surftop: exact unimodular form classification and surface topology.

Classifies unimodular intersection forms by (rank, signature, parity),
computes the topological invariants of simply-connected projective
surfaces from (c1^2, c2, spin), decides oriented homeomorphism, and
demonstrates by finite-field point counting that equal zeta data does
not determine homeomorphism type.

Public names are loaded on first use (PEP 562): importing one layer
module does not import the others.
"""

import importlib

# public name -> the layer module that defines it
_EXPORTS = {
    "E8": "classification",
    "HYPERBOLIC": "classification",
    "ClassificationMode": "classification",
    "DefiniteDiagonal": "classification",
    "FormClass": "classification",
    "IndefiniteEven": "classification",
    "IndefiniteOdd": "classification",
    "canonical_gram": "classification",
    "classify_form": "classification",
    "classify_gram": "classification",
    "describe": "classification",
    "forms_isomorphic": "classification",
    "DomainError": "errors",
    "FormInvariants": "lattice",
    "GramMatrix": "lattice",
    "Parity": "lattice",
    "block_diag": "lattice",
    "brute_force_isometry": "lattice",
    "determinant": "lattice",
    "diag": "lattice",
    "invariants": "lattice",
    "is_unimodular": "lattice",
    "parity": "lattice",
    "random_unimodular_transform": "lattice",
    "SurfaceData": "surfaces",
    "SurfaceInvariants": "surfaces",
    "blow_up": "surfaces",
    "catalog": "surfaces",
    "catalog_lookup": "surfaces",
    "compute_invariants": "surfaces",
    "homeomorphic": "surfaces",
    "hypersurface": "surfaces",
    "intersection_form_class": "surfaces",
    "FiniteField": "zeta",
    "PointCount": "zeta",
    "ZetaData": "zeta",
    "build_field": "zeta",
    "count_blowup_p2": "zeta",
    "count_hypersurface_p3": "zeta",
    "count_p1xp1": "zeta",
    "count_variety": "zeta",
    "counterexample_report": "zeta",
    "fermat_form": "zeta",
    "weil_bound_check": "zeta",
    "zeta_counts": "zeta",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Nothing is stored in this module's globals, so every access reads the
    # current attribute of the layer module (a wrapper installed there is seen).
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
