"""surftop: exact unimodular form classification and surface topology.

Classifies unimodular intersection forms by (rank, signature, parity),
computes the topological invariants of simply-connected projective
surfaces from (c1^2, c2, spin), decides oriented homeomorphism, and
demonstrates by finite-field point counting that equal zeta data does
not determine homeomorphism type.

Public names are loaded on first use (PEP 562): importing one layer
module does not import the others. The one class defined here, Record,
is the base of every value type in the layers.
"""

import importlib

# layer module -> the public names it defines
_LAYERS = {
    "classification": "E8 HYPERBOLIC ClassificationMode DefiniteDiagonal FormClass IndefiniteEven "
                      "IndefiniteOdd canonical_gram classify_form describe forms_isomorphic",
    "errors": "DomainError",
    "lattice": "FormInvariants GramMatrix Parity block_diag determinant diag invariants parity",
    "surfaces": "SurfaceData SurfaceInvariants blow_up catalog catalog_lookup compute_invariants "
                "homeomorphic hypersurface intersection_form_class",
    "zeta": "FiniteField PointCount build_field count_blowup_p2 count_hypersurface_p3 count_p1xp1 "
            "count_variety counterexample_report fermat_form",
}
# public name -> the layer module that defines it
_EXPORTS = {name: module for module, names in _LAYERS.items() for name in names.split()}

__all__ = list(_EXPORTS)


class Record:
    """An immutable value whose fields are its class annotations, in order.

    Built positionally or by keyword; a missing, unknown or repeated field
    is a TypeError. __post_init__ validates after the fields are set.
    Equality needs the same class, the hash is that of the field values,
    and vars() is the fields. It acts as a frozen dataclass would, but
    imports nothing and generates no code: each command is a fresh process.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)  # after those of a record base

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args))
        if len(args) > len(fields) or values.keys() & kwargs or values.keys() | kwargs != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        values.update(kwargs)
        vars(self).update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def _replace(self, **changes):
        """A copy with some fields changed, validated like any new value."""
        return type(self)(**{**vars(self), **changes})


def __getattr__(name: str):
    # No public name is stored in this module's globals, so every access reads the
    # current attribute of the layer module (a wrapper installed there is seen).
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
