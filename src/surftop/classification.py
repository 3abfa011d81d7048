"""Canonical classes of nondegenerate unimodular forms.

Indefinite forms are determined by (rank, signature, parity) and land in
one of two canonical shapes: a diagonal odd form or a sum of E8 blocks
and hyperbolic planes. Definite forms are classified only under the
smooth four-manifold hypothesis, where they are forced to be +/- the
standard diagonal form; in abstract-lattice mode definite input is
refused rather than guessed at.
"""

from __future__ import annotations

from enum import Enum

from . import Record
from .errors import (DefiniteEvenUnrealizableError, DefiniteNotClassifiedError, DegenerateFormError,
                     EmptyFormError, InconsistentEvenSignatureError, NotUnimodularError, int_text)
from .lattice import FormInvariants, GramMatrix, Parity, block_diag, diag, invariants


class ClassificationMode(Enum):
    ABSTRACT_LATTICE = "abstract_lattice"
    SMOOTH_FOUR_MANIFOLD = "smooth_four_manifold"


class IndefiniteOdd(Record):
    """n_plus<1> + n_minus<-1> with both counts >= 1."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 1 or self.n_minus < 1:
            raise ValueError("indefinite odd form needs n_plus >= 1 and n_minus >= 1")

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


class IndefiniteEven(Record):
    """e8_signed_count copies of (sign) E8 plus h_count hyperbolic planes."""

    e8_signed_count: int
    h_count: int

    def __post_init__(self):
        if self.h_count < 1:
            raise ValueError("indefinite even form needs at least one hyperbolic plane")

    @property
    def rank(self) -> int:
        return 8 * abs(self.e8_signed_count) + 2 * self.h_count

    @property
    def signature(self) -> int:
        return 8 * self.e8_signed_count


class DefiniteDiagonal(Record):
    """sign * (x1^2 + ... + x_rank^2); only under smooth realizability."""

    sign: int
    rank: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.rank < 1:
            raise ValueError("definite form needs rank >= 1")

    @property
    def signature(self) -> int:
        return self.sign * self.rank


FormClass = IndefiniteOdd | IndefiniteEven | DefiniteDiagonal
_VARIANTS = {cls.__name__: cls for cls in FormClass.__args__}


# Standard even positive-definite rank-8 form: Gram matrix of the E8 root
# basis (chain 0-1-2-3-4-5-6 with node 7 hanging off node 4), determinant 1.
E8 = GramMatrix([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
])

MINUS_E8 = GramMatrix([[-v for v in row] for row in E8.entries])

HYPERBOLIC = GramMatrix([[0, 1], [1, 0]])


def classify_form(inv: FormInvariants, mode: ClassificationMode) -> FormClass:
    """Canonical class of a nondegenerate unimodular form from its invariants.

    Definiteness (and its sign) is read off from rank and signature alone.
    Raises DegenerateFormError / NotUnimodularError on bad determinants,
    EmptyFormError on rank 0, InconsistentEvenSignatureError when an even
    form's signature is not divisible by 8 (no such unimodular form
    exists), and refuses definite forms outside SMOOTH_FOUR_MANIFOLD mode.
    """
    if inv.determinant == 0:
        raise DegenerateFormError("form is degenerate (determinant 0)")
    if inv.determinant not in (1, -1):
        raise NotUnimodularError(f"determinant {int_text(inv.determinant)} is not +/-1")
    if inv.rank < 1:
        raise EmptyFormError("classification requires rank >= 1")
    r, s = inv.rank, inv.signature
    if inv.parity is Parity.EVEN and s % 8 != 0:
        raise InconsistentEvenSignatureError(f"even unimodular form cannot have signature {s}")
    if abs(s) == r:
        if mode is ClassificationMode.ABSTRACT_LATTICE:
            raise DefiniteNotClassifiedError("definite abstract lattices are not classified here")
        if inv.parity is Parity.EVEN:
            raise DefiniteEvenUnrealizableError(
                "no smooth simply-connected 4-manifold has an even definite form"
            )
        return DefiniteDiagonal(sign=1 if s > 0 else -1, rank=r)
    if inv.parity is Parity.ODD:
        return IndefiniteOdd(n_plus=(r + s) // 2, n_minus=(r - s) // 2)
    return IndefiniteEven(e8_signed_count=s // 8, h_count=(r - abs(s)) // 2)


def canonical_gram(c: FormClass) -> GramMatrix:
    """Block-diagonal Gram matrix realizing the class.

    Block order is fixed: positive blocks first, then negative, then
    hyperbolic planes, so output is deterministic and byte-stable.
    """
    if isinstance(c, IndefiniteOdd):
        return diag(*([1] * c.n_plus + [-1] * c.n_minus))
    if isinstance(c, IndefiniteEven):
        e8_blocks = [E8 if c.e8_signed_count > 0 else MINUS_E8] * abs(c.e8_signed_count)
        return block_diag(*e8_blocks, *([HYPERBOLIC] * c.h_count))
    if isinstance(c, DefiniteDiagonal):
        return diag(*([c.sign] * c.rank))
    raise TypeError(f"not a form class: {c!r}")


def forms_isomorphic(a: GramMatrix, b: GramMatrix, mode: ClassificationMode) -> bool:
    """True iff both forms land in the same canonical class.

    For indefinite forms this is exactly integral isometry; for definite
    forms it is isometry under the smooth-realizability hypothesis, and
    abstract definite input is refused (never silently compared).
    """
    return classify_form(invariants(a), mode) == classify_form(invariants(b), mode)


def class_to_dict(c: FormClass) -> dict:
    """Stable tagged serialization of a form class: its variant and fields."""
    if not isinstance(c, FormClass):
        raise TypeError(f"not a form class: {c!r}")
    return {"variant": type(c).__name__, **vars(c)}


def class_from_dict(obj: dict) -> FormClass:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ValueError("form class object needs a 'variant' tag")
    fields = {k: v for k, v in obj.items() if k != "variant"}
    if any(not isinstance(v, int) or isinstance(v, bool) for v in fields.values()):
        raise ValueError("form class fields must be integers")
    variant = obj["variant"]
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown form class variant {variant!r}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValueError(f"bad fields for {variant}: {exc}") from exc


def _coeff(k: int) -> str:
    return "" if k == 1 else str(k)


def describe(c: FormClass) -> str:
    """Human-readable canonical shape, e.g. 'H' or '⟨1⟩ ⊕ ⟨-1⟩'."""
    if isinstance(c, IndefiniteOdd):
        return f"{_coeff(c.n_plus)}⟨1⟩ ⊕ {_coeff(c.n_minus)}⟨-1⟩"
    if isinstance(c, IndefiniteEven):
        parts = []
        if c.e8_signed_count:
            parts.append(f"{'-' if c.e8_signed_count < 0 else ''}{_coeff(abs(c.e8_signed_count))}E8")
        parts.append(f"{_coeff(c.h_count)}H")
        return " ⊕ ".join(parts)
    if isinstance(c, DefiniteDiagonal):
        return f"{_coeff(c.rank)}⟨{c.sign}⟩"
    raise TypeError(f"not a form class: {c!r}")
