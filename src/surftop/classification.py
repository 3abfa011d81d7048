"""Canonical classes of nondegenerate unimodular forms, from their invariants.

Indefinite forms are determined by (rank, signature, parity) and land in
one of two canonical shapes: a diagonal odd form or a sum of E8 blocks
and hyperbolic planes. Definite forms are classified only under the
smooth four-manifold hypothesis, which forces +/- the standard diagonal
form; in abstract-lattice mode they are refused rather than guessed at.
No other layer is imported, and no Gram matrix is built from a class.
"""

from enum import Enum

from . import Record
from .errors import (DefiniteEvenUnrealizableError, DefiniteNotClassifiedError, DegenerateFormError,
                     EmptyFormError, InconsistentEvenSignatureError, NotUnimodularError, int_text)


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class FormInvariants(Record):
    """Congruence invariants of a symmetric integer form.

    For nondegenerate forms rank = b_plus + b_minus and the determinant
    sign is (-1)**b_minus; degenerate forms report b_plus + b_minus < rank.
    """

    rank: int
    b_plus: int
    b_minus: int
    signature: int
    parity: Parity
    determinant: int

    def __post_init__(self):
        if min(self.rank, self.b_plus, self.b_minus) < 0:
            raise ValueError("rank and b+/b- must be non-negative")
        if self.signature != self.b_plus - self.b_minus:
            raise ValueError("signature must equal b_plus - b_minus")
        inertia = self.b_plus + self.b_minus
        if self.determinant != 0:
            if inertia != self.rank:
                raise ValueError("nondegenerate form needs b_plus + b_minus = rank")
            if (self.determinant > 0) != (self.b_minus % 2 == 0):
                raise ValueError("determinant sign must be (-1)**b_minus")
        elif inertia >= self.rank and self.rank > 0:
            raise ValueError("degenerate form needs b_plus + b_minus < rank")


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


class IndefiniteEven(Record):
    """e8_signed_count copies of (sign) E8 plus h_count hyperbolic planes."""

    e8_signed_count: int
    h_count: int

    def __post_init__(self):
        if self.h_count < 1:
            raise ValueError("indefinite even form needs at least one hyperbolic plane")


class DefiniteDiagonal(Record):
    """sign * (x1^2 + ... + x_rank^2); only under smooth realizability."""

    sign: int
    rank: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.rank < 1:
            raise ValueError("definite form needs rank >= 1")


FormClass = IndefiniteOdd | IndefiniteEven | DefiniteDiagonal


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


def class_to_dict(c: FormClass) -> dict:
    """Stable tagged serialization of a form class: its variant and fields."""
    if not isinstance(c, FormClass):
        raise TypeError(f"not a form class: {c!r}")
    return {"variant": type(c).__name__, **vars(c)}


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
