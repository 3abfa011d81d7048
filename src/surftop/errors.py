"""Domain error hierarchy.

Every rejection the library can make carries a stable machine-readable
name (the ``name`` class attribute: the class name without ``Error``),
so front ends can map failures to diagnostics without parsing message
text.
"""


class DomainError(Exception):
    """Base class for expected, named rejections."""

    name = "DomainError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.name = cls.__name__.removesuffix("Error")


class DegenerateFormError(DomainError):
    """The form has determinant 0 and cannot be classified."""


class EmptyFormError(DomainError, ValueError):
    """The form has rank 0; a ValueError too, as the unnamed error it replaced."""


class NotUnimodularError(DomainError):
    """The form's determinant is not +1 or -1."""


class DefiniteNotClassifiedError(DomainError):
    """Definite form in abstract-lattice mode: refused by design.

    Definite unimodular lattices (E8 and friends) are not determined by
    rank/signature/parity, so no answer is licensed without the
    smooth-realizability hypothesis.
    """


class InconsistentEvenSignatureError(DomainError):
    """Even unimodular invariants with signature not divisible by 8.

    No such form exists; the input data is corrupted.
    """


class DefiniteEvenUnrealizableError(DomainError):
    """Even definite form under the smooth four-manifold hypothesis.

    A smoothly realizable definite form is odd diagonal, so an even
    definite input cannot come from a smooth simply-connected 4-manifold.
    """


class InvalidSurfaceError(DomainError):
    """Surface data violating an integrality or positivity constraint."""


class NotPrimeError(DomainError):
    """Field characteristic is not prime."""


class UnsupportedDegreeError(DomainError):
    """Field extension degree outside the supported range 1..3."""


class ZeroFormError(DomainError):
    """Hypersurface form vanishes identically mod p."""


class InvalidInputError(DomainError):
    """Malformed input file or object (bad JSON, wrong schema, asymmetry),
    or an unknown catalog surface or model name."""


def int_text(n: int) -> str:
    """n in decimal for a message, or, past 40 digits, "a number of N bits"
    ("a negative number of N bits"), which reads after "=" too; as text_repr
    cuts an argument, a message never echoes a huge number."""
    if -10**40 < n < 10**40:
        return str(n)
    return f"a {'negative ' if n < 0 else ''}number of {n.bit_length()} bits"


def text_repr(text: str) -> str:
    """repr(text) for a message, or, past 40 characters, the repr of the
    first 40 and the length, so a message never echoes a huge argument."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
