"""The stable names of the domain errors, which front ends print and match on."""

import pytest

from surftop import errors
from surftop.errors import DomainError, EmptyFormError, int_text, text_repr

# written by hand from the explicit `name = ...` lines errors.py had before
# the names were derived from the class names
NAMES = {
    "DegenerateFormError": "DegenerateForm",
    "EmptyFormError": "EmptyForm",
    "NotUnimodularError": "NotUnimodular",
    "DefiniteNotClassifiedError": "DefiniteNotClassified",
    "InconsistentEvenSignatureError": "InconsistentEvenSignature",
    "DefiniteEvenUnrealizableError": "DefiniteEvenUnrealizable",
    "InvalidSurfaceError": "InvalidSurface",
    "NotPrimeError": "NotPrime",
    "UnsupportedDegreeError": "UnsupportedDegree",
    "ZeroFormError": "ZeroForm",
    "InvalidInputError": "InvalidInput",
}


def test_base_name():
    assert DomainError.name == "DomainError"


@pytest.mark.parametrize("cls, name", sorted(NAMES.items()))
def test_subclass_name(cls, name):
    assert getattr(errors, cls).name == name
    assert getattr(errors, cls)("message").name == name


def test_every_subclass_is_pinned():
    assert sorted(c.__name__ for c in DomainError.__subclasses__()) == sorted(NAMES)


def test_empty_form_is_still_a_value_error():
    assert issubclass(EmptyFormError, ValueError)


@pytest.mark.parametrize(
    "n, text",
    [
        (0, "0"),
        (-3, "-3"),
        (-(10**40 - 1), "-" + "9" * 40),
        (10**40, "a number of 133 bits"),
        (10**4299, "a number of 14281 bits"),
        (10**4300, "a number of 14285 bits"),  # past int-to-str conversion
        (-(7**6000), "a negative number of 16845 bits"),
    ],
    ids=["zero", "negative", "40 digits", "41 digits", "4300 digits", "4301 digits", "negative 5071 digits"],
)
def test_int_text(n, text):
    assert int_text(n) == text


@pytest.mark.parametrize(
    "text, quoted",
    [
        ("2,x", "'2,x'"),
        ("a" * 40, repr("a" * 40)),
        ("a" * 41, repr("a" * 40) + "... (41 characters)"),
        ("\n" * 100_000, repr("\n" * 40) + "... (100000 characters)"),
    ],
    ids=["short", "40 characters", "41 characters", "100000 newlines"],
)
def test_text_repr(text, quoted):
    assert text_repr(text) == quoted
