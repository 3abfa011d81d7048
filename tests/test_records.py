"""What callers see of the eight value records, whatever implements them.

Each record is immutable, built positionally or by keyword from its
fields in declaration order, compared and hashed by value within its own
class, and validated on construction. The field names and repr bytes
below are written out by hand.
"""

import copy
import pickle
import re

import pytest

from oracles import E8, HYPERBOLIC, block_diag, diag, forms_isomorphic
from surftop.classification import (
    ClassificationMode,
    DefiniteDiagonal,
    FormInvariants,
    IndefiniteEven,
    IndefiniteOdd,
    Parity,
)
from surftop.lattice import GramMatrix, invariants
from surftop.surfaces import SurfaceData, SurfaceInvariants
from surftop.zeta import PointCount

# (class, field names, field values, repr, a second valid value of the last field)
RECORDS = [
    (GramMatrix, ["entries"], [((0, 1), (1, 0))], "GramMatrix(entries=((0, 1), (1, 0)))", ((0, 1), (1, 1))),
    (
        FormInvariants,
        ["rank", "b_plus", "b_minus", "signature", "parity", "determinant"],
        [2, 1, 1, 0, Parity.ODD, -1],
        "FormInvariants(rank=2, b_plus=1, b_minus=1, signature=0, "
        "parity=<Parity.ODD: 'odd'>, determinant=-1)",
        -3,
    ),
    (IndefiniteOdd, ["n_plus", "n_minus"], [1, 2], "IndefiniteOdd(n_plus=1, n_minus=2)", 3),
    (
        IndefiniteEven,
        ["e8_signed_count", "h_count"],
        [-1, 3],
        "IndefiniteEven(e8_signed_count=-1, h_count=3)",
        4,
    ),
    (DefiniteDiagonal, ["sign", "rank"], [-1, 4], "DefiniteDiagonal(sign=-1, rank=4)", 5),
    (
        SurfaceData,
        ["name", "c1_sq", "c2", "spin"],
        ["P1xP1", 8, 4, True],
        "SurfaceData(name='P1xP1', c1_sq=8, c2=4, spin=True)",
        False,
    ),
    (
        SurfaceInvariants,
        ["b2", "sigma", "parity", "b_plus", "b_minus", "chi_holo"],
        [2, 0, Parity.EVEN, 1, 1, 1],
        "SurfaceInvariants(b2=2, sigma=0, parity=<Parity.EVEN: 'even'>, "
        "b_plus=1, b_minus=1, chi_holo=1)",
        2,
    ),
    (PointCount, ["variety", "q", "count"], ["P1xP1", 4, 25], "PointCount(variety='P1xP1', q=4, count=25)", 26),
]
# records whose attributes are a per-instance dict, which cli and class_to_dict read
WITH_VARS = {GramMatrix, FormInvariants, IndefiniteOdd, IndefiniteEven, DefiniteDiagonal,
             SurfaceData, SurfaceInvariants}

each_record = pytest.mark.parametrize(
    "cls,names,values,text", [r[:4] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS]
)


@each_record
def test_repr_bytes(cls, names, values, text):
    assert repr(cls(*values)) == text


@each_record
def test_positional_keyword_and_mixed_construction(cls, names, values, text):
    a = cls(*values)
    assert [getattr(a, n) for n in names] == values
    assert cls(**dict(zip(names, values))) == a
    assert cls(**dict(reversed(list(zip(names, values))))) == a
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == a


@each_record
def test_missing_field_is_a_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls()


@each_record
def test_unknown_field_is_a_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls(*values, nope=1)
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@each_record
def test_repeated_field_is_a_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls,values,other", [(r[0], r[2], r[4]) for r in RECORDS],
                         ids=[r[0].__name__ for r in RECORDS])
def test_equal_values_have_equal_hashes(cls, values, other):
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    c = cls(*values[:-1], other)  # differs from a in the last field alone
    assert a != c and not a == c


@each_record
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    a = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.nope = 1
    assert [getattr(a, n) for n in names] == values


@each_record
def test_copy_and_pickle_round_trip(cls, names, values, text):
    a = cls(*values)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is cls and repr(b) == text


@pytest.mark.parametrize("cls,names,values,text", [r[:4] for r in RECORDS if r[0] in WITH_VARS],
                         ids=[r[0].__name__ for r in RECORDS if r[0] in WITH_VARS])
def test_vars_lists_the_fields_in_order(cls, names, values, text):
    assert list(vars(cls(*values)).items()) == list(zip(names, values))


def test_records_of_different_classes_differ():
    instances = [cls(*values) for cls, _, values, *_ in RECORDS]
    for i, a in enumerate(instances):
        for j, b in enumerate(instances):
            assert (a == b) is (i == j)
    assert IndefiniteOdd(2, 2) != IndefiniteEven(2, 2)
    assert DefiniteDiagonal(1, 2) != IndefiniteOdd(1, 2)


def test_odd_rank_4_is_not_even_rank_20():
    odd = diag(1, 1, -1, -1)
    even = block_diag(E8, E8, HYPERBOLIC, HYPERBOLIC)
    for mode in ClassificationMode:
        assert not forms_isomorphic(odd, even, mode)


def test_an_eliminated_gram_matrix_is_the_same_record():
    # the elimination pass keeps its last form outside the record, so vars(),
    # equality, hash, repr, copies and pickles do not change
    m, twin = block_diag(E8, HYPERBOLIC), block_diag(E8, HYPERBOLIC)
    before = (dict(vars(m)), hash(m), repr(m), pickle.dumps(m))
    invariants(m)
    assert (vars(m), hash(m), repr(m), pickle.dumps(m)) == before
    assert m == twin and twin == m
    for b in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert b == m and vars(b) == vars(twin) and repr(b) == repr(twin) and hash(b) == hash(twin)


def test_gram_entries_become_tuples():
    g = GramMatrix([[0, 1], [1, 0]])
    assert g.entries == ((0, 1), (1, 0))
    assert type(g.entries) is tuple and all(type(row) is tuple for row in g.entries)
    assert g == GramMatrix(((0, 1), (1, 0)))
    assert hash(g) == hash(HYPERBOLIC)


MESSAGES = [
    (lambda: GramMatrix(((0, 1),)), "Gram matrix must be square"),
    (lambda: GramMatrix(((1.0,),)), "Gram matrix entries must be integers"),
    (lambda: GramMatrix(((True,),)), "Gram matrix entries must be integers"),
    (lambda: GramMatrix(((0, 1), (2, 0))), "Gram matrix must be symmetric"),
    (lambda: FormInvariants(-1, 0, 0, 0, Parity.ODD, 0), "rank and b+/b- must be non-negative"),
    (lambda: FormInvariants(2, 1, 1, 2, Parity.ODD, -1), "signature must equal b_plus - b_minus"),
    (lambda: FormInvariants(3, 1, 1, 0, Parity.ODD, -1),
     "nondegenerate form needs b_plus + b_minus = rank"),
    (lambda: FormInvariants(2, 1, 1, 0, Parity.ODD, 1), "determinant sign must be (-1)**b_minus"),
    (lambda: FormInvariants(2, 1, 1, 0, Parity.ODD, 0),
     "degenerate form needs b_plus + b_minus < rank"),
    (lambda: IndefiniteOdd(0, 1), "indefinite odd form needs n_plus >= 1 and n_minus >= 1"),
    (lambda: IndefiniteOdd(n_plus=1, n_minus=0),
     "indefinite odd form needs n_plus >= 1 and n_minus >= 1"),
    (lambda: IndefiniteEven(1, 0), "indefinite even form needs at least one hyperbolic plane"),
    (lambda: DefiniteDiagonal(2, 1), "sign must be +1 or -1"),
    (lambda: DefiniteDiagonal(sign=1, rank=0), "definite form needs rank >= 1"),
]


@pytest.mark.parametrize("build,message", MESSAGES, ids=[m for _, m in MESSAGES])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
