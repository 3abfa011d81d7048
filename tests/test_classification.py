import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_isometry
from strategies import random_unimodular_transform
from surftop.classification import (
    E8,
    HYPERBOLIC,
    MINUS_E8,
    ClassificationMode,
    DefiniteDiagonal,
    IndefiniteEven,
    IndefiniteOdd,
    canonical_gram,
    class_from_dict,
    class_to_dict,
    classify_form,
    describe,
    forms_isomorphic,
)
from surftop.errors import (
    DefiniteEvenUnrealizableError,
    DefiniteNotClassifiedError,
    DegenerateFormError,
    EmptyFormError,
    InconsistentEvenSignatureError,
    NotUnimodularError,
)
from surftop.lattice import (
    FormInvariants,
    GramMatrix,
    Parity,
    determinant,
    diag,
    invariants,
    parity,
)

ABSTRACT = ClassificationMode.ABSTRACT_LATTICE
SMOOTH = ClassificationMode.SMOOTH_FOUR_MANIFOLD
H = HYPERBOLIC


def _inv(rank, signature, par, det):
    b_plus = (rank + signature) // 2
    return FormInvariants(rank, b_plus, rank - b_plus, signature, par, det)


class TestConstants:
    def test_e8(self):
        inv = invariants(E8)
        assert (inv.rank, inv.signature, inv.parity, inv.determinant) == (
            8,
            8,
            Parity.EVEN,
            1,
        )

    def test_hyperbolic(self):
        assert H.entries == ((0, 1), (1, 0))
        assert determinant(H) == -1


class TestClassifyForm:
    def test_indefinite_odd(self):
        for mode in (ABSTRACT, SMOOTH):
            assert classify_form(_inv(2, 0, Parity.ODD, -1), mode) == IndefiniteOdd(1, 1)

    def test_indefinite_even_k3_shape(self):
        # b- = 19, so the determinant of any such form is -1
        got = classify_form(_inv(22, -16, Parity.EVEN, -1), ABSTRACT)
        assert got == IndefiniteEven(-2, 3)
        # cross-check against the invariants of the realized canonical matrix
        realized = invariants(canonical_gram(got))
        assert (realized.rank, realized.signature, realized.parity) == (
            22,
            -16,
            Parity.EVEN,
        )

    def test_definite_smooth(self):
        got = classify_form(_inv(8, 8, Parity.ODD, 1), SMOOTH)
        assert got == DefiniteDiagonal(1, 8)

    def test_definite_rank_one(self):
        assert classify_form(_inv(1, 1, Parity.ODD, 1), SMOOTH) == DefiniteDiagonal(1, 1)
        assert classify_form(_inv(1, -1, Parity.ODD, -1), SMOOTH) == DefiniteDiagonal(-1, 1)

    def test_degenerate_rejected(self):
        bad = FormInvariants(3, 1, 1, 0, Parity.ODD, 0)
        with pytest.raises(DegenerateFormError):
            classify_form(bad, ABSTRACT)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodularError):
            classify_form(FormInvariants(1, 1, 0, 1, Parity.EVEN, 2), ABSTRACT)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_form(FormInvariants(0, 0, 0, 0, Parity.EVEN, 1), ABSTRACT)

    def test_definite_abstract_refused(self):
        with pytest.raises(DefiniteNotClassifiedError):
            classify_form(_inv(8, 8, Parity.EVEN, 1), ABSTRACT)

    def test_even_definite_smooth_unrealizable(self):
        with pytest.raises(DefiniteEvenUnrealizableError):
            classify_form(_inv(8, 8, Parity.EVEN, 1), SMOOTH)

    def test_even_signature_not_multiple_of_8(self):
        synthetic = _inv(10, 2, Parity.EVEN, 1)
        for mode in (ABSTRACT, SMOOTH):
            with pytest.raises(InconsistentEvenSignatureError):
                classify_form(synthetic, mode)


class TestRejectionMessages:
    def test_rank_zero_is_named(self):
        with pytest.raises(EmptyFormError, match="^classification requires rank >= 1$"):
            classify_form(FormInvariants(0, 0, 0, 0, Parity.EVEN, 1), SMOOTH)

    def test_small_determinant_in_digits(self):
        with pytest.raises(NotUnimodularError, match=r"^determinant -3 is not \+/-1$"):
            classify_form(_inv(2, 0, Parity.ODD, -3), ABSTRACT)

    @pytest.mark.parametrize("rank, det", [(1, 7**6000), (2, -(7**6000))], ids=["positive", "negative"])
    def test_determinant_past_digit_limit_by_bit_length(self, rank, det):
        # 5071 decimal digits, more than str() converts by default
        expected = rf"^determinant of {abs(det).bit_length()} bits is not \+/-1$"
        with pytest.raises(NotUnimodularError, match=expected):
            classify_form(_inv(rank, 2 - rank, Parity.ODD, det), ABSTRACT)


class TestClassifyGram:
    def test_hyperbolic(self):
        assert classify_form(invariants(H), ABSTRACT) == IndefiniteEven(0, 1)

    def test_odd_diagonal(self):
        assert classify_form(invariants(diag(1, 1, -1)), ABSTRACT) == IndefiniteOdd(2, 1)

    def test_e8_refused_abstract(self):
        with pytest.raises(DefiniteNotClassifiedError):
            classify_form(invariants(E8), ABSTRACT)

    def test_degenerate(self):
        with pytest.raises(DegenerateFormError):
            classify_form(invariants(diag(1, 0)), ABSTRACT)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            classify_form(invariants(diag(2, -1)), ABSTRACT)


class TestCanonicalGram:
    def test_odd(self):
        assert canonical_gram(IndefiniteOdd(1, 1)) == diag(1, -1)
        assert canonical_gram(IndefiniteOdd(2, 1)) == diag(1, 1, -1)

    def test_even_single_h(self):
        assert canonical_gram(IndefiniteEven(0, 1)) == H

    def test_even_with_negative_e8(self):
        m = canonical_gram(IndefiniteEven(-2, 3))
        assert m.n == 22
        inv = invariants(m)
        assert (inv.signature, inv.parity, inv.determinant) == (-16, Parity.EVEN, -1)
        # block order: negative E8 blocks come before the hyperbolic tail
        assert m.entries[0][0] == -2
        assert m.entries[16][17] == 1

    def test_definite(self):
        assert canonical_gram(DefiniteDiagonal(-1, 3)) == diag(-1, -1, -1)


def _classes_up_to(max_rank):
    out = []
    for n_plus in range(1, max_rank):
        for n_minus in range(1, max_rank + 1 - n_plus):
            out.append(IndefiniteOdd(n_plus, n_minus))
    for e8 in range(-3, 4):
        for h in range(1, (max_rank - 8 * abs(e8)) // 2 + 1):
            out.append(IndefiniteEven(e8, h))
    for sign in (1, -1):
        for rank in range(1, max_rank + 1):
            out.append(DefiniteDiagonal(sign, rank))
    return out


class TestRoundTrip:
    @pytest.mark.parametrize("cls", _classes_up_to(12), ids=describe)
    def test_classify_canonical_gram(self, cls):
        mode = SMOOTH if isinstance(cls, DefiniteDiagonal) else ABSTRACT
        assert classify_form(invariants(canonical_gram(cls)), mode) == cls

    def test_rank_sigma_reconstruction(self):
        for cls in _classes_up_to(12):
            m = canonical_gram(cls)
            inv = invariants(m)
            assert cls.rank == inv.rank == m.n
            assert cls.signature == inv.signature


class TestFormsIsomorphic:
    def test_even_rank2_pair(self):
        other = GramMatrix(((2, 1), (1, 0)))
        assert parity(other) is Parity.EVEN
        assert determinant(other) == -1
        assert forms_isomorphic(H, other, ABSTRACT)
        witness = brute_force_isometry(H, other, 3)
        assert witness is not None

    def test_parity_distinguishes(self):
        assert not forms_isomorphic(diag(1, -1), H, ABSTRACT)

    def test_reflexive_definite_smooth(self):
        assert forms_isomorphic(diag(1, 1, 1), diag(1, 1, 1), SMOOTH)

    def test_definite_abstract_refused_not_compared(self):
        with pytest.raises(DefiniteNotClassifiedError):
            forms_isomorphic(diag(1, 1), diag(1, 1), ABSTRACT)


class TestBasisIndependence:
    @given(
        st.sampled_from(_classes_up_to(10)),
        st.integers(0, 2**32),
        st.integers(0, 80),
    )
    @settings(max_examples=60)
    def test_classification_survives_basis_change(self, cls, seed, steps):
        mode = SMOOTH if isinstance(cls, DefiniteDiagonal) else ABSTRACT
        m = canonical_gram(cls)
        moved = random_unimodular_transform(m, seed, steps)
        assert classify_form(invariants(moved), mode) == cls


class TestEvenSignatureTheorem:
    @pytest.mark.parametrize(
        "m",
        [H, E8, MINUS_E8],
        ids=["H", "E8", "-E8"],
    )
    def test_corpus(self, m):
        inv = invariants(m)
        assert inv.parity is Parity.EVEN
        assert inv.signature % 8 == 0

    @given(st.sampled_from([c for c in _classes_up_to(20) if isinstance(c, IndefiniteEven)]),
           st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_even_unimodular_fuzzed(self, cls, seed):
        m = random_unimodular_transform(canonical_gram(cls), seed, 40)
        inv = invariants(m)
        if inv.parity is Parity.EVEN:
            assert inv.signature % 8 == 0


class TestOracleAgreementRank3:
    # unimodular indefinite rank-3 matrices with entries in [-2, 2]
    CORPUS = [
        GramMatrix(((1, 0, 0), (0, 1, 0), (0, 0, -1))),
        GramMatrix(((1, 0, 0), (0, -1, 0), (0, 0, -1))),
        GramMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1))),
        GramMatrix(((0, 1, 0), (1, 0, 0), (0, 0, -1))),
        GramMatrix(((-2, -2, -1), (-2, -1, -2), (-1, -2, 0))),
        GramMatrix(((-2, -2, -1), (-2, -1, -2), (-1, -2, 1))),
        GramMatrix(((0, 1, 1), (1, 0, 0), (1, 0, -1))),
        GramMatrix(((-2, -2, -1), (-2, -1, -1), (-1, -1, 0))),
    ]

    def test_corpus_is_unimodular_indefinite(self):
        for m in self.CORPUS:
            inv = invariants(m)
            assert abs(inv.determinant) == 1
            assert abs(inv.signature) < inv.rank == 3

    def test_witness_implies_isomorphic(self):
        import itertools

        found = 0
        for a, b in itertools.product(self.CORPUS, repeat=2):
            if brute_force_isometry(a, b, 2) is not None:
                found += 1
                assert forms_isomorphic(a, b, ABSTRACT)
        assert found >= len(self.CORPUS)  # at least the diagonal pairs


class TestVariantValidation:
    def test_indefinite_odd_needs_both_signs(self):
        with pytest.raises(ValueError):
            IndefiniteOdd(0, 1)
        with pytest.raises(ValueError):
            IndefiniteOdd(1, 0)

    def test_indefinite_even_needs_hyperbolic(self):
        with pytest.raises(ValueError):
            IndefiniteEven(1, 0)

    def test_definite_sign(self):
        with pytest.raises(ValueError):
            DefiniteDiagonal(2, 1)
        with pytest.raises(ValueError):
            DefiniteDiagonal(1, 0)


class TestSerialization:
    @pytest.mark.parametrize("cls", _classes_up_to(10), ids=describe)
    def test_round_trip(self, cls):
        assert class_from_dict(class_to_dict(cls)) == cls

    def test_tags(self):
        assert class_to_dict(IndefiniteOdd(1, 1)) == {
            "variant": "IndefiniteOdd",
            "n_plus": 1,
            "n_minus": 1,
        }

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"variant": "Nope"},
            {"variant": "IndefiniteOdd", "n_plus": 1},
            {"variant": "IndefiniteOdd", "n_plus": 1, "n_minus": 0},
            {"variant": "IndefiniteEven", "e8_signed_count": 0, "h_count": True},
            42,
        ],
    )
    def test_rejects_bad_objects(self, obj):
        with pytest.raises(ValueError):
            class_from_dict(obj)


class TestDescribe:
    def test_strings(self):
        assert describe(IndefiniteEven(0, 1)) == "H"
        assert describe(IndefiniteOdd(1, 1)) == "⟨1⟩ ⊕ ⟨-1⟩"
        assert describe(IndefiniteEven(-2, 3)) == "-2E8 ⊕ 3H"
        assert describe(IndefiniteEven(1, 2)) == "E8 ⊕ 2H"
        assert describe(DefiniteDiagonal(1, 1)) == "⟨1⟩"
        assert describe(DefiniteDiagonal(-1, 4)) == "4⟨-1⟩"
