import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    E8,
    HYPERBOLIC,
    MINUS_E8,
    block_diag,
    brute_force_isometry,
    cofactor_determinant,
    diag,
    full_copy_unimodular_mix,
    gram_to_dict,
    one_pivot_elimination,
    parity_by_enumeration,
    signature_by_charpoly,
)
from strategies import (
    DEFAULT_ENTRY_CAP,
    gram_matrices,
    huge_symmetric_rows,
    random_unimodular_transform,
)
from surftop import lattice
from surftop.classification import FormInvariants, Parity
from surftop.lattice import MAX_ELIMINATION_WORK, GramMatrix, determinant, invariants, parity

H = HYPERBOLIC


def _deep_forms(count: int, max_rank: int = 12) -> list[GramMatrix]:
    """Seeded block sums of H, E8, <0> and <+-1> up to max_rank, each under
    a seeded unimodular change of basis. The first two are fixed so that
    elimination repairs a zero pivot after the first step (with s = -1 in
    the first, where H is written in the basis (e, f - e)) and meets a
    kernel row followed by more pivots."""
    forms = [
        block_diag(diag(1), GramMatrix(((0, 1), (1, -2))), diag(0), diag(-1)),
        block_diag(diag(0), E8, H, diag(-1)),
    ]
    rng = random.Random(12)
    for seed in range(count - len(forms)):
        blocks, left = [], rng.randint(1, max_rank)
        while left:
            b = rng.choice([b for b in (H, E8, diag(0), diag(1), diag(-1)) if b.n <= left])
            blocks.append(b)
            left -= b.n
        forms.append(random_unimodular_transform(block_diag(*blocks), seed, steps=40))
    return forms


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GramMatrix(((0, 1), (2, 0)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GramMatrix(((0, 1),))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            GramMatrix(((1.5,),))
        with pytest.raises(ValueError):
            GramMatrix(((True,),))

    @pytest.mark.parametrize("rows", [[[1.5]], [["3"]], [[True]], [[1.9, 0.5], [0.5, -1.2]]])
    def test_from_rows_rejects_non_integer(self, rows):
        with pytest.raises(ValueError, match="entries must be integers"):
            GramMatrix(rows)

    def test_empty_allowed(self):
        assert GramMatrix(()).n == 0

    def test_dict_round_trip(self):
        d = gram_to_dict(H)
        assert d == {"n": 2, "entries": [[0, 1], [1, 0]]}
        assert GramMatrix.from_dict(d) == H

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"n": 2},
            {"n": 2, "entries": [[0, 1], [1, 0]], "extra": 1},
            {"n": 1, "entries": [[0, 1], [1, 0]]},
            {"n": -1, "entries": []},
            {"n": True, "entries": [[0]]},
            {"n": 1, "entries": [(0,)]},
        ],
    )
    def test_from_dict_rejects_bad_schema(self, obj):
        with pytest.raises(ValueError):
            GramMatrix.from_dict(obj)


class TestDeterminant:
    def test_identity(self):
        assert determinant(diag(1, 1)) == 1

    def test_hyperbolic(self):
        assert determinant(H) == -1

    def test_e8_against_cofactor_oracle(self):
        assert cofactor_determinant(E8.entries) == 1
        assert determinant(E8) == 1

    def test_empty_form(self):
        assert determinant(GramMatrix(())) == 1

    def test_singular(self):
        assert determinant(diag(1, 0, 2)) == 0
        assert determinant(GramMatrix(((1, 1), (1, 1)))) == 0

    @given(gram_matrices(max_rank=5))
    def test_matches_cofactor_expansion(self, m):
        assert determinant(m) == cofactor_determinant(m.entries)


class TestEliminationWorkCap:
    """A form whose elimination estimate n^2 * H * isqrt(H) is over the cap
    is refused before the pass, by every function that eliminates."""

    CAP_MESSAGE = rf"^elimination work \d+ exceeds the cap {MAX_ELIMINATION_WORK}$"
    BIGGEST = 10**4300 - 1  # the largest entry a Gram file may hold

    @staticmethod
    def _constant(n: int, v: int) -> GramMatrix:
        # rank 1: the pass clears every row after the first pivot, so it is quick
        return GramMatrix([[v] * n for _ in range(n)])

    @pytest.mark.parametrize("op", [
        determinant, invariants, pytest.param(lambda m: determinant(m) in (1, -1), id="is_unimodular"),
    ])
    def test_rank_40_of_4300_digit_entries_refused_at_once(self, op):
        m = GramMatrix(huge_symmetric_rows(40, seed=40))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=self.CAP_MESSAGE):
            op(m)
        assert time.perf_counter() - start < 0.5

    def test_boundary_for_4300_digit_entries(self):
        assert determinant(self._constant(14, self.BIGGEST)) == 0
        with pytest.raises(ValueError, match=self.CAP_MESSAGE):
            determinant(self._constant(15, self.BIGGEST))

    def test_every_rank_200_form_within_the_entry_cap_is_accepted(self):
        # the estimate is largest when every entry is as wide as the cap allows
        assert determinant(self._constant(200, -DEFAULT_ENTRY_CAP)) == 0

    def test_rank_200_mix_accepted(self):
        m = random_unimodular_transform(diag(*[1] * 100, *[-1] * 100), seed=200, steps=20 * 200)
        start = time.perf_counter()
        inv = invariants(m)
        assert time.perf_counter() - start < 10.0  # one elimination pass: about 1 s on a 2-vCPU Xeon VM
        assert (inv.b_plus, inv.b_minus, inv.determinant) == (100, 100, 1)


class TestParity:
    def test_examples(self):
        assert parity(diag(1, -1)) is Parity.ODD
        assert parity(H) is Parity.EVEN
        assert parity(GramMatrix(((2, 1), (1, 4)))) is Parity.EVEN

    def test_rank_zero_even(self):
        assert parity(GramMatrix(())) is Parity.EVEN

    @given(gram_matrices(max_rank=6, min_entry=-4, max_entry=4))
    def test_matches_mod2_enumeration(self, m):
        assert parity(m).value == parity_by_enumeration(m.entries)


class TestIsUnimodular:
    def test_examples(self):
        assert determinant(H) in (1, -1)
        assert determinant(diag(2)) not in (1, -1)
        assert determinant(E8) in (1, -1)


class TestInvariants:
    def test_euclidean(self):
        inv = invariants(diag(1, 1, 1))
        assert inv == FormInvariants(3, 3, 0, 3, Parity.ODD, 1)

    def test_hyperbolic(self):
        inv = invariants(H)
        assert inv == FormInvariants(2, 1, 1, 0, Parity.EVEN, -1)

    def test_e8_sign_flipped(self):
        inv = invariants(MINUS_E8)
        assert inv == FormInvariants(8, 0, 8, -8, Parity.EVEN, 1)
        assert signature_by_charpoly(MINUS_E8.entries) == (0, 8)

    def test_degenerate_reports_smaller_inertia(self):
        inv = invariants(diag(1, 0, -1))
        assert inv.rank == 3
        assert inv.b_plus + inv.b_minus == 2
        assert inv.determinant == 0

    def test_zero_pivot_with_offdiagonal(self):
        # leading entry 0 forces the pivot-repair path
        m = GramMatrix(((0, 1, 0), (1, -2, 1), (0, 1, 3)))
        pos, neg = signature_by_charpoly(m.entries)
        inv = invariants(m)
        assert (inv.b_plus, inv.b_minus) == (pos, neg)

    def test_rank_zero_conventions(self):
        inv = invariants(GramMatrix(()))
        assert inv == FormInvariants(0, 0, 0, 0, Parity.EVEN, 1)

    def test_calls_determinant_once_with_the_form(self, monkeypatch):
        # perfbench's lattice.determinant_s.r26/r40/r64 metrics sample traced
        # determinant() calls made by invariants(), and a traced run without
        # them fails; the call reuses the pass invariants() has just run
        calls = []
        original = lattice.determinant
        monkeypatch.setattr(lattice, "determinant", lambda m: calls.append(m) or original(m))
        m = block_diag(E8, H)
        assert invariants(m).determinant == -1
        assert len(calls) == 1 and calls[0] is m

    @pytest.mark.parametrize("m", _deep_forms(20), ids=lambda m: f"rank{m.n}")
    def test_deep_ranks_match_oracles(self, m):
        inv = invariants(m)
        assert inv.determinant == cofactor_determinant(m.entries)
        assert (inv.b_plus, inv.b_minus) == signature_by_charpoly(m.entries)

    @given(gram_matrices(max_rank=9, min_entry=-2, max_entry=2))
    @settings(max_examples=300)
    def test_eliminate_matches_one_pivot_pass(self, m):
        # small entries make zero leading minors common, so the three-pivot
        # step often falls back to one pivot, a repair or a kernel row
        assert lattice._eliminate(m) == one_pivot_elimination(m.entries)

    # rank-6 forms on which the one-pivot pass, from pivot 0, takes one pivot and then
    # repairs (the zero falls on the 2nd pivot of a would-be block), takes two and then
    # repairs (the 3rd), takes three and then repairs, or takes three and meets a kernel row
    @pytest.mark.parametrize("rows", [
        ((1, -1, 0, 1, 1, 2), (-1, 1, 1, 2, 0, 2), (0, 1, -1, 1, 2, 0),
         (1, 2, 1, -1, 1, 2), (1, 0, 2, 1, -1, 0), (2, 2, 0, 2, 0, 1)),
        ((1, 1, -1, 0, -1, 0), (1, 2, 0, 1, -1, 1), (-1, 0, 2, -1, 0, -1),
         (0, 1, -1, 1, -1, 1), (-1, -1, 0, -1, -1, 1), (0, 1, -1, 1, 1, -1)),
        ((-1, -1, -1, 1, 1, 2), (-1, 1, -1, 1, -1, 2), (-1, -1, 2, 1, 0, 2),
         (1, 1, 1, -1, 1, 1), (1, -1, 0, 1, 1, 1), (2, 2, 2, 1, 1, 0)),
        ((2, 1, 0, 0, -1, 2), (1, 1, -1, 1, 2, 0), (0, -1, 1, -1, 1, -1),
         (0, 1, -1, 1, -1, 1), (-1, 2, 1, -1, 0, 2), (2, 0, -1, 1, 2, -1)),
    ], ids=["zero-2nd-pivot", "zero-3rd-pivot", "repair-after-block", "kernel-after-block"])
    def test_zero_pivots_around_a_block(self, rows):
        m = GramMatrix(rows)
        assert lattice._eliminate(m) == one_pivot_elimination(rows)
        inv = invariants(m)
        assert inv.determinant == cofactor_determinant(rows)
        assert (inv.b_plus, inv.b_minus) == signature_by_charpoly(rows)

    @given(gram_matrices(max_rank=4))
    def test_signature_matches_charpoly_signs(self, m):
        inv = invariants(m)
        pos, neg = signature_by_charpoly(m.entries)
        assert (inv.b_plus, inv.b_minus) == (pos, neg)
        assert inv.signature == pos - neg

    @given(gram_matrices(max_rank=4))
    def test_self_consistency(self, m):
        inv = invariants(m)
        assert inv.rank == m.n
        assert inv.signature == inv.b_plus - inv.b_minus
        if inv.determinant != 0:
            assert inv.b_plus + inv.b_minus == inv.rank
            assert (inv.determinant > 0) == (inv.b_minus % 2 == 0)
        else:
            assert inv.b_plus + inv.b_minus < inv.rank


@pytest.fixture
def passes(monkeypatch):
    """Counts elimination passes: the work estimate takes one isqrt per pass."""
    calls = []
    original = lattice.isqrt
    monkeypatch.setattr(lattice, "isqrt", lambda h: calls.append(h) or original(h))
    return calls


class TestOnePass:
    """invariants() and the determinant() call it makes share one pass,
    reused only for the very same form object."""

    def test_invariants_runs_one_pass(self, passes):
        assert invariants(block_diag(E8, H)).determinant == -1
        assert len(passes) == 1

    @pytest.mark.parametrize("m", _deep_forms(20), ids=lambda m: f"rank{m.n}")
    def test_determinant_after_invariants_matches_cofactor(self, m, passes):
        m = GramMatrix(m.entries)  # a new object, whatever ran on the shared one
        invariants(m)
        assert determinant(m) == cofactor_determinant(m.entries)
        assert len(passes) == 1

    def test_equal_but_distinct_form_runs_its_own_pass(self, passes):
        m = block_diag(E8, H)
        inv = invariants(m)
        twin = GramMatrix(m.entries)
        assert twin == m and twin is not m
        assert invariants(twin) == inv
        assert len(passes) == 2

    def test_other_forms_are_not_answered_from_the_last_pass(self, passes):
        h = GramMatrix(H.entries)
        invariants(h)
        assert determinant(diag(2)) == 2
        assert invariants(h).determinant == -1
        assert len(passes) == 3

    @pytest.mark.parametrize("op", [determinant, invariants])
    def test_refused_form_raises_on_every_call_and_is_not_kept(self, op, passes):
        m = GramMatrix(huge_symmetric_rows(40, seed=40))
        for call in range(1, 4):
            with pytest.raises(ValueError, match=TestEliminationWorkCap.CAP_MESSAGE):
                op(m)
            assert len(passes) == call
        assert lattice._last[0] is not m


class TestFormInvariantsValidation:
    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            FormInvariants(2, 1, 1, 2, Parity.EVEN, -1)

    def test_inertia_exceeds_rank(self):
        with pytest.raises(ValueError):
            FormInvariants(1, 1, 1, 0, Parity.EVEN, -1)

    def test_det_sign_mismatch(self):
        with pytest.raises(ValueError):
            FormInvariants(2, 1, 1, 0, Parity.EVEN, 1)

    def test_degenerate_full_inertia(self):
        with pytest.raises(ValueError):
            FormInvariants(2, 1, 1, 0, Parity.EVEN, 0)


class TestRandomUnimodularTransform:
    def test_zero_steps_is_identity(self):
        assert random_unimodular_transform(H, seed=3, steps=0) == H

    def test_rank_zero(self):
        empty = GramMatrix(())
        assert random_unimodular_transform(empty, seed=1, steps=10) == empty

    def test_rank_one(self):
        m = diag(5)
        assert random_unimodular_transform(m, seed=1, steps=10) == m

    def test_hyperbolic_keeps_invariants(self):
        m = random_unimodular_transform(H, seed=1, steps=50)
        assert invariants(m) == invariants(H)

    def test_determinant_preserved(self):
        m = random_unimodular_transform(diag(1, -1), seed=7, steps=100)
        assert determinant(m) == -1

    def test_deterministic_in_seed(self):
        a = random_unimodular_transform(E8, seed=11, steps=40)
        b = random_unimodular_transform(E8, seed=11, steps=40)
        assert a == b

    def test_entry_cap_respected(self):
        m = random_unimodular_transform(E8, seed=2, steps=500, max_entry=50)
        assert max(abs(v) for row in m.entries for v in row) <= 50

    @given(gram_matrices(max_rank=4), st.integers(0, 2**32), st.integers(0, 60))
    @settings(max_examples=60)
    def test_invariants_preserved(self, m, seed, steps):
        assert invariants(random_unimodular_transform(m, seed, steps)) == invariants(m)


# (form, max_entry): ranks 1, 2 and 12, caps that skip additions, and inputs
# that already hold entries past the cap
WIDE = GramMatrix(((4, 4), (4, 52)))
MIX_CASES = [
    (diag(5), 10**6),
    (diag(5), 3),
    (H, 10**6),
    (H, 2),
    (WIDE, 50),
    (block_diag(E8, H, diag(1, -1)), 10**6),
    (block_diag(E8, H, diag(1, -1)), 4),
    (block_diag(E8, WIDE, H), 50),
]


class TestMixMatchesFullCopyLoop:
    """random_unimodular_transform against the whole-matrix loop it replaced."""

    @pytest.mark.parametrize("steps", [1, 7, 60, 400])
    @pytest.mark.parametrize("m, max_entry", MIX_CASES)
    def test_same_matrix(self, m, max_entry, steps):
        for seed in range(10):
            got = random_unimodular_transform(m, seed, steps, max_entry)
            want = full_copy_unimodular_mix(m.entries, seed, steps, max_entry)
            assert [list(r) for r in got.entries] == want

    def test_small_cap_skips_additions(self):
        m = block_diag(E8, H, diag(1, -1))
        assert any(
            random_unimodular_transform(m, seed, 60, 4) != random_unimodular_transform(m, seed, 60)
            for seed in range(10)
        )

    def test_input_past_the_cap_takes_and_refuses_additions(self):
        # WIDE's 52 goes with i = 1, j = 0, s = -1; i = 0 would leave it outside row 0
        mixes = [random_unimodular_transform(WIDE, seed, 7, 50) for seed in range(40)]
        widest = {max(abs(v) for r in m.entries for v in r) for m in mixes}
        assert min(widest) <= 50 < max(widest)


class TestBruteForceIsometry:
    def test_hyperbolic_self(self):
        p = brute_force_isometry(H, H, 1)
        assert p is not None
        assert _congruent(H, p) == H.entries

    def test_parity_obstruction(self):
        assert brute_force_isometry(diag(1, -1), H, 2) is None

    def test_odd_indefinite_witness(self):
        b = GramMatrix(((1, 2), (2, 3)))
        p = brute_force_isometry(diag(1, -1), b, 5)
        assert p is not None
        assert _congruent(diag(1, -1), p) == b.entries
        assert cofactor_determinant(p) in (1, -1)

    def test_skips_non_unimodular_candidates(self):
        # every P maps <0> to <0>; the search order tries (-2) before (-1)
        assert brute_force_isometry(diag(0), diag(0), 2) == ((-1,),)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_isometry(H, diag(1), 1)

    def test_rank_zero(self):
        assert brute_force_isometry(GramMatrix(()), GramMatrix(()), 0) == ()

    @given(gram_matrices(min_rank=2, max_rank=2, min_entry=-2, max_entry=2),
           gram_matrices(min_rank=2, max_rank=2, min_entry=-2, max_entry=2))
    @settings(max_examples=40)
    def test_witness_implies_equal_invariants(self, a, b):
        p = brute_force_isometry(a, b, 2)
        if p is not None:
            assert _congruent(a, p) == b.entries
            assert invariants(a) == invariants(b)


def _congruent(a, p):
    n = a.n
    rows = [
        [
            sum(p[r][i] * a.entries[r][s] * p[s][j] for r in range(n) for s in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return tuple(tuple(r) for r in rows)


class TestBlockHelpers:
    def test_diag(self):
        assert diag(1, -1).entries == ((1, 0), (0, -1))

    def test_block_diag(self):
        m = block_diag(diag(1), H)
        assert m.entries == ((1, 0, 0), (0, 0, 1), (0, 1, 0))

    def test_block_diag_empty(self):
        assert block_diag() == GramMatrix(())
