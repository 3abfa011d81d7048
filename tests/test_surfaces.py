import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surftop.classification import DefiniteDiagonal, IndefiniteEven, IndefiniteOdd, Parity
from surftop.errors import DomainError, InvalidInputError, InvalidSurfaceError
from surftop.surfaces import (
    SurfaceData,
    blow_up,
    catalog,
    catalog_lookup,
    compute_invariants,
    homeomorphic,
    hypersurface,
    intersection_form_class,
)

P2 = SurfaceData("P2", 9, 3, False)
P1XP1 = SurfaceData("P1xP1", 8, 4, True)
K3 = SurfaceData("K3", 0, 24, True)


class TestComputeInvariants:
    def test_projective_plane(self):
        inv = compute_invariants(P2)
        assert (inv.b2, inv.sigma, inv.parity) == (1, 1, Parity.ODD)
        assert (inv.b_plus, inv.b_minus, inv.chi_holo) == (1, 0, 1)

    def test_quadric(self):
        inv = compute_invariants(P1XP1)
        assert (inv.b2, inv.sigma, inv.parity) == (2, 0, Parity.EVEN)

    def test_k3(self):
        inv = compute_invariants(K3)
        assert (inv.b2, inv.sigma, inv.parity) == (22, -16, Parity.EVEN)
        assert (inv.b_plus, inv.b_minus, inv.chi_holo) == (3, 19, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            SurfaceData("noether", 1, 3, False),       # c1^2 + c2 not 0 mod 12
            SurfaceData("tiny", 10, 2, False),         # c2 < 3
            SurfaceData("negchi", -3, 3, False),       # derived b+ = -1
            SurfaceData("bigsigma", 21, 3, False),     # derived b- < 0
            SurfaceData("fake-spin", 4, 8, True),      # spin but sigma = -4
        ],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(InvalidSurfaceError):
            compute_invariants(bad)


class TestIntersectionFormClass:
    def test_quadric_is_hyperbolic(self):
        assert intersection_form_class(P1XP1) == IndefiniteEven(0, 1)

    def test_blown_up_plane_is_odd(self):
        assert intersection_form_class(blow_up(P2, 1)) == IndefiniteOdd(1, 1)

    def test_plane_is_rank_one_definite(self):
        assert intersection_form_class(P2) == DefiniteDiagonal(1, 1)

    def test_k3(self):
        assert intersection_form_class(K3) == IndefiniteEven(-2, 3)


class TestHomeomorphic:
    def test_counterexample_pair(self):
        assert homeomorphic(P1XP1, blow_up(P2, 1)) is False

    def test_reflexive(self):
        for s in (P2, P1XP1, K3):
            assert homeomorphic(s, s)

    def test_cubic_vs_six_blowups(self):
        assert homeomorphic(hypersurface(3), blow_up(P2, 6)) is True

    def test_invalid_propagates(self):
        with pytest.raises(InvalidSurfaceError):
            homeomorphic(P2, SurfaceData("bad", 1, 3, False))


class TestHypersurface:
    @pytest.mark.parametrize(
        "d,c1_sq,c2,spin",
        [(1, 9, 3, False), (2, 8, 4, True), (4, 0, 24, True)],
    )
    def test_small_degrees(self, d, c1_sq, c2, spin):
        s = hypersurface(d)
        assert (s.c1_sq, s.c2, s.spin) == (c1_sq, c2, spin)

    def test_signature_closed_form(self):
        for d in range(1, 13):
            inv = compute_invariants(hypersurface(d))
            assert inv.sigma == d * (2 - d) * (2 + d) // 3

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            hypersurface(0)


class TestBlowUp:
    def test_plane_once(self):
        s = blow_up(P2, 1)
        assert (s.c1_sq, s.c2, s.spin) == (8, 4, False)

    def test_zero_is_identity(self):
        assert blow_up(P1XP1, 0) is P1XP1

    def test_six_points_matches_cubic(self):
        s = blow_up(P2, 6)
        cubic = hypersurface(3)
        assert (s.c1_sq, s.c2, s.spin) == (cubic.c1_sq, cubic.c2, cubic.spin)

    def test_spin_killed(self):
        assert blow_up(P1XP1, 1).spin is False

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            blow_up(P2, -1)

    @given(st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40)
    def test_composition_adds(self, a, b):
        once = blow_up(blow_up(K3, a), b)
        combined = blow_up(K3, a + b)
        assert (once.c1_sq, once.c2, once.spin) == (
            combined.c1_sq,
            combined.c2,
            combined.spin,
        )


class TestCatalog:
    def test_required_entries(self):
        names = {s.name for s in catalog()}
        required = {"P2", "P1xP1"}
        required |= {f"Bl{k}P2" for k in range(1, 10)}
        required |= {f"deg{d}" for d in range(1, 7)}
        assert required <= names

    def test_lookups(self):
        p2 = catalog_lookup("P2")
        assert (p2.c1_sq, p2.c2, p2.spin) == (9, 3, False)
        q = catalog_lookup("P1xP1")
        assert (q.c1_sq, q.c2, q.spin) == (8, 4, True)

    def test_aliases(self):
        assert catalog_lookup("BlP2") == catalog_lookup("Bl1P2")
        assert catalog_lookup("K3") == catalog_lookup("deg4")

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError, match="^no catalog surface named 'P3'$") as exc:
            catalog_lookup("P3")
        assert isinstance(exc.value, DomainError) and exc.value.name == "InvalidInput"

    def test_every_entry_validates(self):
        for s in catalog():
            inv = compute_invariants(s)
            assert inv.b2 >= 1

    def test_noether_constraints(self):
        for s in catalog():
            assert (s.c1_sq + s.c2) % 12 == 0
            assert (s.c1_sq - 2 * s.c2) % 3 == 0

    def test_records_in_order(self):
        # written out by hand, independently of the hypersurface/blow_up formulas
        assert [(s.name, s.c1_sq, s.c2, s.spin) for s in catalog()] == [
            ("P2", 9, 3, False),
            ("P1xP1", 8, 4, True),
            ("Bl1P2", 8, 4, False),
            ("Bl2P2", 7, 5, False),
            ("Bl3P2", 6, 6, False),
            ("Bl4P2", 5, 7, False),
            ("Bl5P2", 4, 8, False),
            ("Bl6P2", 3, 9, False),
            ("Bl7P2", 2, 10, False),
            ("Bl8P2", 1, 11, False),
            ("Bl9P2", 0, 12, False),
            ("deg1", 9, 3, False),
            ("deg2", 8, 4, True),
            ("deg3", 3, 9, False),
            ("deg4", 0, 24, True),
            ("deg5", 5, 55, False),
            ("deg6", 24, 108, True),
        ]

    def test_every_alias(self):
        aliases = {"BlP2": "Bl1P2", "K3": "deg4", "Quadric": "deg2", "Cubic": "deg3"}
        for alias, name in aliases.items():
            assert catalog_lookup(alias) is catalog_lookup(name)

    def test_blowup_entries_match_constructor(self):
        p2 = catalog_lookup("P2")
        for k in range(1, 10):
            entry = catalog_lookup(f"Bl{k}P2")
            built = blow_up(p2, k)
            assert (entry.c1_sq, entry.c2, entry.spin) == (
                built.c1_sq,
                built.c2,
                built.spin,
            )

    def test_hypersurface_entries_match_constructor(self):
        for d in range(1, 7):
            entry = catalog_lookup(f"deg{d}")
            built = hypersurface(d)
            assert (entry.c1_sq, entry.c2, entry.spin) == (
                built.c1_sq,
                built.c2,
                built.spin,
            )


class TestHomeomorphismIsEquivalence:
    def test_equivalence_relation_on_catalog(self):
        entries = catalog()
        for s in entries:
            assert homeomorphic(s, s)
        for a, b in itertools.combinations(entries, 2):
            assert homeomorphic(a, b) == homeomorphic(b, a)
        verdict = {
            (a.name, b.name): homeomorphic(a, b)
            for a in entries
            for b in entries
        }
        for a, b, c in itertools.product(entries, repeat=3):
            if verdict[(a.name, b.name)] and verdict[(b.name, c.name)]:
                assert verdict[(a.name, c.name)]

    def test_matches_form_class_comparison(self):
        entries = catalog()
        for a, b in itertools.combinations(entries, 2):
            same_class = intersection_form_class(a) == intersection_form_class(b)
            assert homeomorphic(a, b) == same_class


class TestSpinForcesSignatureMod8:
    @given(st.integers(-30, 30), st.integers(3, 60))
    @settings(max_examples=200)
    def test_never_a_wrong_answer(self, c1_sq, c2):
        s = SurfaceData("fuzz", c1_sq, c2, True)
        try:
            inv = compute_invariants(s)
        except InvalidSurfaceError:
            return
        assert inv.sigma % 8 == 0
        assert inv.parity is Parity.EVEN


class TestHugeSums:
    """c1^2 + c2 past 40 digits is named by bit length."""

    N = int("9" * 4300)

    @pytest.mark.parametrize("c1_sq, c2", [(N, N), (1, N)], ids=["N+N", "1+N"])
    def test_named_by_bit_length(self, c1_sq, c2):
        expected = rf"^big: c1\^2 \+ c2 = a number of {(c1_sq + c2).bit_length()} bits not divisible by 12$"
        with pytest.raises(InvalidSurfaceError, match=expected):
            compute_invariants(SurfaceData("big", c1_sq, c2, False))

    def test_small_sum_in_digits(self):
        with pytest.raises(InvalidSurfaceError, match=r"^noether: c1\^2 \+ c2 = 4 not divisible by 12$"):
            compute_invariants(SurfaceData("noether", 1, 3, False))


class TestDerivedInvariantsExact:
    """Once 12 | c1^2 + c2, sigma = (c1^2 - 2 c2)/3 and b+- = (b2 +- sigma)/2
    divide exactly, so compute_invariants needs no further divisibility check."""

    def test_grid(self):
        for c1_sq, c2 in itertools.product(range(-60, 61), range(3, 80)):
            try:
                inv = compute_invariants(SurfaceData("grid", c1_sq, c2, False))
            except InvalidSurfaceError:
                continue
            assert 3 * inv.sigma == c1_sq - 2 * c2
            assert inv.b_plus + inv.b_minus == inv.b2 == c2 - 2
            assert inv.b_plus - inv.b_minus == inv.sigma
            assert 12 * inv.chi_holo == c1_sq + c2
