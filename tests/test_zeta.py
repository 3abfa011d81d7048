import json
import math
import random
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import (
    OracleField,
    model_has_good_reduction,
    model_surface_name,
    naive_affine_chart_count,
    naive_blowup_count,
    weil_bound_check,
)
from surftop import zeta
from surftop.errors import NotPrimeError, UnsupportedDegreeError, ZeroFormError
from surftop.surfaces import compute_invariants, catalog_lookup
from surftop.zeta import (
    MAX_Q,
    MODELS,
    FiniteField,
    PointCount,
    build_field,
    count_blowup_p2,
    count_hypersurface_p3,
    count_p1xp1,
    count_variety,
    counterexample_report,
    fermat_form,
    is_prime,
    projective_points,
)

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]
# every field with q <= 27 that build_field supports (k <= 3 rules out 16)
FIELDS_TO_27 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                (13, 1), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]
HUGE_PRIME = 1000000000000000003
GOLDEN_COUNTS = Path(__file__).parent / "data" / "golden_counts.json"


def _golden():
    return json.loads(GOLDEN_COUNTS.read_text())["counts"]


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 97}
        for n in range(-2, 100):
            assert is_prime(n) == (n in primes or n in {17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89})


class TestBuildField:
    def test_prime_field(self):
        f = build_field(5, 1)
        assert (f.p, f.k, f.q, f.modulus) == (5, 1, 5, None)

    def test_gf4_modulus(self):
        assert build_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1

    def test_gf9_modulus_is_first_irreducible(self):
        f = build_field(3, 2)
        assert f.modulus == (1, 0, 1)  # x^2 + 1
        # independent scan: no lexicographically earlier tail is irreducible
        for tail in [(0, 0), (0, 1), (0, 2)]:
            coeffs = tail + (1,)
            assert any(
                sum(c * a**i for i, c in enumerate(coeffs)) % 3 == 0 for a in range(3)
            )

    def test_not_prime(self):
        for p in (1, 4, 6, 9):
            with pytest.raises(NotPrimeError):
                build_field(p, 1)

    def test_unsupported_degree(self):
        for k in (0, 4, -1):
            with pytest.raises(UnsupportedDegreeError):
                build_field(3, k)


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_frobenius_and_unit_group(self, p, k):
        f = build_field(p, k)
        els = list(f.elements())
        assert len(els) == f.q
        rng = random.Random(0)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(100)]
        frob = lambda x: f.pow(x, p)
        for a, b in pairs:
            assert frob(f.add(a, b)) == f.add(frob(a), frob(b))
            assert frob(f.mul(a, b)) == f.mul(frob(a), frob(b))
        for a, _ in pairs:
            if a != f.zero:
                assert f.pow(a, f.q - 1) == f.one

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_inverse(self, p, k):
        f = build_field(p, k)
        for a in f.elements():
            if a != f.zero:
                assert f.mul(a, f.pow(a, f.q - 2)) == f.one

    def test_sub_neg(self):
        f = build_field(7, 1)
        assert f.sub((3,), (5,)) == (5,)
        assert f.neg((2,)) == (5,)

    def test_negative_exponent_refused(self):
        f = build_field(7, 1)
        with pytest.raises(ValueError, match="^negative exponent$"):
            f.pow((3,), -1)


class TestProjectiveEnumeration:
    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_representative_count(self, p, k, n):
        f = build_field(p, k)
        expected = (f.q ** (n + 1) - 1) // (f.q - 1)
        assert sum(1 for _ in projective_points(f, n)) == expected

    def test_first_nonzero_coordinate_is_one(self):
        f = build_field(3, 1)
        for pt in projective_points(f, 2):
            nonzero = [x for x in pt if x != f.zero]
            assert nonzero[0] == f.one

    def test_representatives_distinct(self):
        f = build_field(5, 1)
        pts = list(projective_points(f, 2))
        assert len(set(pts)) == len(pts)


class TestCountP1xP1:
    @pytest.mark.parametrize("p,k,expected", [(2, 1, 9), (3, 1, 16), (3, 2, 100)])
    def test_examples(self, p, k, expected):
        f = build_field(p, k)
        assert count_p1xp1(f) == PointCount(variety="P1xP1", q=f.q, count=expected)

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_closed_form(self, p, k):
        f = build_field(p, k)
        assert count_p1xp1(f).count == (f.q + 1) ** 2


class TestCountBlowupP2:
    @pytest.mark.parametrize("p,k,expected", [(2, 1, 9), (3, 1, 16)])
    def test_examples(self, p, k, expected):
        f = build_field(p, k)
        assert count_blowup_p2(f).count == expected

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                     (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)])
    def test_matches_p1xp1_pointwise(self, p, k):
        # the counterexample engine: equality of counts at every q <= 49
        f = build_field(p, k)
        assert count_blowup_p2(f).count == count_p1xp1(f).count


class TestCountHypersurface:
    def test_plane_inside_p3(self):
        f = build_field(3, 1)
        pc = count_hypersurface_p3({(1, 0, 0, 0): 1}, f)
        assert pc.count == 13  # q^2 + q + 1

    def test_fermat_quadric_equals_p1xp1(self):
        f = build_field(3, 1)
        assert count_hypersurface_p3(fermat_form(2), f).count == count_p1xp1(f).count

    def test_fermat_quartic_golden(self):
        f = build_field(5, 1)
        assert count_hypersurface_p3(fermat_form(4), f).count == 0

    def test_golden_regression_constants(self):
        for variety, per_q in _golden().items():
            d = int(variety.removeprefix("fermat"))
            for q_str, expected in per_q.items():
                q = int(q_str)
                p = next(p for p in range(2, q + 1) if q % p == 0)
                k = round(math.log(q, p))
                f = build_field(p, k)
                assert f.q == q
                assert count_hypersurface_p3(fermat_form(d), f).count == expected

    def test_matches_naive_oracle_with_cross_terms(self):
        form = {(3, 0, 0, 0): 1, (0, 2, 1, 0): 1, (1, 1, 0, 1): -2, (0, 0, 0, 3): 5}
        for p, k in [(2, 1), (3, 1), (2, 2), (7, 1)]:
            f = build_field(p, k)
            assert (
                count_hypersurface_p3(form, f).count
                == naive_affine_chart_count(form, f)
            )

    def test_zero_form_rejected(self):
        f = build_field(5, 1)
        with pytest.raises(ZeroFormError):
            count_hypersurface_p3({(4, 0, 0, 0): 5, (0, 4, 0, 0): -10}, f)

    def test_inhomogeneous_rejected(self):
        f = build_field(5, 1)
        with pytest.raises(ValueError):
            count_hypersurface_p3({(1, 0, 0, 0): 1, (2, 0, 0, 0): 1}, f)

    def test_bad_exponents_rejected(self):
        f = build_field(5, 1)
        with pytest.raises(ValueError):
            count_hypersurface_p3({(1, 0, 0): 1}, f)

    def test_enumeration_cap(self):
        # no counter can be handed a field over the cap: its construction fails
        with pytest.raises(ValueError, match="^q = 347 exceeds the enumeration cap 343$"):
            FiniteField(347, 1)

    def test_fermat_degree_validation(self):
        with pytest.raises(ValueError):
            fermat_form(0)


class TestModels:
    def test_ids(self):
        assert set(MODELS) == {"P1xP1", "Bl1P2"} | {f"fermat{d}" for d in range(1, 7)}

    def test_surface_names_resolve(self):
        for variety in MODELS:
            catalog_lookup(model_surface_name(variety))

    def test_good_reduction(self):
        assert model_has_good_reduction("fermat4", 3)
        assert not model_has_good_reduction("fermat4", 2)
        assert not model_has_good_reduction("fermat6", 3)
        assert model_has_good_reduction("P1xP1", 2)

    def test_count_variety_dispatch(self):
        f = build_field(3, 1)
        assert count_variety("P1xP1", f).count == 16
        assert count_variety("Bl1P2", f).count == 16
        assert count_variety("fermat1", f).count == 13

    def test_count_variety_unknown(self):
        with pytest.raises(KeyError):
            count_variety("nope", build_field(3, 1))


class TestWeilBound:
    def test_split_surface_equality_case(self):
        assert weil_bound_check(PointCount("P1xP1", 3, 16), 2)
        assert abs(16 - 1 - 9) == 2 * 3

    def test_plane(self):
        assert weil_bound_check(PointCount("P2", 2, 7), 1)

    def test_fermat_quartic(self):
        assert weil_bound_check(PointCount("fermat4", 5, 0), 22)

    def test_violations_detected(self):
        assert not weil_bound_check(PointCount("x", 3, 1000), 2)
        assert not weil_bound_check(PointCount("x", 3, 0), 1)


class TestZetaData:
    def test_counts_ordered(self):
        counts = [count_variety("P1xP1", build_field(2, k)) for k in range(1, 4)]
        assert [c.q for c in counts] == [2, 4, 8]
        assert [c.count for c in counts] == [9, 25, 81]


class TestRecordBehaviour:
    """What callers see of the zeta record, whatever implements it."""

    def test_repr_bytes(self):
        pc = PointCount("P1xP1", 3, 16)
        assert repr(pc) == "PointCount(variety='P1xP1', q=3, count=16)"

    def test_keyword_and_positional_construction(self):
        pc = PointCount(variety="v", q=2, count=1)
        assert pc == PointCount("v", 2, 1)
        assert (pc.variety, pc.q, pc.count) == ("v", 2, 1)

    def test_equality_and_hash(self):
        assert PointCount("v", 2, 1) != PointCount("v", 2, 2)
        assert hash(PointCount("v", 2, 1)) == hash(PointCount("v", 2, 1))

    @pytest.mark.parametrize("attr", ["variety", "q", "count"])
    def test_point_count_is_read_only(self, attr):
        with pytest.raises(AttributeError):
            setattr(PointCount("v", 2, 1), attr, 0)


class TestCounterexampleReport:
    def test_primes_3_degrees_2(self):
        report = counterexample_report([3], degrees=2)
        rows = report["primes"][0]["counts"]
        assert [(r["q"], r["P1xP1"], r["Bl1P2"]) for r in rows] == [
            (3, 16, 16),
            (9, 100, 100),
        ]
        assert report["all_counts_equal"] is True
        assert report["homeomorphic"] is False
        assert report["form_classes"]["P1xP1"] == {
            "variant": "IndefiniteEven",
            "e8_signed_count": 0,
            "h_count": 1,
        }
        assert report["form_classes"]["Bl1P2"] == {
            "variant": "IndefiniteOdd",
            "n_plus": 1,
            "n_minus": 1,
        }
        assert "does not determine homeomorphism type" in report["conclusion"]

    def test_primes_2_degrees_1(self):
        report = counterexample_report([2], degrees=1)
        row = report["primes"][0]["counts"][0]
        assert (row["q"], row["P1xP1"], row["Bl1P2"]) == (2, 9, 9)
        assert report["homeomorphic"] is False

    def test_empty_primes_rejected(self):
        with pytest.raises(ValueError):
            counterexample_report([])

    def test_bad_degrees_rejected(self):
        for degrees in (0, 4):
            with pytest.raises(ValueError):
                counterexample_report([3], degrees=degrees)

    def test_non_prime_propagates(self):
        with pytest.raises(NotPrimeError):
            counterexample_report([4])

    def test_counts_are_deterministic(self):
        a = counterexample_report([5], degrees=1)
        b = counterexample_report([5], degrees=1)
        assert a == b


class TestWeilAgainstCatalog:
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
    def test_rational_models_exact(self, p, k):
        # split rational surfaces hit the Weil bound with equality:
        # N = 1 + b2*q + q^2
        f = build_field(p, k)
        for variety in ("P1xP1", "Bl1P2"):
            b2 = compute_invariants(catalog_lookup(model_surface_name(variety))).b2
            pc = count_variety(variety, f)
            assert pc.count == 1 + b2 * f.q + f.q**2
            assert weil_bound_check(pc, b2)


class TestCheckOrder:
    """Degree, then q against the cap, then primality: a huge p is never factored."""

    def test_cap_before_primality(self):
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            build_field(HUGE_PRIME, 1)

    def test_composite_over_cap_is_a_cap_error(self):
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            build_field(1000, 1)

    def test_degree_before_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            build_field(HUGE_PRIME, 4)

    def test_zeta_counts_and_report_check_fields_first(self):
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            [count_variety("P1xP1", f) for f in [build_field(HUGE_PRIME, 1)]]
        with pytest.raises(UnsupportedDegreeError):
            [count_variety("fermat4", f) for f in [build_field(3, k) for k in (1, 2, 3, 4)]]
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            counterexample_report([3, HUGE_PRIME], degrees=1)

    def test_cap_message_names_huge_q_by_bit_length(self):
        p = 10**1500 - 1  # q = p^3 has 4498 digits, past int-to-str conversion
        msg = f"q = of {(p**3).bit_length()} bits exceeds the enumeration cap 343"
        with pytest.raises(ValueError) as info:
            build_field(p, 3)
        assert str(info.value) == msg
        with pytest.raises(ValueError) as info:
            build_field(347, 1)
        assert str(info.value) == "q = 347 exceeds the enumeration cap 343"

    def test_cap_refuses_without_testing_primality(self, monkeypatch):
        def untestable(n):
            raise AssertionError(f"primality of {n} tested above the cap")

        monkeypatch.setattr("surftop.zeta.is_prime", untestable)
        for p in (347, HUGE_PRIME):
            with pytest.raises(ValueError, match=f"q = {p} exceeds the enumeration cap 343"):
                build_field(p, 1)


def _diagonal_form(rng: random.Random, p: int, d: int, j: int) -> dict:
    """x_i^d terms: variable j % 4 missing, variable (j + 1) % 4 with a
    coefficient divisible by p, the others with mixed nonzero coefficients."""
    form = {}
    for i in range(4):
        if i == j % 4:
            continue
        if i == (j + 1) % 4:
            c = p * rng.choice([-2, -1, 1, 2])
        else:
            c = rng.choice([a for a in range(-2 * p, 2 * p + 1) if a % p])
        form[tuple(d if t == i else 0 for t in range(4))] = c
    return form


class TestFieldArgumentTypes:
    """p and k must be ints, not bools or floats, before any other check."""

    @pytest.mark.parametrize("p,k", [(5.0, 1), (5, True), (True, 1), (5, 1.0), ("5", 1), (2**64 + 0.0, 4)])
    def test_refused(self, p, k):
        for build in (lambda: build_field(p, k), lambda: FiniteField(p, k)):
            with pytest.raises(ValueError, match="^characteristic and extension degree must be integers$"):
                build()


CHAIN_QUADRIC = {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (0, 0, 0, 2): 1}


class TestBlockCap:
    """No block may have more representatives than P2 over GF(MAX_Q) = 117993."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_counting(self, monkeypatch):
        def reached(*args):
            raise self.Reached

        monkeypatch.setattr("surftop.zeta.projective_points", reached)

    def test_chain_quadric_refused_at_the_cap_at_once(self):
        field = build_field(7, 3)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            count_hypersurface_p3(CHAIN_QUADRIC, field)
        assert time.perf_counter() - start < 0.5
        assert str(info.value) == (
            "a block of 4 variables has 40471600 representatives over GF(343), "
            "more than the block cap 117993"
        )

    @pytest.mark.parametrize("p,k,refused", [(47, 1, False), (7, 2, True), (53, 1, True)])
    def test_four_variable_block_boundary(self, no_counting, p, k, refused):
        expected = ValueError if refused else self.Reached
        with pytest.raises(expected):
            count_hypersurface_p3(CHAIN_QUADRIC, build_field(p, k))

    def test_three_variable_block_allowed_at_the_cap(self, no_counting):
        cubic = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1, (1, 1, 1, 0): 1}
        with pytest.raises(self.Reached):
            count_hypersurface_p3(cubic, build_field(7, 3))


# every monomial of degree 44 in x0, x1, x2, plus x3^44: one block of three
# variables with 1035 monomials, which counted in 0.5 s at q = 13, 7.2 s at
# q = 25 and was admitted by the block cap up to q = 343
WIDE_FORM = {(a, b, 44 - a - b, 0): 1 for a in range(45) for b in range(45 - a)} | {(0, 0, 0, 44): 1}


class TestEvalWorkCap:
    """Monomial evaluations over the block representatives plus power-table
    entries may not exceed MAX_EVAL_WORK = 600000; checked before any table."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_tables(self, monkeypatch):
        def reached(*args):
            raise self.Reached

        monkeypatch.setattr(FiniteField, "pow", reached)

    def test_wide_form_refused_at_the_cap_at_once(self, no_tables):
        assert len(WIDE_FORM) == 1036
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            count_hypersurface_p3(WIDE_FORM, build_field(7, 3))
        assert time.perf_counter() - start < 1.0
        # 117993 * 1035 + 1 * 1 + 44 exponents * 343
        assert str(info.value) == "evaluation work 122137848 over GF(343) exceeds the cap 600000"

    @pytest.mark.parametrize("p,k,refused", [(13, 1, False), (19, 1, False), (23, 1, False), (5, 2, True)])
    def test_wide_form_boundary(self, no_tables, p, k, refused):
        # at q = 23: 553 * 1035 + 1 + 44 * 23 = 573368; at q = 25: 651 * 1035 + 1 + 44 * 25 = 674886
        with pytest.raises(ValueError if refused else self.Reached):
            count_hypersurface_p3(WIDE_FORM, build_field(p, k))

    @pytest.mark.parametrize("extra,refused", [(1, False), (2, True)])
    def test_mixed_cubic_boundary_at_the_cap(self, no_tables, extra, refused):
        # the mixed cubic (4 * 117993 + 1 + 2 * 343 = 472659) fits, and so
        # does one more monomial (590995); two more (708988) do not
        more = dict([((2, 1, 0, 0), 1), ((0, 2, 1, 0), 1)][:extra])
        with pytest.raises(ValueError if refused else self.Reached):
            count_hypersurface_p3(MIXED_CUBIC | more, build_field(7, 3))


class TestDiagonalAgainstOracle:
    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_random_diagonal_forms(self, p, k):
        f = build_field(p, k)
        rng = random.Random(1000 * p + k)
        # the oracle costs O(q^3 d) multiplications, so the larger fields get fewer, lower forms
        n_forms, max_d = (8, 6) if f.q < 25 else (2, 3)
        for j in range(n_forms):
            form = _diagonal_form(rng, p, rng.randint(1, max_d), j)
            assert count_hypersurface_p3(form, f).count == naive_affine_chart_count(form, f), form

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_fermat_every_q_up_to_9(self, p, k, d):
        f = build_field(p, k)
        assert count_variety(f"fermat{d}", f).count == naive_affine_chart_count(fermat_form(d), f)

    def test_nonzero_constant_counts_zero(self):
        for p, k in SMALL_FIELDS:
            assert count_hypersurface_p3({(0, 0, 0, 0): 1}, build_field(p, k)).count == 0


class TestBlowupAgainstOracle:
    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_matches_naive_incidence_count(self, p, k):
        f = build_field(p, k)
        assert count_blowup_p2(f).count == naive_blowup_count(f)


class TestBlowupUnitClasses:
    """Every fibre 0 x0 + y1 x1 - y0 x2 = 0 must reach _projective_zeros with
    the value histograms of its own terms. The total cannot show this: each
    fibre is a line of q + 1 points, so histograms swapped between the
    patterns, or a unit histogram for the zero term, still sum to (q + 1)^2."""

    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_each_fibre_gets_its_terms_histograms(self, p, k, monkeypatch):
        f = build_field(p, k)
        built, calls = [], []
        orbit_hist, projective_zeros = zeta._orbit_hist, zeta._projective_zeros
        monkeypatch.setattr(zeta, "_orbit_hist", lambda *a: built.append(a) or orbit_hist(*a))
        monkeypatch.setattr(
            zeta, "_projective_zeros",
            lambda field, hists: calls.append([dict(h) for h in hists]) or projective_zeros(field, hists))
        count_blowup_p2(f)

        def term_hist(c):
            return dict(Counter(f.mul(c, x) for x in f.elements()))

        assert len(built) == 2  # c = 0 and c = 1, never one per coefficient
        for y0, y1 in projective_points(f, 1):
            assert [term_hist(f.zero), term_hist(y1), term_hist(f.neg(y0))] in calls, (y0, y1)
        assert len(calls) == 3  # one per zero/nonzero pattern of (y1, -y0)


class TestAtTheCap:
    @pytest.mark.parametrize("p,k", [(5, 3), (7, 3)])
    def test_blowup_closed_form(self, p, k):
        f = build_field(p, k)
        assert count_blowup_p2(f).count == (f.q + 1) ** 2

    def test_blowup_closed_form_at_every_field(self):
        fields = [build_field(p, k) for p in range(2, MAX_Q + 1) if is_prime(p)
                  for k in (1, 2, 3) if p**k <= MAX_Q]
        assert len(fields) == 79
        start = time.perf_counter()
        for f in fields:
            assert count_blowup_p2(f).count == (f.q + 1) ** 2, f
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("p,k", [(5, 3), (7, 3)])
    def test_fermat_weil_bound_at_good_primes(self, p, k):
        f = build_field(p, k)
        for d in range(3, 7):
            variety = f"fermat{d}"
            if not model_has_good_reduction(variety, p):
                continue
            b2 = compute_invariants(catalog_lookup(model_surface_name(variety))).b2
            assert weil_bound_check(count_variety(variety, f), b2), variety


class TestOracleField:
    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_every_nonzero_element_is_a_unit(self, p, k):
        f = build_field(p, k)
        o = OracleField(p, k, f.modulus)
        for x in o.elements:
            if x != o.zero:
                acc = o.one
                for _ in range(f.q - 1):
                    acc = o.mul(acc, x)
                assert acc == o.one, x

    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_products_agree_with_field(self, p, k):
        f = build_field(p, k)
        o = OracleField(p, k, f.modulus)
        for a in o.elements:
            for b in o.elements:
                assert f.mul(a, b) == o.mul(a, b), (a, b)


MIXED_CUBIC = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1, (1, 1, 1, 0): 1}
# blocks of variables before relabelling: 2+2, 3+1, one of four, and two
# shapes that leave a variable in no monomial
BLOCK_SHAPES = [[[0, 1], [2, 3]], [[0, 1, 2], [3]], [[0, 1, 2, 3]], [[0, 2], [3]], [[1, 2, 3]]]


def _block_form(rng: random.Random, p: int, d: int, shape) -> dict:
    """A degree-d form whose blocks are `shape`, with the variables relabelled.

    Each block gets a pure power of one variable and links x_a^i x_b^(d-i)
    joining its variables in a chain, inserted in random order, all with
    coefficients nonzero mod p; then one random monomial of the block,
    whose coefficient is p half the time.
    """
    perm = rng.sample(range(4), 4)
    nonzero = [a for a in range(-2 * p, 2 * p + 1) if a % p]
    form = {}

    def mono(variables):
        return tuple(variables.count(i) for i in range(4))

    for block in ([perm[i] for i in b] for b in shape):
        links = list(zip(block, block[1:]))
        rng.shuffle(links)
        form[mono([block[0]] * d)] = rng.choice(nonzero)
        for a, b in links:
            i = rng.randint(1, d - 1)
            form[mono([a] * i + [b] * (d - i))] = rng.choice(nonzero)
        extra = mono([rng.choice(block) for _ in range(d)])
        form.setdefault(extra, rng.choice((p, rng.choice(nonzero))))
    return form


class TestBlocksAgainstOracle:
    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_seeded_block_forms(self, p, k):
        f = build_field(p, k)
        rng = random.Random(7000 + 100 * p + k)
        # the oracle costs O(q^3 d) multiplications, so the larger fields get fewer forms;
        # the fields with q <= 9 take d = p, so every shape is also counted with p | d
        n_forms = 5 if f.q <= 9 else 2 if f.q < 20 else 1
        start = rng.randrange(len(BLOCK_SHAPES))
        for j in range(n_forms):
            shape = BLOCK_SHAPES[(start + j) % len(BLOCK_SHAPES)]
            d = max(p, 2) if f.q <= 9 else 2 if f.q > 20 else rng.choice((2, 3))
            form = _block_form(rng, p, d, shape)
            assert count_hypersurface_p3(form, f).count == naive_affine_chart_count(form, f), form

    @pytest.mark.parametrize("form", [
        MIXED_CUBIC,
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},  # Segre quadric: blocks {0, 3} and {1, 2}
        {(1, 1, 0, 0): 1, (0, 0, 1, 1): 2, (0, 1, 1, 0): -1},  # a bridge joins two blocks
        {(1, 1, 1, 1): -1},  # one mixed monomial
    ], ids=["mixed-cubic", "segre", "bridge", "single-monomial"])
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
    def test_fixed_forms(self, form, p, k):
        f = build_field(p, k)
        assert count_hypersurface_p3(form, f).count == naive_affine_chart_count(form, f)


class TestBlockWork:
    def _visits(self, monkeypatch, form, field) -> int:
        import surftop.zeta

        real = surftop.zeta.projective_points
        seen = []

        def counting(f, n):
            for point in real(f, n):
                seen.append(point)
                yield point

        monkeypatch.setattr(surftop.zeta, "projective_points", counting)
        count_hypersurface_p3(form, field)
        return len(seen)

    def test_three_plus_one_visits_only_p2(self, monkeypatch):
        f = build_field(7, 2)
        assert self._visits(monkeypatch, MIXED_CUBIC, f) <= f.q**2 + f.q + 2

    def test_fermat_visits_one_representative_per_variable(self, monkeypatch):
        assert self._visits(monkeypatch, fermat_form(3), build_field(7, 2)) == 4

    def test_mixed_cubic_at_49(self):
        # 2451 is also the count of an enumeration of all q^3+q^2+q+1 points of P3
        assert count_hypersurface_p3(MIXED_CUBIC, build_field(7, 2)).count == 2451


class TestFormValidation:
    @pytest.mark.parametrize("form", [
        {(2, 0, 0, 0): 1.5, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1},
        {(1, 1, 0, 0): 0.5},
        {(2, 0, 0, 0): True, (0, 2, 0, 0): 1},
    ], ids=["float-coefficient", "fractional-coefficient", "bool-coefficient"])
    def test_non_integer_coefficient_refused(self, form):
        with pytest.raises(ValueError, match="^coefficients must be integers$"):
            count_hypersurface_p3(form, build_field(5, 1))

    @pytest.mark.parametrize("form", [
        {(2.0, 0, 0, 0): 1, (0, 2, 0, 0): 1},
        {(True, 1, 0, 0): 1},
        {"abcd": 1},
    ], ids=["float-exponent", "bool-exponent", "string-key"])
    def test_non_integer_exponent_refused(self, form):
        with pytest.raises(ValueError, match="^exponents must be quadruples of non-negative integers$"):
            count_hypersurface_p3(form, build_field(5, 1))


class TestFieldConstruction:
    """FiniteField refuses every (p, k) that is not a field, and takes no modulus."""

    def test_composite_characteristic(self):
        with pytest.raises(NotPrimeError):
            FiniteField(4, 1)

    def test_check_order(self, monkeypatch):
        with pytest.raises(UnsupportedDegreeError):
            FiniteField(HUGE_PRIME, 4)
        with pytest.raises(NotPrimeError):
            FiniteField(4, 2)  # primality before the modulus search

        def untestable(n):
            raise AssertionError(f"primality of {n} tested above the cap")

        monkeypatch.setattr("surftop.zeta.is_prime", untestable)
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            FiniteField(HUGE_PRIME, 1)

    def test_any_irreducible_modulus_gives_the_same_counts(self):
        other = SimpleNamespace(p=3, k=2, modulus=(2, 1, 1))  # x^2 + x + 2, not build_field's x^2 + 1
        g = build_field(3, 2)
        for form in (fermat_form(2), fermat_form(4), MIXED_CUBIC):
            assert naive_affine_chart_count(form, other) == count_hypersurface_p3(form, g).count

    def test_primality_tested_once(self, monkeypatch):
        import surftop.zeta

        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(surftop.zeta, "is_prime", counting)
        for p, k in ((13, 1), (7, 3)):
            calls.clear()
            build_field(p, k)
            assert calls == [p]

    def test_modulus_argument_refused(self):
        # the float modulus (1.0, 1, 1) was once accepted and made mul return floats
        with pytest.raises(TypeError):
            FiniteField(2, 2, (1.0, 1, 1))
