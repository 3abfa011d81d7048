import functools
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
    naive_p1xp1_count,
    orbit_hist,
    power,
    projective_points,
    projective_zeros,
    weil_bound_check,
)
from surftop import zeta
from surftop.errors import (
    DomainError, InvalidInputError, NotPrimeError, UnsupportedDegreeError, ZeroFormError,
)
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

    def test_gf343_modulus(self):
        assert FiniteField(7, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1, the first cubic with no root mod 7

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
        frob = lambda x: power(f, x, p)
        for a, b in pairs:
            assert frob(f.sub(a, b)) == f.sub(frob(a), frob(b))
            assert frob(f.mul(a, b)) == f.mul(frob(a), frob(b))
        for a, _ in pairs:
            if a != f.zero:
                assert power(f, a, f.q - 1) == f.one

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_inverse(self, p, k):
        f = build_field(p, k)
        for a in f.elements():
            if a != f.zero:
                assert f.mul(a, power(f, a, f.q - 2)) == f.one

    def test_sub_neg(self):
        f = build_field(7, 1)
        assert f.sub((3,), (5,)) == (5,)
        assert f.sub(f.zero, (2,)) == (5,)


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
        with pytest.raises(InvalidInputError, match="^no countable model named 'nope'$") as exc:
            count_variety("nope", build_field(3, 1))
        assert isinstance(exc.value, DomainError) and exc.value.name == "InvalidInput"


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
        # the counts alone: the topology is set beside them by the counterexample command
        assert set(report) == {"surfaces", "degrees", "primes", "all_counts_equal"}

    def test_primes_2_degrees_1(self):
        report = counterexample_report([2], degrees=1)
        row = report["primes"][0]["counts"][0]
        assert (row["q"], row["P1xP1"], row["Bl1P2"]) == (2, 9, 9)
        assert report["all_counts_equal"] is True

    def test_empty_primes_rejected(self):
        with pytest.raises(ValueError):
            counterexample_report([])

    def test_bad_degrees_rejected(self):
        for degrees in (0, 4):
            with pytest.raises(ValueError):
                counterexample_report([3], degrees=degrees)

    def test_repeated_prime_rejected_before_any_field(self, monkeypatch):
        def no_field(p, k):
            raise AssertionError(f"GF({p}^{k}) built")

        monkeypatch.setattr(zeta, "build_field", no_field)
        for primes in ([3, 5, 3], [4, 4]):
            with pytest.raises(ValueError, match=f"^prime {primes[0]} is repeated$"):
                counterexample_report(primes)

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


class TestP1xP1AgainstOracle:
    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_matches_naive_pair_count(self, p, k):
        f = build_field(p, k)
        assert count_p1xp1(f).count == naive_p1xp1_count(f)


class TestBothSurfacesThroughTheClassKernel:
    """Both surfaces of the counterexample are families of lines over P1,
    counted by _class_zeros once per zero/unit pattern of their fibres."""

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_both_counters_reach_class_zeros(self, p, k, monkeypatch):
        f = build_field(p, k)
        calls = []
        real = zeta._class_zeros
        monkeypatch.setattr(
            zeta, "_class_zeros",
            lambda field, table, funcs: calls.append(funcs) or real(field, table, funcs))
        assert count_p1xp1(f).count == (f.q + 1) ** 2
        # every fibre is the line 0 x0 + 0 x1 + 1 x2 = 0
        assert calls == [[[f.q, 0], [f.q, 0], [1, 1]]]
        assert count_blowup_p2(f).count == (f.q + 1) ** 2
        assert len(calls) == 1 + 3


class TestBlowupUnitClasses:
    """Every fibre 0 x0 + y1 x1 - y0 x2 = 0 must reach _class_zeros with
    the class functions of its own terms, once per zero/nonzero pattern and
    weighted by how many fibres share it. The total cannot show this: each
    fibre is a line of q + 1 points, so class functions swapped between the
    patterns, or a unit's class function for the zero term, still sum to
    (q + 1)^2."""

    @pytest.mark.parametrize("p,k", FIELDS_TO_27)
    def test_each_fibre_gets_its_terms_histograms(self, p, k, monkeypatch):
        f = build_field(p, k)
        calls = []
        # call i answers (q + 1)^i, so the count spells each call's weight in base q + 1
        monkeypatch.setattr(
            zeta, "_class_zeros",
            lambda field, table, funcs: calls.append(funcs) or (f.q + 1) ** (len(calls) - 1))
        n = count_blowup_p2(f).count

        def term_class_function(c):
            hist = Counter(f.mul(c, x) for x in f.elements())
            units = {hist[x] for x in f.elements() if x != f.zero}
            assert len(units) == 1
            return (hist[f.zero], units.pop())

        expected = Counter(
            tuple(term_class_function(c) for c in (f.zero, y1, f.sub(f.zero, y0)))
            for y0, y1 in projective_points(f, 1))
        assert sorted(expected.values()) == [1, 1, f.q - 1]
        assert len(calls) == 3
        got = {tuple(map(tuple, funcs)): n // (f.q + 1) ** i % (f.q + 1) for i, funcs in enumerate(calls)}
        assert got == expected


# all 38 fields with q <= 125
FIELDS_TO_125 = [(p, k) for p in range(2, 126) if is_prime(p) for k in (1, 2, 3) if p**k <= 125]


def _full_histogram_count(form: dict, f: FiniteField) -> int:
    """Zeros in P3 of form, through the full value histograms of its blocks."""
    o = OracleField(f.p, f.k, f.modulus)
    terms = [(e, o.from_int(c)) for e, c in form.items() if c % f.p]
    degree = sum(terms[0][0])
    blocks, left = [], set(range(4))
    while left:  # grow each block until no monomial reaches outside it
        block = {left.pop()}
        while reach := {i for e, _ in terms if any(e[j] for j in block) for i in range(4) if e[i]} - block:
            block |= reach
        left -= block
        blocks.append(sorted(block))
    pw = functools.cache(lambda x, n: power(o, x, n))
    dth = Counter(pw(x, degree) for x in f.elements() if x != f.zero)
    hists = []
    for block in blocks:
        reps = Counter()
        for point in projective_points(f, len(block) - 1):
            value = f.zero
            for e, c in terms:
                if any(e[i] for i in block):
                    for x, i in zip(point, block):
                        if e[i]:
                            c = o.mul(c, pw(x, e[i]))
                    value = o.add(value, c)
            reps[value] += 1
        hists.append(orbit_hist(f, reps, dth))
    return projective_zeros(f, hists)


class TestClassKernelAgainstFullHistograms:
    """The class-function kernel against the full histograms over every
    field element that it replaced, kept in tests/oracles.py."""

    @pytest.mark.parametrize("p,k", FIELDS_TO_125)
    def test_four_one_variable_blocks(self, p, k):
        f = build_field(p, k)
        rng = random.Random(9000 + 100 * p + k)
        nonzero = [a for a in range(-2 * p, 2 * p + 1) if a % p]
        for d in range(1, 7):
            form = {tuple(d if t == i else 0 for t in range(4)): rng.choice(nonzero) for i in range(4)}
            assert count_hypersurface_p3(form, f).count == _full_histogram_count(form, f), form

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
        # every other shipped model at the same fields
        b2 = {d: compute_invariants(catalog_lookup(model_surface_name(f"fermat{d}"))).b2 for d in range(2, 7)}
        for f in fields:
            assert count_p1xp1(f).count == (f.q + 1) ** 2, f
            assert count_variety("fermat1", f).count == f.q**2 + f.q + 1, f
            for d in range(2, 7):
                if model_has_good_reduction(f"fermat{d}", f.p):
                    assert weil_bound_check(count_variety(f"fermat{d}", f), b2[d]), (d, f)
        assert time.perf_counter() - start < 5.0

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


class TestDiagonalOnly:
    """A monomial in two or more variables is refused before any field work,
    whatever p is; a diagonal form is counted without enumerating points."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_field_work(self, monkeypatch):
        def reached(*args):
            raise self.Reached

        monkeypatch.setattr(FiniteField, "mul", reached)
        monkeypatch.setattr(zeta, "_classes", reached)

    @pytest.mark.parametrize("form", [
        {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1, (1, 1, 1, 0): 1},
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
        {(1, 1, 1, 1): -1},
        {(1, 1, 0, 0): 5},  # zero mod 5: still not diagonal, not a ZeroFormError
        {(2, 0, 0, 0): 1, (0, 1, 1, 0): 10},
    ], ids=["mixed-cubic", "segre", "single-monomial", "zero-mod-p", "zero-mod-p-cross-term"])
    def test_refused_before_any_field_work(self, no_field_work, form):
        with pytest.raises(ValueError) as info:
            count_hypersurface_p3(form, build_field(5, 1))
        assert str(info.value) == "form is not diagonal"

    def test_homogeneity_checked_first(self):
        with pytest.raises(ValueError, match="^form is not homogeneous$"):
            count_hypersurface_p3({(1, 1, 0, 0): 1, (3, 0, 0, 0): 1}, build_field(5, 1))

    def test_count_enumerates_nothing(self, monkeypatch):
        # P3 and P1 x P1 have over q^2 points: enumerating either takes q^2 field operations
        calls = Counter()

        def spy(name, method):
            def counted(field, *args):
                calls[name] += 1
                return method(field, *args)
            return counted

        for name in ("mul", "sub"):
            monkeypatch.setattr(FiniteField, name, spy(name, getattr(FiniteField, name)))
        for p, k in [(5, 3), (331, 1), (7, 3)]:
            f = build_field(p, k)
            for variety in MODELS:
                calls.clear()
                count = count_variety(variety, f)
                for name in ("mul", "sub"):
                    assert 0 < calls[name] <= 8 * f.q, (variety, f.q, name, calls[name])
                b2 = compute_invariants(catalog_lookup(model_surface_name(variety))).b2
                assert weil_bound_check(count, b2) or not model_has_good_reduction(variety, p)

    def test_huge_degree_costs_what_its_gcd_costs(self, monkeypatch):
        # the d-th powers of GF(q)^* are its e-th powers, e = gcd(d, q - 1), and the
        # kernel of x -> x^((q - 1) / e); a spy that raises past 8 q products makes
        # a d-long product chain, or an e-long one for a large e, fail at once
        calls = Counter()
        mul = FiniteField.mul

        def bounded(field, a, b):
            calls[field.q] += 1
            if calls[field.q] > 8 * field.q:
                raise AssertionError(f"over {8 * field.q} products at q = {field.q}")
            return mul(field, a, b)

        def count(form, f):
            calls.clear()
            return count_hypersurface_p3(form, f).count

        monkeypatch.setattr(FiniteField, "mul", bounded)
        f = build_field(7, 3)  # gcd(10**12, 342) = 2
        assert count(fermat_form(10**12), f) == count(fermat_form(2), f) == 118336
        # x^342 = 1 on every unit, so the form counts the nonzero coordinates mod 7
        assert count(fermat_form(342), f) == 0
        g = build_field(331, 1)  # gcd(10**18 + 6, 330) = 2
        form = lambda d: {(d, 0, 0, 0): 1, (0, d, 0, 0): 5, (0, 0, d, 0): 1, (0, 0, 0, d): 1}
        assert count(form(10**18 + 6), g) == count(form(2), g) == 110224


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


# 2x0^3 + 3x1^3 + x2^3 + 5x3^3
NON_UNIT_CUBIC = {(3, 0, 0, 0): 2, (0, 3, 0, 0): 3, (0, 0, 3, 0): 1, (0, 0, 0, 3): 5}


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
        for form in (fermat_form(2), fermat_form(4), NON_UNIT_CUBIC):
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
