"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s, or
in the captured output on failure) and enforces the stated wall-clock
budget.
"""

import itertools
import json
import random
import time
from pathlib import Path

from oracles import (
    brute_force_isometry,
    model_has_good_reduction,
    model_surface_name,
    weil_bound_check,
)
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
    classify_form,
    forms_isomorphic,
)
from surftop.errors import InconsistentEvenSignatureError
from surftop.lattice import (
    FormInvariants,
    GramMatrix,
    Parity,
    block_diag,
    determinant,
    diag,
    invariants,
)
from surftop.surfaces import (
    blow_up,
    catalog_lookup,
    compute_invariants,
    homeomorphic,
    hypersurface,
    intersection_form_class,
)
from surftop.zeta import (
    MODELS,
    build_field,
    count_blowup_p2,
    count_p1xp1,
    count_variety,
    fermat_form,
    count_hypersurface_p3,
)

ABSTRACT = ClassificationMode.ABSTRACT_LATTICE
SMOOTH = ClassificationMode.SMOOTH_FOUR_MANIFOLD


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_counterexample_reproduction():
    with _Timer(5.0) as t:
        expected_spot = {2: 9, 3: 16, 9: 100}
        counts_equal = True
        for p in (2, 3, 5, 7):
            for k in (1, 2):
                f = build_field(p, k)
                a = count_p1xp1(f).count
                b = count_blowup_p2(f).count
                counts_equal = counts_equal and a == b
                if f.q in expected_spot:
                    counts_equal = counts_equal and a == expected_spot[f.q]
        quadric = catalog_lookup("P1xP1")
        blowup = catalog_lookup("Bl1P2")
        verdict = homeomorphic(quadric, blowup)
        classes_ok = intersection_form_class(quadric) == IndefiniteEven(
            0, 1
        ) and intersection_form_class(blowup) == IndefiniteOdd(1, 1)
    _report(
        "criterion 1: equal zeta counts, distinct topology (P1xP1 vs Bl1P2)",
        counts_equal and verdict is False and classes_ok and t.elapsed < 5.0,
        f"{t.elapsed:.2f}s",
    )


def test_criterion_2_signature_formula():
    with _Timer(1.0) as t:
        formula_ok = all(
            compute_invariants(hypersurface(d)).sigma == d * (2 - d) * (2 + d) // 3
            for d in range(1, 13)
        )
        k3 = compute_invariants(hypersurface(4))
        k3_ok = (k3.b2, k3.sigma, k3.parity) == (22, -16, Parity.EVEN)
        k3_class_ok = intersection_form_class(hypersurface(4)) == IndefiniteEven(-2, 3)
    _report(
        "criterion 2: hypersurface signatures from Chern numbers",
        formula_ok and k3_ok and k3_class_ok and t.elapsed < 1.0,
        f"{t.elapsed:.2f}s",
    )


def test_criterion_3_basis_change_invariance():
    rng = random.Random(20260808)
    with _Timer(30.0) as t:
        ok = True
        for trial in range(1000):
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            m = GramMatrix(rows)
            steps = rng.randint(0, 100)
            moved = random_unimodular_transform(m, seed=rng.getrandbits(32), steps=steps)
            before, after = invariants(m), invariants(moved)
            same = (
                before.rank == after.rank
                and before.b_plus == after.b_plus
                and before.b_minus == after.b_minus
                and before.signature == after.signature
                and before.parity == after.parity
                and abs(before.determinant) == abs(after.determinant)
            )
            ok = ok and same
            if not ok:
                break
    _report(
        "criterion 3: basis-change invariance (1000 fuzz trials)",
        ok and t.elapsed < 30.0,
        f"{t.elapsed:.2f}s",
    )


def _grid_classes(max_rank=26):
    out = []
    for n_plus in range(1, max_rank):
        for n_minus in range(1, max_rank + 1 - n_plus):
            out.append(IndefiniteOdd(n_plus, n_minus))
    for e8 in range(-3, 4):
        h_max = (max_rank - 8 * abs(e8)) // 2
        for h in range(1, h_max + 1):
            out.append(IndefiniteEven(e8, h))
    for sign in (1, -1):
        for rank in range(1, max_rank + 1):
            out.append(DefiniteDiagonal(sign, rank))
    return out


def test_criterion_4_classification_round_trip():
    with _Timer(10.0) as t:
        grid = _grid_classes(26)
        ok = True
        for cls in grid:
            mode = SMOOTH if isinstance(cls, DefiniteDiagonal) else ABSTRACT
            if classify_form(invariants(canonical_gram(cls)), mode) != cls:
                ok = False
                break
    _report(
        f"criterion 4: classification round-trip ({len(grid)} classes, rank <= 26)",
        ok and t.elapsed < 10.0,
        f"{t.elapsed:.2f}s",
    )


def test_criterion_5_serre_consistency_oracle():
    with _Timer(60.0) as t:
        corpus = []
        for a, b, d in itertools.product(range(-2, 3), repeat=3):
            m = GramMatrix(((a, b), (b, d)))
            det = determinant(m)
            if det == -1:  # unimodular and indefinite in rank 2
                corpus.append(m)
        assert len(corpus) == 20
        witnesses = 0
        violations = 0
        for a, b in itertools.product(corpus, repeat=2):
            p = brute_force_isometry(a, b, 6)
            if p is not None:
                witnesses += 1
                if not forms_isomorphic(a, b, ABSTRACT):
                    violations += 1
        # identity always certifies the diagonal pairs, so non-vacuity holds
        diagonal_found = all(
            brute_force_isometry(m, m, 6) is not None for m in corpus
        )
    _report(
        "criterion 5: isometry witnesses agree with invariant classification (rank-2 corpus, bound 6)",
        violations == 0 and witnesses >= len(corpus) and diagonal_found and t.elapsed < 60.0,
        f"{witnesses} witnesses, {violations} violations, {t.elapsed:.2f}s",
    )


def test_criterion_6_even_signature_mod_8():
    corpus = [
        HYPERBOLIC,
        E8,
        MINUS_E8,
        block_diag(E8, HYPERBOLIC),
        block_diag(MINUS_E8, HYPERBOLIC, HYPERBOLIC),
        block_diag(HYPERBOLIC, HYPERBOLIC),
        GramMatrix(((2, 1), (1, 0))),
        random_unimodular_transform(block_diag(E8, HYPERBOLIC), seed=5, steps=60),
    ]
    mod8_ok = True
    for m in corpus:
        inv = invariants(m)
        assert inv.parity is Parity.EVEN and abs(inv.determinant) == 1
        mod8_ok = mod8_ok and inv.signature % 8 == 0
    synthetic = FormInvariants(10, 6, 4, 2, Parity.EVEN, 1)
    rejected = False
    try:
        classify_form(synthetic, ABSTRACT)
    except InconsistentEvenSignatureError:
        rejected = True
    _report(
        "criterion 6: even unimodular => signature divisible by 8",
        mod8_ok and rejected,
        f"{len(corpus)} even matrices, synthetic (rank 10, sigma 2) rejected: {rejected}",
    )


def test_criterion_7_weil_bounds():
    with _Timer(60.0) as t:
        field_grid = [
            (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3),
            (5, 1), (5, 2),
            (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
        ]
        # split rational models satisfy N = 1 + b2 q + q^2 on the nose
        split_exact = {"P1xP1": None, "Bl1P2": None, "fermat1": None, "fermat2": 2}
        bound_ok = True
        exact_ok = True
        checked = 0
        for variety in sorted(MODELS):
            b2 = compute_invariants(catalog_lookup(model_surface_name(variety))).b2
            for p, k in field_grid:
                if not model_has_good_reduction(variety, p):
                    continue
                f = build_field(p, k)
                pc = count_variety(variety, f)
                checked += 1
                bound_ok = bound_ok and weil_bound_check(pc, b2)
                if variety in split_exact and p != split_exact[variety]:
                    exact_ok = exact_ok and pc.count == 1 + b2 * f.q + f.q**2
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_counts.json").read_text()
        )["counts"]
        frozen = golden["fermat4"]["5"]
        quartic = count_hypersurface_p3(fermat_form(4), build_field(5, 1), variety="fermat4")
        golden_ok = quartic.count == frozen
    _report(
        f"criterion 7: Weil bounds over q <= 27 ({checked} counts)",
        bound_ok and exact_ok and golden_ok and t.elapsed < 60.0,
        f"golden fermat4@5 = {frozen}, {t.elapsed:.2f}s",
    )


def test_criterion_8_homeomorphism_coincidences():
    cubic = hypersurface(3)
    six_blowups = blow_up(catalog_lookup("P2"), 6)
    coincide = homeomorphic(cubic, six_blowups)
    quadric_inv = compute_invariants(hypersurface(2))
    p1xp1_inv = compute_invariants(catalog_lookup("P1xP1"))
    triples_equal = (quadric_inv.b2, quadric_inv.sigma, quadric_inv.parity) == (
        p1xp1_inv.b2,
        p1xp1_inv.sigma,
        p1xp1_inv.parity,
    )
    _report(
        "criterion 8: homeomorphism coincidences",
        coincide and triples_equal,
        "cubic ~ Bl6(P2); quadric and P1xP1 share (b2, sigma, parity)",
    )
