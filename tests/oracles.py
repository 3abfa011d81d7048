"""Independent verification paths used only by the tests.

Each oracle recomputes a production quantity through a different
algorithm: determinants by memoized cofactor expansion instead of
Bareiss, the elimination pass one pivot per step where production
takes three at once, signatures by characteristic-polynomial sign
counting instead of congruence diagonalization, parity by brute
evaluation of Q(x,x) mod 2, and point counts by chart-by-chart nested
loops with no caching (hypersurfaces in P3) or over every point pair
(the P1xP1 and Bl1P2 models in P2 x P1), where production counts
separable equations by value distributions. The point counts do their
field arithmetic in OracleField, built from p, k and the modulus alone,
so a fault in the production field cannot show up on both sides of a
comparison. Value
distributions themselves have a slow path: orbit_hist and
projective_zeros build and convolve histograms over every field
element, multiplying, adding and negating in OracleField too, where
production convolves class functions over cyclotomic classes, O(q^2)
field additions per step against O(e^3) integer products. Seeded unimodular mixes are replayed by the whole-matrix loop
that the O(n) addition step of strategies.random_unimodular_transform
replaced.

Powers are taken by power, square-and-multiply through the mul of
whichever field it is given. Two checks stand beside them:
brute_force_isometry searches small integer matrices for a witness
that two forms are isometric, and weil_bound_check holds a count of a
smooth surface to the Weil bound.
The facts about the shipped models that only the tests read (which
catalog surface a model carries, and where it has good reduction) live
here too.

The builders at the end are not oracles: diag, block_diag, E8,
MINUS_E8 and HYPERBOLIC build Gram matrices, gram_to_dict writes one
as the JSON object of a Gram file, run_fresh starts the surftop under
test in a fresh interpreter, canonical_gram realizes a class as
one, forms_isomorphic compares two forms through the production
classification, and projective_points enumerates P^n. No command needs
them, so they live with the tests that build inputs and round-trip
classes with them.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import surftop
from surftop.classification import (ClassificationMode, DefiniteDiagonal, FormClass, IndefiniteEven,
                                    IndefiniteOdd, classify_form)
from surftop.lattice import GramMatrix, determinant, invariants
from surftop.zeta import MODELS, FiniteField, PointCount


def cofactor_determinant(rows) -> int:
    """Cofactor (Laplace) expansion along rows, memoized over column sets."""
    n = len(rows)
    entries = tuple(tuple(r) for r in rows)

    @lru_cache(maxsize=None)
    def minor(mask: int) -> int:
        cols = [j for j in range(n) if mask & (1 << j)]
        if not cols:
            return 1
        i = n - len(cols)
        acc = 0
        sign = 1
        for j in cols:
            if entries[i][j]:
                acc += sign * entries[i][j] * minor(mask & ~(1 << j))
            sign = -sign
        return acc

    return minor((1 << n) - 1)


def one_pivot_elimination(rows) -> tuple[int, int, int]:
    """(b_plus, b_minus, determinant) by the symmetric Bareiss pass one
    pivot per step, where lattice._eliminate takes three when it can:
    a_ij <- (a_ij a_kk - a_ki a_kj) / d_k on the upper triangle, with the
    same zero-pivot repair (add s * (row j, column j) into k, s = +/-1 so
    that 2 s a_kj + a_jj is nonzero) and kernel rule (a zero row counts as
    neither sign and makes the determinant 0)."""
    n = len(rows)
    a = [list(row) for row in rows]
    pos = neg = 0
    prev = 1
    kernel = False
    for k in range(n):
        row = a[k]
        if row[k] == 0:
            j = next((j for j in range(k + 1, n) if row[j]), None)
            if j is None:
                kernel = True
                continue
            s = 1 if 2 * row[j] + a[j][j] else -1
            row[k] = 2 * s * row[j] + a[j][j]
            for t in range(k + 1, n):
                row[t] += s * (a[j][t] if j <= t else a[t][j])
        p = row[k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] = (a[i][j] * p - row[i] * row[j]) // prev
        prev = p
    return pos, neg, 0 if kernel else prev


def full_copy_unimodular_mix(rows, seed: int, steps: int, max_entry: int):
    """The rows of random_unimodular_transform(GramMatrix(rows), seed, steps,
    max_entry), by the loop it used to run: every addition builds a whole
    new matrix and checks all n^2 entries against max_entry."""
    n = len(rows)
    if n == 0 or steps == 0:
        return [list(row) for row in rows]
    rng = random.Random(seed)
    a = [list(row) for row in rows]
    kinds = ("add", "add", "add", "swap", "negate") if n >= 2 else ("negate",)
    for _ in range(steps):
        kind = rng.choice(kinds)
        if kind == "negate":
            i = rng.randrange(n)
            for t in range(n):
                a[i][t] = -a[i][t]
            for t in range(n):
                a[t][i] = -a[t][i]
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
            for t in range(n):
                a[t][i], a[t][j] = a[t][j], a[t][i]
        else:
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            b = [r[:] for r in a]
            for t in range(n):
                b[i][t] += s * b[j][t]
            for t in range(n):
                b[t][i] += s * b[t][j]
            if any(abs(v) > max_entry for r in b for v in r):
                continue
            a = b
    return a


def _padd(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _pneg(a):
    return tuple(-x for x in a)


def char_poly(rows) -> tuple[int, ...]:
    """Coefficients of det(xI - M), ascending degree, exact integers."""
    n = len(rows)
    entries = tuple(
        tuple(
            (-rows[i][j], 1) if i == j else (-rows[i][j],) for j in range(n)
        )
        for i in range(n)
    )

    @lru_cache(maxsize=None)
    def minor(mask: int):
        cols = [j for j in range(n) if mask & (1 << j)]
        if not cols:
            return (1,)
        i = n - len(cols)
        acc = (0,)
        sign = 1
        for j in cols:
            term = _pmul(entries[i][j], minor(mask & ~(1 << j)))
            acc = _padd(acc, term if sign > 0 else _pneg(term))
            sign = -sign
        return acc

    return minor((1 << n) - 1)


def _sign_variations(coeffs) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_by_charpoly(rows) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of a symmetric integer matrix.

    The characteristic polynomial of a symmetric matrix has only real
    roots, so Descartes' sign count is exact: positive roots are the sign
    variations of p(x), negative roots those of p(-x).
    """
    p = char_poly(rows)
    pos = _sign_variations(p)
    neg = _sign_variations(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p)))
    return pos, neg


def parity_by_enumeration(rows) -> str:
    """'even' iff Q(x,x) is even for every x in {0,1}^n."""
    n = len(rows)
    for x in itertools.product((0, 1), repeat=n):
        q = sum(rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q % 2:
            return "odd"
    return "even"


class OracleField:
    """GF(p^k) as coefficient tuples modulo a monic irreducible.

    Products are integer polynomial products (_pmul) reduced by long
    division from the top coefficient down; nothing is shared with
    surftop.zeta.FiniteField except the tuple encoding and the modulus.
    """

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.modulus = p, k, modulus
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.elements = list(itertools.product(range(p), repeat=k))

    def from_int(self, a: int):
        return (a % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        prod = list(_pmul(a, b))
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:  # subtract c * x^(top - k) * modulus, clearing prod[top]
                for t, m in enumerate(self.modulus):
                    prod[top - self.k + t] -= c * m
        return tuple(v % self.p for v in prod[: self.k])


def power(field, a, n: int):
    """a^n for n >= 0 by square-and-multiply through field.mul, for any field
    with mul and one."""
    result = field.one
    while n:
        if n & 1:
            result = field.mul(result, a)
        a = field.mul(a, a)
        n >>= 1
    return result


def naive_affine_chart_count(coeffs, field) -> int:
    """Projective zero count by nested loops over the four standard charts.

    Deliberately cache-free: every monomial is evaluated by repeated
    multiplication, term by term, in an OracleField with field's p, k
    and modulus.
    """
    f = OracleField(field.p, field.k, field.modulus)
    reduced = [(e, c % f.p) for e, c in sorted(coeffs.items()) if c % f.p]
    total = 0
    for pivot in range(4):
        for tail in itertools.product(f.elements, repeat=3 - pivot):
            pt = (f.zero,) * pivot + (f.one,) + tail
            acc = f.zero
            for exps, c in reduced:
                term = f.from_int(c)
                for x, e in zip(pt, exps):
                    for _ in range(e):
                        term = f.mul(term, x)
                acc = f.add(acc, term)
            if acc == f.zero:
                total += 1
    return total


def _naive_pair_count(field, holds) -> int:
    """Pairs (x, y) of chart representatives of P2 x P1 with holds(f, x, y),
    in an OracleField f with field's p, k and modulus."""
    f = OracleField(field.p, field.k, field.modulus)

    def reps(n):
        for pivot in range(n + 1):
            for tail in itertools.product(f.elements, repeat=n - pivot):
                yield (f.zero,) * pivot + (f.one,) + tail

    lines = list(reps(1))
    return sum(1 for x in reps(2) for y in lines if holds(f, x, y))


def naive_blowup_count(field) -> int:
    """Points of {([x0:x1:x2], [y0:y1]) : x1 y1 = x2 y0} in P2 x P1,
    testing the incidence equation at every pair of chart representatives."""
    return _naive_pair_count(field, lambda f, x, y: f.mul(x[1], y[1]) == f.mul(x[2], y[0]))


def naive_p1xp1_count(field) -> int:
    """Points of the model {x2 = 0} x P1 of P1 x P1 in P2 x P1,
    testing x2 = 0 at every pair of chart representatives."""
    return _naive_pair_count(field, lambda f, x, y: x[2] == f.zero)


def orbit_hist(field, reps: Counter, dth: Counter) -> Counter:
    """Histogram over A^m of a form g of degree d >= 1 in m variables.

    reps counts the values of g on the representatives x of P^(m-1), and
    dth counts lambda^d over the units lambda: the nonzero points of A^m
    are the lambda x, where g is lambda^d g(x), and the origin is a zero.
    Products are OracleField's.
    """
    mul = OracleField(field.p, field.k, field.modulus).mul
    hist = Counter({field.zero: 1 + (field.q - 1) * reps[field.zero]})
    for v, r in reps.items():
        if v != field.zero:
            for w, n in dth.items():
                hist[mul(v, w)] += r * n
    return hist


def projective_zeros(field, hists) -> int:
    """Zeros in projective space of a homogeneous f_1(x_B1) + ... + f_n(x_Bn).

    Each f_i is given as the histogram of its values over the affine space
    of its own block B_i of variables. The histograms are convolved under
    OracleField.add, smallest support first; the last one is only paired
    against the partial sums negated by OracleField.neg, since only the
    weight N_aff of the total at 0 is needed: the N_aff - 1 nonzero zeros
    lie on (N_aff - 1) / (q - 1) lines through the origin.
    """
    *rest, last = sorted(hists, key=len)
    o = OracleField(field.p, field.k, field.modulus)
    acc = {field.zero: 1}
    for h in rest:
        nxt: dict = {}
        for a, m in acc.items():
            for b, n in h.items():
                s = o.add(a, b)
                nxt[s] = nxt.get(s, 0) + m * n
        acc = nxt
    n_aff = sum(m * last.get(o.neg(a), 0) for a, m in acc.items())
    return (n_aff - 1) // (field.q - 1)


def model_surface_name(variety: str) -> str:
    """Catalog surface carrying the Betti data of a countable model."""
    return MODELS[variety][0]


def model_has_good_reduction(variety: str, p: int) -> bool:
    """True when the shipped model is smooth mod p (Fermat: p does not divide d)."""
    d = MODELS[variety][1]
    return True if d is None else d % p != 0


def brute_force_isometry(
    a: GramMatrix, b: GramMatrix, bound: int
) -> tuple[tuple[int, ...], ...] | None:
    """Exhaustive search for P with P^T a P = b and det P = +/-1.

    Searches integer matrices with entries in [-bound, bound], filling
    columns left to right in lexicographic entry order and pruning any
    partial column set that already violates the target Gram products.
    Returns the first complete match (a tuple of rows), or None when no
    matrix in range works. Intended for rank <= 3 and small bounds.
    """
    n = a.n
    if b.n != n:
        raise ValueError("forms must have equal rank")
    if n == 0:
        return ()
    candidates = list(itertools.product(range(-bound, bound + 1), repeat=n))
    ae = a.entries
    be = b.entries

    def a_times(v):
        return [sum(ae[r][s] * v[s] for s in range(n)) for r in range(n)]

    cols: list[tuple[int, ...]] = []
    a_cols: list[list[int]] = []

    def extend(i: int):
        for v in candidates:
            ok = True
            for j in range(i):
                if sum(a_cols[j][r] * v[r] for r in range(n)) != be[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            av = a_times(v)
            if sum(av[r] * v[r] for r in range(n)) != be[i][i]:
                continue
            cols.append(v)
            a_cols.append(av)
            if i + 1 == n:
                # det(P^T P) = det(P)^2, so P is unimodular iff this is 1
                gram = tuple(tuple(sum(x * y for x, y in zip(u, v)) for v in cols) for u in cols)
                if determinant(GramMatrix(gram)) == 1:
                    return tuple(zip(*cols))
            else:
                found = extend(i + 1)
                if found is not None:
                    return found
            cols.pop()
            a_cols.pop()
        return None

    return extend(0)


def weil_bound_check(c: PointCount, b2: int) -> bool:
    """|N - 1 - q^2| <= b2 * q for a smooth surface with b1 = 0.

    Frobenius eigenvalues on middle cohomology have absolute value q,
    while b0 and b4 contribute 1 and q^2.
    """
    return abs(c.count - 1 - c.q * c.q) <= b2 * c.q


def diag(*values: int) -> GramMatrix:
    """Diagonal form <v1> + <v2> + ... as a Gram matrix."""
    n = len(values)
    return GramMatrix(
        tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


def block_diag(*blocks: GramMatrix) -> GramMatrix:
    """Orthogonal direct sum of Gram matrices."""
    n = sum(b.n for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[off + i][off + j] = b.entries[i][j]
        off += b.n
    return GramMatrix(rows)


def gram_to_dict(m: GramMatrix) -> dict:
    """The JSON object of a Gram file, as GramMatrix.from_dict reads it."""
    return {"n": m.n, "entries": [list(row) for row in m.entries]}


def run_fresh(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run of `python -S -B *args`: a fresh interpreter that skips
    site, so that only the surftop under test, and no .pth file, is loaded.
    Its environment holds just PYTHONPATH (the directory of that surftop),
    an empty PATH, and env."""
    path = str(Path(surftop.__file__).parents[1])
    return subprocess.run([sys.executable, "-S", "-B", *args],
                          env={"PYTHONPATH": path, "PATH": "", **(env or {})}, **kwargs)


# Standard even positive-definite rank-8 form: Gram matrix of the E8 root
# basis (chain 0-1-2-3-4-5-6 with node 7 hanging off node 4), determinant 1.
E8 = GramMatrix([
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
])

MINUS_E8 = GramMatrix([[-v for v in row] for row in E8.entries])

HYPERBOLIC = GramMatrix([[0, 1], [1, 0]])


def canonical_gram(c: FormClass) -> GramMatrix:
    """Block-diagonal Gram matrix realizing the class.

    Block order is fixed: positive blocks first, then negative, then
    hyperbolic planes, so output is deterministic and byte-stable.
    """
    if isinstance(c, IndefiniteOdd):
        return diag(*([1] * c.n_plus + [-1] * c.n_minus))
    if isinstance(c, IndefiniteEven):
        e8_blocks = [E8 if c.e8_signed_count > 0 else MINUS_E8] * abs(c.e8_signed_count)
        return block_diag(*e8_blocks, *([HYPERBOLIC] * c.h_count))
    if isinstance(c, DefiniteDiagonal):
        return diag(*([c.sign] * c.rank))
    raise TypeError(f"not a form class: {c!r}")


def forms_isomorphic(a: GramMatrix, b: GramMatrix, mode: ClassificationMode) -> bool:
    """True iff both forms land in the same canonical class.

    For indefinite forms this is exactly integral isometry; for definite
    forms it is isometry under the smooth-realizability hypothesis, and
    abstract definite input is refused (never silently compared).
    """
    return classify_form(invariants(a), mode) == classify_form(invariants(b), mode)


def projective_points(field: FiniteField, n: int):
    """Normalized representatives of P^n: first nonzero coordinate is 1."""
    for pivot in range(n + 1):
        prefix = (field.zero,) * pivot + (field.one,)
        for tail in itertools.product(field.elements(), repeat=n - pivot):
            yield prefix + tail
