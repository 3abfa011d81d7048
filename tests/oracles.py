"""Independent verification paths used only by the tests.

Each oracle recomputes a production quantity through a different
algorithm: determinants by memoized cofactor expansion instead of
Bareiss, signatures by characteristic-polynomial sign counting instead
of congruence diagonalization, parity by brute evaluation of Q(x,x)
mod 2, and point counts by chart-by-chart nested loops with no caching
(hypersurfaces in P3) or over every point pair (the Bl1P2 incidence
model), where production counts diagonal and separable equations by
value distributions. The point counts do their field arithmetic in
OracleField, built from p, k and the modulus alone, so a fault in the
production field cannot show up on both sides of a comparison. Seeded
unimodular mixes are replayed by the whole-matrix loop that the O(n)
addition step of random_unimodular_transform replaced. The facts about
the shipped models that only the tests read (which catalog surface a
model carries, and where it has good reduction) live here too.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from surftop.zeta import MODELS


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

    def mul(self, a, b):
        prod = list(_pmul(a, b))
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:  # subtract c * x^(top - k) * modulus, clearing prod[top]
                for t, m in enumerate(self.modulus):
                    prod[top - self.k + t] -= c * m
        return tuple(v % self.p for v in prod[: self.k])


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


def naive_blowup_count(field) -> int:
    """Points of {([x0:x1:x2], [y0:y1]) : x1 y1 = x2 y0} in P2 x P1.

    Tests the incidence equation at every pair of chart representatives,
    in an OracleField with field's p, k and modulus.
    """
    f = OracleField(field.p, field.k, field.modulus)

    def reps(n):
        for pivot in range(n + 1):
            for tail in itertools.product(f.elements, repeat=n - pivot):
                yield (f.zero,) * pivot + (f.one,) + tail

    lines = list(reps(1))
    n = 0
    for x in reps(2):
        for y in lines:
            if f.mul(x[1], y[1]) == f.mul(x[2], y[0]):
                n += 1
    return n


def model_surface_name(variety: str) -> str:
    """Catalog surface carrying the Betti data of a countable model."""
    return MODELS[variety][0]


def model_has_good_reduction(variety: str, p: int) -> bool:
    """True when the shipped model is smooth mod p (Fermat: p does not divide d)."""
    d = MODELS[variety][1]
    return True if d is None else d % p != 0
