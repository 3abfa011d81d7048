"""Exact point counting for explicit surface models over small finite fields.

Fields GF(p^k) are built for k <= 3 with a deterministic irreducible
modulus; elements are coefficient tuples and all arithmetic is exact.
Zeta data is carried extensionally as count sequences over q = p, p^2,
p^3. This layer imports no other: counterexample_report gives the
counts of the counterexample, and the `counterexample` command sets
them against the topology from the surfaces layer.

Every count is an exact count of solutions; closed forms such as
(q+1)^2 for P1 x P1 are asserted in tests, never used as the
implementation, and each is of a diagonal equation c_1 x_1^d + ... +
c_n x_n^d = 0 (Weil, "Numbers of solutions of equations in finite
fields", Bull. AMS 55 (1949), sections 1-2): its affine zeros are the
weight at 0 of the convolution of its terms' value histograms. Each
histogram is a class function, constant on {0} and on each coset of
the d-th powers H, a subgroup of index e = gcd(d, q - 1) in GF(q)^*:
for c = 0 the term c x^d is q at {0}; for a unit c it is 1 at {0} and e
at the coset c H. So each convolution step reads only the cyclotomic
numbers of the cosets (Berndt, Evans and Williams, Gauss and Jacobi
Sums, 1998, ch. 2), and nothing is enumerated. Both surfaces of the
counterexample, P1 x P1 and Bl1P2, are families of lines in P2 over P1:
rows of degree-1 coefficients, one for each point [1:y] and [0:1] of P1.

The cap q <= MAX_Q = 343 bounds the work, and no argument changes it:
at the cap a shipped model takes under a second. FiniteField refuses
q > MAX_Q before it tests p for primality and picks its own irreducible
modulus, so every nonzero element is a unit. Smoothness of
user-supplied forms mod p is not verified.
"""

import functools
import itertools
import math
from collections import Counter

from . import Record
from .errors import (InvalidInputError, NotPrimeError, UnsupportedDegreeError, ZeroFormError,
                     int_text, text_repr)

MAX_Q = 343


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_prime(n: int) -> bool:
    """Trial division; plenty for the desk-scale characteristics used here."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """GF(p^k) with elements as length-k coefficient tuples over Z/p.

    The tuple (c0, ..., c_{k-1}) stands for c0 + c1 x + ... modulo the
    first monic polynomial of degree k with no root mod p (irreducible,
    as k <= 3) in lexicographic order of its low coefficients; k = 1
    needs no modulus (None). All fields of order q are isomorphic (Lidl
    and Niederreiter, Finite Fields, 1983, Thm 2.5), so this choice never
    changes a count. Elements are immutable and hashable; the field
    object holds no mutable state.

    The checks run once, cheapest first: the types of p and k, the
    degree, q = p^k against MAX_Q, then trial-division primality, so a
    huge p is never factored and no ring that is not a field is built
    (value distributions need every nonzero element a unit).
    """

    def __init__(self, p: int, k: int):
        if not (_is_int(p) and _is_int(k)):
            raise ValueError("characteristic and extension degree must be integers")
        if not 1 <= k <= 3:
            raise UnsupportedDegreeError(f"extension degree {int_text(k)} outside 1..3")
        q = p**k
        if q > MAX_Q:
            raise ValueError(f"q = {int_text(q)} exceeds the enumeration cap {MAX_Q}")
        if not is_prime(p):
            raise NotPrimeError(f"{int_text(p)} is not prime")
        self.p = p
        self.k = k
        self.modulus = None if k == 1 else next(
            t + (1,) for t in itertools.product(range(p), repeat=k) if not _has_root(t + (1,), p))
        self.q = q
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k}, q={self.q})"

    def from_int(self, a: int) -> tuple[int, ...]:
        return (a % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        """All q elements, coefficient tuples in lexicographic order."""
        return itertools.product(range(self.p), repeat=self.k)

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        raw = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = raw[i] % p
            if c:
                base = i - k
                for t in range(k + 1):
                    raw[base + t] -= c * mod[t]
            raw[i] = 0
        return tuple(v % p for v in raw[:k])


def _has_root(coeffs: tuple[int, ...], p: int) -> bool:
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def build_field(p: int, k: int) -> FiniteField:
    """GF(p^k); FiniteField states the modulus and the checks."""
    return FiniteField(p, k)


class PointCount(Record):
    variety: str
    q: int
    count: int


def _classes(field: FiniteField, degree: int):
    """Class labels of GF(q) for the d-th powers H, and their cyclotomic numbers.

    GF(q)^* is cyclic, so H is both the image of x -> x^e, e = gcd(d, q - 1),
    and the kernel of x -> x^m, m = (q - 1) / e; the shorter chain costs
    min(e, m) - 1 products per unit. Class 0 is {0}; classes 1..e are the
    cosets of H in the order field.elements() meets them. table[k] counts
    the classes (i, j) of a and w_k - a over all a, for the first element
    w_k of class k: the cyclotomic numbers N_k(i, j), the same for every
    w_k in class k.
    """
    units = [x for x in field.elements() if x != field.zero]
    e = math.gcd(degree, field.q - 1)
    m = (field.q - 1) // e
    chain = lambda x, n: functools.reduce(field.mul, [x] * n)  # x^n in n - 1 products
    powers = {chain(x, e) for x in units} if e <= m else {x for x in units if chain(x, m) == field.one}
    label = {field.zero: 0}
    firsts = [field.zero]
    for x in units:
        if x not in label:
            firsts.append(x)
            for h in powers:
                label[field.mul(x, h)] = len(firsts) - 1
    table = [Counter((label[a], label[field.sub(w, a)]) for a in field.elements()) for w in firsts]
    return label, table


def _class_zeros(field: FiniteField, table, funcs) -> int:
    """Zeros in projective space of a homogeneous f_1(x_1) + ... + f_n(x_n).

    funcs[i][k] is the number of x_i in GF(q) where f_i takes any one
    value of class k. table gives each convolution at the first element
    of each class; the N_aff - 1 nonzero zeros of the total lie on
    (N_aff - 1) / (q - 1) lines through the origin.
    """
    acc, *rest = funcs
    for g in rest:
        acc = [sum(c * acc[i] * g[j] for (i, j), c in t.items()) for t in table]
    return (acc[0] - 1) // (field.q - 1)


def _diagonal_zeros(field: FiniteField, degree: int, rows) -> int:
    """Projective zeros of c_1 x_1^degree + ... + c_n x_n^degree, summed over rows c.

    The class function of c x^d depends only on the class of c: x -> x^d
    maps GF(q)^* e-to-one onto H, and for a unit c, y -> c y permutes
    GF(q) and carries H onto c H (for d = 1: c x takes every value once;
    Lidl and Niederreiter, Finite Fields, 1983). FiniteField guarantees
    that every nonzero c is a unit. So each pattern of class labels among
    the rows is counted once, times its number of rows.
    """
    label, table = _classes(field, degree)
    e = len(table) - 1
    term = [[field.q] + [0] * e]  # c = 0
    term += [[1] + [0] * (k - 1) + [e] + [0] * (e - k) for k in range(1, e + 1)]  # c in class k
    patterns = Counter(tuple(label[c] for c in row) for row in rows)
    return sum(m * _class_zeros(field, table, [term[k] for k in ks]) for ks, m in patterns.items())


def count_p1xp1(field: FiniteField) -> PointCount:
    """Points of P1 x P1 on its model {x2 = 0} x P1: every fibre is the line x2 = 0."""
    n = _diagonal_zeros(field, 1, [(field.zero, field.zero, field.one)] * (field.q + 1))
    return PointCount(variety="P1xP1", q=field.q, count=n)


def count_blowup_p2(field: FiniteField) -> PointCount:
    """Points of the blowup of P2 at [1:0:0], counted on its incidence model.

    The model is {([x0:x1:x2], [y0:y1]) : x1 y1 = x2 y0} inside P2 x P1:
    the lines 0 x0 + y1 x1 - y0 x2 = 0 over y = [1:y1] and [0:1].
    """
    minus_one = field.sub(field.zero, field.one)
    rows = [(field.zero, y, minus_one) for y in field.elements()]  # [1:y]
    rows.append((field.zero, field.one, field.zero))  # [0:1]
    return PointCount(variety="Bl1P2", q=field.q, count=_diagonal_zeros(field, 1, rows))


def count_hypersurface_p3(
    coeffs: dict[tuple[int, int, int, int], int],
    field: FiniteField,
    variety: str = "hypersurface",
) -> PointCount:
    """Zeros in P3 of a diagonal integer form c0 x0^d + c1 x1^d + c2 x2^d + c3 x3^d.

    coeffs maps exponent quadruples to integer coefficients. A monomial
    in two or more variables is refused whatever p is; then the
    coefficients are reduced mod p, and a form vanishing identically mod
    p is refused. The four reduced coefficients, 0 for a variable with
    no term, are one row of degree d, so nothing is enumerated.
    """
    for e, c in coeffs.items():
        if not (isinstance(e, tuple) and len(e) == 4 and all(_is_int(x) and x >= 0 for x in e)):
            raise ValueError("exponents must be quadruples of non-negative integers")
        if not _is_int(c):
            raise ValueError("coefficients must be integers")
    if len({sum(e) for e in coeffs}) > 1:
        raise ValueError("form is not homogeneous")
    if any(sum(1 for x in e if x) > 1 for e in coeffs):
        raise ValueError("form is not diagonal")
    reduced = {e: c % field.p for e, c in coeffs.items() if c % field.p}
    if not reduced:
        raise ZeroFormError("form vanishes identically mod p")
    degree = sum(next(iter(reduced)))
    if degree == 0:  # a nonzero constant: the origin is not a zero
        return PointCount(variety=variety, q=field.q, count=0)
    # by homogeneity each variable has at most one term
    row = [field.from_int(sum(c for e, c in reduced.items() if e[i])) for i in range(4)]
    return PointCount(variety=variety, q=field.q, count=_diagonal_zeros(field, degree, [row]))


def fermat_form(d: int) -> dict[tuple[int, int, int, int], int]:
    """x0^d + x1^d + x2^d + x3^d (smooth mod p exactly when p does not divide d)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return {
        (d, 0, 0, 0): 1,
        (0, d, 0, 0): 1,
        (0, 0, d, 0): 1,
        (0, 0, 0, d): 1,
    }


# shipped countable models: variety id -> fermat degree, or None
MODELS = {"P1xP1": None, "Bl1P2": None, **{f"fermat{d}": d for d in range(1, 7)}}


def count_variety(variety: str, field: FiniteField) -> PointCount:
    """Count a shipped model by id; InvalidInput for unknown ids."""
    if variety not in MODELS:
        raise InvalidInputError(f"no countable model named {text_repr(variety)}")
    if variety == "P1xP1":
        return count_p1xp1(field)
    if variety == "Bl1P2":
        return count_blowup_p2(field)
    return count_hypersurface_p3(fermat_form(MODELS[variety]), field, variety=variety)


def counterexample_report(primes: list[int], degrees: int = 2) -> dict:
    """The counts of the counterexample: P1 x P1 against P2 blown up at a point.

    For each prime and each extension degree up to `degrees`, the point
    counts of both surfaces over GF(p^k) and whether they agree. Every
    field is built, and so checked, before any count. The `counterexample`
    command sets these counts against the topology of the two surfaces.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) < len(primes):
        seen = set()
        raise ValueError(f"prime {int_text(next(p for p in primes if p in seen or seen.add(p)))} is repeated")
    if not 1 <= degrees <= 3:
        raise ValueError("degrees must be between 1 and 3")
    fields = [[build_field(p, k) for k in range(1, degrees + 1)] for p in primes]
    per_prime = []
    all_equal = True
    for p, row_fields in zip(primes, fields):
        rows = []
        for f in row_fields:
            a = count_p1xp1(f)
            b = count_blowup_p2(f)
            equal = a.count == b.count
            all_equal = all_equal and equal
            rows.append({"q": f.q, "P1xP1": a.count, "Bl1P2": b.count, "equal": equal})
        per_prime.append({"p": p, "counts": rows})
    return {"surfaces": ["P1xP1", "Bl1P2"], "degrees": degrees, "primes": per_prime,
            "all_counts_equal": all_equal}
