"""Exact point counting for explicit surface models over small finite fields.

Fields GF(p^k) are built for k <= 3 with a deterministic irreducible
modulus; elements are coefficient tuples and all arithmetic is exact.
Zeta data is carried extensionally as count sequences over q = p, p^2,
p^3.

Every count is an exact count of solutions; closed forms such as
(q+1)^2 for P1 x P1 are asserted in tests, never used as the
implementation. P1 x P1 is counted by enumerating its representative
pairs. Every other count uses value distributions (Weil, "Numbers of
solutions of equations in finite fields", Bull. AMS 55 (1949), sections
1-2): the affine zeros of g_1(x_B1) + ... + g_n(x_Bn) = 0, with the g_i
on disjoint blocks B_i of variables, are the weight at 0 of the
convolution of the blocks' value histograms. A hypersurface in P3 is
split into the connected components of "two variables share a
monomial", and a block of m variables gets its histogram from the
representatives of P^(m-1), so only a form whose monomials connect all
four variables costs O(q^3); every Fermat model has four blocks of one.
The incidence model of Bl1P2 is linear in x for each fixed y in P1, and
x -> c x permutes GF(q) for every unit c, so a term c x has one value
histogram for c = 0 and one for all q - 1 units: two histograms serve
every y.

The cap q <= MAX_Q = 343 bounds the work, and no argument changes it:
at the cap a shipped model takes under a second. A hypersurface block
may have no more representatives than P2 over GF(MAX_Q), so a form
connecting all four variables, which would visit about 4 * 10^7
representatives of P3 at the cap, is refused above q = 47; a form with
more monomial evaluations than MAX_EVAL_WORK is refused too.
FiniteField refuses q > MAX_Q before it tests p for primality and picks
its own irreducible modulus, so every nonzero element is a unit.
Smoothness of user-supplied forms mod p is not verified.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from . import Record
from .errors import NotPrimeError, UnsupportedDegreeError, ZeroFormError, int_text

MAX_Q = 343
# representatives of P2 over GF(MAX_Q): a block of up to three variables
# always fits, a block of four only up to q = 47
MAX_BLOCK_REPS = MAX_Q**2 + MAX_Q + 1
# monomial evaluations over the block representatives, plus power-table
# entries: five monomials on a block of three variables fit at MAX_Q
MAX_EVAL_WORK = 600_000


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
            raise UnsupportedDegreeError(f"extension degree {k} outside 1..3")
        q = p**k
        if q > MAX_Q:
            raise ValueError(f"q = {int_text(q)} exceeds the enumeration cap {MAX_Q}")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
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

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

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

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


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


def projective_points(field: FiniteField, n: int):
    """Normalized representatives of P^n: first nonzero coordinate is 1."""
    for pivot in range(n + 1):
        prefix = (field.zero,) * pivot + (field.one,)
        for tail in itertools.product(field.elements(), repeat=n - pivot):
            yield prefix + tail


def _orbit_hist(field: FiniteField, reps: Counter, dth: Counter) -> Counter:
    """Histogram over A^m of a form g of degree d >= 1 in m variables.

    reps counts the values of g on the representatives x of P^(m-1), and
    dth counts lambda^d over the units lambda: the nonzero points of A^m
    are the lambda x, where g is lambda^d g(x), and the origin is a zero.
    """
    hist = Counter({field.zero: 1 + (field.q - 1) * reps[field.zero]})
    for v, r in reps.items():
        if v != field.zero:
            for w, n in dth.items():
                hist[field.mul(v, w)] += r * n
    return hist


def _projective_zeros(field: FiniteField, hists) -> int:
    """Zeros in projective space of a homogeneous f_1(x_B1) + ... + f_n(x_Bn).

    Each f_i is given as the histogram of its values over the affine space
    of its own block B_i of variables. The histograms are convolved under
    field.add, smallest support first; the last one is only paired against
    the negated partial sums, since only the weight N_aff of the total at 0
    is needed: the N_aff - 1 nonzero zeros lie on (N_aff - 1) / (q - 1)
    lines through the origin.
    """
    *rest, last = sorted(hists, key=len)
    add = field.add
    acc = {field.zero: 1}
    for h in rest:
        nxt: dict = {}
        for a, m in acc.items():
            for b, n in h.items():
                s = add(a, b)
                nxt[s] = nxt.get(s, 0) + m * n
        acc = nxt
    neg = field.neg
    n_aff = sum(m * last.get(neg(a), 0) for a, m in acc.items())
    return (n_aff - 1) // (field.q - 1)


def count_p1xp1(field: FiniteField) -> PointCount:
    """Points of P1 x P1 by direct enumeration of representative pairs."""
    line = list(projective_points(field, 1))
    n = sum(1 for _pair in itertools.product(line, line))
    return PointCount(variety="P1xP1", q=field.q, count=n)


def count_blowup_p2(field: FiniteField) -> PointCount:
    """Points of the blowup of P2 at [1:0:0], counted on its incidence model.

    The model is {([x0:x1:x2], [y0:y1]) : x1 y1 = x2 y0} inside P2 x P1.
    For each y the equation 0 * x0 + y1 x1 - y0 x2 = 0 is separable in x,
    so its points in P2 come from the value distributions of its terms.
    The term c x has one histogram for c = 0 and one for every unit c,
    since x -> c x permutes GF(q) (Lidl and Niederreiter, Finite Fields,
    1983); FiniteField guarantees that every nonzero c is a unit. So the
    q + 1 equations fall into three zero/nonzero patterns of (y1, -y0),
    and the count costs O(q) field operations, not O(q^2).
    """
    units = Counter(x for x in field.elements() if x != field.zero)
    hist = {False: _orbit_hist(field, Counter([field.zero]), units),
            True: _orbit_hist(field, Counter([field.one]), units)}
    # -y0 is zero exactly when y0 is
    zeros = functools.cache(
        lambda y1_unit, y0_unit: _projective_zeros(field, [hist[False], hist[y1_unit], hist[y0_unit]]))
    n = sum(zeros(y1 != field.zero, y0 != field.zero) for y0, y1 in projective_points(field, 1))
    return PointCount(variety="Bl1P2", q=field.q, count=n)


def count_hypersurface_p3(
    coeffs: dict[tuple[int, int, int, int], int],
    field: FiniteField,
    variety: str = "hypersurface",
) -> PointCount:
    """Zeros in P3 of a homogeneous integer form.

    coeffs maps exponent quadruples to integer coefficients; they are
    reduced mod p, and a form vanishing identically mod p is refused.
    The form is a sum of block forms on the connected components of "two
    variables share a monomial"; each monomial of a block of m variables
    is evaluated at the q^(m-1)+...+1 representatives of P^(m-1). Before
    any table is built, a block with more than MAX_BLOCK_REPS
    representatives is refused (so a form connecting all four variables
    counts only up to q = 47), and so is a form whose evaluations plus
    power-table entries exceed MAX_EVAL_WORK. At q = 343 the cubic
    x0^3+x1^3+x2^3+x3^3+x0x1x2 needs 4.7 * 10^5 of these and takes 4.4 s
    on a 2-vCPU Xeon VM.
    """
    for e, c in coeffs.items():
        if not (isinstance(e, tuple) and len(e) == 4 and all(_is_int(x) and x >= 0 for x in e)):
            raise ValueError("exponents must be quadruples of non-negative integers")
        if not _is_int(c):
            raise ValueError("coefficients must be integers")
    if len({sum(e) for e in coeffs}) > 1:
        raise ValueError("form is not homogeneous")
    reduced = {e: c % field.p for e, c in coeffs.items() if c % field.p}
    if not reduced:
        raise ZeroFormError("form vanishes identically mod p")
    degree = sum(next(iter(reduced)))
    if degree == 0:  # a nonzero constant: the origin is not a zero
        return PointCount(variety=variety, q=field.q, count=0)
    blocks = [[i] for i in range(4)]
    for e in reduced:
        hit = [b for b in blocks if any(e[i] for i in b)]
        blocks = [b for b in blocks if b not in hit] + [sum(hit, [])]
    q = field.q
    exponents = {d for e in reduced for d in e if d} | {degree}
    work = len(exponents) * q  # the power tables
    for block in blocks:
        reps = (q ** len(block) - 1) // (q - 1)
        if reps > MAX_BLOCK_REPS:
            raise ValueError(
                f"a block of {len(block)} variables has {int_text(reps)} representatives "
                f"over GF({q}), more than the block cap {MAX_BLOCK_REPS}"
            )
        work += reps * sum(1 for e in reduced if any(e[i] for i in block))
    if work > MAX_EVAL_WORK:
        raise ValueError(
            f"evaluation work {int_text(work)} over GF({q}) exceeds the cap {MAX_EVAL_WORK}")
    terms = [(e, field.from_int(c)) for e, c in sorted(reduced.items())]
    powers = {d: {x: field.pow(x, d) for x in field.elements()} for d in exponents}
    dth = Counter(v for x, v in powers[degree].items() if x != field.zero)
    hists = []
    for block in blocks:
        block_terms = [([e[i] for i in block], c) for e, c in terms if any(e[i] for i in block)]
        reps = Counter()
        for point in projective_points(field, len(block) - 1):
            total = field.zero
            for exps, c in block_terms:
                mono = c
                for x, d in zip(point, exps):
                    if d:
                        mono = field.mul(mono, powers[d][x])
                total = field.add(total, mono)
            reps[total] += 1
        hists.append(_orbit_hist(field, reps, dth))
    return PointCount(variety=variety, q=field.q, count=_projective_zeros(field, hists))


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


# shipped countable models: variety id -> (catalog surface, fermat degree or None)
MODELS = {
    "P1xP1": ("P1xP1", None),
    "Bl1P2": ("Bl1P2", None),
    **{f"fermat{d}": (f"deg{d}", d) for d in range(1, 7)},
}


def count_variety(variety: str, field: FiniteField) -> PointCount:
    """Count a shipped model by id; KeyError for unknown ids."""
    if variety not in MODELS:
        raise KeyError(f"no countable model named {variety!r}")
    if variety == "P1xP1":
        return count_p1xp1(field)
    if variety == "Bl1P2":
        return count_blowup_p2(field)
    d = MODELS[variety][1]
    return count_hypersurface_p3(fermat_form(d), field, variety=variety)


def counterexample_report(primes: list[int], degrees: int = 2) -> dict:
    """Equal zeta data vs distinct homeomorphism type, in one structured report.

    For each prime and each extension degree up to `degrees`, counts the
    points of P1 x P1 and of P2 blown up at a point; alongside, decides
    homeomorphism and classifies both intersection forms. The conclusion
    records that matching count sequences cannot detect the differing
    intersection-form parity.
    """
    if not primes:
        raise ValueError("need at least one prime")
    if not 1 <= degrees <= 3:
        raise ValueError("degrees must be between 1 and 3")
    from .classification import class_to_dict
    from .surfaces import catalog_lookup, compute_invariants, homeomorphic, intersection_form_class
    quadric = catalog_lookup("P1xP1")
    blowup = catalog_lookup("Bl1P2")
    homeo = homeomorphic(quadric, blowup)
    classes, inv = {}, {}
    for s in (quadric, blowup):
        classes[s.name] = class_to_dict(intersection_form_class(s))
        si = compute_invariants(s)
        inv[s.name] = {"b2": si.b2, "sigma": si.sigma, "parity": si.parity.value}
    # every field is checked before any counting starts
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
    if all_equal and not homeo:
        conclusion = (
            "point counts agree over every tested field, yet the surfaces are not "
            "homeomorphic: zeta data does not determine homeomorphism type"
        )
    else:
        conclusion = "expected counterexample conditions were NOT met; see the data"
    return {
        "surfaces": ["P1xP1", "Bl1P2"],
        "degrees": degrees,
        "primes": per_prime,
        "all_counts_equal": all_equal,
        "homeomorphic": homeo,
        "form_classes": classes,
        "invariants": inv,
        "conclusion": conclusion,
    }
