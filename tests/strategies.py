"""Shared hypothesis strategies and seeded test inputs.

random_unimodular_transform mixes a form by a seeded unimodular change
of basis: the basis-change fuzzing that the classification tests and
the acceptance criteria use to show that invariants and classes do not
depend on the basis. DEFAULT_ENTRY_CAP bounds the entries it makes.
"""

import random

from hypothesis import strategies as st

from surftop.lattice import GramMatrix

DEFAULT_ENTRY_CAP = 10**6


@st.composite
def gram_matrices(draw, min_rank=0, max_rank=4, min_entry=-3, max_entry=3):
    n = draw(st.integers(min_rank, max_rank))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_entry, max_entry))
            rows[i][j] = rows[j][i] = v
    return GramMatrix(rows)


def huge_symmetric_rows(n: int, seed: int) -> list[list[int]]:
    """A seeded random symmetric n x n matrix of 4300-digit entries, the
    longest a Gram file may hold; before the elimination work cap, rank 40
    ran for minutes."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(10**4299, 10**4300)
    return rows


def random_unimodular_transform(
    m: GramMatrix, seed: int, steps: int, max_entry: int = DEFAULT_ENTRY_CAP
) -> GramMatrix:
    """Congruent matrix P^T m P for a seed-determined unimodular P.

    P is a product of at most `steps` elementary integer operations
    (add +/- one row into another with the matching column operation,
    swap two basis vectors, negate one); an addition step that would push
    any entry beyond max_entry in absolute value is skipped, so entry
    growth stays bounded. steps = 0 returns m unchanged.
    """
    n = m.n
    if n == 0 or steps == 0:
        return m
    rng = random.Random(seed)
    a = [list(row) for row in m.entries]
    wide = sum(abs(v) > max_entry for r in a for v in r)  # past the cap; 0 after an addition
    # additions do the real mixing; swaps and negations only reshuffle
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
            # touches only row and column i; skipped if the new row or any other entry is past the cap
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            row = [x + s * y for x, y in zip(a[i], a[j])]
            row[i] = a[i][i] + 2 * s * a[i][j] + a[j][j]
            if any(abs(v) > max_entry for v in row) or (
                wide and wide != 2 * sum(abs(v) > max_entry for v in a[i]) - (abs(a[i][i]) > max_entry)
            ):
                continue
            a[i] = row
            for t in range(n):
                a[t][i] = row[t]
            wide = 0
    return GramMatrix(a)
