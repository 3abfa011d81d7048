"""Shared hypothesis strategies and seeded test inputs."""

import random

from hypothesis import strategies as st

from surftop.lattice import GramMatrix


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
