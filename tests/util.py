"""Shared test helpers.

The int-list helpers below are an independent oracle: they compute with
plain Python integers on lists of lists, never touching the library's
matrix type, so frozen expectations derived from them genuinely
cross-check the implementation.
"""

import random
from fractions import Fraction

from drazinlab import GaussianRational, Matrix


def imat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def imat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def imat_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def as_matrix(rows) -> Matrix:
    return Matrix.from_rows(rows)


def assert_matrix_equals(m: Matrix, rows) -> None:
    assert m == Matrix.from_rows(rows), f"\n{m}\nexpected\n{Matrix.from_rows(rows)}"


def rand_int_matrix(rng: random.Random, rows: int, cols: int | None = None,
                    lo: int = -3, hi: int = 3) -> Matrix:
    cols = rows if cols is None else cols
    return Matrix(rows, cols, (rng.randint(lo, hi) for _ in range(rows * cols)))


def rand_rank_matrix(rng: random.Random, n: int, r: int) -> Matrix:
    """n x n matrix of rank at most r (exactly r for generic draws)."""
    if r == 0:
        return Matrix.zeros(n, n)
    left = rand_int_matrix(rng, n, r, -2, 2)
    right = rand_int_matrix(rng, r, n, -2, 2)
    return left * right


def rand_gauss_matrix(rng: random.Random, rows: int, cols: int | None = None) -> Matrix:
    cols = rows if cols is None else cols
    return Matrix(
        rows,
        cols,
        (
            GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            for _ in range(rows * cols)
        ),
    )


# Gaussian-rational list oracle: the same role as the int-list helpers for
# matrices with rational and complex entries. It computes entry by entry
# with `GaussianRational` arithmetic on lists of lists, so it shares no code
# with the library's integer-grid matrix core.


def g_mul(a, b):
    k = len(b)
    assert len(a[0]) == k
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), GaussianRational(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def g_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def g_rref(a):
    """(reduced rows, rank, pivot columns) by textbook Gauss-Jordan."""
    work = [list(row) for row in a]
    nrows, ncols = len(work), len(work[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = GaussianRational(1) / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
    return work, len(pivots), tuple(pivots)
