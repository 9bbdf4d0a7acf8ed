"""Property tests of the integer-grid matrix core against the list oracle.

Matrices are random, at most 5x5, with Gaussian-rational entries: non-unit
denominators, real-only and complex draws, and low-rank products so that
elimination meets zero pivots and free columns.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import (
    GaussianRational,
    Matrix,
    SingularMatrixError,
    inverse,
    null_space_basis,
    rref,
    solve,
)
from util import g_add, g_mul, g_rref

core = settings(max_examples=80, deadline=None)

RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 6)))
DIMS = st.integers(1, 5)


@st.composite
def grids(draw, rows=None, cols=None):
    """Row lists of GaussianRational; sometimes real-only, sometimes low rank."""
    rows = draw(DIMS) if rows is None else rows
    cols = draw(DIMS) if cols is None else cols
    im = RATIONALS if draw(st.booleans()) else st.just(Fraction(0))
    cell = st.builds(GaussianRational, RATIONALS, im)

    def block(r, c):
        return [[draw(cell) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        return g_mul(block(rows, inner), block(inner, cols))
    return block(rows, cols)


def as_matrix(rows):
    return Matrix.from_rows(rows)


@core
@given(st.data())
def test_product_and_sum(data):
    n, k, m = (data.draw(DIMS) for _ in range(3))
    a, b = data.draw(grids(n, k)), data.draw(grids(k, m))
    c = data.draw(grids(n, k))
    assert as_matrix(a) * as_matrix(b) == as_matrix(g_mul(a, b))
    assert as_matrix(a) + as_matrix(c) == as_matrix(g_add(a, c))
    assert as_matrix(a) - as_matrix(c) == as_matrix(g_add(a, [[-x for x in r] for r in c]))


@core
@given(grids())
def test_entries_round_trip(a):
    m = as_matrix(a)
    assert m.to_rows() == a
    assert Matrix(m.rows, m.cols, m.entries) == m


@core
@given(grids())
def test_rref_matches_oracle(a):
    reduced, rank, pivots = rref(as_matrix(a))
    want, want_rank, want_pivots = g_rref(a)
    assert reduced == as_matrix(want)
    assert (rank, pivots) == (want_rank, want_pivots)


@core
@given(st.data())
def test_inverse_matches_oracle(data):
    n = data.draw(DIMS)
    a = data.draw(grids(n, n))
    eye = [[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]
    want, _, pivots = g_rref([ra + re for ra, re in zip(a, eye)])
    if pivots == tuple(range(n)):
        assert inverse(as_matrix(a)) == as_matrix([row[n:] for row in want])
    else:
        with pytest.raises(SingularMatrixError):
            inverse(as_matrix(a))


@core
@given(st.data())
def test_solve_matches_oracle(data):
    n, m, k = (data.draw(DIMS) for _ in range(3))
    a, b = data.draw(grids(n, m)), data.draw(grids(n, k))
    x = solve(as_matrix(a), as_matrix(b))
    want, rank, pivots = g_rref([ra + rb for ra, rb in zip(a, b)])
    if any(pc >= m for pc in pivots):
        assert x is None
        return
    sol = [[GaussianRational(0)] * k for _ in range(m)]
    for r, pc in enumerate(pivots):
        sol[pc] = want[r][m:]
    assert x == as_matrix(sol)
    assert as_matrix(g_mul(a, x.to_rows())) == as_matrix(b)


@core
@given(grids())
def test_null_space_matches_oracle(a):
    basis = null_space_basis(as_matrix(a))
    want, rank, pivots = g_rref(a)
    cols = len(a[0])
    assert len(basis) == cols - rank
    free = [j for j in range(cols) if j not in pivots]
    for f, v in zip(free, basis):
        vec = [[GaussianRational(int(j == f))] for j in range(cols)]
        for r, pc in enumerate(pivots):
            vec[pc] = [-want[r][f]]
        assert v == as_matrix(vec)
        assert as_matrix(g_mul(a, v.to_rows())).is_zero()


@core
@given(grids(), st.integers(1, 7))
def test_canonical_form_however_built(a, k):
    m = as_matrix(a)
    for same in (
        m.scale(Fraction(1, 3)).scale(3),
        m.scale(k).scale(Fraction(1, k)),
        m.scale(GaussianRational(0, 1)).scale(GaussianRational(0, -1)),
        m.T.T,
        m.H.H,
        m + Matrix.zeros(m.rows, m.cols),
        -(-m),
    ):
        assert same == m
        assert hash(same) == hash(m)
        assert (same.den, same.re, same.im) == (m.den, m.re, m.im)


@core
@given(st.data())
def test_cancelled_imaginary_part_is_real(data):
    n, k, m = (data.draw(DIMS) for _ in range(3))
    real = lambda g: [[GaussianRational(x.re) for x in row] for row in g]
    a, b = real(data.draw(grids(n, k))), real(data.draw(grids(k, m)))
    i = GaussianRational(0, 1)
    product = as_matrix(a).scale(i) * as_matrix(b).scale(i)
    assert product == -as_matrix(g_mul(a, b))
    assert product.im is None
    assert hash(product) == hash(-as_matrix(g_mul(a, b)))
