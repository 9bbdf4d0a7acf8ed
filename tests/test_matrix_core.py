"""Property tests of the integer-grid matrix core against the list oracle.

Matrices are random, at most 5x5, with Gaussian-rational entries: non-unit
denominators, real-only and complex draws, and low-rank products so that
elimination meets zero pivots and free columns.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import (
    GaussianRational,
    Matrix,
    ShapeError,
    SingularMatrixError,
    inverse,
    null_space_basis,
    one_inverse,
    rref,
    solve,
)
from drazinlab.matrices import _grid
from util import (
    DIMS,
    RATIONALS,
    ZERO,
    as_matrix,
    g_add,
    g_mul,
    g_rref,
    g_sub,
    g_vec,
    grids,
    parts_reference,
    scalar_sub,
)

core = settings(max_examples=80, deadline=None)


@core
@given(st.data())
def test_product_and_sum(data):
    n, k, m = (data.draw(DIMS) for _ in range(3))
    a, b = data.draw(grids(n, k)), data.draw(grids(k, m))
    c = data.draw(grids(n, k))
    assert as_matrix(a) * as_matrix(b) == as_matrix(g_mul(a, b))
    # a zero or identity factor, which the product returns without multiplying
    zero_left, zero_right = [[ZERO] * k for _ in range(n)], [[ZERO] * m for _ in range(k)]
    eye = [[GaussianRational(int(i == j)) for j in range(k)] for i in range(k)]
    x, y = data.draw(st.sampled_from(((zero_left, b), (a, zero_right), (eye, b), (a, eye))))
    assert as_matrix(x) * as_matrix(y) == as_matrix(g_mul(x, y))
    assert as_matrix(a) + as_matrix(c) == as_matrix(g_add(a, c))
    assert as_matrix(a) - as_matrix(c) == as_matrix(g_sub(a, c))


@core
@given(grids())
def test_entries_round_trip(a):
    m = as_matrix(a)
    assert m.to_rows() == a
    assert Matrix(m.rows, m.cols, g_vec(m.to_rows())) == m


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.booleans(),
    RATIONALS,
    st.builds(GaussianRational, RATIONALS, RATIONALS),
)


@core
@given(st.data())
def test_constructor_matches_reference(data):
    """Mixed int, bool, Fraction and GaussianRational entries, and all-int
    ones, which give the integer form with no imaginary grid. Any other
    scalar is refused alike as an entry and as a GaussianRational part."""
    n, m = data.draw(DIMS), data.draw(DIMS)
    for cell in (ENTRIES, st.integers(-9, 9)):
        values = data.draw(st.lists(cell, min_size=n * m, max_size=n * m))
        built = Matrix(n, m, values)
        assert (built.den, built.re, built.im) == parts_reference(m, values)
    assert built.den == 1 and built.im is None
    for bad in (1.0, "1", Decimal("0.5"), complex(1, 0), "1e3"):
        for build in (
            lambda: Matrix(n, m, values[:-1] + [bad]),
            lambda: GaussianRational(bad),
            lambda: GaussianRational(0, bad),
            lambda: Matrix.from_rows([[bad]]),
        ):
            with pytest.raises(TypeError):
                build()
    for count in (n * m - 1, n * m + 1):
        with pytest.raises(ShapeError):
            Matrix(n, m, [1] * count)


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
        inv = inverse(as_matrix(a))
        assert inv == as_matrix([row[n:] for row in want])
        # the three read-offs of rref([a | I]) agree on an invertible a
        assert inv == one_inverse(as_matrix(a)) == solve(as_matrix(a), as_matrix(eye))
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
    sol = [[ZERO] * k for _ in range(m)]
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
            vec[pc] = [scalar_sub(ZERO, want[r][f])]
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


@core
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_grid_splits_a_flat_sequence_into_rows(rows, cols, data):
    flat = data.draw(st.lists(st.integers(), min_size=rows * cols, max_size=rows * cols))
    expected = tuple(tuple(flat[k : k + cols]) for k in range(0, rows * cols, cols))
    assert _grid(flat, cols) == _grid(iter(flat), cols) == expected


# -- GaussianRational, the scalar at the matrix boundary -----------------------


def test_canonical_form():
    assert GaussianRational(Fraction(2, 4)).re == Fraction(1, 2)
    assert GaussianRational(Fraction(3, -6)).re == Fraction(-1, 2)
    assert GaussianRational(Fraction(3, -6)).re.denominator == 2


def test_equality_is_structural():
    assert GaussianRational(1, 2) == GaussianRational(Fraction(2, 2), Fraction(4, 2))
    assert GaussianRational(1) == 1
    assert GaussianRational(Fraction(-1, 2)) == Fraction(-1, 2)
    assert GaussianRational(0, 1) != 0
    assert GaussianRational(1) != "1"
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_real_value_hashes_like_its_real_part():
    # equal values must hash alike, or a set holds 1 and GaussianRational(1) twice
    assert len({1, GaussianRational(1)}) == 1
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_scalar_is_a_value_without_arithmetic():
    z = GaussianRational(1, 2)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "conjugate", "norm_sq"):
        assert not hasattr(z, op)
    with pytest.raises(TypeError):
        z + 1
    with pytest.raises(TypeError):
        2 * z


def test_str_forms():
    assert str(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(5, 3))) == "1/2+5/3i"
