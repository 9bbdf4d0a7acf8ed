import copy
import dataclasses
import pickle
import random
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, floordiv, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import (
    GaussianRational,
    Matrix,
    ShapeError,
    SingularMatrixError,
    block_diag,
    drazin,
    inverse,
    null_space_basis,
    one_inverse,
    rank,
    rref,
    solve,
)
from drazinlab.generators import counterexample_instance
from drazinlab.matrices import (
    MAX_SIZE,
    _bilinear,
    _entrywise_kernel,
    _gather,
    _gmap,
    _gmul,
    _product_kernel,
    _z_step,
    _z_step_for,
    _z_step_kernel,
    pivot_columns,
)
from util import (
    ZERO,
    as_matrix,
    assert_matrix_equals,
    g_add,
    g_mul,
    g_sub,
    grids,
    imat_eye,
    imat_mul,
    rand_gauss_matrix,
    rand_int_matrix,
    rand_rank_matrix,
    record_calls,
    scalar_add,
)


def test_identity_power():
    eye = Matrix.identity(2)
    assert eye**5 == eye
    assert eye**0 == eye
    # one cached instance per shape; matrices are immutable
    assert Matrix.identity(2) is eye and Matrix.zeros(2, 3) is Matrix.zeros(2, 3)


def test_identity_factor_is_not_multiplied(monkeypatch):
    m = rand_gauss_matrix(random.Random(3), 3, 2).scale(Fraction(1, 6))
    multiplied = record_calls(monkeypatch, "drazinlab.matrices", "_gmul")
    assert Matrix.identity(3) * m == m
    assert m * Matrix.identity(2) == m
    assert multiplied == []


def test_product_matches_int_oracle():
    a = [[1, 1], [1, 0]]
    b = [[1, -1], [0, 0]]
    assert_matrix_equals(as_matrix(a) * as_matrix(b), imat_mul(a, b))
    assert imat_mul(a, b) == [[1, -1], [1, -1]]


def test_nilpotent_square_is_zero():
    j = as_matrix([[0, 1], [0, 0]])
    assert (j**2).is_zero()


def test_power_by_repeated_product():
    rng = random.Random(7)
    a = rand_int_matrix(rng, 4)
    by_hand = Matrix.identity(4)
    for k in range(6):
        assert a**k == by_hand
        by_hand = by_hand * a


def test_shape_errors():
    a = Matrix.zeros(2, 3)
    b = Matrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        a * b
    with pytest.raises(ShapeError):
        a + Matrix.zeros(3, 2)
    with pytest.raises(ShapeError):
        a**2
    with pytest.raises(ValueError):
        Matrix.identity(2) ** -1
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        Matrix(0, 2, [])
    for build in (lambda: Matrix.identity(0), lambda: Matrix.zeros(2, 0)):
        for _ in range(2):  # a failure is not cached
            with pytest.raises(ShapeError):
                build()


def test_rref_examples():
    r, rk, piv = rref(Matrix.identity(2))
    assert r.is_identity() and rk == 2 and piv == (0, 1)

    r, rk, piv = rref(as_matrix([[1, -1], [1, -1]]))
    assert rk == 1 and piv == (0,)
    assert_matrix_equals(r, [[1, -1], [0, 0]])

    assert rref(Matrix.zeros(2, 2)).rank == 0


def test_rref_idempotent_and_rank_stable():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = rand_int_matrix(rng, n, m)
        r = rref(a).matrix
        assert rref(r).matrix == r
        assert rank(a) == rank(r)


def test_inverse_examples():
    assert inverse(Matrix.identity(2)).is_identity()
    assert_matrix_equals(inverse(as_matrix([[1, -1], [0, 1]])), [[1, 1], [0, 1]])
    with pytest.raises(SingularMatrixError):
        inverse(as_matrix([[1, 1], [1, 1]]))
    with pytest.raises(ShapeError):
        inverse(Matrix.zeros(2, 3))


def test_inverse_succeeds_iff_full_rank():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_int_matrix(rng, n)
        if rank(a) == n:
            assert inverse(a) * a == Matrix.identity(n)
            assert a * inverse(a) == Matrix.identity(n)
        else:
            with pytest.raises(SingularMatrixError):
                inverse(a)


def test_one_inverse_examples():
    z = Matrix.zeros(2, 2)
    assert one_inverse(z) == z
    assert one_inverse(Matrix.identity(2)).is_identity()
    ones = as_matrix([[1, 1], [1, 1]])
    g = one_inverse(ones)
    assert ones * g * ones == ones


def test_one_inverse_rectangular_shape():
    a = Matrix.from_rows([[1, 2, 3], [0, 0, 1]])
    g = one_inverse(a)
    assert (g.rows, g.cols) == (3, 2)
    assert a * g * a == a
    assert one_inverse(Matrix.zeros(2, 3)) == Matrix.zeros(3, 2)


def test_one_inverse_property_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = rand_rank_matrix(rng, n, rng.randint(0, n))
        g = one_inverse(a)
        assert a * g * a == a
    for _ in range(10):
        a = rand_gauss_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        g = one_inverse(a)
        assert a * g * a == a


def test_associativity_on_random_triples():
    rng = random.Random(13)
    for _ in range(20):
        n, k, m, p = (rng.randint(1, 4) for _ in range(4))
        a = rand_gauss_matrix(rng, n, k)
        b = rand_gauss_matrix(rng, k, m)
        c = rand_gauss_matrix(rng, m, p)
        assert (a * b) * c == a * (b * c)


def test_transpose_antihomomorphism():
    rng = random.Random(17)
    a = rand_gauss_matrix(rng, 3, 4)
    b = rand_gauss_matrix(rng, 4, 2)
    assert (a * b).T == b.T * a.T
    assert a.T.T == a


def test_scale_and_fraction_entries():
    a = as_matrix([[Fraction(1, 2), 1], [0, Fraction(-3, 2)]])
    assert a.scale(2) == as_matrix([[1, 2], [0, -3]])
    assert a.scale(GaussianRational(0, 1)).entry(0, 0) == GaussianRational(0, Fraction(1, 2))


def test_star_is_the_matrix_product_only():
    a = as_matrix([[1, 2], [3, 4]])
    for scalar in (2, Fraction(1, 2), GaussianRational(0, 1)):
        with pytest.raises(TypeError):
            a * scalar
        with pytest.raises(TypeError):
            scalar * a


def test_null_space_basis():
    a = as_matrix([[1, 1], [1, 1]])
    basis = null_space_basis(a)
    assert len(basis) == 1
    assert (a * basis[0]).is_zero()
    assert null_space_basis(Matrix.identity(3)) == []


def test_solve():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[5], [6]])
    x = solve(a, b)
    assert a * x == b
    inconsistent = solve(as_matrix([[1, 1], [1, 1]]), as_matrix([[0], [1]]))
    assert inconsistent is None


def test_block_diag():
    a = Matrix.identity(2)
    b = as_matrix([[5]])
    m = block_diag(a, b)
    assert m.rows == 3 and m.entry(2, 2) == 5 and not m.entry(0, 2)


def test_matrices_are_hashable_values():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[1, 2], [3, 4]])
    assert len({a, b}) == 1


def test_matrix_is_immutable_and_only_meets_matrices():
    m = as_matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError, match="Matrix is immutable"):
        m.den = 2
    for op in (lambda: m + 1, lambda: m - 1):
        with pytest.raises(TypeError):
            op()
    assert (m == 1) is False and (m != 1) is True


def test_repr_round_trips_and_str_aligns_columns():
    m = as_matrix([[Fraction(1, 2), GaussianRational(0, 1)], [3, GaussianRational(-1, 2)]])
    names = {"Matrix": Matrix, "GaussianRational": GaussianRational, "Fraction": Fraction}
    assert eval(repr(m), names) == m
    # every cell is right-aligned to the widest entry, here "-1+2i"
    assert str(m) == "[  1/2      i]\n[    3  -1+2i]"


def test_copy_and_pickle_round_trip():
    real = as_matrix([[1, -2], [3, 4]])
    rational = as_matrix([[Fraction(1, 2), Fraction(-2, 3)], [0, 5]])
    gaussian = as_matrix([[GaussianRational(Fraction(1, 3), 2), 0], [1, GaussianRational(0, -1)]])
    for m in (real, rational, gaussian):
        pickled = [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in (copy.copy(m), copy.deepcopy(m), *pickled):
            assert type(c) is Matrix and c == m
    assert dataclasses.asdict(drazin(rational))["dinv"] == drazin(rational).dinv
    q = counterexample_instance()
    assert q.conditions.all_hold  # memoized facts are copied too
    assert copy.deepcopy(q) == q


def test_every_route_builds_a_matrix():
    """Every constructor, operation and copy returns an instance of `Matrix`
    itself: `_make` reclasses its slot-base instance before returning it."""
    a = as_matrix([[2, 1], [1, 1]])
    b = as_matrix([[Fraction(1, 2), GaussianRational(0, 1)], [0, 3]])
    built = [
        Matrix._make(-2, ((2, 4), (6, 8)), ((0, 0), (0, 0))),
        Matrix(2, 2, [1, 2, 3, 4]),
        Matrix.from_rows([[1, 2], [3, 4]]),
        Matrix.identity(3),
        Matrix.zeros(2, 3),
        a * b,
        a + b,
        a - b,
        -b,
        b.scale(Fraction(2, 3)),
        b.T,
        rref(b).matrix,
        inverse(a),
        copy.copy(b),
        copy.deepcopy(b),
        *(pickle.loads(pickle.dumps(b, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    assert [type(m) for m in built] == [Matrix] * len(built)


@pytest.mark.parametrize("name", ["rows", "cols", "den", "re", "im", "other"])
def test_every_slot_write_is_refused(name):
    m = as_matrix([[1, 2], [3, GaussianRational(0, 1)]])
    before = (m.rows, m.cols, m.den, m.re, m.im)
    with pytest.raises(AttributeError, match="Matrix is immutable"):
        setattr(m, name, 0)
    with pytest.raises(AttributeError, match="Matrix is immutable"):
        delattr(m, name)
    assert (m.rows, m.cols, m.den, m.re, m.im) == before


def test_slot_base_is_private():
    base = Matrix.__mro__[1]
    assert base is not object and base.__slots__ == ("rows", "cols", "den", "re", "im")
    assert Matrix.__slots__ == () and base.__name__.startswith("_")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "drazinlab"]
    assert len(modules) > 1
    for module in modules:
        public = [name for name in vars(module) if not name.startswith("_")]
        assert all(getattr(module, name) is not base for name in public), module.__name__


def _int_grids(rows, cols):
    row = st.lists(st.integers(-60, 60), min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_make_is_the_canonical_fraction_matrix_property(data):
    """`_make(den, re, im)`, a negative den, den 1 and an all-zero im
    included, is entry (re + im i) / den of the `Fraction`-built matrix, in
    canonical form."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    den = data.draw(st.sampled_from([1, -1]) | st.integers(-36, 36).filter(bool))
    re = data.draw(_int_grids(rows, cols))
    im = data.draw(st.none() | st.just(((0,) * cols,) * rows) | _int_grids(rows, cols))
    m = Matrix._make(den, re, im)
    ims = im or ((0,) * cols,) * rows
    cells = [
        [GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(*rs)]
        for rs in zip(re, ims)
    ]
    assert type(m) is Matrix and m == Matrix.from_rows(cells) and m.to_rows() == cells
    assert (m.rows, m.cols) == (rows, cols) and m.den > 0
    grids = m.re if m.im is None else m.re + m.im
    assert gcd(m.den, *chain.from_iterable(grids)) == 1
    assert m.im is None or any(map(any, m.im))
    assert (m.im is None) == (im is None or not any(map(any, im)))


# Entries of every size up to 200 bits, negative ones included.
BIG_INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))


def rand_big_grid(rng, rows, cols):
    return tuple(
        tuple(rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 64, 200))) for _ in range(cols))
        for _ in range(rows)
    )


def test_product_kernel_matches_triple_loop_on_every_shape_up_to_eight():
    rng = random.Random(41)
    for n in range(1, 9):
        for k in range(1, 9):
            for m in range(1, 9):
                x, y = rand_big_grid(rng, n, k), rand_big_grid(rng, k, m)
                assert _gmul(x, y) == tuple(map(tuple, imat_mul(x, y)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_kernel_matches_triple_loop_property(data):
    n, k, m = (data.draw(st.integers(1, 2 * MAX_SIZE)) for _ in range(3))
    x = data.draw(st.lists(st.lists(BIG_INTS, min_size=k, max_size=k), min_size=n, max_size=n))
    y = data.draw(st.lists(st.lists(BIG_INTS, min_size=m, max_size=m), min_size=k, max_size=k))
    assert _gmul(x, y) == tuple(map(tuple, imat_mul(x, y)))


def test_product_past_the_bound_runs_the_loop_and_builds_no_kernel():
    rng = random.Random(43)
    past = 2 * MAX_SIZE + 1
    before = _product_kernel.cache_info()
    for n, k, m in ((past, 2, 3), (2, past, 3), (3, 2, past), (past, past, 1)):
        x, y = rand_big_grid(rng, n, k), rand_big_grid(rng, k, m)
        assert _gmul(x, y) == tuple(map(tuple, imat_mul(x, y)))
    after = _product_kernel.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def z_step_reference(row, prow, piv, f, prev):
    if f:
        return [(piv * x - f * y) // prev for x, y in zip(row, prow)]
    return [piv * x // prev for x in row]


def test_row_step_kernel_matches_the_reference_on_every_width():
    rng = random.Random(47)
    widest = MAX_SIZE**2
    for width in range(1, widest + 2):
        step = _z_step_for(width)
        assert (step is _z_step) == (width > widest)
        for f in (0, rng.choice((-1, 1)) * (rng.getrandbits(200) + 1)):
            prev = rng.choice((1, -1)) * (rng.getrandbits(100) + 1)
            piv = rng.choice((-1, 1)) * (rng.getrandbits(150) + 1)
            # multiples of prev, so that every division is exact
            row = [prev * v for v in rand_big_grid(rng, 1, width)[0]]
            prow = [prev * v for v in rand_big_grid(rng, 1, width)[0]]
            out = step(row, prow, piv, f, prev)
            assert out == z_step_reference(row, prow, piv, f, prev)
            assert [v * prev for v in out] == [piv * x - f * y for x, y in zip(row, prow)]
    before = _z_step_kernel.cache_info()
    assert _z_step_for(widest + 1) is _z_step
    assert _z_step_kernel.cache_info() == before


ENTRYWISE_OPS = {"+": add, "-": sub, "*": mul, "//": floordiv}


def entrywise_reference(x, y, op):
    """x op y entrywise by the loop: y is a grid for "+" and "-", an int for
    "*" and "//"."""
    f = ENTRYWISE_OPS[op]
    if op in ("+", "-"):
        return tuple(tuple(f(u, v) for u, v in zip(r, s)) for r, s in zip(x, y))
    return tuple(tuple(f(v, y) for v in row) for row in x)


def rand_divisor(rng):
    """A nonzero int of 3, 64 or 200 bits, negative half the time: `_make`
    divides by -gcd when the denominator is negative."""
    return rng.choice((-1, 1)) * (rng.getrandbits(rng.choice((3, 64, 200))) | 1)


def test_entrywise_kernels_match_the_loops_on_every_shape():
    rng = random.Random(53)
    side = 2 * MAX_SIZE
    for rows in range(1, side + 1):
        for cols in range(1, side + 1):
            x, y = rand_big_grid(rng, rows, cols), rand_big_grid(rng, rows, cols)
            k = rand_divisor(rng)
            for op in ENTRYWISE_OPS:
                other = y if op in ("+", "-") else k
                expected = entrywise_reference(x, other, op)
                assert _entrywise_kernel(op, rows, cols)(x, other) == expected
                # the dispatcher runs the same kernel
                assert _gmap(op, x, other) == expected
            scaled = _gmap("*", x, k)
            assert _entrywise_kernel("//", rows, cols)(scaled, k) == x  # exact, as in _make
            assert _gmap("//", scaled, k) == x


def test_entrywise_past_the_bound_runs_the_loop_and_builds_no_kernel():
    rng = random.Random(59)
    past = 2 * MAX_SIZE + 1
    before = _entrywise_kernel.cache_info()
    for rows, cols in ((past, 3), (3, past), (past, past)):
        x, y = rand_big_grid(rng, rows, cols), rand_big_grid(rng, rows, cols)
        k = rand_divisor(rng)
        for op in ENTRYWISE_OPS:
            other = y if op in ("+", "-") else k
            assert _gmap(op, x, other) == entrywise_reference(x, other, op)
        assert _gmap("//", _gmap("*", x, k), k) == x
    assert _entrywise_kernel.cache_info() == before


def test_make_divides_out_a_negative_denominator():
    m = Matrix._make(-6, ((2, -4), (0, 6)), ((0, 12), (0, 0)))
    assert (m.den, m.re, m.im) == (3, ((-1, 2), (0, -3)), ((0, -6), (0, 0)))


@st.composite
def elimination_inputs(draw):
    """Real, rational or Gaussian rows, then up to three edits: a row set
    to zero, a row repeated, or a row sum appended (a dependent row)."""
    if draw(st.booleans()):
        rows = draw(grids())
    else:
        cols = draw(st.integers(1, 5))
        cell = st.builds(GaussianRational, st.integers(-3, 3))
        rows = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=1, max_size=5))
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(("zero", "repeat", "sum")))
        if edit == "zero":
            rows[i] = [ZERO] * len(rows[i])
        elif edit == "repeat":
            rows[i] = list(rows[j])
        else:
            rows.append([scalar_add(u, v) for u, v in zip(rows[i], rows[j])])
    return as_matrix(rows)


@settings(max_examples=200, deadline=None)
@given(elimination_inputs())
def test_forward_elimination_finds_the_reduced_pivots(a):
    result = rref(a)
    assert pivot_columns(a) == result.pivot_cols
    assert rank(a) == result.rank


# -- the direct real path of *, + and - ----------------------------------------


def rand_operand(rng, rows, cols, kind):
    """A rows x cols matrix of one kind: "zero"; "identity", or a multiple
    of it by 1/2, 2 or 1 + i (when square, zero otherwise); or entries with
    denominators from (1, 2, 3, 6), each part zero about a third of the
    time, "real", "gaussian" or "imaginary" (every real part zero)."""
    if kind == "zero" or ("identity" in kind and rows != cols):
        return Matrix.zeros(rows, cols)
    if kind == "identity":
        return Matrix.identity(rows)
    if kind == "scaled_identity":
        k = rng.choice((Fraction(1, 2), 2, GaussianRational(1, 1)))
        return Matrix.identity(rows).scale(k)
    dens = rng.choice(((1,), (2,), (1, 2, 3, 6)))

    def part(live=True):
        if not live or rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-3, 3), rng.choice(dens))

    cells = (
        GaussianRational(part(kind != "imaginary"), part(kind != "real"))
        for _ in range(rows * cols)
    )
    return Matrix(rows, cols, cells)


SIDES = st.one_of(st.integers(1, 4), st.sampled_from((2 * MAX_SIZE, 2 * MAX_SIZE + 1)))
KINDS = st.sampled_from(
    ("zero", "identity", "scaled_identity", "real", "real", "gaussian", "imaginary")
)


@settings(max_examples=80, deadline=None)
@given(SIDES, SIDES, SIDES, KINDS, KINDS, KINDS, st.randoms(use_true_random=False))
def test_direct_real_paths_match_the_general_route_and_fractions(n, k, m, kx, ky, kz, rng):
    x, y, z = rand_operand(rng, n, k, kx), rand_operand(rng, n, k, ky), rand_operand(rng, k, m, kz)
    xs, ys, zs = x.to_rows(), y.to_rows(), z.to_rows()
    general = Matrix._make(x.den * z.den, *_bilinear(_gmul, x.re, x.im, z.re, z.im))
    assert x * z == general == as_matrix(g_mul(xs, zs))
    assert x + y == _gather((x, y), lambda g: _gmap("+", *g)) == as_matrix(g_add(xs, ys))
    assert x - y == _gather((x, y), lambda g: _gmap("-", *g)) == as_matrix(g_sub(xs, ys))


@settings(max_examples=80, deadline=None)
@given(
    SIDES,
    st.lists(st.tuples(SIDES, KINDS), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_hstack_and_block_diag_place_the_entries(rows, blocks, rng):
    """`hstack` and `block_diag` against concatenating and placing the
    operands' `to_rows()`: `hstack` joins rows x cols operands, one per
    drawn (cols, kind), and `block_diag` cols x cols ones."""
    mats = [rand_operand(rng, rows, cols, kind) for cols, kind in blocks]
    expected = [sum(parts, []) for parts in zip(*(m.to_rows() for m in mats))]
    stacked = mats[0]
    for m in mats[1:]:
        stacked = stacked.hstack(m)
    assert stacked.to_rows() == expected and stacked == as_matrix(expected)

    squares = [rand_operand(rng, cols, cols, kind) for cols, kind in blocks]
    width = sum(b.cols for b in squares)
    expected, left = [], 0
    for b in squares:
        expected += [[ZERO] * left + row + [ZERO] * (width - left - b.cols) for row in b.to_rows()]
        left += b.cols
    placed = block_diag(*squares)
    assert placed.to_rows() == expected and placed == as_matrix(expected)


def test_real_operands_skip_the_general_route(monkeypatch):
    rng = random.Random(61)
    x, y = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
    half, three_halves = y.scale(Fraction(1, 2)), y.scale(Fraction(3, 2))
    gaussian = rand_gauss_matrix(rng, 3, 3)
    assert (half.den, half.im) == (2, None) and gaussian.im is not None
    bilinear = record_calls(monkeypatch, "drazinlab.matrices", "_bilinear")
    gathered = record_calls(monkeypatch, "drazinlab.matrices", "_gather")
    x * y, x * half, x + y, x - y
    assert half + half == y and three_halves - half == y
    assert bilinear == gathered == []
    x * gaussian, x + half, x - gaussian
    assert len(bilinear) == 1 and len(gathered) == 2
