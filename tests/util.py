"""Shared test helpers.

The int-list helpers below are an independent oracle: they compute with
plain Python integers on lists of lists, never touching the library's
matrix type, so frozen expectations derived from them genuinely
cross-check the implementation. The Gaussian-rational list oracle owns its
arithmetic too: four scalar functions on the `Fraction` parts, since
`GaussianRational` is only a value with no operators.
"""

import importlib
import random
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, lcm

from hypothesis import strategies as st

from drazinlab import GaussianRational, Matrix, Quadruple
from drazinlab.generators import MAX_ATTEMPTS, _solve_strong_for_c
from drazinlab.matrices import _bilinear, _gather, _grid, null_space_basis, solve


def imat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def imat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def imat_eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def record_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call of owner.name, as tuples in call
    order, for the rest of the test.

    `owner` is a class or a module's dotted name. A name bound by
    `from .matrices import rref` is a separate reference in the importing
    module, so every loaded drazinlab module that holds the callable gets
    the recorder too. The module is looked up through importlib because
    `import drazinlab.drazin` yields the function `drazin`, which the
    package exports over its submodule.
    """
    if isinstance(owner, str):
        owner = importlib.import_module(owner)
    calls = []
    orig = getattr(owner, name)

    def recorder(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, recorder)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "drazinlab":
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, recorder)
    return calls


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
# matrices with rational and complex entries. It computes entry by entry on
# lists of lists of `GaussianRational`, with the four scalar operations
# below written out on the (re, im) Fractions, so it shares no arithmetic
# with the library's integer-grid matrix core.

ZERO = GaussianRational(0)


def scalar_add(x, y):
    return GaussianRational(x.re + y.re, x.im + y.im)


def scalar_sub(x, y):
    return GaussianRational(x.re - y.re, x.im - y.im)


def scalar_mul(x, y):
    return GaussianRational(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def scalar_inv(x):
    """1 / x = conj(x) / |x|^2, for x != 0."""
    norm = x.re * x.re + x.im * x.im
    return GaussianRational(x.re / norm, -x.im / norm)


def g_sum(values):
    return reduce(scalar_add, values, ZERO)


def g_mul(a, b):
    k = len(b)
    assert len(a[0]) == k
    return [
        [g_sum(scalar_mul(a[i][t], b[t][j]) for t in range(k)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def g_add(a, b):
    return [[scalar_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def g_sub(a, b):
    return [[scalar_sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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
        inv = scalar_inv(work[r][c])
        work[r] = [scalar_mul(v, inv) for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [scalar_sub(v, scalar_mul(f, w)) for v, w in zip(work[i], work[r])]
        pivots.append(c)
    return work, len(pivots), tuple(pivots)


def parts_reference(cols, values):
    """(den, re, im) of the canonical form of the matrix with these
    row-major entries (int, bool, Fraction or GaussianRational), computed
    on the entries' Fractions: den, the lcm of their reduced denominators,
    already leaves gcd(den, every part) = 1. The reference for the
    `Matrix` constructor."""
    scalars = [v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values]
    den = lcm(*(f.denominator for x in scalars for f in (x.re, x.im)))

    def grid(part):
        flat = [int(part(x) * den) for x in scalars]
        return tuple(tuple(flat[k : k + cols]) for k in range(0, len(flat), cols))

    im = grid(lambda x: x.im)
    return den, grid(lambda x: x.re), im if any(map(any, im)) else None


def matrix_obj_reference(rows):
    """JSON object of a matrix given as GaussianRational row lists, each
    entry written through str(Fraction): the reference for the codec."""
    return {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[[str(e.re), str(e.im)] for e in row] for row in rows],
    }


def _gkron(x, y):
    return tuple(tuple(u * v for u in xrow for v in yrow) for xrow in x for yrow in y)


def kron(x: Matrix, y: Matrix) -> Matrix:
    """Kronecker product: entry ((i, j), (p, q)) is x[i][p] * y[j][q]."""
    re, im = _bilinear(_gkron, x.re, x.im, y.re, y.im)
    return Matrix._make(x.den * y.den, re, im)


def reshape(m: Matrix, rows: int, cols: int) -> Matrix:
    """The same entries, row-major, as a rows x cols matrix."""
    assert rows * cols == m.rows * m.cols
    return m._apply(lambda g: _grid(tuple(chain.from_iterable(g)), cols))


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    """top stacked over bottom."""
    assert top.cols == bottom.cols
    return _gather((top, bottom), lambda g: g[0] + g[1])


def commutant_basis_reference(a: Matrix) -> tuple[Matrix, ...]:
    """Basis of {X : X a = a X} as the null-space basis of the n^2 x n^2
    system X a - a X = 0 (X row-major), with the system formed as
    kron(I, a^T) - kron(a, I) and solved by `null_space_basis`: the
    reference for `drazin.commutant_basis`, which reads the same basis off
    the powers of a nonderogatory a and builds the system entrywise for a
    derogatory one."""
    n = a.rows
    eye = Matrix.identity(n)
    system = kron(eye, a.T) - kron(a, eye)
    return tuple(reshape(v, n, n) for v in null_space_basis(system))


def g_powers(a, top):
    """[a^0, a^1, ..., a^top] of a square row list a."""
    n = len(a)
    powers = [[[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]]
    for _ in range(top):
        powers.append(g_mul(powers[-1], a))
    return powers


def g_vec(m):
    """The entries of a row list, row-major."""
    return [x for row in m for x in row]


def bezout_drazin_reference(a: Matrix) -> Matrix:
    """A^D = A^l u(A), where x^l g(x) is the minimal polynomial of A, g(0)
    is not 0, and u x^(l+1) + v g = 1: the Drazin inverse by a third
    route, through no elimination of the library's.

    A^m, for the least dependent power, is read off the reduced n^2 x (n+1)
    matrix [vec(A^0), ..., vec(A^n)]: its first free column m holds the
    coefficients of A^m on the pivots 0..m-1. Then u and v solve the
    Sylvester system of the Bezout identity, which x^(l+1) and g coprime
    make nonsingular. On ker g(A) the identity gives u(A) A^(l+1) = I, and
    A^l vanishes on ker A^l, so A^l u(A) inverts the core and kills the
    nilpotent part.
    """
    n = a.rows
    powers = g_powers(a.to_rows(), n)
    reduced, m, _ = g_rref([list(col) for col in zip(*map(g_vec, powers))])
    minimal = [scalar_sub(ZERO, reduced[j][m]) for j in range(m)] + [GaussianRational(1)]
    l = next(j for j, c in enumerate(minimal) if c)
    g = minimal[l:]
    d = len(g) - 1
    # unknowns u_0..u_(d-1), v_0..v_l; row k: the coefficient of x^k
    size = d + l + 1
    system = [[ZERO] * size + [GaussianRational(int(k == 0))] for k in range(size)]
    for i in range(d):
        system[i + l + 1][i] = GaussianRational(1)
    for j in range(l + 1):
        for k, c in enumerate(g):
            system[j + k][d + j] = c
    solved, rank_, _ = g_rref(system)
    assert rank_ == size, "x^(l+1) and g are not coprime"
    dinv = [[ZERO] * n for _ in range(n)]
    for i in range(d):
        u_i = solved[i][size]
        dinv = g_add(dinv, [[scalar_mul(u_i, x) for x in row] for row in powers[l + i]])
    return as_matrix(dinv)


def strong_c_reference(a: Matrix, b: Matrix, d: Matrix) -> Matrix | None:
    """c from a c d = d b d, a c a = d b a by one `solve` on the stacked
    n^2-unknown Kronecker system: the reference for the factored solve in
    `generators._solve_strong_for_c`."""
    n = a.rows
    system = vstack(kron(a, d.T), kron(a, a.T))
    rhs = vstack(reshape(d * b * d, n * n, 1), reshape(d * b * a, n * n, 1))
    x = solve(system, rhs)
    return None if x is None else reshape(x, n, n)


def _rand_upper(rng: random.Random, n: int) -> Matrix:
    return Matrix(n, n, (rng.randint(-3, 3) if i <= j else 0 for i in range(n) for j in range(n)))


def strong_reference(n: int, rng: random.Random) -> Quadruple | None:
    """One `strong` quadruple from the generator's draws of a, d and b, with
    c from the factored solve and a draw kept when it found a c and
    a c N = d b N for N = [d | a], both sides formed literally: the
    reference for the premise test of `generators._gen_strong`. None when
    no draw is kept."""
    for _ in range(MAX_ATTEMPTS):
        a = _rand_upper(rng, n)
        d = _rand_upper(rng, n)
        b = rand_int_matrix(rng, n, n, -2, 2)
        c = _solve_strong_for_c(a, b, d)
        ends = d.hstack(a)
        if c is not None and a * c * ends == d * b * ends:
            return Quadruple(a, b, c, d)
    return None


def unimodular_reference(n: int, rng: random.Random) -> Matrix:
    """The product S_1 S_2 ... S_2n of shear matrices S = I + k E_ij, each
    formed as a matrix and multiplied in, with (i, j) and k drawn as
    `generators._rand_unimodular` draws them: the reference for its u."""
    u = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        shear = imat_eye(n)
        shear[i][j] = k
        u = u * as_matrix(shear)
    return u


def triple_lift_reference(n: int, rng: random.Random) -> Quadruple:
    """One `triple_lift` quadruple from the generator's draws, with c = b
    plus one rank-one term v w per vector v of `null_space_basis(a)`, w a
    random 1 x n row: the reference for the single product K^T W of
    `generators._gen_triple_lift`."""
    a = rand_rank_matrix(rng, n, rng.randint(0, n - 1))
    b = rand_int_matrix(rng, n)
    c = b
    for vec in null_space_basis(a):
        c = c + vec * rand_int_matrix(rng, 1, n, -2, 2)
    return Quadruple(a, b, c, a)


def conditions_reference(a: Matrix, b: Matrix, c: Matrix, d: Matrix):
    """Residuals, left side minus right side with both sides formed
    literally, of the four side conditions, the strong premise and the
    triple premise on (a, b, c): the reference for the defect forms in
    `transfer`."""
    ac, db, aba, aca = a * c, d * b, a * b * a, a * c * a
    four = (
        ac * ac - db * ac,
        db * db - ac * db,
        b * ac * a - b * db * a,
        c * ac * d - c * db * d,
    )
    strong = (ac * d - db * d, db * a - ac * a)
    triple = (aba * b - aca * b, b * aba - b * aca, aba * c - aca * c, c * aba - c * aca)
    return four, strong, triple


def power_reference(q: Quadruple, n: int) -> Quadruple:
    """(a, b', c', d) from the signed binomial sums
    c' = sum_{i=1..n} (-1)^(i+1) C(n,i) c (ac)^(i-1) and
    b' = sum_{i=1..n} (-1)^(i+1) C(n,i) (bd)^(i-1) b, the expansion of the
    geometric sums in `transfer.power_instance`: its reference."""
    ac, bd = q.a * q.c, q.b * q.d
    c_sum = b_sum = Matrix.zeros(q.size, q.size)
    for i in range(1, n + 1):
        coeff = comb(n, i) if i % 2 else -comb(n, i)
        c_sum = c_sum + (q.c * ac ** (i - 1)).scale(coeff)
        b_sum = b_sum + (bd ** (i - 1) * q.b).scale(coeff)
    return Quadruple(q.a, b_sum, c_sum, q.d)


# Hypothesis strategies shared by the property tests.

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
