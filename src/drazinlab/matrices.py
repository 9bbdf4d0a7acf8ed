"""Dense exact matrices over the Gaussian rationals, stored as integers.

A matrix is one positive common denominator `den` and two integer grids,
`re` and `im`, each a tuple of row tuples: entry (i, j) is
(re[i][j] + im[i][j] i) / den. The form is canonical: gcd(den, every entry
of re and im) == 1, and `im` is None exactly when every imaginary part is
zero. Equal matrices therefore have equal fields, so `==` and `hash` are
structural and a matrix can key a cache.

Products, sums, scaling, transposes and the structural helpers are integer
list arithmetic followed by one gcd normalisation, which is skipped when
the denominator is 1 (generated instances are integer matrices).

Elimination is fraction-free Gauss-Jordan (Bareiss 1968, Math. Comp. 22):
each step divides exactly by the previous pivot, so every intermediate
value is an integer (a Gaussian integer when an imaginary part is present)
that is a minor of the input, and the reduced row echelon form is read off
at the end by one division by the last pivot. The reduced row echelon form
of a matrix is unique, so it, and everything read off it (inverse, solve,
null-space basis, {1}-inverse), is the same exact value whatever route the
elimination takes.

`GaussianRational` is the scalar only at the boundary: the constructor,
`entry`, `row_list`, `to_rows` and `entries`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInvariantError, ShapeError, SingularMatrixError
from .scalars import GaussianRational


def _scalar_ints(value) -> tuple[int, int, int]:
    """(re, im, den) integers with value == (re + im i) / den, den > 0."""
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
    elif isinstance(value, (int, Fraction)):
        re, im = value, 0
    else:
        raise TypeError(f"cannot use {type(value).__name__} as a matrix entry")
    den = lcm(re.denominator, im.denominator)
    return (
        re.numerator * (den // re.denominator),
        im.numerator * (den // im.denominator),
        den,
    )


# -- integer grids (tuples or lists of rows) ----------------------------------


def _gmul(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


def _gkron(x, y):
    return tuple(tuple(u * v for u in xrow for v in yrow) for xrow in x for yrow in y)


def _gadd(x, y):
    return tuple(tuple(map(add, r, s)) for r, s in zip(x, y))


def _gsub(x, y):
    return tuple(tuple(map(sub, r, s)) for r, s in zip(x, y))


def _gscale(x, k):
    return tuple(tuple(k * v for v in row) for row in x)


def _grid(flat, cols):
    """Row-major flat sequence as a tuple of rows of length `cols`."""
    return tuple(tuple(flat[k : k + cols]) for k in range(0, len(flat), cols))


def _gzeros(rows, cols):
    return ((0,) * cols,) * rows


def _bilinear(f, xre, xim, yre, yim):
    """(re, im) of f(x, y) for a bilinear grid map f and Gaussian x, y."""
    re = f(xre, yre)
    im = None
    if yim is not None:
        im = f(xre, yim)
    if xim is not None:
        im = f(xim, yre) if im is None else _gadd(im, f(xim, yre))
        if yim is not None:
            re = _gsub(re, f(xim, yim))
    return re, im


def _aligned(mats):
    """Common denominator of `mats` and each one's (re, im) grids over it.

    The im grids are all None when every matrix is real; otherwise zeros
    stand in for a missing one.
    """
    den = lcm(*(m.den for m in mats))
    complex_ = any(m.im is not None for m in mats)
    grids = []
    for m in mats:
        im = m.im
        if im is None and complex_:
            im = _gzeros(m.rows, m.cols)
        k = den // m.den
        if k != 1:
            grids.append((_gscale(m.re, k), None if im is None else _gscale(im, k)))
        else:
            grids.append((m.re, im))
    return den, grids


def _binary(a, b, f) -> "Matrix":
    """f applied to the aligned re grids and to the aligned im grids."""
    den, ((are, aim), (bre, bim)) = _aligned((a, b))
    return Matrix._make(den, f(are, bre), None if aim is None else f(aim, bim))


class Matrix:
    """Immutable rows x cols matrix: (re + im i) / den over integer grids."""

    __slots__ = ("rows", "cols", "den", "re", "im")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        parts = [_scalar_ints(e) for e in entries]
        if len(parts) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(parts)}"
            )
        den = lcm(*(d for _, _, d in parts))
        re = [r * (den // d) for r, _, d in parts]
        im = [i * (den // d) for _, i, d in parts]
        self._set(rows, cols, den, _grid(re, cols), _grid(im, cols))

    def _set(self, rows, cols, den, re, im) -> None:
        """Store the canonical form of (re + im i) / den."""
        if im is not None and not any(map(any, im)):
            im = None
        if den != 1:
            g = gcd(den, *chain.from_iterable(re if im is None else re + im))
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                re = tuple(tuple(v // g for v in row) for row in re)
                if im is not None:
                    im = tuple(tuple(v // g for v in row) for row in im)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def _make(cls, den: int, re, im) -> "Matrix":
        """Matrix (re + im i) / den from nonempty integer grids (tuples of rows)."""
        m = cls.__new__(cls)
        m._set(len(re), len(re[0]), den, re, im)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeError("all rows must have the same length")
        return cls(len(rows), ncols, (e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {n}x{n}")
        return cls._make(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), None)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        return cls._make(1, _gzeros(rows, cols), None)

    # -- inspection --------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        im = 0 if self.im is None else Fraction(self.im[i][j], self.den)
        return GaussianRational(Fraction(self.re[i][j], self.den), im)

    def row_list(self, i: int) -> list[GaussianRational]:
        return [self.entry(i, j) for j in range(self.cols)]

    def to_rows(self) -> list[list[GaussianRational]]:
        return [self.row_list(i) for i in range(self.rows)]

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """All entries, row-major."""
        return tuple(chain.from_iterable(self.to_rows()))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.rows)

    # -- ring operations ---------------------------------------------------

    def _require_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _apply(self, f) -> "Matrix":
        """f applied to both integer grids (f must be Z-linear)."""
        return Matrix._make(self.den, f(self.re), None if self.im is None else f(self.im))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_shape(other)
        return _binary(self, other, _gadd)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_same_shape(other)
        return _binary(self, other, _gsub)

    def __neg__(self):
        return self._apply(lambda g: _gscale(g, -1))

    def scale(self, scalar) -> "Matrix":
        sre, sim, sden = _scalar_ints(scalar)
        re, im = _bilinear(_gscale, self.re, self.im, sre, sim or None)
        return Matrix._make(self.den * sden, re, im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        re, im = _bilinear(_gmul, self.re, self.im, other.re, other.im)
        return Matrix._make(self.den * other.den, re, im)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Matrix":
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix powers require a nonnegative integer exponent")
        if not self.is_square():
            raise ShapeError("matrix power requires a square matrix")
        result = Matrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- transposes --------------------------------------------------------

    @property
    def T(self) -> "Matrix":
        return self._apply(lambda g: tuple(zip(*g)))

    @property
    def H(self) -> "Matrix":
        """Conjugate transpose."""
        t = self.T
        return Matrix._make(t.den, t.re, None if t.im is None else _gscale(t.im, -1))

    # -- structural helpers --------------------------------------------------

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        if not indices:
            raise ShapeError("cannot build a matrix from zero columns")
        return self._apply(lambda g: tuple(tuple(row[j] for j in indices) for row in g))

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        if not indices:
            raise ShapeError("cannot build a matrix from zero rows")
        return self._apply(lambda g: tuple(g[i] for i in indices))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries, row-major, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return self._apply(lambda g: _grid(tuple(chain.from_iterable(g)), cols))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeError("hstack requires equal row counts")
        return _binary(self, other, lambda x, y: tuple(map(add, x, y)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ShapeError("vstack requires equal column counts")
        return _binary(self, other, add)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.den, self.re, self.im))

    def __repr__(self):
        return f"Matrix.from_rows({[[str(e) for e in self.row_list(i)] for i in range(self.rows)]})"

    def __str__(self):
        cells = [[str(e) for e in self.row_list(i)] for i in range(self.rows)]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def kron(x: Matrix, y: Matrix) -> Matrix:
    """Kronecker product: entry ((i, j), (p, q)) is x[i][p] * y[j][q]."""
    re, im = _bilinear(_gkron, x.re, x.im, y.re, y.im)
    return Matrix._make(x.den * y.den, re, im)


def block_diag(*blocks: Matrix) -> Matrix:
    """Direct sum of matrices along the diagonal."""
    if not blocks:
        raise ShapeError("block_diag needs at least one block")
    den, grids = _aligned(blocks)
    cols = sum(b.cols for b in blocks)
    re_rows, im_rows = [], []
    c0 = 0
    for b, (re, im) in zip(blocks, grids):
        left, right = (0,) * c0, (0,) * (cols - c0 - b.cols)
        re_rows.extend(left + row + right for row in re)
        if im is not None:
            im_rows.extend(left + row + right for row in im)
        c0 += b.cols
    return Matrix._make(den, tuple(re_rows), tuple(im_rows) or None)


# -- fraction-free elimination -------------------------------------------------


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _bareiss(work: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan over Z, in place on `work`.

    Returns the last pivot D and the pivot columns. Afterwards every pivot
    row holds D at its pivot column and zeros at the other pivot columns,
    the rows below the rank are zero, and work / D is the reduced row
    echelon form.
    """
    nrows = len(work)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(work[0])):
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        piv = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            if f:
                work[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                work[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return prev, pivots


def _bareiss_gaussian(wre: list[list[int]], wim: list[list[int]]):
    """`_bareiss` over Z[i]: the work matrix is wre + wim i.

    Division by the previous pivot q is exact in Z[i]; it is done as
    multiplication by conj(q) followed by exact division by |q|^2.
    Returns the last pivot as an (re, im) pair and the pivot columns.
    """
    nrows = len(wre)
    pivots: list[int] = []
    qr, qi = 1, 0
    r = 0
    for c in range(len(wre[0])):
        p = next((i for i in range(r, nrows) if wre[i][c] or wim[i][c]), None)
        if p is None:
            continue
        wre[r], wre[p] = wre[p], wre[r]
        wim[r], wim[p] = wim[p], wim[r]
        yre, yim = wre[r], wim[r]
        pr, pi = yre[c], yim[c]
        norm = qr * qr + qi * qi
        for i in range(nrows):
            if i == r:
                continue
            xre, xim = wre[i], wim[i]
            fr, fi = xre[c], xim[c]
            # t = piv * x - f * y, then t / q = t * conj(q) / |q|^2
            tre = [pr * a - pi * b - fr * u + fi * v for a, b, u, v in zip(xre, xim, yre, yim)]
            tim = [pr * b + pi * a - fr * v - fi * u for a, b, u, v in zip(xre, xim, yre, yim)]
            wre[i] = [(a * qr + b * qi) // norm for a, b in zip(tre, tim)]
            wim[i] = [(b * qr - a * qi) // norm for a, b in zip(tre, tim)]
        pivots.append(c)
        qr, qi = pr, pi
        r += 1
        if r == nrows:
            break
    return (qr, qi), pivots


def rref(a: Matrix) -> RrefResult:
    """Reduced row echelon form, by fraction-free Gauss-Jordan elimination.

    The denominator of `a` does not change its row space, so only its
    integer grids are eliminated.
    """
    if a.im is None:
        work = [list(row) for row in a.re]
        d, pivots = _bareiss(work)
        reduced = Matrix._make(d, tuple(map(tuple, work)), None)
    else:
        wre = [list(row) for row in a.re]
        wim = [list(row) for row in a.im]
        (dr, di), pivots = _bareiss_gaussian(wre, wim)
        # work / d = work * conj(d) / |d|^2
        re = tuple(tuple(x * dr + y * di for x, y in zip(u, v)) for u, v in zip(wre, wim))
        im = tuple(tuple(y * dr - x * di for x, y in zip(u, v)) for u, v in zip(wre, wim))
        reduced = Matrix._make(dr * dr + di * di, re, im)
    return RrefResult(reduced, len(pivots), tuple(pivots))


def rank(a: Matrix) -> int:
    return rref(a).rank


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when rank < n."""
    if not a.is_square():
        raise ShapeError("inverse requires a square matrix")
    n = a.rows
    reduced, _, pivots = rref(a.hstack(Matrix.identity(n)))
    # invertible iff every pivot lands in the left block
    if pivots[:n] != tuple(range(n)):
        raise SingularMatrixError(
            f"matrix of rank {sum(pc < n for pc in pivots)} < {n} has no inverse"
        )
    return reduced.take_columns(range(n, 2 * n))


def null_space_basis(a: Matrix) -> list[Matrix]:
    """Basis of {x : a x = 0}, as a list of cols x 1 column vectors.

    The vector for free column f has 1 at f and -rref[r][f] at the r-th
    pivot column.
    """
    reduced, _, pivots = rref(a)
    den, re, im = reduced.den, reduced.re, reduced.im
    pivot_set = set(pivots)
    basis = []
    for f in range(a.cols):
        if f in pivot_set:
            continue
        vre = [0] * a.cols
        vim = [0] * a.cols
        vre[f] = den
        for r, pc in enumerate(pivots):
            vre[pc] = -re[r][f]
            if im is not None:
                vim[pc] = -im[r][f]
        basis.append(Matrix._make(den, tuple((v,) for v in vre), tuple((v,) for v in vim)))
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    if a.rows != b.rows:
        raise ShapeError("solve requires matching row counts")
    reduced, _, pivots = rref(a.hstack(b))
    if any(pc >= a.cols for pc in pivots):
        return None

    def place(g):
        rows = [(0,) * b.cols] * a.cols
        for r, pc in enumerate(pivots):
            rows[pc] = g[r][a.cols :]
        return tuple(rows)

    im = None if reduced.im is None else place(reduced.im)
    return Matrix._make(reduced.den, place(reduced.re), im)


def one_inverse(a: Matrix) -> Matrix:
    """A {1}-inverse: G with a G a = a, via the full-rank factorization a = C F.

    C holds the pivot columns of a and F the nonzero rows of rref(a); both
    Gram matrices F F* and C* C are invertible because C has full column
    rank and F full row rank, which makes G = F*(F F*)^-1 (C* C)^-1 C* a
    genuine {1}-inverse (in fact the Moore-Penrose inverse, but only the
    a G a = a property is relied on).
    """
    reduced, rk, pivots = rref(a)
    if rk == 0:
        return Matrix.zeros(a.cols, a.rows)
    c = a.take_columns(pivots)
    f = reduced.take_rows(range(rk))
    g = f.H * inverse(f * f.H) * inverse(c.H * c) * c.H
    if a * g * a != a:
        raise InternalInvariantError("one_inverse failed its defining identity")
    return g
