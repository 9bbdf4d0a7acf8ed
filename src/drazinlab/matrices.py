"""Dense exact matrices over the Gaussian rationals, stored as integers.

A matrix is one positive common denominator `den` and two integer grids,
`re` and `im`, each a tuple of row tuples: entry (i, j) is
(re[i][j] + im[i][j] i) / den. The form is canonical: gcd(den, every entry
of re and im) == 1, and `im` is None exactly when every imaginary part is
zero. Equal matrices therefore have equal fields, so `==` and `hash` are
structural and a matrix can key a cache.

Products, sums, scaling, transposes and the structural helpers are integer
list arithmetic followed by one gcd normalisation, which is skipped when
the denominator is 1 (generated instances are integer matrices). A product
with a zero or identity factor returns the canonical result, the zero
matrix or the other factor, without multiplying: on generated instances
the transfer's spectral idempotent is usually zero. `*` tests for both on
the slots, inline, not through `is_zero` and `is_identity`.

Real matrices, the common case, take a direct path: a product of two real
matrices is `_make` of `_gmul` of their grids, and a sum or difference of
two real matrices over one denominator is `_make` of `_gmap` of them.
`_bilinear` (the Gaussian product, from four real ones) runs only when a
factor has an imaginary grid, and `_gather` (operands brought over their
lcm denominator, a missing imaginary grid padded with zeros) only for a
sum or difference with an imaginary grid or two denominators, and for
`hstack` and `block_diag`. Both routes give the same canonical matrix.

Elimination is fraction-free (Bareiss 1968, Math. Comp. 22): each step
divides exactly by the previous pivot, so every intermediate value is an
integer (a Gaussian integer when an imaginary part is present) that is a
minor of the input. One loop, `_eliminate`, does the pivoting for both
rings; only its row step differs: `_z_step` on rows of ints, `_zi_step` on
rows of (re, im) pairs. It finds each pivot with a plain loop over the
rows, no generator per column, and either sweeps its column out of every
other row (Gauss-Jordan), and `rref` reads the reduced row echelon form off
by one division by the last pivot, or only out of the rows below the pivot
(forward elimination), and `pivot_columns` returns the pivot columns
alone, with about half the row steps and no matrix built. The rows below a
pivot get the same steps either way, so both find the same pivots; `rank`
and the other readers of pivots alone use the forward pass. The reduced row
echelon form of a matrix is unique, so it, and everything read off it
(inverse, solve, null-space basis, {1}-inverse), is the same exact value
whatever route the elimination takes. `inverse`, `solve` and `one_inverse`
all read their answer off rref([a | b]) through `_read_off`.

The per-entry grid loops run as straight-line kernels generated on first
use, one per shape: the product `_gmul`, the entrywise arithmetic `_gmap`
(`x + y` and `x - y` of two grids, `x * k` and `x // k` of a grid and an
int, the last the exact division by the gcd in `_make`), and the row step
over Z. A product kernel for (rows, inner, cols) unpacks both grids into
locals and writes each entry out as x0_0 * y0_0 + x0_1 * y1_0 + ..., the
same integer sum the loop forms; an entrywise kernel writes x0_0 + y0_0 or
x0_0 * y, its op fixing whether y is a grid or an int; a row-step kernel
for one width writes out both branches of `_z_step`. This removes the
interpreter's per-entry overhead (the loop builds a generator frame per
row or entry), not arithmetic: every value, and the number of products and
eliminations, is the loops'. `_eliminate_matrix` picks its row step once
per elimination through `_z_step_for`. A kernel is compiled with `exec`,
as `dataclasses` builds its methods, from source text made of the shape's
integers and a fixed operator token alone, never of entries or other
input, and kept in a bounded `lru_cache`. Only shapes within `MAX_SIZE`,
the largest input side, get one: grid dimensions up to twice it ([a | b])
and row widths up to its square (the n^2-column commutation system).
Larger shapes run the loops, `_gmap`'s through its `_OPS` table. The bound
caps compile time and memory (a 16x16x16 product kernel compiles in about
80 ms and keeps about 230 kB), and keeps clear of CPython's compiler, which
raises RecursionError on a `+` chain a few thousand terms long.

`GaussianRational` is the scalar only at the API boundary: the constructor,
`entry`, `to_rows` and `scale`'s argument. Its constructor is the one entry
rule for outside scalars: int (bool included) and `Fraction` parts pass,
anything else, a float or a string included, raises TypeError, and
`_scalar_ints` reads every entry that is not a plain int through it. It has
no arithmetic of its own, and `*` is the matrix product only: `scale` is the
one path for a scalar multiple.

`_make(den, re, im)` is the one function that writes a matrix's slots, in
canonical form: it drops an all-zero imaginary grid, divides out the gcd
and makes `den` positive. The five slots live on a private base class,
`_MatrixSlots`, which has no write guard; `Matrix` subclasses it with no
slots of its own and refuses every attribute write and delete. `_make`
fills a new base instance with plain attribute stores, which CPython
specialises, and then sets its `__class__` to `Matrix`, which the equal
layouts allow; no other code makes a base instance. `copy` and `pickle`
reach `_make` through `__reduce__`, and `Matrix(rows, cols, entries)` and
the JSON codec through `_from_parts`, which aligns row-major integer
(re, im, den) triples over their lcm, rescaling only when it is not 1.
Matrices are immutable, so `Matrix.identity` and `Matrix.zeros` return one
cached instance per shape.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, floordiv, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInvariantError, ShapeError, SingularMatrixError


def _fraction(part) -> Fraction:
    if not isinstance(part, (int, Fraction)):  # bool is an int
        raise TypeError(f"cannot use {type(part).__name__} as a matrix entry")
    return Fraction(part)


class GaussianRational:
    """Exact complex scalar re + im i with `Fraction` parts.

    `Fraction` keeps each part in lowest terms with a positive denominator,
    so equality is structural and needs no tolerance. A boundary value, not
    a number type: equality (also against int and Fraction), hashing, truth
    and printing, but no arithmetic. Immutable by convention.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else _fraction(re)
        self.im = im if type(im) is Fraction else _fraction(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        # a real value equals its real part, so it must hash like it too
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}i"
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


def _scalar_ints(value) -> tuple[int, int, int]:
    """(re, im, den) integers with value == (re + im i) / den, den > 0."""
    if type(value) is int:
        return value, 0, 1
    if not isinstance(value, GaussianRational):
        value = GaussianRational(value)
    re, im = value.re, value.im
    den = lcm(re.denominator, im.denominator)
    return (
        re.numerator * (den // re.denominator),
        im.numerator * (den // im.denominator),
        den,
    )


# -- generated straight-line kernels -------------------------------------------

# The largest matrix side an input may have: the JSON codec and the
# generators refuse larger ones. It also bounds the shapes that get a kernel.
MAX_SIZE = 8


def _kernel(name, params, body):
    """The function `name(params)` compiled from source lines `body`, which
    are built from shape integers only."""
    namespace = {}
    exec("\n    ".join([f"def {name}({params}):", *body]), namespace)
    return namespace[name]


def _unpack(names):
    """Target list unpacking a grid into `names`, a list of rows of names."""
    return "".join("(" + "".join(v + ", " for v in row) + "), " for row in names)


@lru_cache(maxsize=256)
def _product_kernel(n, k, m):
    """Straight-line product of an n x k by a k x m integer grid: entry
    (i, j) is x{i}_0 * y0_{j} + ... + x{i}_{k-1} * y{k-1}_{j}."""
    xs = [[f"x{i}_{t}" for t in range(k)] for i in range(n)]
    ys = [[f"y{t}_{j}" for j in range(m)] for t in range(k)]
    entries = [
        [" + ".join(f"{xs[i][t]} * {ys[t][j]}" for t in range(k)) for j in range(m)]
        for i in range(n)
    ]
    body = [f"{_unpack(xs)}= x", f"{_unpack(ys)}= y", f"return ({_unpack(entries)})"]
    return _kernel("product", "x, y", body)


@lru_cache(maxsize=512)
def _entrywise_kernel(op, rows, cols):
    """Straight-line `x op y` for a rows x cols integer grid x. For op "+"
    or "-", y is a grid of the same shape and entry (i, j) is
    x{i}_{j} op y{i}_{j}; for op "*" or "//", y is an int and entry (i, j)
    is x{i}_{j} op y."""
    xs = [[f"x{i}_{j}" for j in range(cols)] for i in range(rows)]
    body = [f"{_unpack(xs)}= x"]
    if op in ("+", "-"):
        ys = [[f"y{i}_{j}" for j in range(cols)] for i in range(rows)]
        body.append(f"{_unpack(ys)}= y")
    else:
        ys = [["y"] * cols] * rows
    entries = [[f"{x} {op} {y}" for x, y in zip(xr, yr)] for xr, yr in zip(xs, ys)]
    return _kernel("entrywise", "x, y", [*body, f"return ({_unpack(entries)})"])


@lru_cache(maxsize=MAX_SIZE**2)
def _z_step_kernel(width):
    """Straight-line `_z_step` for rows of `width` ints."""
    xs, ys = [f"x{j}" for j in range(width)], [f"y{j}" for j in range(width)]
    swept = ", ".join(f"(piv * {x} - f * {y}) // prev" for x, y in zip(xs, ys))
    scaled = ", ".join(f"piv * {x} // prev" for x in xs)
    body = [f"{', '.join(xs)}, = row", "if f:", f"    {', '.join(ys)}, = prow"]
    body += [f"    return [{swept}]", f"return [{scaled}]"]
    return _kernel("step", "row, prow, piv, f, prev", body)


# -- integer grids (tuples or lists of rows) ----------------------------------


def _gmul(x, y):
    """x y for integer grids: the shape's kernel, or the loop past the bound."""
    n, k, m = len(x), len(y), len(y[0])
    if n <= 2 * MAX_SIZE and k <= 2 * MAX_SIZE and m <= 2 * MAX_SIZE:
        return _product_kernel(n, k, m)(x, y)
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


_OPS = {"+": add, "-": sub, "*": mul, "//": floordiv}


def _gmap(op, x, y):
    """x op y entrywise, y a grid of x's shape for "+" and "-" and an int
    for "*" and "//": the shape's kernel, or the loop past the bound."""
    n, m = len(x), len(x[0])
    if n <= 2 * MAX_SIZE and m <= 2 * MAX_SIZE:
        return _entrywise_kernel(op, n, m)(x, y)
    ys = y if op in ("+", "-") else repeat((y,) * m)
    return tuple(tuple(map(_OPS[op], r, s)) for r, s in zip(x, ys))


def _grid(flat, cols):
    """Row-major flat iterable, of a length that is a multiple of `cols`, as
    a tuple of rows of length `cols`."""
    return tuple(zip(*[iter(flat)] * cols))


def _gzeros(rows, cols):
    return ((0,) * cols,) * rows


@lru_cache(maxsize=64)
def _geye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _bilinear(f, xre, xim, yre, yim):
    """(re, im) of f(x, y) for a bilinear grid map f and Gaussian x, y."""
    re = f(xre, yre)
    im = None
    if yim is not None:
        im = f(xre, yim)
    if xim is not None:
        im = f(xim, yre) if im is None else _gmap("+", im, f(xim, yre))
        if yim is not None:
            re = _gmap("-", re, f(xim, yim))
    return re, im


def _gather(mats, f) -> "Matrix":
    """Matrix built by f from the list of the re grids of `mats` over their
    common denominator, and likewise from their im grids; f must be
    Z-linear. The im grids are skipped when every matrix is real;
    otherwise zeros stand in for a missing one."""
    den = lcm(*[m.den for m in mats])
    complex_ = any(m.im is not None for m in mats)
    res, ims = [], []
    for m in mats:
        k = den // m.den
        res.append(m.re if k == 1 else _gmap("*", m.re, k))
        if complex_:
            im = _gzeros(m.rows, m.cols) if m.im is None else m.im
            ims.append(im if k == 1 else _gmap("*", im, k))
    return Matrix._make(den, f(res), f(ims) if complex_ else None)


class _MatrixSlots:
    """A matrix's storage without the write guard; only `Matrix._make`
    instantiates it, and it reclasses the instance before returning it."""

    __slots__ = ("rows", "cols", "den", "re", "im")


class Matrix(_MatrixSlots):
    """Immutable rows x cols matrix: (re + im i) / den over integer grids."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: Iterable):
        return cls._from_parts(rows, cols, map(_scalar_ints, entries))

    @classmethod
    def _from_parts(cls, rows: int, cols: int, parts: Iterable[tuple[int, int, int]]) -> "Matrix":
        """Matrix from row-major (re, im, den) integer triples, each den > 0;
        entry k is (re + im i) / den and need not be in lowest terms."""
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        parts = list(parts)
        if len(parts) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(parts)}"
            )
        re, im, dens = zip(*parts)
        den = lcm(*dens)
        if den != 1:
            re = [r * (den // d) for r, d in zip(re, dens)]
            im = [i * (den // d) for i, d in zip(im, dens)]
        # _make drops a zero im grid too; testing the flat parts first skips
        # building one (2-3 us of a 4x4 or 6x6 real matrix).
        return cls._make(den, _grid(re, cols), _grid(im, cols) if any(im) else None)

    @staticmethod
    def _make(den: int, re, im) -> "Matrix":
        """The canonical form of (re + im i) / den, from nonempty integer
        grids (tuples of rows): the one function that writes the slots."""
        if im is not None and not any(map(any, im)):
            im = None
        if den != 1:
            g = gcd(den, *chain.from_iterable(re if im is None else re + im))
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                re = _gmap("//", re, g)
                if im is not None:
                    im = _gmap("//", im, g)
        m = _MatrixSlots()
        m.rows = len(re)
        m.cols = len(re[0])
        m.den = den
        m.re = re
        m.im = im
        m.__class__ = Matrix
        return m

    def __reduce__(self):
        return Matrix._make, (self.den, self.re, self.im)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
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
    @lru_cache(maxsize=64)
    def identity(cls, n: int) -> "Matrix":
        if n <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {n}x{n}")
        return cls._make(1, _geye(n), None)

    @classmethod
    @lru_cache(maxsize=256)
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        return cls._make(1, _gzeros(rows, cols), None)

    # -- inspection --------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        im = 0 if self.im is None else Fraction(self.im[i][j], self.den)
        return GaussianRational(Fraction(self.re[i][j], self.den), im)

    def to_rows(self) -> list[list[GaussianRational]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def is_identity(self) -> bool:
        return (
            self.is_square() and self.den == 1 and self.im is None and self.re == _geye(self.rows)
        )

    # -- ring operations ---------------------------------------------------

    def _require_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _apply(self, f) -> "Matrix":
        """f applied to both integer grids (f must be Z-linear)."""
        return Matrix._make(self.den, f(self.re), None if self.im is None else f(self.im))

    def _entrywise(op):
        """The method `x op y` for op "+" or "-"."""

        def method(self, other):
            if not isinstance(other, Matrix):
                return NotImplemented
            self._require_same_shape(other)
            if self.im is None and other.im is None and self.den == other.den:
                return Matrix._make(self.den, _gmap(op, self.re, other.re), None)
            return _gather((self, other), lambda g: _gmap(op, *g))

        return method

    __add__, __sub__ = _entrywise("+"), _entrywise("-")
    del _entrywise

    def __neg__(self):
        return self._apply(lambda g: _gmap("*", g, -1))

    def scale(self, scalar) -> "Matrix":
        sre, sim, sden = _scalar_ints(scalar)
        re, im = _bilinear(partial(_gmap, "*"), self.re, self.im, sre, sim or None)
        return Matrix._make(self.den * sden, re, im)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # is_zero and is_identity, inline on the slots (a grid equal to
        # _geye(rows) is square)
        xre, xim, yre, yim = self.re, self.im, other.re, other.im
        if xim is None and not any(map(any, xre)) or yim is None and not any(map(any, yre)):
            return Matrix.zeros(self.rows, other.cols)
        if xim is None and self.den == 1 and xre == _geye(self.rows):
            return other
        if yim is None and other.den == 1 and yre == _geye(other.rows):
            return self
        if xim is None and yim is None:
            return Matrix._make(self.den * other.den, _gmul(xre, yre), None)
        re, im = _bilinear(_gmul, xre, xim, yre, yim)
        return Matrix._make(self.den * other.den, re, im)

    def __pow__(self, n: int) -> "Matrix":
        if not isinstance(n, int) or n < 0:
            raise ValueError("matrix powers require a nonnegative integer exponent")
        if not self.is_square():
            raise ShapeError("matrix power requires a square matrix")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Matrix.identity(self.rows) if result is None else result

    # -- transposes --------------------------------------------------------

    @property
    def T(self) -> "Matrix":
        return self._apply(lambda g: tuple(zip(*g)))

    # -- structural helpers --------------------------------------------------

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        if not indices:
            raise ShapeError("cannot build a matrix from zero columns")
        return self._apply(lambda g: tuple(tuple(row[j] for j in indices) for row in g))

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        if not indices:
            raise ShapeError("cannot build a matrix from zero rows")
        return self._apply(lambda g: tuple(g[i] for i in indices))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeError("hstack requires equal row counts")
        return _gather((self, other), lambda g: tuple(map(add, *g)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.den, self.re, self.im))

    def __repr__(self):
        return f"Matrix.from_rows({self.to_rows()!r})"

    def __str__(self):
        cells = [[str(e) for e in row] for row in self.to_rows()]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]" for row in cells)


def block_diag(*blocks: Matrix) -> Matrix:
    """Direct sum of matrices along the diagonal."""
    if not blocks:
        raise ShapeError("block_diag needs at least one block")
    cols = sum(b.cols for b in blocks)

    def place(grids):
        rows, c0 = [], 0
        for g in grids:
            width = len(g[0])
            left, right = (0,) * c0, (0,) * (cols - c0 - width)
            rows.extend(left + row + right for row in g)
            c0 += width
        return tuple(rows)

    return _gather(blocks, place)


# -- fraction-free elimination -------------------------------------------------


class RrefResult(NamedTuple):
    matrix: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _eliminate(work: list[list], ncols: int, is_pivot, step, one, reduce: bool):
    """Fraction-free elimination, in place on the rows of `work`.

    The one elimination loop: it finds each pivot, swaps it up and sweeps
    its column out of every other row (`reduce`, Gauss-Jordan) or only out
    of the rows below it (forward Bareiss), with step(row, prow, piv, f,
    prev), which returns (piv row - f prow) / prev, exact by Bareiss's
    argument; rows with f = 0 and piv = prev are left as they are.
    `is_pivot` tests an entry for nonzero and `one` is the initial
    "previous pivot". Returns the last pivot D and the pivot columns.

    The rows below a pivot get the same steps either way, and the pivots
    are found among them alone, so both sweeps find the same pivots. After
    the full sweep every pivot row holds D at its pivot column and zeros at
    the other pivot columns, the rows below the rank are zero, and work / D
    is the reduced row echelon form.
    """
    nrows = len(work)
    pivots: list[int] = []
    prev = one
    r = 0
    for c in range(ncols):
        for p in range(r, nrows):
            if is_pivot(work[p][c]):
                break
        else:
            continue
        work[r], work[p] = work[p], work[r]
        prow = work[r]
        piv = prow[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i != r:
                f = work[i][c]
                if is_pivot(f) or piv != prev:
                    work[i] = step(work[i], prow, piv, f, prev)
        pivots.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return prev, pivots


def _z_step(row, prow, piv, f, prev):
    """The row step over Z, on rows of ints."""
    if f:
        return [(piv * x - f * y) // prev for x, y in zip(row, prow)]
    return [piv * x // prev for x in row]


def _z_step_for(width):
    """The row step over Z for rows of `width` ints: the generated kernel
    up to the bound, `_z_step` past it."""
    return _z_step_kernel(width) if width <= MAX_SIZE**2 else _z_step


def _zi_step(row, prow, piv, f, prev):
    """The row step over Z[i], on rows of (re, im) pairs.

    Division by the previous pivot q is exact in Z[i]; it is done as
    multiplication by conj(q) followed by exact division by |q|^2.
    """
    (pr, pi), (fr, fi), (qr, qi) = piv, f, prev
    norm = qr * qr + qi * qi
    # t = piv x - f y, then t / q = t conj(q) / |q|^2
    if fr or fi:
        t = [
            (pr * a - pi * b - fr * u + fi * v, pr * b + pi * a - fr * v - fi * u)
            for (a, b), (u, v) in zip(row, prow)
        ]
    else:
        t = [(pr * a - pi * b, pr * b + pi * a) for a, b in row]
    return [((a * qr + b * qi) // norm, (b * qr - a * qi) // norm) for a, b in t]


def _eliminate_matrix(a: Matrix, reduce: bool):
    """`_eliminate` on the integer grids of `a`, with the row step of Z for
    a real matrix and of Z[i] otherwise: (work, last pivot, pivot columns).
    The denominator of `a` does not change its row space."""
    if a.im is None:
        work = [list(row) for row in a.re]
        return work, *_eliminate(work, a.cols, bool, _z_step_for(a.cols), 1, reduce)
    work = [list(zip(u, v)) for u, v in zip(a.re, a.im)]
    return work, *_eliminate(work, a.cols, any, _zi_step, (1, 0), reduce)


def rref(a: Matrix) -> RrefResult:
    """Reduced row echelon form, by fraction-free Gauss-Jordan elimination."""
    work, d, pivots = _eliminate_matrix(a, reduce=True)
    if a.im is None:
        reduced = Matrix._make(d, tuple(map(tuple, work)), None)
    else:
        dr, di = d
        # work / d = work conj(d) / |d|^2
        re = tuple(tuple(x * dr + y * di for x, y in row) for row in work)
        im = tuple(tuple(y * dr - x * di for x, y in row) for row in work)
        reduced = Matrix._make(dr * dr + di * di, re, im)
    return RrefResult(reduced, len(pivots), tuple(pivots))


def pivot_columns(a: Matrix) -> tuple[int, ...]:
    """The pivot columns of rref(a), found by forward elimination alone:
    no row above a pivot is swept and no matrix is built."""
    return tuple(_eliminate_matrix(a, reduce=False)[2])


def rank(a: Matrix) -> int:
    return len(pivot_columns(a))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when rank < n."""
    if not a.is_square():
        raise ShapeError("inverse requires a square matrix")
    n = a.rows
    x, r, singular = _read_off(a, Matrix.identity(n))
    # rref([a | I]) has rank n, so a pivot falls right exactly when rank(a) < n
    if singular:
        raise SingularMatrixError(f"matrix of rank {r} < {n} has no inverse")
    return x


def _null_rows(result: RrefResult) -> Matrix:
    """The null-space vectors of a reduced matrix, one per free column in
    increasing order, as the rows of one matrix: the vector for free column
    f has 1 at f and -rref[r][f] at the r-th pivot column. The matrix must
    have a free column."""
    reduced, _, pivots = result
    free = sorted(set(range(reduced.cols)).difference(pivots))

    def rows(g, one):
        out = []
        for f in free:
            v = [0] * reduced.cols
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = -g[r][f]
            out.append(tuple(v))
        return tuple(out)

    im = None if reduced.im is None else rows(reduced.im, 0)
    return Matrix._make(reduced.den, rows(reduced.re, reduced.den), im)


def null_space_basis(a: Matrix) -> list[Matrix]:
    """Basis of {x : a x = 0}, as a list of cols x 1 column vectors, one
    per free column of rref(a) in increasing order."""
    result = rref(a)
    if result.rank == a.cols:
        return []
    vectors = _null_rows(result)
    return [vectors.take_rows([t]).T for t in range(vectors.rows)]


def _place_rows(reduced: Matrix, pivots: Sequence[int], rows: int, start: int) -> Matrix:
    """The rows x (reduced.cols - start) matrix whose row pivots[r] is row r
    of `reduced` from column `start` on; its other rows are zero."""
    width = reduced.cols - start

    def place(g):
        out = [(0,) * width] * rows
        for r, pc in enumerate(pivots):
            out[pc] = g[r][start:]
        return tuple(out)

    return reduced._apply(place)


def _read_off(a: Matrix, b: Matrix) -> tuple[Matrix, int, bool]:
    """rref([a | b]) read as an a.cols x b.cols matrix X, with rank(a) and
    whether a pivot fell in the right block (if not, a X = b). Row pc of X
    is the right block of the pivot row at column pc of a; other rows are
    zero."""
    reduced, _, pivots = rref(a.hstack(b))
    left = [pc for pc in pivots if pc < a.cols]
    x = _place_rows(reduced, left, a.cols, a.cols)
    return x, len(left), len(left) < len(pivots)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    if a.rows != b.rows:
        raise ShapeError("solve requires matching row counts")
    x, _, inconsistent = _read_off(a, b)
    return None if inconsistent else x


def one_inverse(a: Matrix) -> Matrix:
    """A {1}-inverse: G with a G a = a, read off rref([a | I]).

    The right block of rref([a | I]) is an invertible E with E a = rref(a);
    its first rank(a) rows, placed at the pivot columns of a, form G
    (Ben-Israel and Greville, Generalized Inverses, ch. 1). Only
    a G a = a is relied on, and it is checked.
    """
    g, _, _ = _read_off(a, Matrix.identity(a.rows))
    if a * g * a != a:
        raise InternalInvariantError("one_inverse failed its defining identity")
    return g
