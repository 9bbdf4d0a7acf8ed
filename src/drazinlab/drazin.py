"""Drazin and group inverses, spectral idempotents, and the commutant.

Two independent exact algorithms are provided on purpose: `drazin` reads
A^D off one solve with a high power, `oracle_drazin` goes through the
core-nilpotent splitting. They must agree entrywise on every input; a
disagreement is a kernel bug, never a property of the input. Each finds
the index its own way, so the indices cross-check too: `drazin` by the rank
sequence of the powers, which reads only pivots and so eliminates each
power forward only (`pivot_columns`); `oracle_drazin` as the nilpotency
index of the nilpotent block of its splitting.

A Drazin inverse lies in the double commutant of its matrix (Drazin 1958,
Amer. Math. Monthly 65). `commutant_basis` returns the null-space basis
of the n^2 x n^2 system X a - a X = 0, which depends on the commutant
alone: it reads that basis off the powers of a nonderogatory matrix, which
span the commutant, and solves the system only for a derogatory one.
The cached basis also keeps its stacked grids as n^2 columns, so that
`random_commutant_element` forms a sample as one dot product per entry,
and checks that it commutes by comparing the raw product grids. A
sample's weights depend only on its int seed and the commutant's
dimension k, so they are drawn once per (seed, k) and memoized.
`in_double_commutant` tests the double commutant as the polynomial
algebra of the matrix, by the pivot columns of one forward elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import InternalInvariantError, NoGroupInverseError, ShapeError, SingularMatrixError
from .matrices import (
    Matrix,
    _bilinear,
    _gather,
    _gmul,
    _grid,
    _null_rows,
    _read_off,
    inverse,
    pivot_columns,
    rref,
)


@dataclass(frozen=True)
class DrazinData:
    """Bundle (A^D, index, A^pi) for one square matrix."""

    dinv: Matrix
    index: int
    spectral_idempotent: Matrix


def _require_square(a: Matrix, what: str) -> None:
    if not a.is_square():
        raise ShapeError(f"{what} requires a square matrix, got {a.rows}x{a.cols}")


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)); 0 iff invertible."""
    _require_square(a, "index")
    return drazin(a).index


def nilpotency_index(a: Matrix) -> int:
    """Smallest m >= 1 with a^m = 0; raises if a is not nilpotent."""
    _require_square(a, "nilpotency index")
    power = a
    for m in range(1, a.rows + 1):
        if power.is_zero():
            return m
        power = power * a
    raise ValueError("matrix is not nilpotent")


def _verify_drazin(a: Matrix, x: Matrix, ax: Matrix, ak: Matrix) -> None:
    """Check x = A^D against the defining equations; ax = a x, ak = a^index.
    They imply the rest, so it is not checked again: (ax)(ax) = a(xax) = ax,
    so p = I - ax is idempotent, and a^k p = a^k - a^k(ax) = 0, so the
    core-nilpotent part vanishes at the index."""
    if ax != x * a:
        raise InternalInvariantError("Drazin candidate does not commute with the matrix")
    if x * ax != x:
        raise InternalInvariantError("Drazin candidate fails x a x = x")
    if ak * ax != ak:
        raise InternalInvariantError("Drazin candidate fails a^(k+1) x = a^k")


def drazin(a: Matrix) -> DrazinData:
    """Drazin inverse read off one solve: A^D = A^l Y for any Y with
    A^(2l+1) Y = A^l, l the index (at l = 0, Y = a^-1).

    The index is the first l with rank(a^l) = rank(a^(l+1)); the loop that
    finds it exits holding a^l and a^(l+1), whose product is A^(2l+1).
    At the index ker A^(2l+1) = ker A^l, so A^l (I - G A^(2l+1)) = 0 for a
    {1}-inverse G: the system is solvable, and A^l Y = A^l G A^l = A^D.
    The result is verified against all defining equations; the third,
    a^l (a x) = A^(2l+1) Y = a^l, fails exactly when Y is no solution.
    """
    _require_square(a, "Drazin inverse")
    l, al, rank, power = 0, Matrix.identity(a.rows), a.rows, a
    while (r := len(pivot_columns(power))) != rank:
        l, al, rank, power = l + 1, power, r, power * a
    dinv = al * _read_off(al * power, al)[0]
    ax = a * dinv
    _verify_drazin(a, dinv, ax, al)
    return DrazinData(dinv=dinv, index=l, spectral_idempotent=Matrix.identity(a.rows) - ax)


def group_inverse(a: Matrix) -> Matrix:
    """Group inverse A^#; exists iff index <= 1 (index 0 gives the inverse)."""
    _require_square(a, "group inverse")
    data = drazin(a)
    if data.index > 1:
        raise NoGroupInverseError(f"matrix has index {data.index}, no group inverse")
    return data.dinv


def oracle_drazin(a: Matrix) -> DrazinData:
    """Independent Drazin computation via the core-nilpotent splitting.

    An invertible a (full rank, one forward elimination) is its own core.
    Otherwise the split is taken at a^n, since n >= index: columns of a^n
    spanning its column space and a basis of its null space are glued into
    a change of basis P; then P^-1 a P is block diagonal with an invertible
    core C and a nilpotent tail N, the index is the nilpotency index of N
    (Ben-Israel and Greville, Generalized Inverses, 2003), and
    A^D = P diag(C^-1, 0) P^-1 = P[:, :r] C^-1 P^-1[:r, :], r = rank(a^n).
    a^n is reduced once, for its rank, pivot columns and kernel, and P is
    eliminated once, for its inverse, whose failure means the two spaces do
    not complement. No rank sequence is run.
    """
    _require_square(a, "Drazin inverse")
    n = a.rows
    if len(pivot_columns(a)) == n:
        return DrazinData(inverse(a), 0, Matrix.zeros(n, n))
    an = a**n
    reduced = rref(an)
    _, r, pivots = reduced
    # a is singular, so r < n: the kernel and the nilpotent tail are never empty
    kernel = _null_rows(reduced).T
    p = an.take_columns(pivots).hstack(kernel) if r else kernel
    try:
        p_inv = inverse(p)
    except SingularMatrixError as exc:
        raise InternalInvariantError("range and kernel of a^n do not complement") from exc
    m = p_inv * a * p
    for g in (m.re, m.im or ()):
        if any(map(any, (row[r:] for row in g[:r]))) or any(map(any, (row[:r] for row in g[r:]))):
            raise InternalInvariantError("similarity did not block-diagonalize")
    try:
        k = nilpotency_index(m.take_rows(range(r, n)).take_columns(range(r, n)))
    except ValueError as exc:
        raise InternalInvariantError("tail block is not nilpotent") from exc
    if r:
        core = m.take_rows(range(r)).take_columns(range(r))
        dinv = p.take_columns(range(r)) * inverse(core) * p_inv.take_rows(range(r))
    else:
        dinv = Matrix.zeros(n, n)
    return DrazinData(dinv, k, Matrix.identity(n) - a * dinv)


def _numerator_powers(a: Matrix) -> list[Matrix]:
    """[I, A, ..., A^(n-1)] for the n x n integer matrix A = den * a, which
    has the same commutant and the same polynomial algebra as a."""
    powers = [Matrix.identity(a.rows), Matrix._make(1, a.re, a.im)]
    while len(powers) < a.rows:
        powers.append(powers[-1] * powers[1])
    return powers[: a.rows]


def _reversed_vecs(blocks):
    """One row per grid in `blocks`: its entries row-major, reversed."""
    return tuple(tuple(chain.from_iterable(b))[::-1] for b in blocks)


def _commutation_system(g):
    """The n^2 x n^2 grid of X a - a X = 0 for a with grid g, X row-major:
    row (p, q), column (i, j) is the coefficient of X[i][j] in entry (p, q)."""
    n = len(g)
    return tuple(
        tuple(g[j][q] * (i == p) - g[p][i] * (j == q) for i in range(n) for j in range(n))
        for p in range(n)
        for q in range(n)
    )


class _Basis(tuple):
    """Commutant basis elements, with their columns kept as `cols`."""


@lru_cache(maxsize=256)
def commutant_basis(a: Matrix) -> tuple[Matrix, ...]:
    """The null-space basis of the n^2 x n^2 system X a - a X = 0 (X
    row-major): one element per free column, in increasing order, with 1
    there and 0 at the other free columns. The free columns are the
    positions that can be the last nonzero entry of a commuting matrix, so
    this basis depends on the commutant alone: the reduced row echelon form
    of any spanning set, entries in reverse order, has its pivots exactly
    there, and read back in reverse it is this basis.

    The commutant holds I, A, ..., A^(n-1) (A = den * a) and has dimension
    n exactly when they are independent, i.e. when a is nonderogatory
    (Frobenius; Horn and Johnson, Topics in Matrix Analysis, ch. 4). So the
    powers are eliminated first; at rank n they span the commutant and the
    basis is read off them. At rank < n, a is derogatory and the system is
    solved as it stands.

    The tuple of elements also keeps, as `cols`, the n^2 x k matrix whose
    column t is element t row-major; the sampler reads it from this cache.
    """
    _require_square(a, "commutant")
    n = a.rows
    canon, k, _ = rref(_gather(_numerator_powers(a), _reversed_vecs))
    if k == n:
        vecs = canon._apply(lambda g: tuple(row[::-1] for row in reversed(g)))
    else:
        vecs = _null_rows(rref(a._apply(_commutation_system)))
    basis = _Basis(vecs._apply(lambda g, t=t: _grid(g[t], n)) for t in range(vecs.rows))
    basis.cols = vecs.T
    return basis


@lru_cache(maxsize=1024)
def _sample_weights(seed: int, k: int) -> tuple[int, ...]:
    """The first k draws of randint(-3, 3) from random.Random(seed)."""
    rng = random.Random(seed)
    return tuple(rng.randint(-3, 3) for _ in range(k))


def random_commutant_element(a: Matrix, seed: int) -> Matrix:
    """Seed-deterministic random element of the commutant of `a`.

    One small-integer combination of `commutant_basis(a)`: each entry is
    the dot product of the weights with one cached column, over the
    columns' common denominator. The weights are the first k draws of
    randint(-3, 3) from random.Random(seed), k = len(basis), memoized per
    (seed, k). The seed must be an int (TypeError otherwise), so that a
    sample is a function of (a, seed). The commutation is exact by
    construction and re-checked on the raw grids of x a and a x, which
    share the denominator den(x) den(a), so they are equal exactly when
    the products are; a zero or identity factor commutes without
    multiplying.
    """
    if not isinstance(seed, int):
        raise TypeError(f"commutant sample seed must be an int, got {type(seed).__name__}")
    basis = commutant_basis(a)
    w = _sample_weights(seed, len(basis))
    x = basis.cols._apply(lambda g: _grid([sum(map(mul, w, col)) for col in g], a.cols))
    if any(m.is_zero() or m.is_identity() for m in (x, a)):
        return x
    if _bilinear(_gmul, x.re, x.im, a.re, a.im) != _bilinear(_gmul, a.re, a.im, x.re, x.im):
        raise InternalInvariantError("sampled element fails to commute")
    return x


def in_double_commutant(a: Matrix, y: Matrix) -> bool:
    """Whether y commutes with every matrix that commutes with a.

    For one matrix over a field the double commutant is the polynomial
    algebra (Horn and Johnson, Topics in Matrix Analysis, ch. 4), and by
    Cayley-Hamilton that is span{I, a, ..., a^(n-1)}. So y belongs exactly
    when the column vec(y) is not a pivot of the n^2 x (n+1) matrix
    [vec(I), vec(A), ..., vec(A^(n-1)), vec(den_y * y)], A = den * a;
    scaling a column does not move the pivots.
    """
    _require_square(a, "double commutant")
    n = a.rows
    if (y.rows, y.cols) != (n, n):
        raise ShapeError(f"double commutant of a {n}x{n} matrix needs a {n}x{n} y")
    columns = _numerator_powers(a) + [Matrix._make(1, y.re, y.im)]
    stacked = _gather(columns, lambda g: tuple(zip(*map(chain.from_iterable, g))))
    return n not in pivot_columns(stacked)
