"""Drazin and group inverses, spectral idempotents, and the commutant.

Two independent exact algorithms are provided on purpose: `drazin` goes
through a {1}-inverse of a high power, `oracle_drazin` through the
core-nilpotent splitting. They must agree entrywise on every input; a
disagreement is a kernel bug, never a property of the input.

A Drazin inverse lies in the double commutant of its matrix (Drazin 1958,
Amer. Math. Monthly 65). `commutant_basis` reads {X : X a = a X} off the
powers of a nonderogatory matrix and solves it through Krylov chains for a
derogatory one, with the basis the n^2 x n^2 Kronecker system would give;
`in_double_commutant` tests the double commutant as the polynomial
algebra of the matrix.
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
    _aligned,
    _bilinear,
    _combination,
    _free_columns,
    _gather,
    _gcombine,
    _grid,
    _gzeros,
    _null_rows,
    block_diag,
    inverse,
    one_inverse,
    rank,
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


def _index_and_power(a: Matrix) -> tuple[int, Matrix]:
    """(index l, a^l): the power is the one the rank sequence has formed."""
    _require_square(a, "index")
    prev_rank, prev_power = a.rows, Matrix.identity(a.rows)  # a^0 = I
    power = a
    k = 0
    while True:
        r = rank(power)
        if r == prev_rank:
            return k, prev_power
        prev_rank, prev_power = r, power
        power = power * a
        k += 1


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)); 0 iff invertible."""
    return _index_and_power(a)[0]


def nilpotency_index(a: Matrix) -> int:
    """Smallest m >= 1 with a^m = 0; raises if a is not nilpotent."""
    _require_square(a, "nilpotency index")
    power = a
    for m in range(1, a.rows + 1):
        if power.is_zero():
            return m
        power = power * a
    raise ValueError("matrix is not nilpotent")


def _verify_drazin(a: Matrix, data: DrazinData, ax: Matrix, ak: Matrix) -> None:
    """Check data against the defining equations; ax = a A^D, ak = a^index."""
    x, p = data.dinv, data.spectral_idempotent
    if ax != x * a:
        raise InternalInvariantError("Drazin candidate does not commute with the matrix")
    if x * ax != x:
        raise InternalInvariantError("Drazin candidate fails x a x = x")
    if ak * ax != ak:
        raise InternalInvariantError("Drazin candidate fails a^(k+1) x = a^k")
    if p * p != p:
        raise InternalInvariantError("spectral idempotent is not idempotent")
    if not (ak * p).is_zero():
        raise InternalInvariantError("core-nilpotent part does not vanish at the index")


def drazin(a: Matrix) -> DrazinData:
    """Drazin inverse by the {1}-inverse route: A^D = A^l G A^l, G in (A^(2l+1)){1}.

    l is the index, so the formula is exact rational arithmetic end to end;
    the result is verified against all defining equations before returning.
    """
    _require_square(a, "Drazin inverse")
    l, al = _index_and_power(a)
    dinv = inverse(a) if l == 0 else al * one_inverse(al * al * a) * al
    ax = a * dinv
    data = DrazinData(dinv=dinv, index=l, spectral_idempotent=Matrix.identity(a.rows) - ax)
    _verify_drazin(a, data, ax, al)
    return data


def group_inverse(a: Matrix) -> Matrix:
    """Group inverse A^#; exists iff index <= 1 (index 0 gives the inverse)."""
    _require_square(a, "group inverse")
    data = drazin(a)
    if data.index > 1:
        raise NoGroupInverseError(f"matrix has index {data.index}, no group inverse")
    return data.dinv


def oracle_drazin(a: Matrix) -> DrazinData:
    """Independent Drazin computation via the core-nilpotent splitting.

    With k the index, columns of a^k spanning its column space and a basis
    of its null space are glued into a change of basis P; then P^-1 a P is
    block diagonal with an invertible core C and a nilpotent tail N, and
    A^D = P diag(C^-1, 0) P^-1. Each matrix is eliminated once: a^k (the
    power the rank sequence formed) for its rank, pivot columns and
    kernel, and P for its inverse, whose failure means the two spaces do
    not complement.
    """
    _require_square(a, "Drazin inverse")
    n = a.rows
    k, ak = _index_and_power(a)
    if k == 0:
        return DrazinData(inverse(a), 0, Matrix.zeros(n, n))
    reduced = rref(ak)
    _, r, pivots = reduced
    # k >= 1 forces r < n: the kernel and the nilpotent tail are never empty
    kernel = _null_rows(reduced, _free_columns(reduced)).T
    p = ak.take_columns(pivots).hstack(kernel) if r else kernel
    try:
        p_inv = inverse(p)
    except SingularMatrixError as exc:
        raise InternalInvariantError("range and kernel of a^k do not complement") from exc
    m = p_inv * a * p
    for g in (m.re, m.im or ()):
        if any(map(any, (row[r:] for row in g[:r]))) or any(map(any, (row[:r] for row in g[r:]))):
            raise InternalInvariantError("similarity did not block-diagonalize")
    tail = m.take_rows(range(r, n)).take_columns(range(r, n))
    if not (tail**k).is_zero():
        raise InternalInvariantError("tail block is not nilpotent at the index")
    if r:
        core = m.take_rows(range(r)).take_columns(range(r))
        core_inv_block = block_diag(inverse(core), Matrix.zeros(n - r, n - r))
    else:
        core_inv_block = Matrix.zeros(n, n)
    dinv = p * core_inv_block * p_inv
    return DrazinData(dinv, k, Matrix.identity(n) - a * dinv)


def _numerator_powers(a: Matrix, top: int) -> list[Matrix]:
    """[I, A, ..., A^top] for the integer matrix A = den * a, which has the
    same commutant and the same polynomial algebra as a."""
    powers = [Matrix.identity(a.rows), Matrix._make(1, a.re, a.im)]
    while len(powers) <= top:
        powers.append(powers[-1] * powers[1])
    return powers[: top + 1]


def _reversed_vecs(blocks):
    """One row per grid in `blocks`: its entries row-major, reversed."""
    return tuple(tuple(chain.from_iterable(b))[::-1] for b in blocks)


@lru_cache(maxsize=256)
def commutant_basis(a: Matrix) -> tuple[Matrix, ...]:
    """The basis of {X : X a = a X} that is the identity on its free coordinates.

    That is the null-space basis of the n^2 x n^2 system X a - a X = 0 (X
    row-major), whose free coordinates are the positions that can be the
    last nonzero entry of a commuting matrix. So the reduced row echelon
    form of any spanning set, entries in reverse order, has its pivots
    exactly there, and read back in reverse it is that basis.

    The commutant holds I, A, ..., A^(n-1) (A = den * a) and has dimension
    n exactly when they are independent, i.e. when a is nonderogatory
    (Frobenius; Horn and Johnson, Topics in Matrix Analysis, ch. 4): then
    these powers are the spanning set. A derogatory a takes
    `_chain_spanning_set`.
    """
    _require_square(a, "commutant")
    n = a.rows
    powers = _numerator_powers(a, n - 1)
    canon, k, _ = rref(_gather(powers, _reversed_vecs))
    if k < n:
        powers.append(powers[-1] * powers[1])
        spanning = _chain_spanning_set(powers)
        canon, k, _ = rref(spanning)
        if k != spanning.rows:
            raise InternalInvariantError("commutant spanning set is not independent")

    def element(t):
        im = None if canon.im is None else _grid(canon.im[t][::-1], n)
        return Matrix._make(canon.den, _grid(canon.re[t][::-1], n), im)

    return tuple(element(t) for t in reversed(range(k)))


def _chain_spanning_set(powers: list[Matrix]) -> Matrix:
    """The commutant of A = powers[1] from its small side, as independent
    rows, each an X flattened row-major and reversed; powers = [I, ..., A^n].

    Take the generators v_1 = (1, ..., 1), v_i = e_i for i >= 2. The pivot
    columns of rref([K | I]), with K = [v_i, A v_i, ..., A^n v_i] for
    i = 1..n, are A^j v_i for j < d_i: a basis W of Q(i)^n, and the right
    block is W^-1. Each chain with d_i > 0 closes with a relation
    A^(d_i) v_i = sum c A^j' v_i' over the pivots up to it, read off the
    same elimination. X commutes with A exactly when the images y_i = X v_i
    satisfy A^(d_i) y_i = sum c A^j' y_i' (then X A = A X on W), and
    X = [A^j y_i] W^-1. So the system solved is (m n) x (m n) for m
    chains, and block lower triangular: a relation refers to its own chain
    and earlier ones. (With e_1 first, every upper triangular matrix would
    give n chains of length one, since e_1 is an eigenvector.)
    """
    n = powers[0].rows
    w = n + 1  # Krylov columns per chain
    _, grids = _aligned(powers)  # zeros for a missing im grid
    pw_re = [g for g, _ in grids]
    pw_im = None if grids[0][1] is None else [g for _, g in grids]

    def krylov_rows(g):
        # row r of [K | I]: A^j v_1 is the row sums of A^j, A^j e_i its column i
        return tuple(
            tuple(sum(g[j][r]) for j in range(w))
            + tuple(g[j][r][i] for i in range(1, n) for j in range(w))
            + g[0][r]
            for r in range(n)
        )

    krylov = rref(_gather(powers, krylov_rows))
    reduced, _, pivots = krylov
    lengths = [0] * n
    for p in pivots:
        lengths[p // w] += 1
    chains = [i for i in range(n) if lengths[i]]
    slot = {i: t * n for t, i in enumerate(chains)}
    # Row u: the closing relation of chain u as a null vector of K.
    closing = _null_rows(krylov, [i * w + lengths[i] for i in chains])
    zero_block = _gzeros(n, n)

    def relations(nu, pw):
        # row block u: the blocks sum_j nu[u][i*w + j] A^j, i over the chains
        out = []
        for row in nu:
            blocks = []
            for i in chains:
                js = [j for j in range(w) if row[i * w + j]]
                weights = [row[i * w + j] for j in js]
                blocks.append(_gcombine(weights, [pw[j] for j in js]) if js else zero_block)
            out.extend(sum((blk[r] for blk in blocks), ()) for r in range(n))
        return tuple(out)

    re, im = _bilinear(relations, closing.re, closing.im, pw_re, pw_im)
    system = rref(Matrix._make(1, re, im))
    images = _null_rows(system, _free_columns(system))
    k = images.rows
    terms = [divmod(p, w) for p in pivots]

    def chain_images(y, pw):
        # row (t, r) of [A^j y_i] for the t-th solution, columns in pivot order
        out = []
        for yt in y:
            ys = {i: yt[o : o + n] for i, o in slot.items()}
            out.extend(tuple(sum(map(mul, pw[j][r], ys[i])) for i, j in terms) for r in range(n))
        return tuple(out)

    re, im = _bilinear(chain_images, images.re, images.im, pw_re, pw_im)
    # W^-1 up to the scalar den of the reduced matrix, which scales every
    # spanning row alike and so leaves the read-off unchanged
    w_inv = Matrix._make(
        1,
        tuple(row[n * w :] for row in reduced.re),
        None if reduced.im is None else tuple(row[n * w :] for row in reduced.im),
    )
    xs = Matrix._make(1, re, im) * w_inv
    return xs._apply(lambda g: _reversed_vecs(g[t * n : t * n + n] for t in range(k)))


def random_commutant_element(a: Matrix, seed: int) -> Matrix:
    """Seed-deterministic random element of the commutant of `a`.

    One small-integer combination of `commutant_basis(a)`, formed on the
    integer grids over their common denominator, so the commutation is
    exact by construction (and re-checked).
    """
    basis = commutant_basis(a)
    rng = random.Random(seed)
    out = _combination(basis, [rng.randint(-3, 3) for _ in basis])
    if out * a != a * out:
        raise InternalInvariantError("sampled element fails to commute")
    return out


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
    columns = _numerator_powers(a, n - 1) + [Matrix._make(1, y.re, y.im)]
    stacked = _gather(columns, lambda g: tuple(zip(*map(chain.from_iterable, g))))
    return n not in rref(stacked).pivot_cols
