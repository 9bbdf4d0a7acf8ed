"""Drazin and group inverses, spectral idempotents, and commutant sampling.

Two independent exact algorithms are provided on purpose: `drazin` goes
through a {1}-inverse of a high power, `oracle_drazin` through the
core-nilpotent splitting. They must agree entrywise on every input; a
disagreement is a kernel bug, never a property of the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import InternalInvariantError, NoGroupInverseError, ShapeError
from .matrices import (
    Matrix,
    block_diag,
    inverse,
    kron,
    null_space_basis,
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


def index_of(a: Matrix) -> int:
    """Smallest k >= 0 with rank(a^k) = rank(a^(k+1)); 0 iff invertible."""
    _require_square(a, "index")
    prev_rank = a.rows  # rank of a^0 = I
    power = a
    k = 0
    while True:
        r = rank(power)
        if r == prev_rank:
            return k
        prev_rank = r
        power = power * a
        k += 1


def is_nilpotent(a: Matrix) -> bool:
    _require_square(a, "nilpotency test")
    return (a ** a.rows).is_zero()


def nilpotency_index(a: Matrix) -> int:
    """Smallest m >= 1 with a^m = 0; raises if a is not nilpotent."""
    _require_square(a, "nilpotency index")
    power = a
    for m in range(1, a.rows + 1):
        if power.is_zero():
            return m
        power = power * a
    raise ValueError("matrix is not nilpotent")


def _verify_drazin(a: Matrix, data: DrazinData) -> None:
    x, k, p = data.dinv, data.index, data.spectral_idempotent
    ax = a * x
    if ax != x * a:
        raise InternalInvariantError("Drazin candidate does not commute with the matrix")
    if x * ax != x:
        raise InternalInvariantError("Drazin candidate fails x a x = x")
    ak = a**k
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
    l = index_of(a)
    if l == 0:
        dinv = inverse(a)
    else:
        al = a**l
        dinv = al * one_inverse(al * al * a) * al
    data = DrazinData(
        dinv=dinv,
        index=l,
        spectral_idempotent=Matrix.identity(a.rows) - a * dinv,
    )
    _verify_drazin(a, data)
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
    A^D = P diag(C^-1, 0) P^-1.
    """
    _require_square(a, "Drazin inverse")
    n = a.rows
    k = index_of(a)
    if k == 0:
        return DrazinData(inverse(a), 0, Matrix.zeros(n, n))
    ak = a**k
    _, r, pivots = rref(ak)
    kernel = null_space_basis(ak)
    if r + len(kernel) != n:
        raise InternalInvariantError("column space and null space dimensions do not add up")
    columns = ([ak.take_columns(pivots)] if r else []) + kernel
    p = reduce(Matrix.hstack, columns)
    if rank(p) != n:
        raise InternalInvariantError("range and kernel of a^k do not complement")
    p_inv = inverse(p)
    m = p_inv * a * p
    for i in range(n):
        for j in range(n):
            if (i < r) != (j < r) and not m.entry(i, j).is_zero():
                raise InternalInvariantError("similarity did not block-diagonalize")
    # k >= 1 forces r < n, so the nilpotent tail is always present.
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


@lru_cache(maxsize=256)
def commutant_basis(a: Matrix) -> tuple[Matrix, ...]:
    """Basis of {X : X a = a X}, solved exactly as an n^2 x n^2 linear system."""
    _require_square(a, "commutant")
    n = a.rows
    # Row (i,j) of the system is the (i,j) entry of X a - a X; the unknown
    # vector is X flattened row-major.
    eye = Matrix.identity(n)
    system = kron(eye, a.T) - kron(a, eye)
    return tuple(v.reshape(n, n) for v in null_space_basis(system))


def random_commutant_element(a: Matrix, seed: int) -> Matrix:
    """Seed-deterministic random element of the commutant of `a`.

    Sampled as a small-integer combination of an exact basis of the
    solution space of X a = a X, so the commutation is exact by
    construction (and re-checked).
    """
    basis = commutant_basis(a)
    rng = random.Random(seed)
    out = Matrix.zeros(a.rows, a.cols)
    for b in basis:
        coeff = rng.randint(-3, 3)
        if coeff:
            out = out + b.scale(coeff)
    if out * a != a * out:
        raise InternalInvariantError("sampled element fails to commute")
    return out
