"""Seed-deterministic corpora of quadruples satisfying the side conditions.

Families:

* ``counterexample``   -- the fixed 2x2 reference instance on which the
  triple premise holds while the stronger two-identity premise fails.
* ``classic``          -- random (a, b) lifted by c := b, d := a; the four
  conditions then hold identically.
* ``strong``           -- random a, d upper triangular and random b; c is
  solved from acd = dbd, aca = dba, i.e. a c N = d b N with N = [d | a],
  as one solution of a c = d b R^T, R = G_{N^T} N^T read off rref(N^T)
  (two eliminations, of 2n x n and n x 2n, instead of one of the
  2n^2 x n^2 Kronecker system); a draw is kept when that system is
  consistent, and its c is checked by `check_strong_conditions`.
* ``triple_lift``      -- random triples with c = b + K^T W, K the null-space
  rows of a and W random, so ab = ac, lifted by d := a.
* ``zero_padded_nilpotent`` -- a conjugated unipotent core forcing
  1-bd and 1-ac to be nilpotent of index >= 2 (the spectral-idempotent
  branch of the transfer formula goes live), padded by smaller blocks.
  The core is a = u, b = u^-1 (1 - N) with N strictly upper triangular
  and u a product of random shears I + k E_ij; u^-1 is built alongside
  u from the inverse shears I - k E_ij, applied in reverse order as row
  operations, so no elimination runs, and u u^-1 = I is checked.
* ``block_diagonal_mix``    -- direct sums of instances from the other
  families.

Every emitted quadruple is re-validated against the four conditions before
it leaves this module; a failure is a generator bug, not a sampling miss.

Random integers come from `_draws`, which gives `random.Random.randint`'s
values from the same stream without its per-call overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GenerationExhaustedError, InternalInvariantError
from .matrices import (
    MAX_SIZE,
    Matrix,
    _geye,
    _grid,
    _null_rows,
    _place_rows,
    block_diag,
    rref,
    solve,
)
from .transfer import Quadruple, check_strong_conditions

# Draws `_gen_strong` makes before it gives up with GenerationExhaustedError.
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    size: int = 2
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not 1 <= self.size <= MAX_SIZE:
            raise ValueError(f"size must be in 1..{MAX_SIZE}, got {self.size}")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.family == "counterexample" and self.size != 2:
            raise ValueError("the counterexample instance is 2x2; size must be 2")
        if self.family in ("zero_padded_nilpotent", "block_diagonal_mix") and self.size < 2:
            raise ValueError(f"family {self.family!r} needs size >= 2")

    def to_dict(self) -> dict:
        return {"family": self.family, "size": self.size, "seed": self.seed, "count": self.count}


def counterexample_instance() -> Quadruple:
    """The fixed 2x2 instance: a = [[1,1],[1,0]], b = [[1,-1],[0,0]], c = 0, d = a."""
    a = Matrix.from_rows([[1, 1], [1, 0]])
    b = Matrix.from_rows([[1, -1], [0, 0]])
    return Quadruple(a, b, Matrix.zeros(2, 2), a)


def gen_family(spec: GeneratorSpec) -> list[Quadruple]:
    """Generate `spec.count` validated quadruples, deterministically in the seed."""
    rng = random.Random(spec.seed)
    out = []
    for _ in range(spec.count):
        q = _GENERATORS[spec.family](spec.size, rng)
        if not q.conditions.all_hold:
            raise InternalInvariantError(
                f"family {spec.family!r} emitted a quadruple violating the conditions"
            )
        out.append(q)
    return out


# -- random raw material -----------------------------------------------------
#
# The matrices below are built from their draws' ints straight into the
# canonical form, `Matrix._make(1, grid, None)`, as `identity` and `zeros`
# build theirs: a grid of ints over denominator 1 is already canonical.


def _draws(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` values of `rng.randint(lo, hi)`, from the same stream: as
    CPython's `randint` does, each takes `getrandbits(k)`, k the bit
    length of the width hi - lo + 1, until a value below the width comes."""
    width = hi - lo + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _rand_matrix(rows: int, cols: int, rng: random.Random, lo: int = -3, hi: int = 3) -> Matrix:
    """rows x cols matrix of draws in lo..hi, row-major."""
    return Matrix._make(1, _grid(_draws(rng, lo, hi, rows * cols), cols), None)


def _upper_grid(n: int, flat: list[int], k: int) -> tuple:
    """n x n grid holding `flat`, row-major, on and above diagonal k (0 the
    main one, 1 the first above it), and zeros below."""
    rows, pos = [], 0
    for i in range(n):
        width = n - i - k
        rows.append((0,) * (n - width) + tuple(flat[pos : pos + width]))
        pos += width
    return tuple(rows)


def _rand_low_rank(n: int, rng: random.Random, max_rank: int | None = None) -> Matrix:
    r = rng.randint(0, n - 1 if max_rank is None else max_rank)
    if r == 0:
        return Matrix.zeros(n, n)
    left = _rand_matrix(n, r, rng, -2, 2)
    right = _rand_matrix(r, n, rng, -2, 2)
    return left * right


def _rand_upper_triangular(n: int, rng: random.Random) -> Matrix:
    return Matrix._make(1, _upper_grid(n, _draws(rng, -3, 3, n * (n + 1) // 2), 0), None)


def _rand_unimodular(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """(u, u^-1) for an integer matrix u (n >= 2) with integer inverse:
    u is the product S_1 S_2 ... of 2n shears S = I + k E_ij, and u^-1
    is ... S_2^-1 S_1^-1 with S^-1 = I - k E_ij. Each shear is applied
    as it is drawn, as a column operation on u (column j += k column i)
    and as a row operation on u^-1 (row i -= k row j)."""
    u = [list(row) for row in _geye(n)]
    u_inv = [list(row) for row in _geye(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        for row in u:
            row[j] += k * row[i]
        u_inv[i] = [x - k * y for x, y in zip(u_inv[i], u_inv[j])]
    u = Matrix._make(1, tuple(map(tuple, u)), None)
    u_inv = Matrix._make(1, tuple(map(tuple, u_inv)), None)
    if not (u * u_inv).is_identity():
        raise InternalInvariantError("the shears' inverses failed u u^-1 = I")
    return u, u_inv


def _rand_nilpotent(n: int, rng: random.Random) -> Matrix:
    """Nonzero strictly upper triangular matrix (nilpotency index >= 2)."""
    while True:
        draws = _draws(rng, -2, 2, n * (n - 1) // 2)
        if any(draws):
            return Matrix._make(1, _upper_grid(n, draws, 1), None)


# -- families ----------------------------------------------------------------


def _gen_classic(n: int, rng: random.Random) -> Quadruple:
    a = _rand_low_rank(n, rng, max_rank=n) if rng.random() < 0.3 else _rand_matrix(n, n, rng)
    b = _rand_low_rank(n, rng, max_rank=n) if rng.random() < 0.3 else _rand_matrix(n, n, rng)
    return Quadruple(a, b, b, a)


def _gen_strong(n: int, rng: random.Random) -> Quadruple:
    for _ in range(MAX_ATTEMPTS):
        a = _rand_upper_triangular(n, rng)
        d = _rand_upper_triangular(n, rng)
        b = _rand_matrix(n, n, rng, -2, 2)
        c = _solve_strong_for_c(a, b, d)
        if c is None:
            continue
        if not check_strong_conditions(a, b, c, d).all_hold:
            raise InternalInvariantError("the strong solve's c fails the strong premise")
        return Quadruple(a, b, c, d)
    raise GenerationExhaustedError(
        f"no solvable (a, d, b) for the strong premise in {MAX_ATTEMPTS} attempts"
    )


def _solve_strong_for_c(a: Matrix, b: Matrix, d: Matrix) -> Matrix | None:
    """One solution c of a c d = d b d and a c a = d b a, or None if none.

    Both equations read a c N = d b N with N = [d | a]. R = G N^T, G a
    {1}-inverse of N^T, has R^T N = N and R^T = N G^T, so a c N = d b N
    has a solution exactly when a c = d b R^T has: one `solve` (free
    variables 0), whose c is also the Kronecker system's a (x) N^T one.
    R needs no {1}-inverse: the right block E of rref([N^T | I]) has
    E N^T = rref(N^T), so R is rref(N^T) with row r placed at its pivot
    column, one 2n x n elimination (R = I when rank N = n). N^T R = N^T
    is checked.
    """
    ends_t = d.hstack(a).T
    reduced, _, pivots = rref(ends_t)
    r = _place_rows(reduced, pivots, ends_t.cols, 0)
    if ends_t * r != ends_t:
        raise InternalInvariantError("the strong solve's R failed N^T R = N^T")
    return solve(a, d * b * r.T)


def _gen_triple_lift(n: int, rng: random.Random) -> Quadruple:
    a = _rand_low_rank(n, rng)  # singular so that ker(a) gives room for c != b
    b = _rand_matrix(n, n, rng)
    kernel = _null_rows(rref(a))
    # each column of K^T W is a combination of null vectors, so it stays in ker(a)
    weights = _rand_matrix(kernel.rows, n, rng, -2, 2)
    c = b + kernel.T * weights
    if a * c != a * b:
        raise InternalInvariantError("kernel perturbation escaped the kernel")
    return Quadruple(a, b, c, a)


def _gen_zero_padded_nilpotent(n: int, rng: random.Random) -> Quadruple:
    core = rng.randint(2, n)
    nil = _rand_nilpotent(core, rng)
    u, u_inv = _rand_unimodular(core, rng)
    a0 = u
    b0 = u_inv * (Matrix.identity(core) - nil)
    blocks = [Quadruple(a0, b0, b0, a0)]
    remaining = n - core
    while remaining:
        if remaining >= 2 and rng.random() < 0.5:
            blocks.append(counterexample_instance())
            remaining -= 2
        else:
            s = rng.randint(1, remaining)
            blocks.append(_gen_classic(s, rng))
            remaining -= s
    return _direct_sum(blocks)


def _gen_block_mix(n: int, rng: random.Random) -> Quadruple:
    parts: list[int] = []
    remaining = n
    while remaining:
        upper = remaining - 1 if not parts and remaining > 1 else remaining
        s = rng.randint(1, upper)
        parts.append(s)
        remaining -= s
    blocks = []
    for s in parts:
        choices = ["classic", "triple_lift"]
        if s >= 2:
            choices += ["strong", "zero_padded_nilpotent"]
        if s == 2:
            choices.append("counterexample")
        blocks.append(_GENERATORS[rng.choice(choices)](s, rng))
    return _direct_sum(blocks)


def _direct_sum(blocks: list[Quadruple]) -> Quadruple:
    return Quadruple(
        block_diag(*(q.a for q in blocks)),
        block_diag(*(q.b for q in blocks)),
        block_diag(*(q.c for q in blocks)),
        block_diag(*(q.d for q in blocks)),
    )


# Each family's generator, called with (size, rng); the counterexample
# ignores both. FAMILIES, the CLI's choices, keeps this order.
_GENERATORS = {
    "counterexample": lambda size, rng: counterexample_instance(),
    "classic": _gen_classic,
    "strong": _gen_strong,
    "triple_lift": _gen_triple_lift,
    "zero_padded_nilpotent": _gen_zero_padded_nilpotent,
    "block_diagonal_mix": _gen_block_mix,
}
FAMILIES = tuple(_GENERATORS)
