"""Seed-deterministic corpora of quadruples satisfying the side conditions.

Families:

* ``counterexample``   -- the fixed 2x2 reference instance on which the
  triple premise holds while the stronger two-identity premise fails.
* ``classic``          -- random (a, b) lifted by c := b, d := a; the four
  conditions then hold identically.
* ``strong``           -- random a, d upper triangular and random b; c is
  solved exactly from the linear system acd = dbd, aca = dba.
* ``triple_lift``      -- random triples with c = b + (kernel of a) noise,
  so ab = ac, lifted by d := a.
* ``zero_padded_nilpotent`` -- a conjugated unipotent core forcing
  1-bd and 1-ac to be nilpotent of index >= 2 (the spectral-idempotent
  branch of the transfer formula goes live), padded by smaller blocks.
* ``block_diagonal_mix``    -- direct sums of instances from the other
  families.

Every emitted quadruple is re-validated against the four conditions before
it leaves this module; a failure is a generator bug, not a sampling miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GenerationExhaustedError, InternalInvariantError
from .matrices import Matrix, block_diag, inverse, kron, null_space_basis, solve
from .transfer import Quadruple, check_conditions

FAMILIES = (
    "counterexample",
    "classic",
    "strong",
    "triple_lift",
    "zero_padded_nilpotent",
    "block_diagonal_mix",
)

MAX_SIZE = 8


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


def gen_family(spec: GeneratorSpec, max_attempts: int = 1000) -> list[Quadruple]:
    """Generate `spec.count` validated quadruples, deterministically in the seed."""
    rng = random.Random(spec.seed)
    out = []
    for _ in range(spec.count):
        q = _generate_one(spec.family, spec.size, rng, max_attempts)
        if not check_conditions(q).all_hold:
            raise InternalInvariantError(
                f"family {spec.family!r} emitted a quadruple violating the conditions"
            )
        out.append(q)
    return out


def _generate_one(family: str, size: int, rng: random.Random, max_attempts: int) -> Quadruple:
    if family == "counterexample":
        return counterexample_instance()
    if family == "classic":
        return _gen_classic(size, rng)
    if family == "strong":
        return _gen_strong(size, rng, max_attempts)
    if family == "triple_lift":
        return _gen_triple_lift(size, rng)
    if family == "zero_padded_nilpotent":
        return _gen_zero_padded_nilpotent(size, rng, max_attempts)
    if family == "block_diagonal_mix":
        return _gen_block_mix(size, rng, max_attempts)
    raise AssertionError(family)


# -- random raw material -----------------------------------------------------


def _rand_matrix(n: int, rng: random.Random, lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix(n, n, (rng.randint(lo, hi) for _ in range(n * n)))


def _rand_low_rank(n: int, rng: random.Random, max_rank: int | None = None) -> Matrix:
    r = rng.randint(0, n - 1 if max_rank is None else max_rank)
    if r == 0:
        return Matrix.zeros(n, n)
    left = Matrix(n, r, (rng.randint(-2, 2) for _ in range(n * r)))
    right = Matrix(r, n, (rng.randint(-2, 2) for _ in range(r * n)))
    return left * right


def _rand_upper_triangular(n: int, rng: random.Random) -> Matrix:
    return Matrix(
        n, n, (rng.randint(-3, 3) if i <= j else 0 for i in range(n) for j in range(n))
    )


def _rand_unimodular(n: int, rng: random.Random) -> Matrix:
    """Integer matrix with integer inverse, built from a few shear operations."""
    u = Matrix.identity(n)
    if n == 1:
        return u
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-2, -1, 1, 2])
        shear = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
        shear[i][j] = k
        u = u * Matrix.from_rows(shear)
    return u


def _rand_nilpotent(n: int, rng: random.Random) -> Matrix:
    """Nonzero strictly upper triangular matrix (nilpotency index >= 2)."""
    while True:
        m = Matrix(
            n, n, (rng.randint(-2, 2) if i < j else 0 for i in range(n) for j in range(n))
        )
        if not m.is_zero():
            return m


# -- families ----------------------------------------------------------------


def _gen_classic(n: int, rng: random.Random) -> Quadruple:
    a = _rand_low_rank(n, rng, max_rank=n) if rng.random() < 0.3 else _rand_matrix(n, rng)
    b = _rand_low_rank(n, rng, max_rank=n) if rng.random() < 0.3 else _rand_matrix(n, rng)
    return Quadruple(a, b, b, a)


def _gen_strong(n: int, rng: random.Random, max_attempts: int) -> Quadruple:
    for _ in range(max_attempts):
        a = _rand_upper_triangular(n, rng)
        d = _rand_upper_triangular(n, rng)
        b = _rand_matrix(n, rng, -2, 2)
        c = _solve_strong_for_c(a, b, d)
        if c is None:
            continue
        q = Quadruple(a, b, c, d)
        if a * c * d != d * b * d or d * b * a != a * c * a:
            raise InternalInvariantError("solved c fails the premise it was solved from")
        return q
    raise GenerationExhaustedError(
        f"no solvable (a, d, b) for the strong premise in {max_attempts} attempts"
    )


def _solve_strong_for_c(a: Matrix, b: Matrix, d: Matrix) -> Matrix | None:
    """Exact solution c of a c d = d b d and a c a = d b a, or None.

    Both equations are linear in c once a, b, d are fixed: the coefficient
    of c[p][q] in (a c m)[i][j] is a[i][p] * m[q][j].
    """
    n = a.rows
    system = kron(a, d.T).vstack(kron(a, a.T))
    rhs = (d * b * d).reshape(n * n, 1).vstack((d * b * a).reshape(n * n, 1))
    solution = solve(system, rhs)
    if solution is None:
        return None
    return solution.reshape(n, n)


def _gen_triple_lift(n: int, rng: random.Random) -> Quadruple:
    a = _rand_low_rank(n, rng)  # singular so that ker(a) gives room for c != b
    b = _rand_matrix(n, rng)
    kernel = null_space_basis(a)
    c = b
    for vec in kernel:
        # add vec * (random row) so each perturbation column stays in ker(a)
        weights = Matrix(1, n, (rng.randint(-2, 2) for _ in range(n)))
        c = c + vec * weights
    if a * c != a * b:
        raise InternalInvariantError("kernel perturbation escaped the kernel")
    return Quadruple(a, b, c, a)


def _gen_zero_padded_nilpotent(n: int, rng: random.Random, max_attempts: int) -> Quadruple:
    core = rng.randint(2, n)
    nil = _rand_nilpotent(core, rng)
    u = _rand_unimodular(core, rng)
    a0 = u
    b0 = inverse(u) * (Matrix.identity(core) - nil)
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


def _gen_block_mix(n: int, rng: random.Random, max_attempts: int) -> Quadruple:
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
        blocks.append(_generate_one(rng.choice(choices), s, rng, max_attempts))
    return _direct_sum(blocks)


def _direct_sum(blocks: list[Quadruple]) -> Quadruple:
    return Quadruple(
        block_diag(*(q.a for q in blocks)),
        block_diag(*(q.b for q in blocks)),
        block_diag(*(q.c for q in blocks)),
        block_diag(*(q.d for q in blocks)),
    )
