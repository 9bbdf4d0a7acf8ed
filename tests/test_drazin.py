import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazinlab import (
    GaussianRational,
    DrazinData,
    InternalInvariantError,
    Matrix,
    block_diag,
    NoGroupInverseError,
    ShapeError,
    SingularMatrixError,
    certify_drazin,
    drazin,
    commutant_basis,
    group_inverse,
    in_double_commutant,
    index_of,
    inverse,
    nilpotency_index,
    oracle_drazin,
    rank,
    random_commutant_element,
)
from drazinlab.matrices import MAX_SIZE
from util import (
    RATIONALS,
    ZERO,
    as_matrix,
    bezout_drazin_reference,
    commutant_basis_reference,
    assert_matrix_equals,
    g_powers,
    g_rref,
    g_sum,
    g_vec,
    grids,
    rand_gauss_matrix,
    rand_int_matrix,
    rand_rank_matrix,
    record_calls,
    scalar_add,
    scalar_mul,
    scalar_sub,
)

J2 = as_matrix([[0, 1], [0, 0]])
drazin_module = importlib.import_module("drazinlab.drazin")


def test_index_examples():
    assert index_of(Matrix.identity(2)) == 0
    assert index_of(J2) == 2
    assert index_of(as_matrix([[1, 0], [0, 0]])) == 1
    assert index_of(Matrix.zeros(3, 3)) == 1
    with pytest.raises(ShapeError):
        index_of(Matrix.zeros(2, 3))


def test_index_is_rank_stabilization_point():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = rand_rank_matrix(rng, n, rng.randint(0, n))
        k = index_of(a)
        assert rank(a**k) == rank(a ** (k + 1))
        if k > 0:
            assert rank(a ** (k - 1)) > rank(a**k)


def test_drazin_identity():
    data = drazin(Matrix.identity(2))
    assert data.dinv.is_identity() and data.index == 0
    assert data.spectral_idempotent.is_zero()


def test_drazin_nilpotent():
    data = drazin(J2)
    assert data.dinv.is_zero()
    assert data.index == 2
    assert data.spectral_idempotent.is_identity()


def test_drazin_invertible_is_inverse():
    a = as_matrix([[1, 1], [1, 0]])
    data = drazin(a)
    assert data.index == 0
    assert_matrix_equals(data.dinv, [[0, 1], [1, -1]])
    assert data.dinv == inverse(a)


def test_group_inverse_examples():
    assert group_inverse(Matrix.identity(2)).is_identity()
    with pytest.raises(NoGroupInverseError):
        group_inverse(J2)
    p = as_matrix([[1, 0], [0, 0]])
    assert group_inverse(p) == p
    assert group_inverse(Matrix.zeros(2, 2)).is_zero()


def test_is_nilpotent():
    assert (Matrix.zeros(2, 2) ** 2).is_zero()
    assert (J2**2).is_zero()
    assert not (Matrix.identity(2) ** 2).is_zero()
    assert nilpotency_index(J2) == 2
    assert nilpotency_index(Matrix.zeros(2, 2)) == 1
    with pytest.raises(ValueError):
        nilpotency_index(Matrix.identity(2))


def test_commutant_of_identity():
    s = random_commutant_element(Matrix.identity(3), seed=1)
    assert s * Matrix.identity(3) == s


def test_commutant_of_distinct_diagonal_is_diagonal():
    a = as_matrix([[1, 0], [0, 2]])
    for seed in range(8):
        s = random_commutant_element(a, seed)
        assert not s.entry(0, 1) and not s.entry(1, 0)
        assert s * a == a * s


def test_commutant_of_jordan_block_shape():
    # solving the 4x4 system by hand gives matrices [[s, t], [0, s]]
    for seed in range(8):
        s = random_commutant_element(J2, seed)
        assert not s.entry(1, 0)
        assert s.entry(0, 0) == s.entry(1, 1)


def test_commutant_seed_determinism():
    a = rand_int_matrix(random.Random(1), 4)
    assert random_commutant_element(a, 7) == random_commutant_element(a, 7)


def _random_mixed_matrix(rng: random.Random) -> Matrix:
    n = rng.randint(1, 5)
    style = rng.random()
    if style < 0.4:
        return rand_rank_matrix(rng, n, rng.randint(0, n))
    if style < 0.8:
        return rand_int_matrix(rng, n)
    return rand_gauss_matrix(rng, n)


def test_drazin_equations_and_oracle_agreement():
    rng = random.Random(31)
    for _ in range(60):
        a = _random_mixed_matrix(rng)
        data = drazin(a)
        x, k = data.dinv, data.index
        assert x * a == a * x
        assert x * a * x == x
        assert a ** (k + 1) * x == a**k

        other = oracle_drazin(a)
        assert other.dinv == x
        assert other.index == k
        assert other.spectral_idempotent == data.spectral_idempotent


def test_core_nilpotent_part():
    rng = random.Random(37)
    for _ in range(30):
        a = _random_mixed_matrix(rng)
        data = drazin(a)
        core_nil = a - a * a * data.dinv
        if data.index == 0:
            assert core_nil.is_zero()
        else:
            assert nilpotency_index(core_nil) == data.index


def test_spectral_idempotent_characterization():
    rng = random.Random(41)
    for _ in range(30):
        a = _random_mixed_matrix(rng)
        data = drazin(a)
        p = data.spectral_idempotent
        assert p * p == p
        assert p * a == a * p
        core_nil = a * p
        assert (core_nil**core_nil.rows).is_zero()
        inverse(a + p)  # must not raise


def test_drazin_commutes_with_commutant_samples():
    rng = random.Random(43)
    for _ in range(12):
        a = _random_mixed_matrix(rng)
        x = drazin(a).dinv
        for seed in range(10):
            s = random_commutant_element(a, seed)
            assert s * x == x * s


def test_group_inverse_exists_iff_index_at_most_one():
    rng = random.Random(47)
    for _ in range(30):
        a = _random_mixed_matrix(rng)
        k = index_of(a)
        if k <= 1:
            g = group_inverse(a)
            assert a * g * a == a
            assert g * a * g == g
            assert a * g == g * a
        else:
            with pytest.raises(NoGroupInverseError):
                group_inverse(a)


GAUSS_CELL = st.builds(GaussianRational, RATIONALS, RATIONALS | st.just(0))
# One entry set per field: every entry of a drawn matrix comes from one.
FIELD_CELLS = {
    "integer": st.integers(-3, 3),
    "rational": RATIONALS,
    "gaussian": st.builds(GaussianRational, RATIONALS, RATIONALS.filter(bool)),
}


@st.composite
def upper_triangular(draw, size, diagonal, cell=GAUSS_CELL):
    """Entries from `cell` above the diagonal, `diagonal` on it."""
    return Matrix.from_rows(
        [[draw(cell) if j > i else diagonal * (i == j) for j in range(size)]
         for i in range(size)]
    )


@st.composite
def unit_triangular_conjugator(draw, n, cell=GAUSS_CELL):
    """Unit lower times unit upper triangular: invertible by construction,
    with an inverse over the ring of `cell`'s entries."""
    return draw(upper_triangular(n, 1, cell)).T * draw(upper_triangular(n, 1, cell))


@st.composite
def drazin_inputs(draw, max_size=4, cell=None):
    """At most max_size x max_size over Q(i), or with every entry from
    `cell` when one is given. Two draws in three have an index >= 1:
    either a low-rank one, or P diag(C, N) P^-1 with N strictly upper
    triangular (index up to the size of N) and P unit lower times unit
    upper."""

    def block(rows, cols):
        if cell is None:
            return as_matrix(draw(grids(rows, cols)))
        return as_matrix([[draw(cell) for _ in range(cols)] for _ in range(rows)])

    triangle_cell = GAUSS_CELL if cell is None else cell
    n = draw(st.integers(1, max_size))
    style = draw(st.sampled_from(("dense", "low_rank", "nilpotent_part")))
    if style == "dense":
        return block(n, n)
    if style == "low_rank":
        r = draw(st.integers(0, n - 1))
        if r == 0:
            return Matrix.zeros(n, n)
        return block(n, r) * block(r, n)
    k = draw(st.integers(0, n - 1))
    nil = draw(upper_triangular(n - k, 0, triangle_cell))
    core = block_diag(block(k, k), nil) if k else nil
    p = draw(unit_triangular_conjugator(n, triangle_cell))
    return p * core * inverse(p)


@settings(max_examples=60, deadline=None)
@given(drazin_inputs())
def test_drazin_matches_oracle_property(a):
    data, oracle = drazin(a), oracle_drazin(a)
    assert data.index == oracle.index
    assert data.dinv == oracle.dinv


def test_drazin_reuses_the_index_power(monkeypatch):
    # the 4x4 shift has index 4: the rank sequence forms a^2..a^5, the
    # solve one (A^(2l+1) = a^l a^(l+1), both powers the sequence already
    # formed) plus one (a^l Y), a A^D one, the self-check three (one per
    # defining equation)
    shift = as_matrix([[int(j == i + 1) for j in range(4)] for i in range(4)])
    products = record_calls(monkeypatch, Matrix, "__mul__")
    data = drazin(shift)
    assert data.index == 4 and data.dinv.is_zero()
    assert len(products) == 10


@pytest.mark.parametrize(
    "x, message",
    [
        ([[1, 0], [1, 0]], "does not commute"),
        ([[1, 0], [0, 1]], "fails x a x = x"),
        ([[0, 0], [0, 0]], "fails a^(k+1) x = a^k"),
    ],
)
def test_self_check_rejects_a_candidate_breaking_one_equation(x, message):
    # a = diag(1, 0) has index 1 and A^D = a; each candidate breaks exactly
    # one of the three defining equations, and that check raises
    a = as_matrix([[1, 0], [0, 0]])
    x = as_matrix(x)
    ax = a * x
    broken = [ax != x * a, x * ax != x, a * ax != a]
    assert sum(broken) == 1
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        drazin_module._verify_drazin(a, x, ax, a)
    # the certificate rejects it too, whichever equation it breaks
    assert certify_drazin(a, x) is None


def test_oracle_factors_down_a_chain_of_falling_size(monkeypatch):
    a = as_matrix([[2, 1, 0], [0, 0, 1], [0, 0, 0]])  # index 2, rank(a^k) = 3, 2, 1
    powers = [a * a, a * a * a]
    expected = drazin(a).dinv
    products = []
    mul = Matrix.__mul__

    def recording_mul(x, y):
        products.append(mul(x, y))
        return products[-1]

    monkeypatch.setattr(Matrix, "__mul__", recording_mul)
    rrefs = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    forward = record_calls(monkeypatch, "drazinlab.matrices", "pivot_columns")
    inverses = record_calls(monkeypatch, "drazinlab.matrices", "inverse")
    data = oracle_drazin(a)
    assert data.index == 2 and data.dinv == expected
    # no power of a is formed or eliminated: a and the 2x2 m_1 = C B are
    # each tested forward and factored by one rref, and the 1x1 m_2 is
    # tested forward and is the only matrix inverted (rref of [m_2 | I])
    assert not any(m in powers for m in products + [m for (m,) in rrefs + forward])
    assert [m.rows for (m,) in forward] == [3, 2, 1]
    assert [m.rows for (m,) in rrefs] == [3, 2, 1]
    assert forward[0] == rrefs[0] == (a,)
    assert [m.rows for (m,) in inverses] == [1]


def test_oracle_reports_kernel_faults(monkeypatch):
    a = as_matrix([[2, 1, 0], [0, 0, 1], [0, 0, 0]])
    rref = drazin_module.rref

    def full_rank(m):
        reduced, _, _ = rref(m)
        return reduced, m.rows, tuple(range(m.rows))

    def singular(m):
        raise SingularMatrixError("injected")

    with monkeypatch.context() as patch:
        patch.setattr(drazin_module, "rref", full_rank)
        with pytest.raises(InternalInvariantError, match="rref and pivot_columns disagree"):
            oracle_drazin(a)
    # the index-0 shortcut and the chain's last step share the one inverse
    for m in (a, Matrix.identity(2)):
        with monkeypatch.context() as patch:
            patch.setattr(drazin_module, "inverse", singular)
            with pytest.raises(InternalInvariantError, match="chain ended at a singular core"):
                oracle_drazin(m)


def jordan_block(size, eigenvalue):
    return Matrix.from_rows(
        [[eigenvalue if i == j else int(j == i + 1) for j in range(size)] for i in range(size)]
    )


def partitions(m, largest=None):
    """Every partition of m, parts in non-increasing order."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - part, part):
            yield (part,) + rest


def diag(entries):
    return Matrix.from_rows([[x if i == j else 0 for j in range(len(entries))]
                             for i, x in enumerate(entries)])


def shear_conjugator(rng, n, weights):
    """(S, S^-1), S a product of 2n shears I + w E_ij (i != j), each w a
    (re, im) pair from `weights`; S^-1 undoes the shears in reverse."""
    def shear(i, j, re, im):
        return Matrix.from_rows(
            [[GaussianRational(re, im) if (r, c) == (i, j) else int(r == c) for c in range(n)]
             for r in range(n)]
        )

    s = s_inv = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        re, im = rng.choice(weights)
        s, s_inv = s * shear(i, j, re, im), shear(i, j, -re, -im) * s_inv
    return s, s_inv


@pytest.mark.parametrize("n", range(2, MAX_SIZE + 1))
def test_planted_index_on_both_routes(n):
    # a = S diag(J_k1(0), ..., J_kt(0), J_(n-m)(lam)) S^-1 has index
    # max(k) and A^D = S diag(0, J_(n-m)(lam)^-1) S^-1 by construction, an
    # answer neither route supplies. Every partition (k1, ..., kt) of every
    # nilpotent size m = 1..n with integer shears and lam = 2, then one
    # Gaussian-shear case per index k with lam = 1 + i, then one case per
    # index k with lam = 3 whose S is diag(1, 1/2, 3, 1/4, ...) times
    # integer shears, so that both routes meet a denominator at every index
    # (with lam = 2, S diag(0, 2) S^-1 is even and the 1/2 cancels at n = 2)
    rng = random.Random(n)
    integer, gaussian = [(w, 0) for w in (-2, -1, 1, 2)], [(1, 1), (0, -1), (2, 0)]
    ones = [1] * n
    scales = [Fraction(1, i + 1) if i % 2 else i + 1 for i in range(n)]
    cases = [(ks, 2, integer, ones) for m in range(1, n + 1) for ks in partitions(m)]
    cases += [((k,), GaussianRational(1, 1), gaussian, ones) for k in range(1, n + 1)]
    cases += [((k,), 3, integer, scales) for k in range(1, n + 1)]
    for ks, lam, weights, diagonal in cases:
        s, s_inv = shear_conjugator(rng, n, weights)
        s, s_inv = diag(diagonal) * s, s_inv * diag([1 / Fraction(x) for x in diagonal])
        m = sum(ks)
        blocks = [jordan_block(k, 0) for k in ks] + ([jordan_block(n - m, lam)] if m < n else [])
        a = s * block_diag(*blocks) * s_inv
        assert (a.den != 1) == (diagonal is scales), ks
        expected = Matrix.zeros(n, n)
        if m < n:
            expected = s * block_diag(Matrix.zeros(m, m), inverse(blocks[-1])) * s_inv
        data, oracle = drazin(a), oracle_drazin(a)
        assert data.index == oracle.index == max(ks), ks
        assert data.dinv == oracle.dinv == expected, ks
        # the third route checks the planted answer instead of finding it
        assert certify_drazin(a, expected) == data, ks


# -- the certificate -----------------------------------------------------------

@st.composite
def certificate_inputs(draw):
    """(a, e): a at most 5x5 with integer, rational or Gaussian entries,
    and a nonzero e of its size, dense or with one nonzero entry."""
    a = draw(drazin_inputs(5, FIELD_CELLS[draw(st.sampled_from(sorted(FIELD_CELLS)))]))
    n = a.rows
    if draw(st.booleans()):
        e = as_matrix(draw(grids(n, n)))
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        value = draw(GAUSS_CELL.filter(bool))
        e = as_matrix([[value if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])
    assume(not e.is_zero())
    return a, e


@settings(max_examples=80, deadline=None)
@given(certificate_inputs())
def test_certificate_accepts_the_drazin_inverse_alone_property(inputs):
    # A^D is unique, so it is the one candidate the certificate accepts,
    # and then with drazin's index and idempotent
    a, e = inputs
    data = drazin(a)
    assert certify_drazin(a, data.dinv) == data
    assert certify_drazin(a, data.dinv + e) is None


def test_zero_certifies_at_the_nilpotency_index():
    # J_m(0) has index m and Drazin inverse 0, with idempotent I
    for m in range(1, MAX_SIZE + 1):
        zero = Matrix.zeros(m, m)
        assert certify_drazin(jordan_block(m, 0), zero) == DrazinData(zero, m, Matrix.identity(m))
    # diag(1, 0) is not nilpotent: 0 satisfies the first two equations,
    # but diag(1, 0)^k (diag(1, 0) 0) = diag(1, 0)^k at no k
    assert certify_drazin(diag([1, 0]), Matrix.zeros(2, 2)) is None


# -- the commutant -------------------------------------------------------------

@st.composite
def commutant_inputs(draw, max_size=6):
    """n x n over Q(i), n <= max_size: dense, low rank, zero, scalar,
    nilpotent, P diag(Jordan blocks) P^-1 with a repeated eigenvalue,
    P C P^-1 for the companion matrix C of a polynomial with a repeated
    root (nonderogatory, but not diagonalizable), and matrices with e_1 or
    (1, ..., 1) as an eigenvector, so that it is not cyclic."""
    n = draw(st.integers(1, max_size))
    style = draw(st.sampled_from((
        "dense", "low_rank", "zero", "scalar", "nilpotent", "jordan",
        "companion", "e1_eigenvector", "ones_eigenvector",
    )))
    if style == "dense":
        return as_matrix(draw(grids(n, n)))
    if style == "low_rank":
        r = draw(st.integers(1, max(1, n - 1)))
        return as_matrix(draw(grids(n, r))) * as_matrix(draw(grids(r, n)))
    if style == "zero":
        return Matrix.zeros(n, n)
    if style == "scalar":
        return Matrix.identity(n).scale(draw(GAUSS_CELL))
    if style == "e1_eigenvector":
        rows = draw(grids(n, n))
        for i in range(1, n):
            rows[i][0] = ZERO
        return as_matrix(rows)
    if style == "ones_eigenvector":
        rows, eigenvalue = draw(grids(n, n)), draw(GAUSS_CELL)
        for row in rows:
            row[-1] = scalar_sub(eigenvalue, g_sum(row[:-1]))
        return as_matrix(rows)
    if style == "companion":
        roots = [draw(GAUSS_CELL)] * min(n, 2) + [draw(GAUSS_CELL) for _ in range(n - 2)]
        coeffs = [GaussianRational(1)]  # of the monic polynomial, lowest degree first
        for r in roots:
            shifted = [ZERO] + coeffs
            scaled = [scalar_mul(r, c) for c in coeffs] + [ZERO]
            coeffs = [scalar_sub(x, y) for x, y in zip(shifted, scaled)]
        rows = [[GaussianRational(int(i == j + 1)) for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][-1] = scalar_sub(ZERO, coeffs[i])
        p = draw(unit_triangular_conjugator(n))
        return p * as_matrix(rows) * inverse(p)
    # Jordan blocks of one repeated eigenvalue (zero for "nilpotent"),
    # then possibly a block of a second one
    eigenvalue = ZERO if style == "nilpotent" else draw(GAUSS_CELL)
    sizes, left = [], n
    while left:
        sizes.append(draw(st.integers(1, left)))
        left -= sizes[-1]
    blocks = [jordan_block(size, eigenvalue) for size in sizes]
    if style == "jordan" and len(blocks) > 2 and draw(st.booleans()):
        blocks[-1] = jordan_block(sizes[-1], scalar_add(eigenvalue, GaussianRational(1)))
    p = draw(unit_triangular_conjugator(n))
    return p * block_diag(*blocks) * inverse(p)


def powers_are_independent(a):
    """Whether I, a, ..., a^(n-1) are linearly independent, by the list oracle."""
    return g_rref([g_vec(p) for p in g_powers(a.to_rows(), a.rows - 1)])[1] == a.rows


def assert_canonical_commutant_basis(a, basis):
    """The shape of the canonical basis, checked with no elimination: every
    element commutes with a, its last nonzero entry (row-major) is a 1, those
    positions strictly increase, and every other element is 0 at them."""
    assert all(x * a == a * x for x in basis)
    entries = [g_vec(x.to_rows()) for x in basis]
    lasts = [max(t for t, e in enumerate(v) if e) for v in entries]
    assert all(v[t] == 1 for v, t in zip(entries, lasts))
    assert all(s < t for s, t in zip(lasts, lasts[1:]))
    assert all(not v[t] for u, t in enumerate(lasts) for w, v in enumerate(entries) if u != w)


@settings(max_examples=80, deadline=None)
@given(commutant_inputs())
def test_commutant_basis_matches_kronecker_reference(a):
    commutant_basis.cache_clear()
    basis = commutant_basis(a)
    assert basis == commutant_basis_reference(a)
    assert_canonical_commutant_basis(a, basis)
    # the commutant has dimension n exactly when a is nonderogatory
    assert (len(basis) == a.rows) == powers_are_independent(a)


def test_commutant_basis_examples():
    # e_1 not cyclic, a repeated eigenvalue, and the extreme dimensions
    cases = [
        as_matrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]),
        block_diag(J2, J2),
        as_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
        Matrix.zeros(4, 4),
        Matrix.identity(5).scale(GaussianRational(1, 2)),
        as_matrix([[5]]),
    ]
    for a in cases:
        assert commutant_basis(a) == commutant_basis_reference(a)
    assert len(commutant_basis(Matrix.zeros(4, 4))) == 16
    assert len(commutant_basis(block_diag(J2, J2))) == 8
    # size 8: a scalar matrix's commutant is every matrix, with the unit
    # matrices as its basis in row-major order
    units = tuple(
        as_matrix([[int((i, j) == (p, q)) for j in range(8)] for i in range(8)])
        for p in range(8)
        for q in range(8)
    )
    assert commutant_basis(Matrix.zeros(8, 8)) == units
    assert commutant_basis(Matrix.identity(8).scale(GaussianRational(Fraction(-3, 2), 2))) == units
    # two equal Jordan blocks J4(2): a 4 x 4 block of Toeplitz blocks
    rng = random.Random(8)
    upper = [
        as_matrix([[int(i == j) or rng.randint(-2, 2) * (j > i) for j in range(8)] for i in range(8)])
        for _ in range(2)
    ]
    p = upper[0].T * upper[1]
    a = p * block_diag(jordan_block(4, 2), jordan_block(4, 2)) * inverse(p)
    basis = commutant_basis(a)
    assert len(basis) == 16
    assert_canonical_commutant_basis(a, basis)
    with pytest.raises(ShapeError):
        in_double_commutant(J2, Matrix.identity(3))


def random_commutant_element_reference(a, seed):
    """The sampler as a Matrix-level sum: one scaled basis element at a time."""
    rng = random.Random(seed)
    out = Matrix.zeros(a.rows, a.cols)
    for b in commutant_basis(a):
        coeff = rng.randint(-3, 3)
        if coeff:
            out = out + b.scale(coeff)
    return out


@settings(max_examples=40, deadline=None)
@given(commutant_inputs(), st.integers(0, 2**32))
def test_sampler_matches_matrix_level_combination(a, seed):
    s = random_commutant_element(a, seed)
    assert s == random_commutant_element_reference(a, seed)
    assert s * a == a * s


def test_sampler_forms_no_matrix_products(monkeypatch):
    # the sample is read off the cached columns and its check compares raw
    # product grids, so a warm basis costs no Matrix product at all
    a = rand_gauss_matrix(random.Random(3), 4)
    assert len(commutant_basis(a)) < 16  # not scalar
    products = record_calls(monkeypatch, Matrix, "__mul__")
    samples = [random_commutant_element(a, seed) for seed in range(10)]
    assert products == []
    assert all(s * a == a * s and not (s.is_zero() or s.is_identity()) for s in samples)


def test_sampler_weights_are_memoized_per_seed_and_dimension():
    # seeds interleaved over commutants of dimension 2, 4, 8 and 9, cold
    # then warm: every sample equals the one drawn from a fresh Random
    weights = drazin_module._sample_weights
    weights.cache_clear()
    matrices = [J2, Matrix.zeros(2, 2), block_diag(J2, J2), Matrix.zeros(3, 3)]
    assert [len(commutant_basis(a)) for a in matrices] == [2, 4, 8, 9]
    for _ in range(2):
        for seed in range(10):
            for a in matrices:
                assert random_commutant_element(a, seed) == random_commutant_element_reference(a, seed)
    info = weights.cache_info()
    assert (info.misses, info.hits) == (40, 40)


def test_sampler_weights_cover_a_commutant_larger_than_max_size_squared():
    a = Matrix.zeros(9, 9)
    assert len(commutant_basis(a)) == 81
    assert random_commutant_element(a, 3) == random_commutant_element_reference(a, 3)


def test_sampler_weights_memo_is_immutable_and_bounded():
    weights, rng = drazin_module._sample_weights, random.Random(5)
    assert weights(5, 6) == tuple(rng.randint(-3, 3) for _ in range(6))
    assert isinstance(weights(5, 6), tuple)
    assert isinstance(weights.cache_info().maxsize, int)


@pytest.mark.parametrize("seed", [None, "7", b"7", bytearray(b"7"), 2.5])
def test_sampler_requires_an_int_seed(seed):
    with pytest.raises(TypeError, match="must be an int"):
        random_commutant_element(J2, seed)


GAUSS_J2 = as_matrix([[GaussianRational(0, 1), 1], [0, GaussianRational(0, 1)]])


@pytest.mark.parametrize("a", [J2, GAUSS_J2], ids=["real", "gaussian"])
def test_sampler_check_rejects_a_non_commuting_sample(monkeypatch, a):
    # diagonal elements do not commute with a Jordan block; seed 1 draws
    # -2, 1, so the sample diag(-2, 1) is neither zero nor the identity
    rng = random.Random(1)
    assert rng.randint(-3, 3) != rng.randint(-3, 3)
    diagonal = commutant_basis(as_matrix([[1, 0], [0, 2]]))
    monkeypatch.setattr(drazin_module, "commutant_basis", lambda _: diagonal)
    with pytest.raises(InternalInvariantError, match="fails to commute"):
        random_commutant_element(a, 1)


def commutes_with_commutant(a, y):
    """Double-commutant membership tested against the whole commutant basis."""
    return all(s * y == y * s for s in commutant_basis_reference(a))


@st.composite
def double_commutant_candidates(draw):
    """(a, y): y a polynomial in a, a commutant sample, or any matrix."""
    a = draw(commutant_inputs(max_size=5))
    n = a.rows
    kind = draw(st.sampled_from(("polynomial", "commutant", "any")))
    if kind == "polynomial":
        y = Matrix.zeros(n, n)
        for k in range(n):
            y = y + (a**k).scale(draw(GAUSS_CELL))
    elif kind == "commutant":
        y = random_commutant_element(a, draw(st.integers(0, 1000)))
    else:
        y = as_matrix(draw(grids(n, n)))
    return a, y


@settings(max_examples=80, deadline=None)
@given(double_commutant_candidates())
def test_polynomial_membership_matches_basis_test(case):
    a, y = case
    assert in_double_commutant(a, y) == commutes_with_commutant(a, y)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), GAUSS_CELL, st.data())
def test_non_polynomial_commutant_elements_are_rejected(size, eigenvalue, data):
    # two Jordan blocks of one eigenvalue: derogatory, so the commutant is
    # larger than the polynomials in beta
    blocks = block_diag(jordan_block(size - 1, eigenvalue), jordan_block(1, eigenvalue))
    p = data.draw(unit_triangular_conjugator(size))
    beta = p * blocks * inverse(p)
    rejected = 0
    for seed in range(10):
        y = random_commutant_element(beta, seed)
        assert y * beta == beta * y
        if not commutes_with_commutant(beta, y):
            assert not in_double_commutant(beta, y)
            rejected += 1
        else:
            assert in_double_commutant(beta, y)
    assert rejected > 0


def test_nonderogatory_commutant_is_read_off_the_powers(monkeypatch):
    a = rand_gauss_matrix(random.Random(6), 6)
    assert powers_are_independent(a)
    commutant_basis.cache_clear()
    rrefs = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    products = record_calls(monkeypatch, Matrix, "__mul__")
    basis = commutant_basis(a)
    assert len(rrefs) == 1
    assert len(products) == 4  # A^2, ..., A^5
    assert basis == commutant_basis_reference(a)


def test_derogatory_commutant_solves_the_sylvester_system(monkeypatch):
    a = block_diag(J2, J2)
    commutant_basis.cache_clear()
    rrefs = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    basis = commutant_basis(a)
    # the powers, then the n^2 x n^2 system X a - a X = 0
    assert [m.rows for (m,) in rrefs] == [4, 16]
    assert basis == commutant_basis_reference(a)


@settings(max_examples=60, deadline=None)
@given(commutant_inputs(max_size=5))
def test_drazin_matches_the_bezout_route(a):
    assert drazin(a).dinv == bezout_drazin_reference(a)
