import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import (
    GaussianRational,
    Matrix,
    block_diag,
    NoGroupInverseError,
    ShapeError,
    drazin,
    group_inverse,
    index_of,
    inverse,
    is_nilpotent,
    nilpotency_index,
    oracle_drazin,
    rank,
    random_commutant_element,
)
from util import (
    RATIONALS,
    as_matrix,
    assert_matrix_equals,
    grids,
    rand_gauss_matrix,
    rand_int_matrix,
    rand_rank_matrix,
)

J2 = as_matrix([[0, 1], [0, 0]])


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
    assert is_nilpotent(Matrix.zeros(2, 2))
    assert is_nilpotent(J2)
    assert not is_nilpotent(Matrix.identity(2))
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
        assert s.entry(0, 1).is_zero() and s.entry(1, 0).is_zero()
        assert s * a == a * s


def test_commutant_of_jordan_block_shape():
    # solving the 4x4 system by hand gives matrices [[s, t], [0, s]]
    for seed in range(8):
        s = random_commutant_element(J2, seed)
        assert s.entry(1, 0).is_zero()
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
        assert is_nilpotent(a * p)
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


@st.composite
def drazin_inputs(draw):
    """At most 4x4 over Q(i). Two draws in three have an index >= 1: either
    a low-rank one, or P diag(C, N) P^-1 with N strictly upper triangular
    (index up to the size of N) and P unit lower times unit upper."""
    n = draw(st.integers(1, 4))
    style = draw(st.sampled_from(("dense", "low_rank", "nilpotent_part")))
    if style == "dense":
        return as_matrix(draw(grids(n, n)))
    cell = st.builds(GaussianRational, RATIONALS, RATIONALS | st.just(0))
    if style == "low_rank":
        r = draw(st.integers(0, n - 1))
        if r == 0:
            return Matrix.zeros(n, n)
        return as_matrix(draw(grids(n, r))) * as_matrix(draw(grids(r, n)))
    def upper(size, diagonal):
        return Matrix.from_rows(
            [[draw(cell) if j > i else diagonal * (i == j) for j in range(size)]
             for i in range(size)]
        )

    k = draw(st.integers(0, n - 1))
    nil = upper(n - k, 0)
    core = block_diag(as_matrix(draw(grids(k, k))), nil) if k else nil
    p = upper(n, 1).T * upper(n, 1)
    return p * core * inverse(p)


@settings(max_examples=60, deadline=None)
@given(drazin_inputs())
def test_drazin_matches_oracle_property(a):
    data, oracle = drazin(a), oracle_drazin(a)
    assert data.index == oracle.index
    assert data.dinv == oracle.dinv
