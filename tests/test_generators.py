import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drazinlab import (
    GenerationExhaustedError,
    InternalInvariantError,
    Matrix,
    check_conditions,
    check_strong_conditions,
    drazin,
    index_of,
    inverse,
    rank,
)
from drazinlab.generators import (
    FAMILIES,
    MAX_SIZE,
    GeneratorSpec,
    _draws,
    _rand_unimodular,
    _solve_strong_for_c,
    counterexample_instance,
    gen_family,
)
from drazinlab import generators, jsonio
from util import (
    as_matrix,
    grids,
    rand_int_matrix,
    record_calls,
    strong_c_reference,
    strong_reference,
    triple_lift_reference,
    unimodular_reference,
)


def test_counterexample_instance_is_the_fixed_one():
    q = counterexample_instance()
    assert q.a == as_matrix([[1, 1], [1, 0]])
    assert q.b == as_matrix([[1, -1], [0, 0]])
    assert q.c.is_zero()
    assert q.d == q.a


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "counterexample"])
@pytest.mark.parametrize("size", [2, 3, 5])
def test_every_emitted_quadruple_satisfies_conditions(family, size):
    spec = GeneratorSpec(family, size, seed=21, count=6)
    quads = gen_family(spec)
    assert len(quads) == 6
    for q in quads:
        assert q.size == size
        assert check_conditions(q).all_hold


def test_size_one_families():
    for family in ("classic", "strong", "triple_lift"):
        for q in gen_family(GeneratorSpec(family, 1, seed=2, count=4)):
            assert check_conditions(q).all_hold


def test_seed_determinism_byte_for_byte():
    spec = GeneratorSpec("block_diagonal_mix", 5, seed=99, count=4)
    first = jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), gen_family(spec)))
    second = jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), gen_family(spec)))
    assert first == second
    other_seed = GeneratorSpec("block_diagonal_mix", 5, seed=100, count=4)
    assert first != jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), gen_family(other_seed)))


def test_zero_padded_forces_high_index():
    for size in (2, 3, 4, 6):
        quads = gen_family(GeneratorSpec("zero_padded_nilpotent", size, seed=31, count=3))
        for q in quads:
            eye = Matrix.identity(size)
            assert index_of(eye - q.b * q.d) >= 2
            assert not drazin(eye - q.b * q.d).spectral_idempotent.is_zero()


def test_corpus_covers_both_branches_per_size():
    for size in range(2, 7):
        live = trivial = False
        quads = gen_family(GeneratorSpec("classic", size, seed=1, count=8)) + gen_family(
            GeneratorSpec("zero_padded_nilpotent", size, seed=1, count=3)
        )
        eye = Matrix.identity(size)
        for q in quads:
            if drazin(eye - q.b * q.d).spectral_idempotent.is_zero():
                trivial = True
            else:
                live = True
        assert live and trivial, f"size {size} missing a branch"


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("no_such_family", 2)
    with pytest.raises(ValueError):
        GeneratorSpec("classic", 0)
    with pytest.raises(ValueError):
        GeneratorSpec("classic", 9)
    with pytest.raises(ValueError):
        GeneratorSpec("classic", 2, count=0)
    with pytest.raises(ValueError):
        GeneratorSpec("counterexample", 3)
    with pytest.raises(ValueError):
        GeneratorSpec("zero_padded_nilpotent", 1)
    with pytest.raises(ValueError):
        GeneratorSpec("block_diagonal_mix", 1)


def test_generation_exhaustion_is_reported(monkeypatch):
    monkeypatch.setattr(generators, "MAX_ATTEMPTS", 0)
    with pytest.raises(GenerationExhaustedError, match="in 0 attempts"):
        gen_family(GeneratorSpec("strong", 3, seed=1, count=1))


def test_strong_family_mixes_singular_and_invertible_alpha():
    quads = gen_family(GeneratorSpec("strong", 4, seed=77, count=20))
    indices = {index_of(Matrix.identity(4) - q.b * q.d) for q in quads}
    assert 0 in indices  # generic upper-triangular draws are invertible
    assert len(indices) > 1  # and rank-deficient diagonals do occur


SMALL_INTS = st.integers(-2, 2)


@st.composite
def strong_operands(draw, n):
    """An n x n operand: dense integer, low rank, zero or over Q(i)."""
    style = draw(st.sampled_from(("dense", "low_rank", "zero", "gauss")))
    if style == "zero":
        return Matrix.zeros(n, n)
    if style == "gauss":
        return as_matrix(draw(grids(n, n)))
    dense = Matrix(n, n, draw(st.lists(SMALL_INTS, min_size=n * n, max_size=n * n)))
    if style == "dense":
        return dense
    r = draw(st.integers(1, n))
    left = Matrix(n, r, draw(st.lists(SMALL_INTS, min_size=n * r, max_size=n * r)))
    return left * dense.take_rows(range(r))


def test_factored_strong_solve_matches_kronecker_solve():
    """The factored solve finds a c exactly when one `solve` on the
    Kronecker system finds a solution, and then c is that solution and
    holds the strong premise; both outcomes occur among the draws, and so
    do rank [d | a] = n (R = I) and rank [d | a] < n (R != I)."""
    outcomes, deficient = set(), set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        a, b, d = (data.draw(strong_operands(n)) for _ in range(3))
        c = _solve_strong_for_c(a, b, d)
        reference = strong_c_reference(a, b, d)
        assert (c is not None) == (reference is not None)
        if reference is not None:
            assert c == reference
            assert check_strong_conditions(a, b, c, d).all_hold
        outcomes.add(reference is None)
        deficient.add(rank(d.hstack(a)) < n)

    check()
    assert outcomes == {True, False}
    assert deficient == {True, False}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("strong", "triple_lift")),
    st.integers(1, MAX_SIZE),
    st.integers(0, 2**32),
    st.integers(1, 3),
)
def test_strong_and_triple_lift_match_their_references_property(family, size, seed, count):
    """Both families give, draw for draw, the quadruples of their reference
    constructions: the literal a c N = d b N acceptance, and one rank-one
    term per null-space vector."""
    reference = {"strong": strong_reference, "triple_lift": triple_lift_reference}[family]
    rng = random.Random(seed)
    expected = [reference(size, rng) for _ in range(count)]
    assert gen_family(GeneratorSpec(family, size, seed=seed, count=count)) == expected


@pytest.mark.parametrize("n", [1, 3, 5])
def test_strong_solve_eliminates_n_by_2n_and_2n_by_n(monkeypatch, n):
    rng = random.Random(n)
    a, b, d = (rand_int_matrix(rng, n) for _ in range(3))
    calls = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    _solve_strong_for_c(a, b, d)
    assert sorted((m.rows, m.cols) for (m,) in calls) == sorted([(n, 2 * n), (2 * n, n)])


def test_strong_premise_is_checked_only_on_solved_draws(monkeypatch):
    """A draw whose system has no c is rejected before any premise product;
    the first c that `solve` finds is checked and kept."""
    solve = generators._solve_strong_for_c
    solved = []

    def solving(a, b, d):
        solved.append(solve(a, b, d))
        return solved[-1]

    monkeypatch.setattr(generators, "_solve_strong_for_c", solving)
    checked = record_calls(monkeypatch, generators, "check_strong_conditions")
    quads = gen_family(GeneratorSpec("strong", 3, seed=0, count=5))
    assert None in solved
    found = [c for c in solved if c is not None]
    assert [c for _, _, c, _ in checked] == found == [q.c for q in quads]


def test_solved_c_failing_the_premise_is_a_generator_bug(monkeypatch):
    q = counterexample_instance()
    failing = check_strong_conditions(q.a, q.b, q.c, q.d)
    assert not failing.all_hold
    monkeypatch.setattr(generators, "check_strong_conditions", lambda *args: failing)
    with pytest.raises(InternalInvariantError, match="fails the strong premise"):
        gen_family(GeneratorSpec("strong", 3, seed=0, count=1))


def test_strong_solve_checks_r(monkeypatch):
    """A wrong R, here 2R, fails the {1}-inverse identity N^T R = N^T."""
    place = generators._place_rows
    monkeypatch.setattr(generators, "_place_rows", lambda *args: place(*args).scale(2))
    a = Matrix.from_rows([[1, 2], [0, 1]])
    with pytest.raises(InternalInvariantError, match="N\\^T R"):
        _solve_strong_for_c(a, a, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(-5, 5), st.integers(1, 40), st.integers(0, 60))
@example(seed=0, lo=0, width=1, count=5)  # getrandbits(1) per draw, always 0 kept
@example(seed=3, lo=-2, width=4, count=40)  # a power of two: k = 3, not 2
@example(seed=3, lo=-3, width=7, count=40)  # the generators' widths
@example(seed=3, lo=-2, width=5, count=40)
def test_draws_replay_randint_property(seed, lo, width, count):
    """`_draws` gives `randint`'s values and leaves the stream where
    `randint` leaves it."""
    hi = lo + width - 1
    rng, reference = random.Random(seed), random.Random(seed)
    assert _draws(rng, lo, hi, count) == [reference.randint(lo, hi) for _ in range(count)]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", range(2, MAX_SIZE + 1))
def test_unimodular_matches_the_product_of_shear_matrices(n):
    """u is the product of the drawn shear matrices, u^-1 its inverse, and
    both consume the stream alike."""
    for seed in range(40):
        rng, reference = random.Random(seed), random.Random(seed)
        u, u_inv = _rand_unimodular(n, rng)
        assert u == unimodular_reference(n, reference)
        assert rng.getstate() == reference.getstate()
        assert (u * u_inv).is_identity() and (u_inv * u).is_identity()
        assert u_inv == inverse(u)


def test_unimodular_checks_its_inverse(monkeypatch):
    """A wrong start for both products, here 2I, fails u u^-1 = I."""
    monkeypatch.setattr(generators, "_geye", lambda n: ((2, 0), (0, 2)))
    with pytest.raises(InternalInvariantError, match="u u\\^-1 = I"):
        _rand_unimodular(2, random.Random(0))
