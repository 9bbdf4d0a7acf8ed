"""Acceptance battery.

Each test prints one PASS line when its criterion holds; every comparison
is exact structural equality (no tolerances anywhere). The shared corpus
covers the five generated families over sizes 2..6. Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

import pytest

from drazinlab import (
    IdentityFalsifiedError,
    Matrix,
    NoGroupInverseError,
    check_conditions,
    check_strong_conditions,
    check_triple_conditions,
    drazin,
    group_inverse,
    inverse,
    jacobson_drazin,
    jacobson_inverse,
    nilpotency_index,
    oracle_drazin,
    power_instance,
    random_commutant_element,
    rank,
    transfer_drazin,
    transfer_gdrazin,
    transfer_group,
)
from drazinlab.generators import GeneratorSpec, counterexample_instance, gen_family
from util import as_matrix, rand_gauss_matrix, rand_int_matrix, rand_rank_matrix

FAMILY_COUNTS = {
    "classic": 60,
    "strong": 40,
    "triple_lift": 50,
    "zero_padded_nilpotent": 30,
    "block_diagonal_mix": 30,
}
SIZES = (2, 3, 4, 5, 6)


def _pass(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    """>= 1000 condition-satisfying quadruples over families i-v, sizes 2-6."""
    t0 = time.perf_counter()
    quads = []
    for size in SIZES:
        for family, count in FAMILY_COUNTS.items():
            spec = GeneratorSpec(family, size, seed=1000 * size + len(family), count=count)
            quads.extend(gen_family(spec))
    elapsed = time.perf_counter() - t0
    assert len(quads) >= 1000
    return quads, elapsed


@pytest.fixture(scope="module")
def outcomes(corpus):
    quads, gen_elapsed = corpus
    t0 = time.perf_counter()
    results = [transfer_drazin(q) for q in quads]
    return quads, results, gen_elapsed + (time.perf_counter() - t0)


def test_criterion_1_reference_instance_reproduction():
    t0 = time.perf_counter()
    q = counterexample_instance()
    a, b, c = q.a, q.b, q.c

    assert check_triple_conditions(a, b, c).all_hold
    aba = a * b * a
    assert aba == as_matrix([[0, 1], [0, 1]])
    assert not aba.is_zero()
    assert (a * c * a).is_zero()
    assert not check_strong_conditions(a, b, c, q.d).all_hold

    out = transfer_group(q)
    assert out.agrees
    assert out.beta_drazin.dinv == Matrix.identity(2)

    # companion value: 1 - ba is invertible, so its group inverse is its
    # ordinary inverse. A sometimes-quoted value for it is 1 - ba itself,
    # which fails the defining equations; the computed value corrects it.
    one_minus_ba = Matrix.identity(2) - b * a
    companion = group_inverse(one_minus_ba)
    assert companion == inverse(one_minus_ba)
    assert companion == as_matrix([[1, 1], [0, 1]])
    quoted = as_matrix([[1, -1], [0, 1]])
    assert quoted == one_minus_ba
    assert companion != quoted
    assert one_minus_ba * quoted * one_minus_ba != one_minus_ba  # quoted value is not a group inverse

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(
        1,
        "reference instance reproduced: (1-ac)^# = I2; companion (1-ba)^# computed as "
        "[[1,1],[0,1]], which corrects the quoted [[1,-1],[0,1]] (= 1-ba itself, "
        f"not a group inverse); {elapsed:.2f}s",
    )


def test_criterion_2_transfer_agreement(outcomes):
    quads, results, elapsed = outcomes
    assert len(results) >= 1000
    for q, out in zip(quads, results):
        assert out.agrees, f"transfer disagreement on a size-{q.size} instance"
        assert out.beta_drazin.dinv == out.direct.dinv
    live = sum(1 for out in results if out.alpha_index > 0)
    assert live >= 100
    # a sample through the g-Drazin entry point as well
    for q in quads[:25]:
        assert transfer_gdrazin(q).agrees
    assert elapsed < 120.0
    _pass(
        2,
        f"{len(results)} quadruples: formula = direct Drazin inverse entrywise exactly; "
        f"{live} instances exercised the alpha^pi != 0 branch; {elapsed:.1f}s total",
    )


def test_criterion_3_index_bound(outcomes):
    _, results, _ = outcomes
    pair_counts = {}
    for out in results:
        pair = (out.alpha_index, out.beta_index)
        pair_counts[pair] = pair_counts.get(pair, 0) + 1
        assert abs(out.alpha_index - out.beta_index) <= 1
    forward = all(b <= a + 1 for a, b in pair_counts)   # i(beta) <= i(alpha)+1
    backward = all(a <= b + 1 for a, b in pair_counts)  # i(alpha) <= i(beta)+1
    assert forward and backward
    table = "  ".join(f"{p}:{c}" for p, c in sorted(pair_counts.items()))
    equal_only = all(a == b for a, b in pair_counts)
    note = (
        "indices were equal on every instance (over matrices the +1 slack never tightens)"
        if equal_only
        else "index gaps of 1 observed"
    )
    _pass(
        3,
        f"|i(1-bd) - i(1-ac)| <= 1 on 100% of the corpus; the data supports BOTH printed "
        f"directions; {note}; pair counts: {table}",
    )


def test_criterion_4_group_transfer(outcomes):
    quads, results, _ = outcomes
    low, high = [], []
    for q, out in zip(quads, results):
        (low if out.alpha_index <= 1 else high).append((q, out))
    assert low and high, "corpus must exercise both group-transfer regimes"

    for q, out in low:
        assert out.beta_index <= 1
        assert out.agrees
        beta, y = out.beta, out.beta_drazin.dinv
        assert beta * y * beta == beta  # the group axiom on top of the Drazin ones
    # end-to-end group API on a sample, compared against group_inverse directly
    for q, out in low[:40]:
        gout = transfer_group(q)
        assert gout.agrees
        assert gout.beta_drazin.dinv == group_inverse(gout.beta)

    for q, out in high:
        with pytest.raises(NoGroupInverseError):
            transfer_group(q)
    _pass(
        4,
        f"group transfer exact on all {len(low)} instances with i(1-bd) <= 1 "
        f"(i(1-ac) <= 1 held on each); refused correctly on all {len(high)} "
        "instances with i(1-bd) >= 2",
    )


def test_criterion_5_power_theorem(corpus):
    quads, _ = corpus
    small = [q for q in quads if q.size <= 3][:110]
    assert len(small) >= 100
    for q in small:
        eye = Matrix.identity(q.size)
        beta_base = eye - q.a * q.c
        alpha_base = eye - q.b * q.d
        verbatim = power_instance(q, 1)
        assert verbatim == q
        for n in range(1, 6):
            derived = power_instance(q, n)
            assert eye - derived.a * derived.c == beta_base**n
            assert eye - derived.b * derived.d == alpha_base**n
            assert check_conditions(derived).all_hold
    _pass(
        5,
        f"power construction exact for n in 1..5 on {len(small)} quadruples "
        "(identities, conditions, and n=1 verbatim return)",
    )


def test_criterion_6_drazin_kernel_soundness():
    rng = random.Random(2024)
    checked = 0
    for trial in range(500):
        n = trial % 6 + 1
        style = rng.random()
        if style < 0.45:
            a = rand_rank_matrix(rng, n, rng.randint(0, n))
        elif style < 0.9:
            a = rand_int_matrix(rng, n)
        else:
            a = rand_gauss_matrix(rng, n)

        data = drazin(a)
        other = oracle_drazin(a)
        assert data.dinv == other.dinv
        assert data.index == other.index

        x, k = data.dinv, data.index
        assert x * a == a * x
        assert x * a * x == x
        assert a ** (k + 1) * x == a**k

        core_nil = a - a * a * x
        if k == 0:
            assert core_nil.is_zero()
        else:
            assert nilpotency_index(core_nil) == k

        for seed in range(10):
            s = random_commutant_element(a, seed)
            assert s * x == x * s
        checked += 1
    assert checked == 500
    _pass(
        6,
        "drazin = oracle_drazin entrywise on 500 mixed-rank matrices (sizes 1-6, "
        "rational and complex entries); all Drazin equations, core-nilpotency, and "
        "10 commutant samples per matrix held with zero violations",
    )


def test_criterion_7_classic_lemmas():
    rng = random.Random(77)
    eye3 = Matrix.identity(3)

    done = 0
    while done < 200:
        a, b = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
        if rank(eye3 - a * b) < 3:
            continue
        result = jacobson_inverse(a, b)
        assert (eye3 - b * a) * result == eye3
        assert result == inverse(eye3 - b * a)
        done += 1

    done = 0
    skipped_singular = 0
    while done < 200:
        n = rng.randint(2, 4)
        eye = Matrix.identity(n)
        a, b = rand_int_matrix(rng, n), rand_int_matrix(rng, n)
        if rank(eye - a * b) < n:
            skipped_singular += 1
            continue
        assert jacobson_drazin(a, b) == drazin(eye - b * a).dinv
        done += 1

    # degenerate point ab = 1: the simple Drazin transfer is falsified, with
    # (1-ba)^D = 0 against a formula value of 1. Documented, not absorbed.
    with pytest.raises(IdentityFalsifiedError) as exc_info:
        jacobson_drazin(Matrix.identity(2), Matrix.identity(2))
    assert exc_info.value.lhs.is_zero()
    assert exc_info.value.rhs.is_identity()

    _pass(
        7,
        "classic inverse lemma exact on 200 invertible pairs; Drazin-form lemma exact "
        f"on 200 pairs with 1-ab invertible ({skipped_singular} singular draws resampled); "
        "degenerate ab = 1 case documented: direct value 0 vs formula value 1, "
        "raised as IdentityFalsifiedError",
    )
