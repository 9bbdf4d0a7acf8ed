import random
import re
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drazinlab import (
    ConditionReport,
    ConditionsViolatedError,
    GaussianRational,
    IdentityFalsifiedError,
    InternalInvariantError,
    Matrix,
    NoGroupInverseError,
    Quadruple,
    ShapeError,
    SingularMatrixError,
    check_conditions,
    check_strong_conditions,
    check_triple_conditions,
    drazin,
    inverse,
    jacobson_drazin,
    jacobson_inverse,
    oracle_drazin,
    power_instance,
    rank,
    transfer_drazin,
    transfer_gdrazin,
    transfer_group,
)
import drazinlab.transfer as transfer_module
from drazinlab.transfer import transfer_value
from drazinlab.generators import FAMILIES, GeneratorSpec, counterexample_instance, gen_family
from util import (
    as_matrix,
    conditions_reference,
    grids,
    imat_mul,
    imat_sub,
    power_reference,
    rand_int_matrix,
    record_calls,
)

# a fixed dense quadruple that satisfies none of the identities
GENERIC = Quadruple(
    as_matrix([[1, 2], [0, 1]]),
    as_matrix([[1, 1], [2, 0]]),
    as_matrix([[0, 1], [1, 1]]),
    as_matrix([[2, 1], [1, 1]]),
)


def test_zero_quadruple_conditions_hold():
    z = Matrix.zeros(2, 2)
    assert check_conditions(Quadruple(z, z, z, z)).all_hold


def test_conditions_of_a_zero_defect_multiply_only_ac_and_db(monkeypatch):
    # classic quadruples have c = b and d = a, so db is ac, e = ac - db is
    # zero and the six products of e in the residuals need no multiplication
    quads = [
        Quadruple(q.a, q.b, q.c, q.d)  # a fresh quadruple: ac not memoized
        for size in range(2, 6)
        for q in gen_family(GeneratorSpec("classic", size=size, seed=size, count=5))
        if not any(m.is_zero() or m.is_identity() for m in (q.a, q.b))
    ]
    assert len(quads) >= 10
    multiplied = record_calls(monkeypatch, "drazinlab.matrices", "_gmul")
    for q in quads:
        multiplied.clear()
        assert check_conditions(q).all_hold
        assert multiplied == [(q.a.re, q.c.re)]


def test_counterexample_conditions_hold():
    report = check_conditions(counterexample_instance())
    assert report.all_hold
    assert report.holds == (True, True, True, True)


def test_generic_quadruple_fails_with_frozen_residual():
    report = check_conditions(GENERIC)
    assert not report.all_hold
    # independent int-arithmetic oracle for residuals[0] = (ac)^2 - (db)(ac)
    a, b = [[1, 2], [0, 1]], [[1, 1], [2, 0]]
    c, d = [[0, 1], [1, 1]], [[2, 1], [1, 1]]
    ac, db = imat_mul(a, c), imat_mul(d, b)
    expected = imat_sub(imat_mul(ac, ac), imat_mul(db, ac))
    assert report.residuals[0] == as_matrix(expected)
    assert report.holds[0] is False


def test_condition_report_tests_its_residuals_once(monkeypatch):
    residuals = (Matrix.zeros(2, 2), *check_conditions(GENERIC).residuals[1:])
    tested = record_calls(monkeypatch, Matrix, "is_zero")
    report = ConditionReport(("w", "x", "y", "z"), residuals)
    for _ in range(3):
        assert report.holds == (True, False, False, False) and not report.all_hold
    assert len(tested) == 4
    # holds and all_hold follow from the residuals: not compared, not shown
    assert report == ConditionReport(("w", "x", "y", "z"), residuals)
    assert repr(report) == f"ConditionReport(labels=('w', 'x', 'y', 'z'), residuals={residuals!r})"


def test_condition_symmetry_under_reversal():
    rng = random.Random(3)
    for q in gen_family(GeneratorSpec("strong", 3, seed=9, count=5)):
        swapped = Quadruple(q.d, q.c, q.b, q.a)
        assert check_conditions(swapped).all_hold
    for _ in range(5):
        q = Quadruple(*(rand_int_matrix(rng, 3) for _ in range(4)))
        swapped = Quadruple(q.d, q.c, q.b, q.a)
        assert check_conditions(q).all_hold == check_conditions(swapped).all_hold


def test_strong_premise_trivial_cases():
    a = as_matrix([[1, 2], [3, 4]])
    b = as_matrix([[0, 1], [1, 1]])
    assert check_strong_conditions(a, b, b, a).all_hold  # c=b, d=a: aba = aba
    assert check_strong_conditions(a, a, a, a).all_hold


def test_strong_premise_fails_on_counterexample():
    q = counterexample_instance()
    report = check_strong_conditions(q.a, q.b, q.c, q.d)
    assert not report.all_hold
    # dba = aba is nonzero while aca = 0
    aba = q.a * q.b * q.a
    assert aba == as_matrix([[0, 1], [0, 1]])
    assert (q.a * q.c * q.a).is_zero()


def test_strong_premise_implies_conditions():
    for q in gen_family(GeneratorSpec("strong", 3, seed=4, count=8)):
        premise = check_strong_conditions(q.a, q.b, q.c, q.d)
        assert premise.all_hold
        assert check_conditions(q).all_hold


def test_triple_conditions():
    q = counterexample_instance()
    assert check_triple_conditions(q.a, q.b, q.c).all_hold
    b = as_matrix([[1, 2], [3, 4]])
    assert check_triple_conditions(as_matrix([[0, 1], [1, 1]]), b, b).all_hold
    generic = check_triple_conditions(GENERIC.a, GENERIC.b, GENERIC.c)
    assert not generic.all_hold


def test_triple_premise_implies_conditions_with_d_equal_a():
    for q in gen_family(GeneratorSpec("triple_lift", 4, seed=6, count=8)):
        assert q.d == q.a
        assert check_triple_conditions(q.a, q.b, q.c).all_hold
        assert check_conditions(q).all_hold


# -- classic pair lemmas ------------------------------------------------------


def test_jacobson_inverse_zero_a():
    b = as_matrix([[1, 2], [3, 4]])
    assert jacobson_inverse(Matrix.zeros(2, 2), b).is_identity()


def test_jacobson_inverse_hand_value():
    a = as_matrix([[0, 1], [0, 0]])
    b = as_matrix([[0, 0], [2, 0]])
    result = jacobson_inverse(a, b)
    assert result == as_matrix([[1, 0], [0, -1]])
    assert result == inverse(Matrix.identity(2) - b * a)


def test_jacobson_inverse_singular_pair():
    eye = Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        jacobson_inverse(eye, eye)
    # both sides are singular together
    assert rank(eye - eye * eye) < 2


def test_jacobson_inverse_random_invertible_pairs():
    rng = random.Random(15)
    eye = Matrix.identity(3)
    done = 0
    while done < 30:
        a, b = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
        if rank(eye - a * b) < 3:
            continue
        result = jacobson_inverse(a, b)
        assert (eye - b * a) * result == eye
        done += 1


def test_jacobson_inverse_eliminates_alpha_once(monkeypatch):
    reduced = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    forward = record_calls(monkeypatch, "drazinlab.matrices", "pivot_columns")
    a = as_matrix([[0, 1], [0, 0]])
    b = as_matrix([[0, 0], [2, 0]])
    jacobson_inverse(a, b)
    assert len(reduced) == 1 and forward == []  # inverse(1 - ab), with no rank check first
    reduced.clear()
    eye = Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        jacobson_inverse(eye, eye)
    # then rank(1 - ba) on the singular branch, which stops at echelon form
    assert len(reduced) == 1 and forward == [(Matrix.zeros(2, 2),)]


def test_jacobson_inverse_shape_guard():
    with pytest.raises(ShapeError):
        jacobson_inverse(Matrix.zeros(2, 2), Matrix.zeros(3, 3))


def test_jacobson_drazin_zero_a():
    b = as_matrix([[1, 2], [3, 4]])
    assert jacobson_drazin(Matrix.zeros(2, 2), b).is_identity()


def test_jacobson_drazin_hand_value():
    # ba = 0 makes (1-ab)^D the interesting side: 1 + a (1-ba)^D b = 1 + ab
    a = as_matrix([[0, 1], [0, 0]])
    b = as_matrix([[0, 0], [0, 1]])
    assert jacobson_drazin(b, a) == as_matrix([[1, 1], [0, 1]])
    # the reverse orientation is trivial here: (1-ba)^D = I
    assert jacobson_drazin(a, b).is_identity()


def test_jacobson_drazin_degenerate_ab_is_identity():
    # ab = 1 forces 1-ab = 0 with Drazin inverse 0, while the simple
    # formula evaluates to 1: the printed identity fails and must be
    # reported, not returned.
    eye = Matrix.identity(2)
    with pytest.raises(IdentityFalsifiedError) as exc_info:
        jacobson_drazin(eye, eye)
    assert exc_info.value.lhs.is_zero()  # (1-ba)^D = 0^D = 0
    assert exc_info.value.rhs.is_identity()  # 1 + b 0 a = 1


def test_jacobson_drazin_fails_beyond_ab_identity():
    # a = b = nontrivial idempotent: 1-ab is idempotent hence its own
    # Drazin inverse, b(1-ab)^D a = 0, so the formula returns 1 while the
    # true value is 1-ab.
    e = as_matrix([[1, 0], [0, 0]])
    with pytest.raises(IdentityFalsifiedError) as exc_info:
        jacobson_drazin(e, e)
    assert exc_info.value.lhs == Matrix.identity(2) - e
    assert exc_info.value.rhs.is_identity()


def test_jacobson_drazin_certifies_a_holding_pair_with_one_drazin_call(monkeypatch):
    # the hand pair: ab = 0 and 1 - ba is a shear. Only (1-ab)^D is
    # computed; the formula's value is certified as (1-ba)^D
    a = as_matrix([[0, 0], [0, 1]])
    b = as_matrix([[0, 1], [0, 0]])
    eye = Matrix.identity(2)
    expected = drazin(eye - b * a).dinv
    calls = record_calls(monkeypatch, "drazinlab.drazin", "drazin")
    assert jacobson_drazin(a, b) == expected == as_matrix([[1, 1], [0, 1]])
    assert calls == [(eye - a * b,)]


def test_jacobson_drazin_random_invertible_pairs():
    rng = random.Random(19)
    eye = Matrix.identity(3)
    done = 0
    while done < 30:
        a, b = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
        if rank(eye - a * b) < 3:
            continue
        result = jacobson_drazin(a, b)
        assert result == drazin(eye - b * a).dinv
        done += 1


# -- quadruple transfers ------------------------------------------------------


def test_transfer_zero_quadruple():
    z = Matrix.zeros(2, 2)
    out = transfer_gdrazin(Quadruple(z, z, z, z))
    assert out.agrees
    assert out.beta.is_identity()
    assert out.beta_drazin.dinv.is_identity()
    assert (out.alpha_index, out.beta_index) == (0, 0)


def test_transfer_counterexample():
    out = transfer_gdrazin(counterexample_instance())
    assert out.agrees
    assert out.beta_drazin.dinv.is_identity()  # c = 0 kills every transfer term


def test_transfer_hand_example():
    a = as_matrix([[0, 1], [0, 0]])
    b = as_matrix([[0, 0], [0, 1]])
    out = transfer_gdrazin(Quadruple(a, b, b, a))
    assert out.agrees
    assert out.beta_drazin.dinv == as_matrix([[1, 1], [0, 1]])
    assert out.beta_drazin.dinv == inverse(out.beta)


def test_transfer_rejects_generic_quadruple():
    with pytest.raises(ConditionsViolatedError):
        transfer_gdrazin(GENERIC)
    with pytest.raises(ConditionsViolatedError):
        transfer_drazin(GENERIC)
    with pytest.raises(ConditionsViolatedError):
        transfer_group(GENERIC)


def test_transfer_drazin_records_indices_and_bounds():
    for q in gen_family(GeneratorSpec("zero_padded_nilpotent", 4, seed=8, count=6)):
        out = transfer_drazin(q)
        assert out.agrees
        assert out.alpha_index >= 2
        assert abs(out.alpha_index - out.beta_index) <= 1
        assert not drazin(Matrix.identity(4) - q.b * q.d).spectral_idempotent.is_zero()


def test_transfer_group_counterexample():
    out = transfer_group(counterexample_instance())
    assert out.agrees
    assert out.beta_drazin.dinv.is_identity()
    assert out.beta_index <= 1


def test_transfer_group_refuses_high_index():
    qs = gen_family(GeneratorSpec("zero_padded_nilpotent", 3, seed=2, count=4))
    for q in qs:
        with pytest.raises(NoGroupInverseError):
            transfer_group(q)


def test_transfer_group_refusal_runs_drazin_once(monkeypatch):
    # the refusal comes from alpha's Drazin data alone; beta is never inverted
    calls = []

    def counting_drazin(m):
        calls.append(m)
        return drazin(m)

    monkeypatch.setattr(transfer_module, "drazin", counting_drazin)
    q = gen_family(GeneratorSpec("zero_padded_nilpotent", 5, seed=3, count=1))[0]
    with pytest.raises(NoGroupInverseError):
        transfer_group(q)
    assert calls == [Matrix.identity(5) - q.b * q.d]


def test_transfer_group_disagrees_when_beta_has_no_group_inverse(monkeypatch):
    """alpha's index 0 admits the instance; a beta of index 2 has no group
    inverse, so the outcome does not agree."""
    evaluate = transfer_module._evaluate_transfer

    def beta_of_index_two(q, alpha_data):
        out = evaluate(q, alpha_data)
        return replace(out, direct=replace(out.direct, index=2))

    monkeypatch.setattr(transfer_module, "_evaluate_transfer", beta_of_index_two)
    out = transfer_group(counterexample_instance())
    assert (out.alpha_index, out.beta_index, out.agrees) == (0, 2, False)


def test_transfer_drazin_forms_ac_and_bd_once(monkeypatch):
    (generated,) = gen_family(GeneratorSpec("strong", 4, seed=1, count=1))
    # a new object, as a quadruple decoded from JSON is
    q = Quadruple(generated.a, generated.b, generated.c, generated.d)
    products = record_calls(monkeypatch, Matrix, "__mul__")
    assert transfer_drazin(q).agrees
    assert products.count((q.a, q.c)) == 1
    assert products.count((q.b, q.d)) == 1
    # the generator's self-check already formed ac on the emitted quadruple
    products.clear()
    assert transfer_drazin(generated).agrees
    assert (generated.a, generated.c) not in products


GAUSS_INTS = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
NONZERO_GAUSS_INTS = GAUSS_INTS.filter(bool)


@st.composite
def unit_triangular_product(draw, n):
    """L U with unit-diagonal triangular L, U of Gaussian integers: det 1."""

    def unit(lower):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and (i > j) == lower:
                    rows[i][j] = draw(GAUSS_INTS)
        return as_matrix(rows)

    return unit(True) * unit(False)


@st.composite
def resolvent_inputs(draw):
    """(b, d, ac) of sizes 1-5, ac arbitrary: b and d either arbitrary, or
    with 1 - bd = S (N + U) S^-1 for a nilpotent Jordan-type block N (index
    up to its size), an upper triangular invertible U and a unit triangular
    product S."""
    n = draw(st.integers(1, 5))
    ac = as_matrix(draw(grids(n, n)))
    if draw(st.booleans()):
        return as_matrix(draw(grids(n, n))), as_matrix(draw(grids(n, n))), ac
    k = draw(st.integers(0, n))

    def cell(i, j):
        if i > j or i < k <= j:
            return 0
        if i < k:  # the nilpotent block
            if j == i + 1:
                return draw(st.sampled_from((1, 1, 0, 2)))
            return 0 if j == i else draw(GAUSS_INTS)
        return draw(NONZERO_GAUSS_INTS if i == j else GAUSS_INTS)

    rows = [[cell(i, j) for j in range(n)] for i in range(n)]
    conj = draw(unit_triangular_product(n))
    alpha = conj * as_matrix(rows) * inverse(conj)
    d = draw(unit_triangular_product(n))
    return (Matrix.identity(n) - alpha) * inverse(d), d, ac


@settings(max_examples=60, deadline=None)
@given(resolvent_inputs())
def test_resolvent_is_the_finite_sum_property(inputs):
    # no side condition is assumed: the sum closes for any b and d
    b, d, ac = inputs
    eye = Matrix.identity(b.rows)
    bd = b * d
    alpha = eye - bd
    data = drazin(alpha)
    p, x = data.spectral_idempotent, data.dinv
    m = p * alpha * (eye + bd)
    assert (m ** max(data.index, 1)).is_zero()
    # the elimination the finite sum replaced, kept as the reference
    bac = b * ac
    reference = (eye - d * p * inverse(eye - m) * bac) * (eye + ac) + d * x * bac
    assert transfer_value(b, d, ac, bd, alpha, x, p, data.index, eye) == reference


def test_transfer_value_raises_when_the_resolvent_sum_does_not_close():
    # alpha = J, the 3x3 nilpotent shift, with bd = 1 - J, x = 0 and p = 1:
    # m = J (2 - J) is nonzero and m^3 = 0
    eye, z = Matrix.identity(3), Matrix.zeros(3, 3)
    shift = as_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    b = eye - shift
    with pytest.raises(InternalInvariantError, match="not nilpotent within alpha's index"):
        transfer_value(b, eye, z, b, shift, z, eye, 1, eye)
    assert transfer_value(b, eye, z, b, shift, z, eye, 3, eye) == eye


def test_transfer_drazin_reuses_alphas_drazin_data_when_beta_is_alpha(monkeypatch):
    quads = [
        q
        for size in (2, 3)
        for q in gen_family(GeneratorSpec("zero_padded_nilpotent", size, seed=0, count=10))
        if q.beta == q.alpha and not q.alpha.is_identity()
    ]
    assert len(quads) >= 3
    expected = [drazin(q.beta) for q in quads]
    calls = record_calls(monkeypatch, "drazinlab.drazin", "drazin")
    for q, direct in zip(quads, expected):
        calls.clear()
        out = transfer_drazin(q)
        assert calls == [(q.alpha,)]
        assert out.agrees and out.direct == direct


def test_disagreeing_formula_gets_its_own_idempotent(monkeypatch):
    (q,) = gen_family(GeneratorSpec("zero_padded_nilpotent", 4, seed=8, count=1))
    assert q.beta != q.alpha
    eye = Matrix.identity(4)
    expected = drazin(q.beta)
    # a formula off by the identity moves y off the Drazin inverse of beta
    original = transfer_module.transfer_value
    monkeypatch.setattr(transfer_module, "transfer_value", lambda *args: original(*args) + eye)
    calls = record_calls(monkeypatch, "drazinlab.drazin", "drazin")
    out = transfer_drazin(q)
    assert not out.agrees
    # the certificate failed, so beta^D was computed directly
    assert calls == [(q.alpha,), (q.beta,)]
    assert out.direct == expected
    y = out.beta_drazin.dinv
    assert out.beta_drazin.spectral_idempotent == eye - out.beta * y
    assert out.beta_drazin.spectral_idempotent != out.direct.spectral_idempotent


def test_transfer_drazin_certifies_beta_without_a_second_drazin_call(monkeypatch):
    quads = [
        q
        for size in (2, 3, 4)
        for family in ("strong", "zero_padded_nilpotent")
        for q in gen_family(GeneratorSpec(family, size, seed=2, count=4))
        if q.beta != q.alpha
    ]
    assert len(quads) >= 10
    expected = [drazin(q.beta) for q in quads]
    assert any(direct.index >= 2 for direct in expected)
    calls = record_calls(monkeypatch, "drazinlab.drazin", "drazin")
    for q, direct in zip(quads, expected):
        calls.clear()
        out = transfer_drazin(q)
        assert calls == [(q.alpha,)]
        assert out.agrees and out.direct == direct and out.beta_drazin == direct


def test_transfer_drazin_eliminates_only_in_alphas_drazin_call(monkeypatch):
    (q,) = gen_family(GeneratorSpec("zero_padded_nilpotent", 4, seed=5, count=1))
    eye = Matrix.identity(4)
    eliminated = record_calls(monkeypatch, "drazinlab.matrices", "rref")
    assert q.beta != q.alpha and drazin(eye - q.b * q.d).index >= 2
    expected = list(eliminated)
    eliminated.clear()
    assert transfer_drazin(q).agrees
    # the resolvent is a sum of powers, so no inverse(1 - m) elimination,
    # and beta's certificate is products alone
    assert eliminated == expected


def _memoized_conditions_match_a_fresh_check(q) -> bool:
    fresh = check_conditions(Quadruple(q.a, q.b, q.c, q.d))
    return q.conditions == fresh and q.conditions is q.conditions


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_conditions_of_violating_quadruples_property(data):
    n = data.draw(st.integers(1, 3))
    q = Quadruple(*(as_matrix(data.draw(grids(n, n))) for _ in range(4)))
    assert _memoized_conditions_match_a_fresh_check(q)
    # the defect forms give the literal left-minus-right residuals
    four, strong, triple = conditions_reference(q.a, q.b, q.c, q.d)
    assert q.conditions.residuals == four
    assert check_strong_conditions(q.a, q.b, q.c, q.d).residuals == strong
    assert check_triple_conditions(q.a, q.b, q.c).residuals == triple
    assume(not q.conditions.all_hold)


def test_check_conditions_forms_seven_products(monkeypatch):
    q = counterexample_instance()
    assert not (q.ac - q.d * q.b).is_zero()  # ac is memoized, as callers find it
    products = record_calls(monkeypatch, Matrix, "__mul__")
    check_conditions(q)
    # d b, then e (ac), e (db), (b e) a and (c e) d; the literal sides took 13
    assert len(products) == 7


def test_check_conditions_of_a_zero_defect_forms_only_db(monkeypatch):
    (q,) = gen_family(GeneratorSpec("strong", 4, seed=1, count=1))
    q = Quadruple(q.a, q.b, q.c, q.d)
    (classic,) = gen_family(GeneratorSpec("classic", 4, seed=1, count=1))
    classic = Quadruple(classic.a, classic.b, classic.c, classic.d)
    assert (classic.d, classic.b) == (classic.a, classic.c)
    q.ac, classic.ac  # memoized, as every caller of the check finds it
    products = record_calls(monkeypatch, Matrix, "__mul__")
    report = check_conditions(q)
    # e = ac - db is zero, so it is every residual and no product of it is formed
    assert products == [(q.d, q.b)]
    assert report.residuals == (Matrix.zeros(4, 4),) * 4 and report.all_hold
    products.clear()
    check_conditions(classic)  # db is ac itself
    assert products == []


def test_zero_defect_residuals_match_the_literal_sides():
    # the defect is zero on classic and triple-lift quadruples and on the
    # quadruples power_instance derives from them
    quads = [
        q
        for family in ("classic", "triple_lift")
        for size in (2, 3, 5)
        for q in gen_family(GeneratorSpec(family, size, seed=size + 7, count=3))
    ]
    quads += [power_instance(q, n) for q in quads for n in (2, 3)]
    for q in quads:
        assert (q.ac - q.d * q.b).is_zero()
        assert q.conditions.residuals == conditions_reference(q.a, q.b, q.c, q.d)[0]


def test_power_instance_forms_fewer_products_than_binomial_sums(monkeypatch):
    (generated,) = gen_family(GeneratorSpec("strong", 4, seed=1, count=1))
    q = Quadruple(generated.a, generated.b, generated.c, generated.d)
    q.conditions, q.bd  # memoized, as the battery's transfer leaves them
    products = record_calls(monkeypatch, Matrix, "__mul__")
    # the binomial construction formed 16, 19 and 23 products here, as the
    # battery calls it: n = 1, 2, 3 in turn on one quadruple. n = 1 is q
    # itself; n >= 2 forms 2 per Horner step, (1-ac)^n and (1-bd)^n, a c',
    # b' d and the check's d b': q's defect is zero, and so is the derived
    # one (a c' = d b'), so the check forms no product of it. n = 2 forms
    # 2 + 1 + 1 + 1 + 1 + 1 (each square is one product). n = 3 resumes
    # from n = 2's step: one Horner step, and (1-ac)^3 = (1-ac)^2 (1-ac)
    # and likewise for 1-bd, again 7.
    for n, count, binomial in ((1, 0, 16), (2, 7, 19), (3, 7, 23)):
        products.clear()
        power_instance(q, n)
        assert len(products) == count < binomial
    # a fresh quadruple starts from q: n - 1 Horner steps, and (1-ac)^n and
    # (1-bd)^n by squaring alone, 2, 2, 3 and 4 products each at n = 3, 4,
    # 8 and 16, then a c', b' d and d b' (they were (1-ac) (1-ac)^(n-1),
    # 21, 33 and 53 products at n = 4, 8 and 16)
    for n, count in ((3, 11), (4, 13), (8, 23), (16, 41)):
        q = Quadruple(q.a, q.b, q.c, q.d)
        q.conditions, q.bd
        products.clear()
        power_instance(q, n)
        assert len(products) == count


def _mul2(x, y):
    """Product of two 2x2 integer matrices stored as flat (e00, e01, e10, e11)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def test_every_01_2x2_quadruple_through_transfer_drazin():
    # All 16^4 quadruples of 0/1 2x2 matrices over Q, filtered on the four
    # conditions with plain-int products; those with a zero defect
    # e = ac - db are the classic lemma, so the rest run the transfer
    flats = [tuple((v >> k) & 1 for k in range(4)) for v in range(16)]
    zero = (0, 0, 0, 0)
    held, live = 0, []
    for a, b, c, d in product(flats, repeat=4):
        ac, db = _mul2(a, c), _mul2(d, b)
        e = tuple(x - y for x, y in zip(ac, db))
        if e == zero:
            held += 1
        elif (_mul2(e, ac) == _mul2(e, db) == _mul2(_mul2(b, e), a) == _mul2(_mul2(c, e), d)
              == zero):
            held += 1
            strong = _mul2(e, d) == _mul2(e, a) == zero
            live.append((Quadruple(*(as_matrix([m[:2], m[2:]]) for m in (a, b, c, d))), strong))
    assert (held, len(live)) == (7856, 3162)
    pairs, weak, matrices = Counter(), 0, set()
    for q, strong in live:
        outcome = transfer_drazin(q)
        assert outcome.agrees
        pairs[outcome.alpha_index, outcome.beta_index] += 1
        if not strong:
            # the size-2 proposition: 1 - bd is invertible off the strong premise
            weak += 1
            assert outcome.alpha_index == 0
        matrices.update((q.alpha, q.beta))
    assert pairs == {(0, 0): 2306, (1, 1): 856}
    assert weak == 1088
    assert len(matrices) == 30
    for m in matrices:
        assert oracle_drazin(m) == drazin(m)


def test_size_2_proposition_on_seeded_pm1_quadruples():
    # README's size-2 proposition: over a field, a 2x2 quadruple that holds
    # the four conditions with 1 - bd singular holds the strong premise.
    # Uniform draws with entries in {-1, 0, 1} hold the conditions about
    # once in 40, so a seeded loop filters them with plain-int products and
    # the library re-checks each singular case
    rng = random.Random(0)
    zero = (0, 0, 0, 0)
    held = singular = 0
    for _ in range(20000):
        flat = [rng.choice((-1, 0, 1)) for _ in range(16)]
        a, b, c, d = (tuple(flat[k:k + 4]) for k in range(0, 16, 4))
        ac, db = _mul2(a, c), _mul2(d, b)
        e = tuple(x - y for x, y in zip(ac, db))
        if not (_mul2(e, ac) == _mul2(e, db) == _mul2(_mul2(b, e), a) == _mul2(_mul2(c, e), d)
                == zero):
            continue
        held += 1
        bd = _mul2(b, d)
        if (1 - bd[0]) * (1 - bd[3]) != bd[1] * bd[2]:
            continue
        singular += 1
        assert _mul2(e, d) == _mul2(e, a) == zero
        q = Quadruple(*(as_matrix([m[:2], m[2:]]) for m in (a, b, c, d)))
        assert check_conditions(q).all_hold and rank(q.alpha) < 2
        assert check_strong_conditions(q.a, q.b, q.c, q.d).all_hold
    assert singular >= 50  # not vacuous
    assert (held, singular) == (523, 88)


def test_transfer_group_on_index_one_instances():
    # alpha = 1 - bd is made a conjugated rank-1 idempotent, so its index
    # is exactly 1 and the group transfer must go through.
    rng = random.Random(29)
    eye = Matrix.identity(3)
    for _ in range(6):
        v = Matrix(3, 1, [1, rng.randint(-2, 2), rng.randint(-2, 2)])
        w = Matrix(1, 3, [1, 0, 0])
        p = v * w  # idempotent because w v = 1
        assert p * p == p and not p.is_zero()
        u = eye + Matrix.from_rows([[0, rng.randint(-2, 2), 0], [0, 0, 0], [0, 0, 0]])
        a = u
        b = inverse(u) * (eye - p)
        q = Quadruple(a, b, b, a)
        out = transfer_group(q)
        assert out.alpha_index == 1
        assert out.agrees
        assert out.beta_index == 1
        beta, y = out.beta, out.beta_drazin.dinv
        assert beta * y * beta == beta
        assert y * beta * y == y
        assert y * beta == beta * y


# -- power construction -------------------------------------------------------


def test_power_n1_is_verbatim():
    q = counterexample_instance()
    assert power_instance(q, 1) == q
    assert power_instance(q, 1) is q


def test_power_counterexample_n2():
    q = counterexample_instance()
    derived = power_instance(q, 2)
    assert derived.c.is_zero()  # c' = 2c - c(ac) with c = 0
    eye = Matrix.identity(2)
    assert eye - derived.a * derived.c == (eye - q.a * q.c) ** 2


def test_power_hand_pair():
    a = as_matrix([[0, 1], [0, 0]])
    b = as_matrix([[0, 0], [0, 1]])
    q = Quadruple(a, b, b, a)
    derived = power_instance(q, 2)
    ab = a * b
    assert derived.c == b.scale(2) - b * ab
    eye = Matrix.identity(2)
    assert eye - a * derived.c == (eye - ab) ** 2


def test_power_identities_up_to_five():
    corpus = gen_family(GeneratorSpec("classic", 3, seed=12, count=4)) + gen_family(
        GeneratorSpec("strong", 3, seed=13, count=4)
    )
    for q in corpus:
        eye = Matrix.identity(q.size)
        for n in range(1, 6):
            derived = power_instance(q, n)
            assert eye - derived.a * derived.c == (eye - q.a * q.c) ** n
            assert eye - derived.b * derived.d == (eye - q.b * q.d) ** n
            assert check_conditions(derived).all_hold


def test_power_rejects():
    with pytest.raises(ValueError):
        power_instance(counterexample_instance(), 0)
    with pytest.raises(ValueError):
        power_instance(counterexample_instance(), transfer_module.MAX_POWER + 1)
    with pytest.raises(ConditionsViolatedError):
        power_instance(GENERIC, 2)


@pytest.mark.parametrize(
    "name, fake, message",
    [
        # c' + I breaks 1 - a c' = beta^2, b' + I breaks 1 - b' d = alpha^2
        ("Quadruple", lambda a, b, c, d: Quadruple(a, b, c + Matrix.identity(2), d), "1 - a c'"),
        ("Quadruple", lambda a, b, c, d: Quadruple(a, b + Matrix.identity(2), c, d), "1 - b' d"),
        ("check_conditions", lambda q, report=GENERIC.conditions: report, "lost the side conditions"),
    ],
    ids=["beta power", "alpha power", "conditions"],
)
def test_power_instance_self_check_raises(monkeypatch, name, fake, message):
    q = counterexample_instance()
    assert q.conditions.all_hold  # memoized before the patch
    monkeypatch.setattr(transfer_module, name, fake)
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        power_instance(q, 2)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([f for f in FAMILIES if f != "counterexample"]),
    st.integers(2, 3),
    st.integers(0, 10**6),
)
def test_generated_quadruple_holds_and_powers_verbatim_property(family, size, seed):
    (q,) = gen_family(GeneratorSpec(family, size, seed=seed, count=1))
    assert check_conditions(q).all_hold
    assert _memoized_conditions_match_a_fresh_check(q)
    assert power_instance(q, 1) == q


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([f for f in FAMILIES if f != "counterexample"]),
    st.integers(2, 3),
    st.integers(0, 10**6),
    st.lists(st.integers(1, 6), max_size=6),
)
def test_power_instance_equals_binomial_reference_property(family, size, seed, earlier):
    # q's memoized step is resumed or dropped, whatever calls came before
    (q,) = gen_family(GeneratorSpec(family, size, seed=seed, count=1))
    for n in [*earlier, *range(1, 6)]:
        assert power_instance(q, n) == power_reference(q, n)


def test_quadruple_shape_validation():
    with pytest.raises(ShapeError):
        Quadruple(Matrix.zeros(2, 2), Matrix.zeros(3, 3), Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    with pytest.raises(ShapeError):
        Quadruple(Matrix.zeros(2, 3), Matrix.zeros(2, 3), Matrix.zeros(2, 3), Matrix.zeros(2, 3))


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("a", Matrix.zeros(2, 3), "matrix a must be square of size 2"),
        ("a", Matrix.zeros(3, 3), "matrix b must be square of size 3"),
        ("b", Matrix.zeros(2, 3), "matrix b must be square of size 2"),
        ("b", Matrix.zeros(3, 2), "matrix b must be square of size 2"),
        ("c", Matrix.zeros(3, 3), "matrix c must be square of size 2"),
        ("c", Matrix.zeros(2, 1), "matrix c must be square of size 2"),
        ("c", Matrix.zeros(3, 2), "matrix c must be square of size 2"),
        ("d", Matrix.zeros(1, 1), "matrix d must be square of size 2"),
        ("d", Matrix.zeros(1, 2), "matrix d must be square of size 2"),
        ("d", Matrix.zeros(2, 3), "matrix d must be square of size 2"),
    ],
)
def test_misshaped_matrix_is_named(name, bad, message):
    parts = dict(zip("abcd", (Matrix.identity(2),) * 4), **{name: bad})
    with pytest.raises(ShapeError) as info:
        Quadruple(**parts)
    assert str(info.value) == message


MEMOS = ("ac", "bd", "alpha", "beta", "conditions", "entry_bits")


def test_memo_forms_each_product_once(monkeypatch):
    q = replace(GENERIC)
    products = record_calls(monkeypatch, Matrix, "__mul__")
    assert q.ac is q.ac and q.bd is q.bd
    assert products == [(q.a, q.c), (q.b, q.d)]


def test_memo_is_not_part_of_the_value():
    q, fresh = replace(GENERIC), replace(GENERIC)
    values = [getattr(q, name) for name in MEMOS]
    assert set(MEMOS) <= set(vars(q)) and not set(MEMOS) & set(vars(fresh))
    assert [getattr(q, name) for name in MEMOS] == values
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert "alpha" not in repr(q) and "entry_bits" not in repr(q)
    # replace builds a new quadruple through __init__: its memo starts empty
    assert not set(MEMOS) & set(vars(replace(q)))
    assert isinstance(Quadruple.ac, transfer_module._memo)
