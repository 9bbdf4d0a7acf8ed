import importlib
import sys
from dataclasses import replace

import pytest

from drazinlab import InternalInvariantError, Matrix, Quadruple
from drazinlab import transfer as transfer_module
from drazinlab import verify as verify_module
from drazinlab.generators import GeneratorSpec, counterexample_instance, gen_family
from drazinlab.verify import POWER_MAX, run_battery, summarize
from util import as_matrix, power_reference, record_calls


def test_battery_passes_on_generated_corpus():
    quads = gen_family(GeneratorSpec("classic", 3, seed=6, count=5)) + gen_family(
        GeneratorSpec("zero_padded_nilpotent", 3, seed=6, count=3)
    )
    report = run_battery(quads)
    assert report.ok
    assert report.total == 8 and report.passed == 8
    assert len(report.index_pairs) == 8
    assert report.passed + len(report.failures) == report.total


def test_battery_records_condition_failures():
    bad = Quadruple(
        as_matrix([[1, 2], [0, 1]]),
        as_matrix([[1, 1], [2, 0]]),
        as_matrix([[0, 1], [1, 1]]),
        as_matrix([[2, 1], [1, 1]]),
    )
    report = run_battery([counterexample_instance(), bad])
    assert not report.ok
    assert report.total == 2 and report.passed == 1
    assert len(report.failures) == 1
    assert report.failures[0].instance == 1
    assert report.failures[0].prop == "side conditions"
    assert report.failures[0].detail == (
        "(ac)^2 = (db)(ac); (db)^2 = (ac)(db); b(ac)a = b(db)a; c(ac)d = c(db)d"
    )
    # the bad instance never reached the transfer stage
    assert len(report.index_pairs) == 1
    assert report.passed + len(report.failures) == report.total


def test_report_serialization_and_summary():
    quads = [counterexample_instance()]
    report = run_battery(quads)
    obj = report.to_obj()
    assert obj["total"] == 1 and obj["passed"] == 1
    assert obj["failures"] == []
    assert obj["index_pairs"] == [[0, 0]]
    text = summarize(report)
    assert "instances: 1" in text
    assert "index pairs" in text


def test_summary_shows_a_violated_index_bound(monkeypatch):
    """An index pair beyond the bound is refused by `transfer_drazin`, so it
    is never tabulated and the summary shows it as a FAIL line."""
    evaluate = transfer_module._evaluate_transfer

    def skewed(q, alpha_data):
        out = evaluate(q, alpha_data)
        return replace(out, alpha_index=0, direct=replace(out.direct, index=2))

    monkeypatch.setattr(transfer_module, "_evaluate_transfer", skewed)
    report = run_battery([counterexample_instance()])
    assert report.index_pairs == []
    assert (
        "FAIL instance 0: transfer evaluation (index bound violated: i(alpha)=0, i(beta)=2)"
        in summarize(report)
    )


# The package attribute `drazin` is the function, so reach the module by name.
drazin_module = importlib.import_module("drazinlab.drazin")


def _raise_invariant(*args):
    raise InternalInvariantError("injected kernel fault")


def _disagreeing_transfer(q, alpha_data, evaluate=transfer_module._evaluate_transfer):
    return replace(evaluate(q, alpha_data), agrees=False)


@pytest.mark.parametrize(
    "module, name, fake, prop, detail",
    [
        (drazin_module, "_verify_drazin", _raise_invariant, "transfer evaluation", "injected kernel fault"),
        (
            transfer_module,
            "_evaluate_transfer",
            _disagreeing_transfer,
            "transfer agreement",
            "formula and direct Drazin inverse differ",
        ),
        (verify_module, "power_instance", _raise_invariant, "power construction", "n=2: injected kernel fault"),
    ],
    ids=["drazin self-check", "transfer agreement", "power construction"],
)
def test_stage_failure_becomes_record(monkeypatch, module, name, fake, prop, detail):
    monkeypatch.setattr(module, name, fake)
    report = run_battery([counterexample_instance()])
    assert report.total == 1 and report.passed == 0
    (failure,) = report.failures
    assert (failure.prop, failure.detail) == (prop, detail)


def test_perturbed_formula_becomes_an_agreement_record(monkeypatch):
    # y + 1 fails beta's certificate, so the transfer computes beta^D
    # directly and reports the two as different
    (q,) = gen_family(GeneratorSpec("zero_padded_nilpotent", 4, seed=8, count=1))
    assert q.beta != q.alpha
    original = transfer_module.transfer_value
    # the last argument is the ring's one
    monkeypatch.setattr(transfer_module, "transfer_value", lambda *args: original(*args) + args[-1])
    report = run_battery([q])
    assert report.total == 1 and report.passed == 0
    assert report.failures == [
        verify_module.Failure(0, "transfer agreement", "formula and direct Drazin inverse differ")
    ]


def test_commutant_self_check_failure_becomes_record(monkeypatch):
    # classic shape (c := b, d := a), so the side conditions hold, and
    # beta = 1 - ab = diag(0, 1, 1) is derogatory
    a, b = as_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), Matrix.identity(3)
    q = Quadruple(a, b, b, a)
    beta = Matrix.identity(3) - a * b
    # commutes with beta, but not with the commutant element E_32 of beta
    stray = as_matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert stray * beta == beta * stray
    assert run_battery([q]).ok
    original = verify_module.transfer_drazin

    def transfer_with_stray(q):
        outcome = original(q)
        return replace(outcome, beta_drazin=replace(outcome.beta_drazin, dinv=stray))

    monkeypatch.setattr(verify_module, "transfer_drazin", transfer_with_stray)
    report = run_battery([q])
    assert report.total == 1 and report.passed == 0
    (failure,) = report.failures
    assert failure.prop == "double commutant"
    assert failure.detail == "y is not a polynomial in beta"


def test_battery_checks_conditions_once_per_quadruple(monkeypatch):
    # count every call, however a module reached the function
    calls = []
    original = transfer_module.check_conditions

    def counting(q):
        calls.append(q)
        return original(q)

    for name, module in list(sys.modules.items()):
        if name.startswith("drazinlab") and getattr(module, "check_conditions", None) is original:
            monkeypatch.setattr(module, "check_conditions", counting)
    (q,) = gen_family(GeneratorSpec("strong", 3, seed=1, count=1))
    assert run_battery([q]).ok
    # the generator's self-check, then one per derived quadruple for
    # n = 2..POWER_MAX: the transfer reads the instance's memoized report
    # and the battery does not call n = 1
    assert len(calls) == POWER_MAX
    assert calls[0] is q
    assert calls[1:] == [power_reference(q, n) for n in range(2, POWER_MAX + 1)]


def test_battery_forms_alpha_and_beta_once_per_quadruple(monkeypatch):
    # the transfer and every power_instance call read the instance's
    # memoized alpha = 1 - bd and beta = 1 - ac
    (q,) = gen_family(GeneratorSpec("strong", 3, seed=1, count=1))
    eye = Matrix.identity(3)
    subtractions = record_calls(monkeypatch, Matrix, "__sub__")
    assert run_battery([q]).ok
    assert subtractions.count((eye, q.bd)) == 1
    assert subtractions.count((eye, q.ac)) == 1
