import importlib

from drazinlab import InternalInvariantError, Quadruple
from drazinlab.generators import GeneratorSpec, counterexample_instance, gen_family
from drazinlab.verify import run_battery, summarize
from util import as_matrix


def test_battery_passes_on_generated_corpus():
    quads = gen_family(GeneratorSpec("classic", 3, seed=6, count=5)) + gen_family(
        GeneratorSpec("zero_padded_nilpotent", 3, seed=6, count=3)
    )
    report = run_battery(quads, commutant_samples=5, power_max=3)
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
    report = run_battery([counterexample_instance(), bad], commutant_samples=2, power_max=1)
    assert not report.ok
    assert report.total == 2 and report.passed == 1
    assert len(report.failures) == 1
    assert report.failures[0].instance == 1
    assert report.failures[0].prop == "side conditions"
    # the bad instance never reached the transfer stage
    assert len(report.index_pairs) == 1
    assert report.passed + len(report.failures) == report.total


def test_report_serialization_and_summary():
    quads = [counterexample_instance()]
    report = run_battery(quads, commutant_samples=2, power_max=2)
    obj = report.to_obj()
    assert obj["total"] == 1 and obj["passed"] == 1
    assert obj["failures"] == []
    assert obj["index_pairs"] == [[0, 0]]
    text = summarize(report)
    assert "instances: 1" in text
    assert "index pairs" in text
    assert "i(beta) <= i(alpha)+1 holds" in text
    assert "i(alpha) <= i(beta)+1 holds" in text


# The package attribute `drazin` is the function, so reach the module by name.
drazin_module = importlib.import_module("drazinlab.drazin")


def _raise_invariant(*args):
    raise InternalInvariantError("injected kernel fault")


def test_drazin_self_check_failure_becomes_record(monkeypatch):
    monkeypatch.setattr(drazin_module, "_verify_drazin", _raise_invariant)
    report = run_battery([counterexample_instance()], commutant_samples=2, power_max=1)
    assert report.total == 1 and report.passed == 0
    (failure,) = report.failures
    assert failure.prop == "transfer evaluation"
    assert "injected kernel fault" in failure.detail


def test_commutant_self_check_failure_becomes_record(monkeypatch):
    monkeypatch.setattr(drazin_module, "commutant_basis", _raise_invariant)
    report = run_battery([counterexample_instance()], commutant_samples=2, power_max=1)
    assert report.total == 1 and report.passed == 0
    (failure,) = report.failures
    assert failure.prop == "double commutant"
    assert failure.detail == "sample 0: injected kernel fault"
