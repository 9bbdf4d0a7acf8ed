"""The benchmark harness in perfbench/ reaches the library by name.

Its tracer wraps the functions listed in `TRACED`, and its workloads call
public functions looked up on the module objects at run time. A workload
records an exception as a failed item rather than stopping, so a refactor
that deletes or renames one of those names would show up only as a failed
benchmark run. These tests load the harness from its files and fail
instead.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_every_traced_name_exists():
    lib = workloads.load_library()
    missing = [
        f"{module}.{fn}"
        for module, fns in tracer.TRACED.items()
        for fn in fns
        if not callable(getattr(getattr(lib, module), fn, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_unit_of_each_workload_runs(name):
    # one unit runs every library call of its workload's `run`
    workload = workloads.WORKLOADS[name](workloads.load_library(), seed=0)
    _, _, items = workload.run(workload.units[0], 0, lambda item: None)
    assert items
    assert [text for _, ok, text in items if not ok] == []
