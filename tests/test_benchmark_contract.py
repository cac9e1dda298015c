"""The benchmark in perfbench/ calls the package by name: each workload's
operations, its output checks and the tracer's wrappers must keep working.
Runs every workload once at its test size, in this process."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks(name):
    workload = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    try:
        results = [(label, thunk()) for label, thunk in workload.operations("tiny")]
    finally:
        tracer.uninstall()
    assert workload.check(workload.collect(results, "tiny", 1), "tiny") == []
    if name == "strip-inversion":
        assert tracer.metrics()["ballot.q_polynomial_calls"] > 0
