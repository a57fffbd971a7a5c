"""Smoke test of the library calls the benchmark in perfbench/ makes.

Every op of each workload runs once and the benchmark's own gate checks
the results, so a change that breaks a benchmark call, a case list a
workload expects or a reference digest fails here.  perfbench/ is read,
never changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_op_passes_the_gate(workload):
    ops = workloads.WORKLOADS[workload](1)
    outcomes = []
    for op in ops:
        try:
            outcomes.append(("ok", op.fn()))
        except Exception as exc:
            outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
    assert ops
    reasons = gate.gate(ops, outcomes, gate.load_reference())
    assert {op.label: r for op, r in zip(ops, reasons) if r} == {}
