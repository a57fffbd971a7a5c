"""Tests of the benchmark itself: the gate must catch bad output, the tracer
must book time to the right layer, and the cold-start check must see a warm
cache.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import gc
import json
import subprocess
import sys
import types
from pathlib import Path

from slh2 import dfun, fock, hopfcheck, kernel, ncalg, scalar
from slh2.report import Report
from slh2.scalar import ONE

import child
import gate
import speed
import workloads
from tracer import Tracer
from workloads import Op

HERE = Path(__file__).resolve().parent


def _run(ops):
    outcomes = []
    for op in ops:
        try:
            outcomes.append(("ok", op.fn()))
        except Exception as exc:
            outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
    return outcomes


def _entry_ops(twoj):
    return [
        workloads._entry_op(twoj, mp, m, scheme, ring)
        for scheme, ring in workloads.CONSTRUCT_CONFIGS
        for mp in workloads.magnetics(twoj)
        for m in workloads.magnetics(twoj)
    ]


def _failed_matrices(ops, reasons):
    return sorted({workloads.dmatrix_key(op.key[0], *op.key[3:]) for op, r in zip(ops, reasons) if r})


def test_reference_digests_pass_the_gate():
    ops = _entry_ops(2)
    reasons = gate.gate(ops, _run(ops), gate.load_reference())
    assert reasons == [[] for _ in ops]


def test_corrupted_reference_digest_is_a_failure():
    ops = _entry_ops(2)
    reference = gate.load_reference()
    key = workloads.dmatrix_key(2, dfun.ORDERED2, ncalg.SL)
    reference[key] = reference[key][:-1] + ("0" if reference[key][-1] != "0" else "1")
    reasons = gate.gate(ops, _run(ops), reference)
    assert _failed_matrices(ops, reasons) == [key]
    assert sum(1 for r in reasons if r) == 9  # every entry of the 3 x 3 matrix


def test_scheme_disagreement_is_a_failure():
    ops = _entry_ops(1)
    outcomes = _run(ops)
    jacobi = [i for i, op in enumerate(ops) if op.key[3] == dfun.JACOBI]
    # swap two entries of the jacobi matrix
    a, b = jacobi[0], jacobi[1]
    outcomes[a], outcomes[b] = outcomes[b], outcomes[a]
    reasons = gate.gate(ops, outcomes, gate.load_reference())
    assert any("differs from ordered1" in r for r in reasons[a])
    assert _failed_matrices(ops, reasons) == [workloads.dmatrix_key(1, dfun.JACOBI, ncalg.SL)]


def test_raising_entry_fails_its_op():
    ops = _entry_ops(1)
    outcomes = _run(ops)
    outcomes[0] = ("error", "ValueError: no")
    reasons = gate.gate(ops, outcomes, gate.load_reference())
    assert reasons[0] == ["raised ValueError: no"]
    assert sum(1 for r in reasons if r) == 1


def test_empty_report_is_a_failure():
    op = Op("empty", Report, "report", [{"grade": 0}])
    reasons = gate.gate([op], [("ok", Report("fock-homomorphism"))], {})
    assert reasons == [["report has zero cases"]]


def test_report_with_missing_or_failed_cases_is_a_failure():
    params = workloads.corep_params(1)
    full = hopfcheck.check_corep(1)
    assert gate.check_report(full, params) == []
    short = Report("corep")
    short.cases = full.cases[:-1]
    assert gate.check_report(short, params)
    bad = Report("corep")
    bad.cases = [dict(c) for c in full.cases]
    bad.cases[0]["pass"] = False
    assert gate.check_report(bad, params)


def test_raising_op_is_a_failure():
    def boom():
        raise ValueError("no")

    ops = [Op("boom", boom, "report", [])]
    assert gate.gate(ops, _run(ops), {}) == [["raised ValueError: no"]]


def test_wrong_normal_form_is_a_failure():
    words = ((3, 2, 1, 0), (1, 2, 1))  # "uyxv", "xyx"
    right = ncalg.normal_form([(w, ONE) for w in words], ncalg.GL)
    assert gate.check_words(right, workloads.exprio.render_text(right), words, ncalg.GL) == []
    wrong = right + ncalg.gen("v", ncalg.GL)
    assert gate.check_words(wrong, workloads.exprio.render_text(wrong), words, ncalg.GL)
    assert gate.check_words(right, "x", words, ncalg.GL)


def test_expected_case_parameters_match_small_suites():
    assert [c["params"] for c in hopfcheck.recurrence_check("iii", 1).cases] == workloads.recurrence_params("iii", 1)
    assert [c["params"] for c in hopfcheck.wigner_check(1, 1, 2).cases] == workloads.wigner_params(1, 1, 2)
    assert [c["params"] for c in hopfcheck.rtt_frt_check().cases] == workloads.frt_params()


def test_homomorphism_seeds_draw_the_planned_words():
    plan = workloads.homomorphism_seeds(5)
    words = [w for _, w in plan]
    assert len(words) == 84 + 20 and len(set(words)) == 84
    for k, word in plan[:: len(plan) // 6]:
        report = fock.homomorphism_check(nmax=0, words=1, maxlen=workloads.HOM_MAXLEN, seed=k)
        assert [c["params"] for c in report.cases] == [{"word": word, "index": 0}]
    assert workloads.homomorphism_seeds(5) == plan
    assert workloads.homomorphism_seeds(6) != plan


def test_seeded_batches_repeat_per_seed():
    assert workloads.seeded_batches(3) == workloads.seeded_batches(3)
    assert workloads.seeded_batches(3) != workloads.seeded_batches(4)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


LAYERS = {
    "kernel": [("slh2.kernel", "rad_mul")],
    "scalar": [("slh2.scalar", "RadScalar.__mul__")],
}


def test_tracer_replaces_every_binding_and_restores_them():
    real_rad_mul, real_mul = kernel.rad_mul, scalar.RadScalar.__mul__
    tracer = Tracer(LAYERS)
    tracer.install()
    try:
        assert fock.rad_mul is kernel.rad_mul is not real_rad_mul
        assert kernel.rad_mul.__wrapped__ is real_rad_mul
        assert scalar.RadScalar.__rmul__ is scalar.RadScalar.__mul__ is not real_mul
    finally:
        tracer.uninstall()
    assert fock.rad_mul is kernel.rad_mul is real_rad_mul
    assert scalar.RadScalar.__rmul__ is scalar.RadScalar.__mul__ is real_mul


def test_tracer_books_self_time_to_the_innermost_layer():
    clock = FakeClock()
    real_rad_mul = kernel.rad_mul

    def slow_rad_mul(a, b):  # a kernel call that takes one clock second
        clock.t += 1.0
        return real_rad_mul(a, b)

    kernel.rad_mul = slow_rad_mul
    try:
        tracer = Tracer(LAYERS, clock=clock)
        tracer.install()
        try:
            two = scalar.rational(2)
            assert two * two == scalar.rational(4)
        finally:
            tracer.uninstall()
    finally:
        kernel.rad_mul = real_rad_mul
    snap = tracer.snapshot()
    assert snap["kernel.rad_mul"]["calls"] == 1
    assert snap["kernel.rad_mul"]["self_s"] == 1.0
    assert snap["scalar.RadScalar.__mul__"]["incl_s"] == 1.0
    assert snap["scalar.RadScalar.__mul__"]["self_s"] == 0.0
    assert tracer.covered_s() == 1.0


def test_tracer_counts_recursion_once_in_inclusive_time():
    clock = FakeClock()
    mod = types.ModuleType("slh2._bench_test_module")

    def countdown(n):  # one clock second per level, recursing through the module
        clock.t += 1.0
        return 0 if n == 0 else mod.countdown(n - 1)

    mod.countdown = countdown
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer({"ncalg": [(mod.__name__, "countdown")]}, clock=clock)
        tracer.install()
        try:
            mod.countdown(2)
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[mod.__name__]
    stat = tracer.snapshot()["ncalg.countdown"]
    assert (stat["calls"], stat["incl_s"], stat["self_s"]) == (3, 3.0, 3.0)


def test_fresh_interpreter_is_cold_and_a_used_one_is_not():
    code = (
        "import json, child; from slh2 import dfun, exprio, fock, hopfcheck, ncalg, pbwcheck, rep;"
        "print(json.dumps(child.cold_start_problems()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        env={"PYTHONPATH": f"{HERE.parent / 'src'}:{HERE}"},
        capture_output=True,
        text=True,
        check=True,
    )
    checked, problems = json.loads(out.stdout)
    assert problems == []
    for name in ("slh2.ncalg._MEMO", "slh2.ncalg._WW_MEMO", "slh2.hopfcheck._DELTA_MEMO",
                 "slh2.pbwcheck._NAIVE_MEMO", "slh2.dfun.dfunc", "slh2.fock.eval_letters"):
        assert name in checked
    dfun.dfunc(1, 1, 1)
    _, problems = child.cold_start_problems()
    assert any("slh2.dfun.dfunc" in p for p in problems)


def test_reference_speed_scales_with_the_calibration_alone():
    times = [0.01 * (i + 1) for i in range(40)]
    assert speed.reference_times(times, [speed.REF_S] * 40) == times
    slow = speed.reference_times(times, [2 * speed.REF_S] * 40)
    assert all(abs(s - t * 2 ** -speed.EXPONENT) < 1e-15 for s, t in zip(slow, times))
    # a slow stretch late in a pass does not rescale the ops long before it
    cal = [speed.REF_S] * 30 + [2 * speed.REF_S] * 10
    assert speed.reference_times(times, cal)[:20] == times[:20]
    assert speed.reference_factor(cal) == 1.0


def test_calibration_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert speed.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()
