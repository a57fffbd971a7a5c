"""One cold pass of a workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py --workload construct --seed 1 --trace 0

Imports slh2, asserts that every memo and lru cache in it is empty,
builds the seeded op list, runs the ops back to back (timing each, and
timing the fixed calibration of speed.py just before each), then,
with the clock stopped, reads the memo state, removes the tracer,
digests every op's output and, with --gate 1, applies the correctness
gate.  Prints one JSON object as the last line of stdout.  Exits 3 if
the caches are not cold.
"""

import argparse
import json
import platform
import resource
import sys
import time

from speed import calibrate
from tracer import Tracer, slh2_modules


def _caches(mod):
    """(name, object) of every lru cache in a module and its classes."""
    spaces = [("", vars(mod))]
    spaces += [
        (f"{value.__name__}.", vars(value))
        for value in vars(mod).values()
        if isinstance(value, type) and value.__module__ == mod.__name__
    ]
    for prefix, space in spaces:
        for key, value in space.items():
            if callable(getattr(value, "cache_info", None)):
                yield prefix + key, value


def cold_start_problems():
    """Every *_MEMO dict and lru cache in slh2 must be empty; returns (checked, problems)."""
    checked, problems = [], []
    for modname, mod in slh2_modules():
        for key, value in vars(mod).items():
            if key.endswith("_MEMO") and isinstance(value, dict):
                checked.append(f"{modname}.{key}")
                size = sum(len(v) if isinstance(v, dict) else 1 for v in value.values())
                if size:
                    problems.append(f"{modname}.{key} holds {size} entries")
        for key, cache in _caches(mod):
            checked.append(f"{modname}.{key}")
            size = cache.cache_info().currsize
            if size:
                problems.append(f"{modname}.{key} lru cache holds {size} entries")
    return checked, problems


def _memo_size(modname, attr):
    memo = getattr(sys.modules.get(modname), attr, None) or {}
    return sum(len(v) for v in memo.values())


def _hits(modname, attr):
    fn = getattr(sys.modules.get(modname), attr, None)
    if fn is None or not hasattr(fn, "cache_info"):
        return [0, 0]
    info = fn.cache_info()
    return [info.hits, info.misses]


def memo_state():
    """Sizes and hit counts of the program's own caches, at clock stop."""
    return {
        "ncalg.memo": _memo_size("slh2.ncalg", "_MEMO"),
        "ncalg.ww_memo": _memo_size("slh2.ncalg", "_WW_MEMO"),
        "hopfcheck.delta_memo": _memo_size("slh2.hopfcheck", "_DELTA_MEMO"),
        "pbwcheck.naive_memo": _memo_size("slh2.pbwcheck", "_NAIVE_MEMO"),
        "dfun.dfunc": _hits("slh2.dfun", "dfunc"),
        "hopfcheck._dprod": _hits("slh2.hopfcheck", "_dprod"),
        "fock.eval_letters": _hits("slh2.fock", "eval_letters"),
    }


def run_pass(workload, seed, trace, full_gate):
    import slh2
    from slh2 import dfun, exprio, fock, hopfcheck, ncalg, pbwcheck, rep  # noqa: F401

    _, problems = cold_start_problems()
    if problems:
        print("caches are not cold at start: " + "; ".join(problems), file=sys.stderr)
        sys.exit(3)

    import gate
    import workloads

    reference = gate.load_reference()
    ops = workloads.WORKLOADS[workload](seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    perf = time.perf_counter
    times, cal, outcomes = [], [], []
    other_s = 0.0
    ready = time.monotonic()
    for op in ops:
        cal.append(calibrate())
        covered = tracer.covered_s() if tracer else 0.0
        t0 = perf()
        try:
            outcome = ("ok", op.fn())
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        dt = perf() - t0
        times.append(dt)
        outcomes.append(outcome)
        if tracer:
            other_s += dt - (tracer.covered_s() - covered)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the clock has stopped: nothing below is timed or traced
    spans = None
    if tracer:
        spans = tracer.snapshot()
        tracer.uninstall()
    state = memo_state()
    reasons = gate.gate(ops, outcomes, reference) if full_gate else []
    digests = [gate.output_digest(op, *out) for op, out in zip(ops, outcomes)]
    return {
        "ready": ready,
        "labels": [op.label for op in ops],
        "times": times,
        "cal": cal,
        "failures": {str(i): r for i, r in enumerate(reasons) if r},
        "digests": digests,
        "rss_mb": rss_mb,
        "state": state,
        "spans": spans,
        "missing": tracer.missing if tracer else [],
        "other_s": other_s,
        "env": {
            "python": platform.python_version(),
            "kernel_backend": getattr(slh2, "KERNEL_BACKEND", "absent"),
            "rat_backend": getattr(slh2, "RAT_BACKEND", "absent"),
            "slh2_file": slh2.__file__,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace), bool(args.gate))))


if __name__ == "__main__":
    main()
