"""The slh2 benchmark: cold-start workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The parent process (this file) runs
one workload child at a time, each a fresh interpreter doing one cold
pass of the workload (perfbench/child.py), until --seconds have passed
and at least MIN_PASSES passes are done.  Each pass is a closed loop
with one client: the ops are made back to back, one at a time.

--trace 0 reports the end-to-end metrics, each the median over passes
of a figure of one pass.  Times are reported at reference speed
(speed.py): scaled by the speed of the machine at the time, measured by
a fixed calibration the child times before each op, so that most of the
drift of a shared machine's speed cancels.  --trace 1 runs one untraced
pass, then traced passes, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TIME_LIMIT_S = 170  # a run must end within 180 s


class PassError(RuntimeError):
    pass


def git_sha(root=ROOT):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": git_sha(), "nproc": nproc}


def run_pass(workload, seed, trace, full_gate, deadline):
    """Spawn one child, wait for it, return its result with setup_s added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--gate", str(int(full_gate))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise PassError(f"pass did not finish within the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0:
        raise PassError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassError("child printed no result")
    result = json.loads(lines[-1])
    if not Path(result["env"]["slh2_file"]).resolve().is_relative_to(SRC.resolve()):
        raise PassError(f"child imported slh2 from {result['env']['slh2_file']}, not from {SRC}")
    result["setup_s"] = result["ready"] - spawned
    return result


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(passes, at_reference=True):
    """Medians over passes, with every time at reference speed (or, with
    at_reference=False, as measured).  The latency quantiles are taken over
    the ops of each pass, then their median over passes: pooling the ops
    of all passes would put op_p90 of a 60-op pass exactly on the boundary
    between two ops, where it reads the slowest of one op's repeats."""
    if at_reference:
        times = [speed.reference_times(p["times"], p["cal"]) for p in passes]
        setups = [p["setup_s"] * speed.reference_factor(p["cal"]) for p in passes]
        tag = "_ref"
    else:
        times = [p["times"] for p in passes]
        setups = [p["setup_s"] for p in passes]
        tag = ""
    values = {
        f"wall{tag}_s": [sum(t) for t in times],
        f"op{tag}_p50_ms": [quantile(t, 0.5) * 1000 for t in times],
        f"op{tag}_p90_ms": [quantile(t, 0.9) * 1000 for t in times],
        "setup_s": setups,
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    spread = {name: [quantile(v, 0.25), quantile(v, 0.75)] for name, v in values.items()}
    return metrics, spread


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


SCALAR_OPS = tuple(
    f"scalar.RadScalar.{name}" for name in ("__add__", "__sub__", "__neg__", "__mul__", "scaled")
)


def per_layer(traced, untraced):
    """Per-layer metrics: counts from the first traced pass, times as medians.

    A layer's time is given as its self time's share of the traced wall
    time of the pass, in percent; bench.self_pct is the share spent in the
    benchmark's own code between and around the traced calls.
    """
    spans = traced[0]["spans"]
    state = traced[0]["state"]

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    def size(*names):
        return sum(spans[n]["size"] for n in names if n in spans)

    def layer_calls(layer):
        return sum(s["calls"] for s in spans.values() if s["layer"] == layer)

    def self_pct(layer):
        return statistics.median(
            100 * sum(s["self_s"] for s in p["spans"].values() if s["layer"] == layer) / sum(p["times"])
            for p in traced
        )

    ww_calls = calls("ncalg._word_mul_word")
    m = {
        "kernel.rad_mul.calls": calls("kernel.rad_mul"),
        "kernel.rad_add.calls": calls("kernel.rad_add"),
        "kernel.poly_mul.calls": calls("kernel.poly_mul"),
        "scalar.ops": calls(*SCALAR_OPS),
        "ncalg.calls": calls("ncalg.normal_form", "ncalg.NCPoly.__mul__"),
        "ncalg.terms_out": size("ncalg.normal_form", "ncalg.NCPoly.__mul__"),
        "ncalg.memo_entries": state["ncalg.memo"] + state["ncalg.ww_memo"],
        # every miss of _word_mul_word adds one entry to a memo that starts empty
        "ncalg.ww.hit_ratio": 1 - state["ncalg.ww_memo"] / ww_calls if ww_calls else 0.0,
        "dfun.dfunc.calls": calls("dfun.dfunc"),
        "dfun.dfunc.hit_ratio": _ratio(*state["dfun.dfunc"]),
        "rep.calls": layer_calls("rep"),
        "exprio.calls": layer_calls("exprio"),
        "hopfcheck.calls": layer_calls("hopfcheck"),
        "hopfcheck.dprod.hit_ratio": _ratio(*state["hopfcheck._dprod"]),
        "hopfcheck.delta_memo_entries": state["hopfcheck.delta_memo"],
        "pbwcheck.calls": layer_calls("pbwcheck"),
        "pbwcheck.naive_memo_entries": state["pbwcheck.naive_memo"],
        "fock.mul.calls": calls("fock.FockOp.__mul__"),
        "fock.mul.nnz_out": size("fock.FockOp.__mul__"),
        "fock.eval_letters.hit_ratio": _ratio(*state["fock.eval_letters"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = self_pct(layer)
    m["bench.self_pct"] = statistics.median(100 * p["other_s"] / sum(p["times"]) for p in traced)

    def wall_ref(p):
        return sum(speed.reference_times(p["times"], p["cal"]))

    m["trace.wall_ref_s"] = statistics.median(wall_ref(p) for p in traced)
    m["trace.overhead_x"] = m["trace.wall_ref_s"] / statistics.median(wall_ref(p) for p in untraced)
    return m


def bypass_checks(workload, m):
    """The layers each workload must leave alone, from the traced run."""
    if workload == "construct":
        idle = ("hopfcheck.calls", "rep.calls", "pbwcheck.calls", "fock.mul.calls")
        return {f"{n} == 0": m[n] == 0 for n in idle}
    if workload == "verify":
        return {"fock.mul.calls == 0": m["fock.mul.calls"] == 0}
    share = m["ncalg.self_pct"] + m["dfun.self_pct"] + m["hopfcheck.self_pct"]
    return {f"ncalg+dfun+hopfcheck self time {share:.3f} % < 2 %": share < 2}


def results(metrics, specs):
    """The metrics in the order and with the units BENCHMARK.json gives."""
    if set(metrics) != {s["name"] for s in specs}:
        raise KeyError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def collect(workload, seed, seconds, trace):
    """Run the passes of one run: (untraced, traced) lists of child results.

    The first pass goes through the full gate.  Every later pass must
    reproduce its output digests op for op, traced passes included.
    """
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + TIME_LIMIT_S
    untraced, traced = [run_pass(workload, seed, 0, True, hard_deadline)], []
    bucket, least = (traced, MIN_TRACED_PASSES) if trace else (untraced, MIN_PASSES)
    while len(bucket) < least or time.monotonic() < deadline:
        last = sum(bucket[-1]["times"]) if bucket else 0.0
        if time.monotonic() + 2 * last > hard_deadline:
            break
        bucket.append(run_pass(workload, seed, trace, False, hard_deadline))
    verified = untraced[0]
    for p in untraced[1:] + traced:
        for i, (got, want) in enumerate(zip(p["digests"], verified["digests"])):
            if got != want:
                p["failures"][str(i)] = ["output differs from the gated first pass"]
    return untraced, traced


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so that subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slh2" / "__init__.py").is_file():
        print(f"error: no slh2 package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile up front so that no pass pays for it in its set-up time
    compileall.compile_dir(SRC / "slh2", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        untraced, traced = collect(args.workload, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    env = dict(untraced[0]["env"], **environment())
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced + {len(traced)} traced"
          f"  ops/pass {len(untraced[0]['times'])}  ops {attempted}  closed loop, one client")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for index, p in enumerate(passes):
        for i, reasons in p["failures"].items():
            print(f"FAIL pass {index} op {p['labels'][int(i)]}: {'; '.join(reasons)}")
    print(f"fail_ratio {failed / attempted:.6f} ratio  ({failed}/{attempted})")

    metrics, spread = end_to_end(untraced)
    out = results(metrics, spec["end_to_end"])
    detail = {"workload": args.workload, "seed": args.seed, "env": env, "passes": len(passes),
              "fail_ratio": failed / attempted,
              "digest": hashlib.sha256("".join(untraced[0]["digests"]).encode()).hexdigest(),
              "end_to_end": metrics, "pass_quartiles": spread,
              "pass_walls": [sum(p["times"]) for p in untraced],
              "pass_setups": [p["setup_s"] for p in untraced],
              "pass_speed": [speed.reference_factor(p["cal"]) for p in untraced]}
    for name, r in out.items():
        q1, q3 = spread[name]
        print(f"{name:14s} {r['value']:12.4f} {r['unit']:3s} (passes q1 {q1:.4f} q3 {q3:.4f})")
    n_ops = len(untraced[0]["times"])
    print(f"latency quantiles: over the {n_ops} ops of each pass ({n_ops - 1 - int(0.9 * (n_ops - 1))} beyond p90),"
          f" median over {len(untraced)} passes")
    raw, _ = end_to_end(untraced, at_reference=False)
    detail["as_measured"] = raw
    print(f"as measured, at this machine's current speed (median reference-speed factor "
          f"{statistics.median(detail['pass_speed']):.3f}):")
    for name in ("wall_s", "op_p50_ms", "op_p90_ms", "setup_s"):
        print(f"  {name:12s} {raw[name]:12.4f} {name.rsplit('_', 1)[1]}")
    slowest = sorted(zip(untraced[0]["times"], untraced[0]["labels"]), reverse=True)[:5]
    print("slowest ops: " + ", ".join(f"{label} {t * 1000:.0f} ms" for t, label in slowest))

    if args.trace:
        layer = per_layer(traced, untraced)
        out = results(layer, spec["per_layer"])
        counts = [{k: v["calls"] for k, v in p["spans"].items()} for p in traced]
        bypass = bypass_checks(args.workload, layer)
        detail.update(per_layer=layer, counts_repeat=all(c == counts[0] for c in counts),
                      bypass=bypass, missing_targets=traced[0]["missing"], spans=traced[0]["spans"])
        for name, r in out.items():
            print(f"{name:30s} {r['value']:14.6g} {r['unit']}")
        print(f"traced counts repeat across passes: {detail['counts_repeat']}")
        for check, ok in bypass.items():
            print(f"bypass {'ok  ' if ok else 'FAIL'} {check}")
        if traced[0]["missing"]:
            print("trace targets not found: " + ", ".join(traced[0]["missing"]))
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
