"""Run the benchmark over several seeds and summarise, or compare two sweeps.

    python3 perfbench/sweep.py --workload construct --seeds 1-10 --out a.json
    python3 perfbench/sweep.py --compare a.json b.json

A sweep runs perfbench/run.py once per seed, one run at a time, with the
run_seconds of BENCHMARK.json, and reports for every end-to-end metric
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread at or above the metric's bound marks the benchmark unsteady.

--compare reports, per workload and metric, how much worse the second
sweep's median is than the first's, against the bound, and flags a
comparison whose Python version or scalar backends differ (gmpy2 moves
every number by about an order of magnitude).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def summarise(runs, trace):
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    rows = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r, _ in runs]
        med, spr = spread(values) if len(values) > 1 else (values[0], 0.0)
        rows[spec["name"]] = {"values": values, "median": med, "spread": spr, "bound": spec.get("bound")}
    return rows


def print_rows(workload, rows):
    for name, row in rows.items():
        bound = row["bound"]
        mark = ""
        if bound is not None:
            mark = "steady" if row["spread"] < bound / 3 else ("within bound" if row["spread"] < bound else "UNSTEADY")
        print(f"{workload:10s} {name:28s} median {row['median']:12.5g}  spread {row['spread']:.4f}"
              f"  bound {bound}  {mark}")


def compare(a, b):
    env_a, env_b = a["env"], b["env"]
    for key in ("python", "kernel_backend", "rat_backend"):
        if env_a.get(key) != env_b.get(key):
            print(f"WARNING: {key} differs ({env_a.get(key)} vs {env_b.get(key)}); the numbers are not comparable")
    worst = 0.0
    for workload, rows in b["workloads"].items():
        for name, row in rows.items():
            base = a["workloads"].get(workload, {}).get(name)
            if base is None or row["bound"] is None or not base["median"]:
                continue
            worse = row["median"] / base["median"] - 1
            verdict = "ok" if worse <= row["bound"] else "WORSE THAN BOUND"
            worst = max(worst, worse / row["bound"])
            print(f"{workload:10s} {name:14s} {base['median']:12.5g} -> {row['median']:12.5g}"
                  f"  {worse:+.4f} (bound {row['bound']})  {verdict}")
    return 0 if worst <= 1 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(a, b)

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary = {"workloads": {}, "env": None}
    for workload in workloads:
        runs = []
        for seed in seeds(args.seeds):
            result, detail = one_run(workload, seed, args.trace)
            runs.append((result, detail))
            summary["env"] = detail["env"]
            status = "correct" if result["correct"] else "INCORRECT"
            print(f"{workload} seed {seed}: {status} {result['failed']}/{result['attempted']} failed", flush=True)
        rows = summarise(runs, args.trace)
        summary["workloads"][workload] = rows
        summary.setdefault("details", {})[workload] = [d for _, d in runs]
        print_rows(workload, rows)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
