#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload noop_rtt --seed 1 --seconds 20 --trace 0

builds perfbench/perfbench.exe with dune, runs it, and passes its result
through: the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Progress, the per-layer host
table and any findings go to stderr.

Steadiness self-check (two sets of the same code, interleaved A, B, A, B
so that machine-speed drift hits both sets alike):

    python3 perfbench/run.py --steady --seeds 5 [--workload W ...] [--seconds S]

prints, per workload and end-to-end metric, each set's median and
quartiles and the spread against the metric's bound in BENCHMARK.json,
and checks that the exact-repeat metrics of one seed are identical in
both sets.  It exits non-zero when a spread or a set-to-set difference
exceeds its bound or an exact metric drifts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["noop_rtt", "netmap_mop", "gpu_frames", "fleet_zipf"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# Metrics that must repeat exactly across runs of one seed.
EXACT = ["sim_req_us_p50", "sim_req_us_p99", "alloc_words_per_op",
         "promoted_words_per_op", "peak_heap_mb"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("perfbench: dune not found on PATH")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        return False
    return True


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary once; return (exit code, result dict or None)."""
    try:
        proc = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(DEFAULT_SEED, DEFAULT_SEED + args.seeds))
    results = {w: {"A": [], "B": []} for w in workloads}
    bad = 0
    for seed in seeds:
        for w in workloads:
            for s in ("A", "B"):
                code, res = run_once(w, seed, args.seconds, 0)
                if res is None:
                    log(f"{w} seed {seed} set {s}: run failed (exit {code})")
                    return 1
                if not res["correct"]:
                    log(f"{w} seed {seed} set {s}: {res['failed']} failed ops")
                    bad += 1
                results[w][s].append((seed, res["metrics"]))
                log(f"{w} seed {seed} set {s}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()))
    for w in workloads:
        print(f"\n{w}: {len(seeds)} seeds x 2 interleaved sets")
        print(f"  {'metric':24} {'A median':>12} {'A IQR/med':>10} "
              f"{'B median':>12} {'B IQR/med':>10} {'B vs A':>8} {'bound':>6}")
        for name, m in bounds.items():
            row = []
            for s in ("A", "B"):
                vals = [r[name]["value"] for _, r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                row.append((med, (q3 - q1) / med if med else 0.0))
            (a_med, a_spread), (b_med, b_spread) = row
            worse = (b_med - a_med) / a_med if a_med else 0.0
            if m["better"] == "higher":
                worse = -worse
            flag = ""
            spreads = [a_spread, b_spread]
            if worse > m["bound"] or any(x > m["bound"] for x in spreads):
                flag = "  OVER"
                bad += 1
            elif any(x > m["bound"] / 3 for x in spreads):
                flag = "  >bound/3"
            print(f"  {name:24} {a_med:12.6g} {a_spread:10.4f} {b_med:12.6g} "
                  f"{b_spread:10.4f} {worse:+8.4f} {m['bound']:6.3f}{flag}")
        for (seed, a), (_, b) in zip(results[w]["A"], results[w]["B"]):
            for name in EXACT:
                if name in a and a[name]["value"] != b[name]["value"]:
                    print(f"  FINDING: {name} drifted on seed {seed}: "
                          f"{a[name]['value']!r} vs {b[name]['value']!r}")
                    bad += 1
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append",
                   help=f"one of {', '.join(WORKLOADS)} (repeatable with --steady)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true",
                   help="interleaved two-set steadiness self-check")
    p.add_argument("--seeds", type=int, default=5,
                   help="seeds per set in --steady mode")
    args = p.parse_args()
    if not args.steady and (not args.workload or len(args.workload) != 1):
        p.error("exactly one --workload is required")
    if not build():
        return 1
    if args.steady:
        return steady(args)
    code, res = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
