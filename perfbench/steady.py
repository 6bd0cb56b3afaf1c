#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload once per seed
with the command in BENCHMARK.json and prints, per end-to-end metric, the
median, the quartiles and the spread (interquartile range over median)
next to the metric's bound. Each run's line also gives the share of CPU
time the hypervisor stole from the machine while it ran.

    python3 perfbench/steady.py --seeds 1-10 [--workloads serve_warm,datalog]
                                [--json OUT.json]

Run it from the repository root. Exit status 1 if any run failed, was
incorrect, or a spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def cpu_ticks():
    """(steal, total) CPU ticks of the machine, from /proc/stat."""
    try:
        fields = open("/proc/stat").readline().split()[1:9]
    except OSError:
        return (0, 0)
    ticks = [int(f) for f in fields]
    return (ticks[7], sum(ticks))


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    table = {}
    for w in names:
        values = {m: [] for m in bounds}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = cpu_ticks()
            out = subprocess.run(cmd, capture_output=True, text=True)
            t1 = cpu_ticks()
            steal = 100.0 * (t1[0] - t0[0]) / max(1, t1[1] - t0[1])
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                ok = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds)
                + f", host steal {steal:.1f}%", flush=True)
        table[w] = {}
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            table[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vs)}
            flag = ""
            if m != "setup_s" and spread > bounds[m]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bounds[m] / 3:
                flag = "  over a third of the bound"
            print(f"  {w:>10} {m:>15}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f} (bound {bounds[m]}){flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
