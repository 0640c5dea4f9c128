#!/usr/bin/env python3
"""Runs the benchmark command from BENCHMARK.json for its run_seconds on
several seeds and prints, per metric, the median and the spread the
acceptance rule uses: (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(n=4) gives them.

    python3 perfbench/spread.py --workload ops-mixed --seeds 1,2,3,4,5
    python3 perfbench/spread.py --workload fleet-study --seeds 1-10 --trace 1

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", a.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}\n{run.stderr[-2000:]}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread:
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print(f"{name:32s} median {med:14.6g}  spread {spread:.4f}  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
