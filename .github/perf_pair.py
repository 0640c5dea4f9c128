#!/usr/bin/env python3
"""Paired base-vs-head run of the benchmark on one host.

Builds perfbench at BASE (a git worktree under .bench_work/) and in this
checkout, then runs BENCHMARK.json's command on each workload below:
one warm-up run it drops, then PAIRS pairs, every run SECONDS long,
alternating which side runs first. Exits 1 on any incorrect run, or
when this checkout's median is worse than the base's by more than
BOUND_FROM's bound in BENCHMARK.json on a metric it guards:

- fleet-study: cpu_us_per_op and device_hours_per_s;
- sast-corpus: cpu_us_per_op and sast_apps_per_s;
- ops-mixed: cpu_us_per_op.

cpu_us_per_op, the process CPU time per operation, catches a slower
program. A wall-clock rate, read from perfbench's readable report,
catches a loss of parallelism: fleet-study and sast-corpus run on two
threads, and threads that wait on each other spend no more CPU per
operation. ops-mixed is an open loop that sends at fixed rates, so it
has no wall-clock rate to check.

Prints every end-to-end median beside them. When perfbench/ or
BENCHMARK.json differ between BASE and HEAD, the two sides run different
benchmarks: it says the baseline must be measured again and exits 0.

    python3 .github/perf_pair.py BASE_COMMIT

Run from the repository root. The base worktree and its build are reused
while it holds BASE, so a second run against the same base skips them.
"""
import json
import os
import re
import statistics
import subprocess
import sys

# Each workload and its wall-clock rate (higher is better), if it has one.
WORKLOADS = {
    "fleet-study": "device_hours_per_s",
    "sast-corpus": "sast_apps_per_s",
    "ops-mixed": None,
}
PAIRS = 5
SECONDS = 3
BOUND_FROM = "cpu_us_per_op"
BENCHMARK = ["perfbench", "BENCHMARK.json"]
BASE_DIR = os.path.join(".bench_work", "perf-pair-base")
# Each side builds into its own perfbench/target.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def git(*args, cwd="."):
    out = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def base_tree(sha):
    if os.path.exists(os.path.join(BASE_DIR, ".git")):
        if git("rev-parse", "HEAD", cwd=BASE_DIR) == sha:
            return
        git("worktree", "remove", "--force", BASE_DIR)
    git("worktree", "prune")
    git("worktree", "add", "--detach", BASE_DIR, sha)


def run(tree, command, workload):
    cmd = command + ["--workload", workload, "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(cmd, cwd=tree, env=ENV, capture_output=True, text=True)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    rate_name = WORKLOADS[workload]
    rate = rate_name and re.search(rf"^metric {rate_name} = (\S+) ", p.stdout, re.M)
    if result is None or not result["correct"] or (rate_name and rate is None):
        sys.exit(f"{workload} in {tree}: incorrect run (exit {p.returncode})\n"
                 f"{p.stdout[-3000:]}\n{p.stderr[-3000:]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if rate_name:
        values[rate_name] = float(rate.group(1))
    return values


def worse_by(better, base, head):
    """How much worse head is than base, as a share of base."""
    change = (head - base) / base
    return change if better == "lower" else -change


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bound = metrics[BOUND_FROM]["bound"]
    command = bench["command"]
    build = [a if a != "run" else "build" for a in command[:command.index("--")]]
    sha = git("rev-parse", "--verify", sys.argv[1] + "^{commit}")
    head = git("rev-parse", "HEAD")
    if subprocess.run(["git", "diff", "--quiet", sha, head, "--", *BENCHMARK]).returncode:
        print(f"perfbench/ or BENCHMARK.json differ between base {sha} and head {head}: "
              "the benchmark changed, so the baseline must be measured again; nothing compared")
        return
    base_tree(sha)
    print(f"base {sha}, head {head} (+ working tree)", flush=True)
    sides = {"base": BASE_DIR, "head": "."}
    for tree in sides.values():
        subprocess.run(build, cwd=tree, env=ENV, check=True)
    failures = []
    for workload, rate in WORKLOADS.items():
        guarded = {BOUND_FROM: "lower", **({rate: "higher"} if rate else {})}
        # A workload's first run reads high (ops-mixed's by 1.3-1.8x) and
        # would always land on the base side: run one and drop it.
        run(sides["base"], command, workload)
        values = {side: [] for side in sides}
        for i in range(PAIRS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                values[side].append(run(sides[side], command, workload))
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{side} " + " ".join(f"{values[side][-1][g]:.6g}" for g in guarded)
                for side in order), flush=True)
        for name in [*metrics, *([rate] if rate else [])]:
            base, head = (statistics.median(r[name] for r in values[s]) for s in sides)
            verdict = ""
            if name in guarded:
                worse = worse_by(guarded[name], base, head)
                verdict = "ok" if worse <= bound else "REGRESSION"
                if worse > bound:
                    failures.append(f"{workload} {name} {worse:+.1%} worse, bound {bound:.0%}")
            shown = metrics[name]["bound"] if name in metrics else bound
            print(f"{workload:12s} {name:18s} base {base:10.6g}  head {head:10.6g}  "
                  f"head/base {head / base:.4f}  bound {shown}  {verdict}", flush=True)
    if failures:
        sys.exit("perf regression: " + "; ".join(failures))


if __name__ == "__main__":
    main()
