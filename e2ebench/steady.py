#!/usr/bin/env python3
"""A/A steadiness check of the repository benchmark.

    python3 e2ebench/steady.py [--pairs 10]

Run from the repository root. Builds the same source into two target
directories (`.bench_build/steady_a`, `.bench_build/steady_b`), then for
every workload in BENCHMARK.json runs alternating pairs (A then B, B
then A, ...) of `run_seconds` runs with seed 1..pairs on both sides. For every end-to-end metric in BENCHMARK.json it
reports each side's median and quartiles, the spread (Q3 - Q1) / median
of each side, and the gap between the medians in the metric's worse
direction, each against the metric's bound. A result with `correct`
false, a non-zero exit, or differing failed shares fails the check.
Exits 0 only when every spread and every median gap is within its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {s: os.path.join(ROOT, ".bench_build", f"steady_{s}") for s in "ab"}

    ok = True
    report = {}
    for w in workloads:
        runs = {"a": [], "b": []}
        for i in range(args.pairs):
            order = "ab" if i % 2 == 0 else "ba"
            for s in order:
                runs[s].append(run_once(sides[s], w, i + 1, seconds))
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        shares = {s: sorted({r["failed"] / r["attempted"] for r in runs[s]}) for s in "ab"}
        if shares["a"] != shares["b"]:
            ok = False
            print(f"{w}: failed shares differ {shares}")
        print(f"\n## {w} ({args.pairs} A/A pairs, {seconds} s runs, failed share {shares['a']})")
        print("| metric | A median [Q1, Q3] | B median [Q1, Q3] | spread A / B | gap | bound |")
        print("|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "ab"}
            a, b = summary(values["a"]), summary(values["b"])
            worse = (b[0] - a[0]) / a[0]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = max(a[3], b[3]) <= bound
            gap_ok = worse <= bound
            ok &= spread_ok and gap_ok
            flag = "" if spread_ok and gap_ok else " FAIL"
            if flag == "" and max(a[3], b[3]) > bound / 3:
                flag = " (spread > bound/3)"
            print(f"| {name} | {a[0]:.4g} [{a[1]:.4g}, {a[2]:.4g}] | {b[0]:.4g} [{b[1]:.4g}, {b[2]:.4g}]"
                  f" | {a[3]:.3f} / {b[3]:.3f} | {worse:+.3f} | {bound}{flag} |")
            report[f"{w}/{name}"] = {"values": values, "gap": worse, "bound": bound}
        with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
            json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
