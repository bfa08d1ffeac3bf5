#!/usr/bin/env python3
"""repeat.py — does the benchmark repeat?

Runs every workload of BENCHMARK.json N times (default 10), each run with
another seed, and prints per workload x metric the median, the quartiles and
the relative interquartile range, computed the way the driver computes them
(statistics.quantiles(values, n=4)). For an end-to-end metric it fails when
the relative IQR exceeds half the metric's bound, or when the medians of the
odd and the even runs differ, in the worse direction, by more than the bound.
Like the driver it holds setup_s to the second rule only: the contract
requires that metric whatever its spread, which is the host's
(bench/README.md). The statistics a timed run prints without a bound (http.*)
are tabulated too, so that the table shows why they have none.

    python3 bench/repeat.py [-n 10] [--seed 1] [--out FILE] 2> runs.log
    python3 bench/repeat.py --replay runs.log     # the table again, from the log

Every run's metrics go to standard error as they arrive, one line per run;
--replay rebuilds the table from such a log (against the bounds BENCHMARK.json
holds now) without running anything.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.time() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stdout}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:  # the statistics printed without a bound
        m = re.match(r"\s+(http\.\S+)\s+(\S+)\s+\S+\s+\(n=\d+\)", line)
        if m:
            metrics[m.group(1)] = float(m.group(2))
    return metrics, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10, help="runs per workload (at least 10)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--out", help="also write the table to this file")
    ap.add_argument("--replay", help="rebuild the table from the standard-error log of an earlier invocation")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    wall = []

    def record(w, metrics, took):
        wall.append(took)
        for name, v in metrics.items():
            values[w].setdefault(name, []).append(v)

    if args.replay:
        with open(args.replay) as f:
            for line in f:
                m = re.match(r"run \d+/\d+ (\S+): ([\d.]+)s (\{.*\})$", line.strip())
                if m:
                    record(m.group(1), json.loads(m.group(3)), float(m.group(2)))
        args.n = len(wall) // len(workloads)
    else:
        for i in range(args.n):
            for w in workloads:  # round-robin, so slow drift touches every workload alike
                metrics, took = run(spec, w, args.seed + i)
                record(w, metrics, took)
                print(f"run {i + 1}/{args.n} {w}: {took:.1f}s {json.dumps(metrics)}", file=sys.stderr)

    lines = [
        f"{args.n} runs per workload, seeds {args.seed}..{args.seed + args.n - 1}, "
        f"--seconds {spec['run_seconds']}; a run took {statistics.median(wall):.1f} s "
        f"wall (median; max {max(wall):.1f} s).",
        "",
        "| workload | metric | unit | median | q1 | q3 | IQR/median | bound | odd/even medians | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    bad = 0
    unbounded = [m for m in spec["per_layer"] if m["name"].startswith("http.")]
    for w in workloads:
        for m in spec["end_to_end"] + unbounded:
            vals = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            odd, even = statistics.median(vals[0::2]), statistics.median(vals[1::2])
            lo, hi = min(odd, even), max(odd, even)
            drift = (hi - lo) / (lo if m["better"] == "lower" else hi)
            bound, verdict = "none", "—"
            if "bound" in m:
                steady = spread <= m["bound"] / 2 or m["name"] == "setup_s"
                ok = steady and drift <= m["bound"]
                bad += not ok
                bound, verdict = f"{m['bound']:.1%}", "ok" if ok else "TOO NOISY"
            lines.append(
                f"| {w} | {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{spread:.2%} | {bound} | {odd:.6g} / {even:.6g} ({drift:.2%}) | {verdict} |")
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write("# Repeatability of the benchmark on one commit\n\n"
                    "Written by `python3 bench/repeat.py`; see bench/README.md.\n\n" + table + "\n")
    if bad:
        sys.exit(f"{bad} workload x metric pairs are too noisy")


if __name__ == "__main__":
    main()
