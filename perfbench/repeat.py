"""Repeat every workload in fresh processes and summarise each metric's spread.

Usage (from the root of a source checkout):

    python3 perfbench/repeat.py [--runs 10] [--seed0 0] [--seconds S]

Run i of a workload uses seed seed0 + i, with tracing off. For every
end-to-end metric the summary gives the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json, and the median and spread of the same
metric before scaling by the reference kernel (the `raw` columns), with the
median speed factor: a change that moves the kernel shows as a gap between
the two. It also gives the share of failed operations per workload.
Results go to perfbench/out/repeat-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def run_once(bench, workload, seed, seconds):
    """(result line, run record line) of one run in a fresh process."""
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("run "):])
    result["wall_s"] = wall
    return result, record


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"args": vars(args), "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        runs, records = [], []
        for seed in range(args.seed0, args.seed0 + args.runs):
            result, record = run_once(bench, workload, seed, args.seconds)
            runs.append(result)
            records.append(record)
            print(f"{workload} seed={seed} wall={result['wall_s']:.1f}s "
                  f"speed={record['speed']:.3f} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            raw = [rec["raw_metrics"][name]["value"] for rec in records]
            metrics[name] = {**summarise(values), "unit": runs[0]["metrics"][name]["unit"],
                             "bound": bounds[name], "values": values,
                             "raw": {**summarise(raw), "values": raw}}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        speeds = [rec["speed"] for rec in records]
        report["workloads"][workload] = {"metrics": metrics, "failed_shares": shares,
                                         "all_correct": all(r["correct"] for r in runs),
                                         "speeds": speeds,
                                         "wall_s": [r["wall_s"] for r in runs]}
        print(f"\n{workload}: failed share(s) {shares}, all correct "
              f"{all(r['correct'] for r in runs)}, median speed {statistics.median(speeds):.3f}, "
              f"max wall {max(r['wall_s'] for r in runs):.1f}s")
        print(f"{'metric':22s}{'median':>12s}{'q1':>12s}{'q3':>12s}{'spread':>8s}{'bound':>7s}"
              f"{'raw median':>12s}{'raw spread':>11s}")
        for name, m in metrics.items():
            print(f"{name:22s}{m['median']:12.6g}{m['q1']:12.6g}{m['q3']:12.6g}"
                  f"{m['spread']:8.4f}{m['bound']:7.2f}{m['raw']['median']:12.6g}"
                  f"{m['raw']['spread']:11.4f}  {m['unit']}")
        print(flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
