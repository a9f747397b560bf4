#!/usr/bin/env python3
"""Runs perfbench on one or two trees and compares two result sets.

Collect results (two trees alternate which runs first, seed by seed):

    python3 perfbench/compare.py run --tree . --out change.jsonl \\
        --tree ../parent --out base.jsonl --seeds 1-10

Compare them, one row per metric and workload:

    python3 perfbench/compare.py diff base.jsonl change.jsonl

Each row gives both sides' median and quartiles, how many seed-matched
pairs the change won, and a verdict:
  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the base runs' own quartile spread
  worse       the change's median is worse than the base's by more than the
              metric's bound (end-to-end metrics) or, for a per-layer
              metric, lost 9 of 10 pairs by more than the spread
  unresolved  the base runs spread wider than the bound, and the two sides'
              runs overlap
  unchanged   none of the above
Runs that failed (non-zero exit or "correct": false) are left out of the
figures; each row says how many runs each side lost that way.
There is no combined score: every metric and workload stands alone.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path



def read_benchmark(path):
    return json.loads(Path(path).read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode("utf-8", errors="replace").strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "result": result}


def cmd_run(args):
    if len(args.tree) != len(args.out) or not 1 <= len(args.tree) <= 2:
        sys.exit("give one or two --tree, each with its --out")
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in read_benchmark(args.benchmark)["workloads"]]
    outs = [open(path, "a") for path in args.out]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            order = list(range(len(args.tree)))
            if i % 2 == 1:
                order.reverse()
            for side in order:
                record = run_one(args.tree[side], workload, seed, args.seconds,
                                 args.trace)
                outs[side].write(json.dumps(record) + "\n")
                outs[side].flush()
                ok = (record["exit"] == 0 and record["result"] is not None
                      and record["result"]["correct"])
                print(f"{args.tree[side]} {workload} seed={seed} "
                      f"{'ok' if ok else 'FAILED'}", file=sys.stderr)
    for f in outs:
        f.close()


def load(path):
    """Returns ({(workload, metric): {seed: value}}, {workload: failed runs})."""
    runs, failed_runs = {}, {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        result = record.get("result")
        key = record["workload"]
        failed_runs.setdefault(key, 0)
        if record["exit"] != 0 or not result or not result["correct"]:
            failed_runs[key] += 1
            continue
        for name, metric in result["metrics"].items():
            runs.setdefault((key, name), {})[record["seed"]] = metric["value"]
        failed = runs.setdefault((key, "(failed ops)"), {})
        failed[record["seed"]] = result["failed"]
    return runs, failed_runs


def metric_specs(bench):
    specs = {"(failed ops)": {"better": "lower", "bound": 0.0}}
    for m in bench.get("end_to_end", []):
        specs[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for m in bench.get("per_layer", []):
        specs[m["name"]] = {"better": m["better"], "bound": None}
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(list(base.values()))
    _, cm, _ = quartiles(list(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    spread = b3 - b1
    all_better = min(sign * v for v in change.values()) > max(
        sign * v for v in base.values())
    all_worse = max(sign * v for v in change.values()) < min(
        sign * v for v in base.values())
    gain = sign * (cm - bm)
    if seeds and wins >= 0.9 * len(seeds) and gain > spread:
        word = "better"
    elif bound is not None and -gain > bound * abs(bm):
        word = "worse"
    elif bound is None and seeds and losses >= 0.9 * len(seeds) and -gain > spread:
        word = "worse"
    elif bound is not None and bm != 0 and spread / abs(bm) > bound and not (
            all_better or all_worse):
        word = "unresolved"
    else:
        word = "unchanged"
    return wins, len(seeds), word


def cmd_diff(args):
    base, base_failed = load(args.base)
    change, change_failed = load(args.change)
    specs = metric_specs(read_benchmark(args.benchmark))
    for workload in sorted(set(base_failed) | set(change_failed)):
        print(f"{workload}: failed runs, base {base_failed.get(workload, 0)}, "
              f"change {change_failed.get(workload, 0)}")
    print(f"{'workload':13} {'metric':30} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        spec = specs[name]
        b, c = base[key], change[key]
        b1, bm, b3 = quartiles(list(b.values()))
        c1, cm, c3 = quartiles(list(c.values()))
        wins, pairs, word = verdict(b, c, spec["better"], spec["bound"])
        print(f"{workload:13} {name:30} {bm:12.4f} [{b1:9.4f}, {b3:9.4f}] "
              f"{cm:12.4f} [{c1:9.4f}, {c3:9.4f}] {wins:>3}/{pairs:<2}  {word}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect results from one or two trees")
    run.add_argument("--tree", action="append", required=True)
    run.add_argument("--out", action="append", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="")
    run.add_argument("--seconds", type=int, default=30)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--benchmark", default="BENCHMARK.json")
    diff = sub.add_parser("diff", help="compare two collected result sets")
    diff.add_argument("base")
    diff.add_argument("change")
    diff.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
    else:
        cmd_diff(args)


if __name__ == "__main__":
    main()
