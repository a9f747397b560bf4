#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload dblp_di --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). The build lives in .bench_build/ at the root; inputs are generated
under .bench_build/work/ and removed when the run ends. The program's last
stdout line is the JSON result; build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def layers_match(root: Path) -> bool:
    """layers.json maps exactly the per-layer metrics BENCHMARK.json names."""
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
        layers = json.loads((root / "perfbench" / "layers.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False
    named = {m["name"] for m in bench["per_layer"]}
    mapped = set(layers["per_layer"])
    for name in sorted(named ^ mapped):
        where = "layers.json" if name in named else "BENCHMARK.json"
        print(f"perfbench: {name} is missing from {where}", file=sys.stderr)
    return named == mapped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload BENCHMARK.json names, or hybrid_topk")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not layers_match(root):
        return 2
    bench_build = root / ".bench_build"
    try:
        binary = build(root, bench_build / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = bench_build / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = bench_build / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_dir),
        "--benchmark", str(root / "BENCHMARK.json"),
        "--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl"),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 3
    sys.stdout.write(result.stdout.decode("utf-8", errors="replace"))
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
