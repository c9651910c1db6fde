#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per workload and
metric, the median, the quartiles and the quartile spread (as a share of
the median) as a Markdown table.

    python3 perfbench/baseline.py [--seeds 1-10] [--trace 0|1] \
        [--seconds 25] [--workloads cluster-warm,cluster-churn,fork-unit]

Run it from the repository root after building the benchmark
(`cargo build --release --manifest-path perfbench/Cargo.toml`, with the
same `CARGO_TARGET_DIR` as below). Compare two commits by running it on
both with the same arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--seconds", default="25")
    p.add_argument("--workloads", default="cluster-warm,cluster-churn,fork-unit")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(target, "release", "perfbench")

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for seed in seeds(args.seeds):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            start = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{run.stdout}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed} done in {time.monotonic() - start:.1f} s",
                  file=sys.stderr, flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {workload} | {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")


if __name__ == "__main__":
    main()
