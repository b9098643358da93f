#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--seeds 10] [--workloads a,b] [--seconds S]
                                [--write perfbench/baseline.json]

Runs `run.py --trace 0` once per seed and workload, one run at a time, and
prints for every end-to-end metric the median and the spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median, next to a third of the metric's bound from
BENCHMARK.json.  `--write` stores the medians, quartiles, one traced run
per workload (first seed) and the machine description as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--write", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run(name, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: correct=false", file=sys.stderr)
                ok = False
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        report[name] = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "values": vs}
            limit = bounds[metric] / 3
            flag = "" if spread < limit or metric == "setup_s" else "  <-- over a third of bound"
            print(f"{name:11s} {metric:17s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {limit:.4f}){flag}", flush=True)
    if args.write:
        traced = {name: {k: v["value"] for k, v in
                         run(name, args.first_seed, args.seconds, 1)["metrics"].items()}
                  for name in report}
        baseline = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform(), "processor": platform.machine()},
            "git_sha": git_sha(),
            "run_seconds": args.seconds,
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "workloads": report,
            "per_layer": traced,
        }
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
