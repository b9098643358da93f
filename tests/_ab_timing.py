"""Time two library copies against each other in one process.

    python tests/_ab_timing.py SRC_A SRC_B [--workload maxent_fit] [--rounds 30] [--seed 1]

Each SRC is a directory holding the `loglambert` package (a checkout's
`src`).  The two packages are copied into a temporary directory as
`loglambert_a` and `loglambert_b` and imported side by side, so both copies
run in one interpreter on one core: a host whose speed drifts between
processes moves both alike.  The inputs are the pool of the `--workload`
(`maxent_fit` by default, or `eval_hot`) in `perfbench/workloads.py` for
the seed, at the run length `BENCHMARK.json` sets.  Each round times, for
each copy, in an order that alternates from round to round:

- for `maxent_fit`:
  - `pass`: every discrete op's `solve_alpha` pass at its answer, run
    afresh through `maxent._all_weights` without its memo, in µs per level;
  - `stationarity`: `stationarity_residuals` at those answers, in µs per
    level;
  - `op`: the whole pool through the workload's own op, as the benchmark
    runs it, in µs per op;
  - `continuous`: the pool's `continuous_pdf` ops alone, in µs per op;
- for `eval_hot`, the whole pool through the workload's own op, each op
  timed alone:
  - `op_p50`: the median op, in µs;
  - `throughput`: ops per second of op time.

It prints, per measure, each copy's median and quartiles, the median of the
per-round ratios (A/B for a time, B/A for a throughput: above 1 when B is
better) and the rounds B won.  A copy whose op refuses or fails where the
other answers shows in the gate tallies printed last.

This file is a tool, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(src: str, name: str, into: Path):
    # The package under src, copied to into/name and imported under that name.
    shutil.copytree(Path(src) / "loglambert", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return __import__(name)


class MaxentSide:
    # One copy of the library with its pool, the discrete ops' answers and a gate.
    measures = ("pass", "stationarity", "op", "continuous")
    higher_is_better = ()
    units = "pass and stationarity in µs per level, op and continuous in µs per op"

    def __init__(self, ll, wl, workloads, seed: int, seconds: float):
        self.ll, self.wl = ll, wl
        self.maxent = sys.modules[ll.__name__ + ".maxent"]
        self.ctx = {"ll": ll}
        for trip in workloads.TRIPLES + (workloads.CONT_TRIPLE,):
            ll.branches(ll.EntropyParams(*trip).induced_params())
        self.pool = wl.pool(random.Random(seed), self.ctx, seconds)
        self.gate = workloads.Gate(ll.LogLambertError)
        self.fits = []  # (spec, branch, probabilities) at each discrete op's answer
        for kind, ep, levels in self.pool:
            if kind != "discrete":
                continue
            try:
                alpha = ll.solve_alpha(levels, workloads.BETA, ep)
            except ll.LogLambertError:
                continue
            spec = ll.EnsembleSpec(levels=levels, alpha=alpha, beta=workloads.BETA, ep=ep)
            branch = ll.suggest_branch(ep, len(levels))
            self.fits.append((spec, branch, ll.distribution(spec, branch).probs))
        self.levels = sum(len(spec.levels) for spec, _, _ in self.fits)
        self.continuous = sum(kind == "continuous" for kind, _, _ in self.pool)

    def summary(self) -> str:
        return (f"{len(self.pool)} ops ({self.continuous} continuous), "
                f"{len(self.fits)} fits over {self.levels} levels")

    def measure(self) -> dict[str, float]:
        clock = time.perf_counter
        fresh_pass = self.maxent._all_weights.__wrapped__
        t0 = clock()
        for spec, branch, _ in self.fits:
            fresh_pass(spec, branch)
        t1 = clock()
        for spec, _, probs in self.fits:
            self.ll.stationarity_residuals(spec, probs)
        t2 = clock()
        spent = {"discrete": 0.0, "continuous": 0.0}
        for inp in self.pool:
            start = clock()
            self.wl.op(self.ctx, self.gate, inp)
            spent[inp[0]] += clock() - start
        return {"pass": (t1 - t0) / self.levels * 1e6,
                "stationarity": (t2 - t1) / self.levels * 1e6,
                "op": (spent["discrete"] + spent["continuous"]) / len(self.pool) * 1e6,
                "continuous": spent["continuous"] / max(self.continuous, 1) * 1e6}


class EvalHotSide:
    # One copy of the library with the eval_hot pool, on catalogs built
    # before the pool is drawn (as the workload's setup builds them), and a gate.
    measures = ("op_p50", "throughput")
    higher_is_better = ("throughput",)
    units = "op_p50 in µs (the median op), throughput in ops per second of op time"

    def __init__(self, ll, wl, workloads, seed: int, seconds: float):
        self.wl = wl
        branches = []
        for abc in workloads.ACCEPTANCE_SETS:
            p = ll.Params(*abc)
            branches.extend((p, bi) for bi in ll.branches(p))
        self.ctx = {"ll": ll, "branches": branches}
        self.pool = wl.pool(random.Random(seed), self.ctx, seconds)
        self.gate = workloads.Gate(ll.LogLambertError)

    def summary(self) -> str:
        return f"{len(self.pool)} ops over {len(self.ctx['branches'])} branches"

    def measure(self) -> dict[str, float]:
        clock, op, ctx, gate = time.perf_counter, self.wl.op, self.ctx, self.gate
        spent = []
        for inp in self.pool:
            start = clock()
            op(ctx, gate, inp)
            spent.append(clock() - start)
        return {"op_p50": statistics.median(spent) * 1e6, "throughput": len(spent) / sum(spent)}


SIDES = {"maxent_fit": MaxentSide, "eval_hot": EvalHotSide}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", choices=SIDES, default="maxent_fit")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    side_class, wl = SIDES[args.workload], workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [side_class(_load(src, name, Path(tmp)), wl, workloads, args.seed, seconds)
                 for src, name in ((args.src_a, "loglambert_a"), (args.src_b, "loglambert_b"))]
        for side in sides:  # warm-up
            side.measure()
        runs = [[], []]
        for k in range(args.rounds):
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                runs[i].append(sides[i].measure())

    a, b = sides
    print(f"{args.workload} pool, seed {args.seed}: {a.summary()}; "
          f"{args.rounds} rounds, order alternating")
    print(f"{'measure':<13} {'A median [q1, q3]':>26} {'B median [q1, q3]':>26} "
          f"{'ratio':>10} {'B wins':>7}")
    for m in side_class.measures:
        va, vb = [r[m] for r in runs[0]], [r[m] for r in runs[1]]
        (a1, a2, a3), (b1, b2, b3) = _quartiles(va), _quartiles(vb)
        if m in side_class.higher_is_better:
            va, vb = vb, va  # B/A, and B wins with the larger value
        ratio = statistics.median(x / y for x, y in zip(va, vb))
        wins = sum(y < x for x, y in zip(va, vb))
        print(f"{m:<13} {a2:9.3f} [{a1:7.3f}, {a3:7.3f}] {b2:9.3f} [{b1:7.3f}, {b3:7.3f}] "
              f"{ratio:10.3f} {wins:>3}/{args.rounds}")
    print(f"units: {side_class.units}; ratio: A/B for a time, B/A for a throughput")
    for name, side in zip("AB", sides):
        attempted, ok, refused, failed, wrong = side.gate.tally()
        print(f"gate {name}: attempted {attempted}, ok {ok}, refused {refused}, "
              f"failed {failed}, wrong {wrong}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
