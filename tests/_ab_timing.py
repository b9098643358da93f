"""Time two library copies against each other in one process.

    python tests/_ab_timing.py SRC_A SRC_B [--workload maxent_fit] [--rounds 30] [--seed 1]

Each SRC is a directory holding the `loglambert` package (a checkout's
`src`).  The two packages are copied into a temporary directory as
`loglambert_a` and `loglambert_b` and imported side by side, so both copies
run in one interpreter on one core: a host whose speed drifts between
processes moves both alike.  The inputs are the pool of the `--workload`
(`maxent_fit` by default, `eval_hot` or `scan_cold`) in `perfbench/workloads.py` for
the seed, at the run length `BENCHMARK.json` sets.  Each round times, for
each copy, in an order that alternates from round to round:

- for `maxent_fit`:
  - `pass`: every discrete op's `solve_alpha` pass at its answer, run
    afresh through `maxent._all_weights` without its memo, in µs per level;
  - `solve`: every discrete op's `solve_alpha` alone, its set-up and all
    its passes, with the pass memo cleared before each, in µs per op;
  - `stationarity`: `stationarity_residuals` at those answers, in µs per
    level;
  - `op`: the whole pool through the workload's own op, as the benchmark
    runs it, each op timed alone, in µs per op;
  - `op_p50` and `op_tail`: the median op and the tail op of that walk,
    as for `eval_hot` below;
  - `continuous`: the pool's `continuous_pdf` ops alone, in µs per op;
- for `eval_hot` and `scan_cold`, the whole pool through the workload's
  own op, each op timed alone (a `scan_cold` op builds a fresh catalog: its
  pool is longer than the catalog cache, and each round walks it in order):
  - `op_p50`: the median op, in µs;
  - `op_tail`: the op at the workload's `tail_pct`, or at the next lower
    percentile with enough ops beyond it, as `perfbench/run.py`'s `tail`
    picks it for `op_tail_us` (the summary line names the percentile), in µs;
  - `throughput`: ops per second of op time.

It prints, per measure, each copy's median and quartiles, the median of the
per-round ratios (A/B for a time, B/A for a throughput: above 1 when B is
better) and the rounds B won.  A copy whose op refuses or fails where the
other answers shows in the gate tallies printed last.

This file is a tool, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's, as the benchmark draws its pools)
from run import tail  # noqa: E402  (the benchmark's pick of the op_tail_us percentile)


def _load(src: str, name: str, into: Path):
    # The package under src, copied to into/name and imported under that name.
    shutil.copytree(Path(src) / "loglambert", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return __import__(name)


class _OpTimes:
    # The median and tail of one walk's op times, the tail picked as the
    # benchmark picks it for op_tail_us, at a percentile the summary names.
    def _tail_note(self) -> str:
        return f", op_tail at p{self.tail_at:g}"

    def _median_and_tail(self, spent: list[float]) -> dict[str, float]:
        self.tail_at, op_tail, _ = tail(sorted(spent), self.wl.tail_pct)
        return {"op_p50": statistics.median(spent) * 1e6, "op_tail": op_tail * 1e6}


class MaxentSide(_OpTimes):
    # One copy of the library with its pool, the discrete ops' answers and a gate.
    measures = ("pass", "solve", "stationarity", "op", "op_p50", "op_tail", "continuous")
    higher_is_better = ()
    units = ("pass and stationarity in µs per level, solve, op (the mean) and continuous in "
             "µs per op, op_p50 and op_tail in µs (the median op and the benchmark's tail op)")

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
                f"{len(self.fits)} fits over {self.levels} levels{self._tail_note()}")

    def measure(self) -> dict[str, float]:
        clock = time.perf_counter
        memo, solve_alpha = self.maxent._all_weights, self.ll.solve_alpha
        t0 = clock()
        for spec, branch, _ in self.fits:
            memo.__wrapped__(spec, branch)
        t1 = clock()
        solve = 0.0
        for spec, _, _ in self.fits:
            memo.cache_clear()
            start = clock()
            solve_alpha(spec.levels, spec.beta, spec.ep)
            solve += clock() - start
        t2 = clock()
        for spec, _, probs in self.fits:
            self.ll.stationarity_residuals(spec, probs)
        t3 = clock()
        spent = []
        for inp in self.pool:
            start = clock()
            self.wl.op(self.ctx, self.gate, inp)
            spent.append(clock() - start)
        continuous = sum(dt for dt, (kind, _, _) in zip(spent, self.pool) if kind == "continuous")
        return {"pass": (t1 - t0) / self.levels * 1e6,
                "solve": solve / len(self.fits) * 1e6,
                "stationarity": (t3 - t2) / self.levels * 1e6,
                "op": sum(spent) / len(spent) * 1e6,
                **self._median_and_tail(spent),
                "continuous": continuous / max(self.continuous, 1) * 1e6}


class EvalHotSide(_OpTimes):
    # One copy of the library with the eval_hot pool, on catalogs built
    # before the pool is drawn (as the workload's setup builds them), and a gate.
    measures = ("op_p50", "op_tail", "throughput")
    higher_is_better = ("throughput",)
    units = ("op_p50 and op_tail in µs (the median op and the benchmark's tail op), "
             "throughput in ops per second of op time")

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
        return f"{len(self.pool)} ops over {len(self.ctx['branches'])} branches{self._tail_note()}"

    def measure(self) -> dict[str, float]:
        clock, op, ctx, gate = time.perf_counter, self.wl.op, self.ctx, self.gate
        spent = []
        for inp in self.pool:
            start = clock()
            op(ctx, gate, inp)
            spent.append(clock() - start)
        return {**self._median_and_tail(spent), "throughput": len(spent) / sum(spent)}


class ScanColdSide(EvalHotSide):
    # One copy of the library with the scan_cold pool and a gate; ops are
    # timed as eval_hot's are.
    def __init__(self, ll, wl, workloads, seed: int, seconds: float):
        self.wl = wl
        self.ctx = {"ll": ll, "ops": 0, "ei_band_ops": collections.Counter()}
        self.pool = wl.pool(random.Random(seed), self.ctx, seconds)
        self.gate = workloads.Gate(ll.LogLambertError)

    def summary(self) -> str:
        return f"{len(self.pool)} ops, each on a fresh catalog{self._tail_note()}"


SIDES = {"maxent_fit": MaxentSide, "eval_hot": EvalHotSide, "scan_cold": ScanColdSide}


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
