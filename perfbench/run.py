#!/usr/bin/env python3
"""Benchmark of the loglambert library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and BENCHMARK.json) from the root of a
source checkout, against the package in `src/`.  One caller, one process,
no threads: a closed loop that starts the next op when the last one ends.
Every public call is checked (`workloads.Gate`).

`--trace 0` measures the end-to-end metrics: whole blocks of ops for S
seconds, cycling through a seeded pool of inputs whose size is fixed by S,
and set-up (`import loglambert` plus the workload's warm-up) timed
in this process and in SETUP_PROBES fresh processes, reporting the median.
`--trace 1` measures the per-layer metrics: a fixed number of ops
(proportional to S, so the same seed and S give the same counts) run once
with every layer's public entry points wrapped in spans and once without;
`trace.overhead_ratio` is traced over untraced throughput.

Times are scaled to a reference CPU speed (calibrate.py); the line before
the result records the raw times too.  Throughput is ops over the summed
scaled op times, which leaves out the loop's own bookkeeping.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  With `--trace 0`, `attempted` and `failed` (and `ok_ratio`,
`nonfail_ratio`) count the calls of the first pass over the pool, which is
always completed, untimed if need be, so the same seed and S give the same
counts however fast the host is; every later op is checked too, and an input
whose verdict changes on a repeat counts as failed (workloads.PassJudge).
`correct` is false when a finite answer broke its contract.  An
untyped exception, or a non-finite number where a finite one was due, is
counted in `failed` without making the run incorrect: that is the seed's known
robustness gap, reported and not filtered out.  The line before the result
records the inputs, every call's outcome by kind, and which percentile
`op_tail_us` is.  Without `src/loglambert` the benchmark exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

import calibrate  # noqa: E402  (these live next to this file)
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "ok_ratio": "1",
    "nonfail_ratio": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.branches.calls": "count",
    "core.branches.self_us_p50": "us",
    "core.branches.share": "1",
    "core.evaluate.calls": "count",
    "core.evaluate.self_us_p50": "us",
    "core.evaluate.iterations_mean": "count",
    "core.evaluate.share": "1",
    "core.asymptotic.calls": "count",
    "core.asymptotic.self_us_p50": "us",
    "core.derivative.self_us_p50": "us",
    "core.antiderivative.self_us_p50": "us",
    "core.taylor_coefficients.self_us_p50": "us",
    "lambertw.calls": "count",
    "lambertw.self_us_p50": "us",
    "lambertw.share": "1",
    "expint.calls": "count",
    "expint.share": "1",
    "expint.neg.calls": "count",
    "expint.neg.self_us_p50": "us",
    "expint.mid.calls": "count",
    "expint.mid.self_us_p50": "us",
    "expint.pos.calls": "count",
    "expint.pos.self_us_p50": "us",
    "qcalculus.calls": "count",
    "qcalculus.share": "1",
    "maxent.solve_alpha.self_us_p50": "us",
    "maxent.solve_alpha.inversions_mean": "count",
    "maxent.distribution.inversions_mean": "count",
    "maxent.continuous_pdf.self_us_p50": "us",
    "maxent.continuous_pdf.inversions_mean": "count",
    "maxent.stationarity_residuals.share": "1",
    "cli.interp_ms": "ms",
    "import.loglambert_ms": "ms",
    "import.expint_ms": "ms",
    **{f"cli.{name}.wall_ms": "ms" for name in workloads.README_COMMANDS},
    "trace.overhead_ratio": "1",
    "trace.wrapped_share": "1",
    "fail_ratio": "1",
    "refuse_ratio": "1",
}

INTERP_NOMINAL_S = 0.05  # reference time of a bare interpreter start
SETUP_PROBES = 10
IMPORT_PROBES = 5
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
clock = calibrate.clock


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(lat_sorted, pct: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the workload's tail
    percentile, or the next lower one that still has TAIL_BEYOND samples
    beyond it."""
    n = len(lat_sorted)
    for p in TAIL_LADDER:
        if p > pct:
            continue
        k = max(math.ceil(p / 100.0 * n) - 1, 0)
        if n - 1 - k >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, lat_sorted[k], n - 1 - k
    raise AssertionError("unreachable: the ladder ends at the median")


class Launcher:
    """The helper process (launcher.py) that starts each CLI process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, stem: str = "cli") -> tuple[int, int]:
        """Run one process to completion, its output into files named after
        `stem`: (exit code, peak RSS kB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(self.workdir),
                                          "stdout": str(self.workdir / f"{stem}.out"),
                                          "stderr": str(self.workdir / f"{stem}.err")}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["rc"], reply["maxrss_kb"]

    def interpreter_start(self) -> float:
        """Seconds to run a bare `python -c pass`: the CLI's reference time."""
        t0 = clock()
        self.run([sys.executable, "-c", "pass"], "reference")
        return clock() - t0

    def outputs(self) -> tuple[str, str]:
        """stdout and stderr of the last CLI process."""
        return tuple((self.workdir / f"cli.{ext}").read_text(errors="replace")
                     for ext in ("out", "err"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def peak_rss_kb() -> int:
    """This process's peak RSS.  VmHWM counts the memory used since the last
    exec only; getrusage would also count the memory of the parent this
    process was started from."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU, so that the
    CLI processes run where the reference probes measure the speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def timed_setup(wl):
    """(context, scaled seconds, raw seconds) of the workload's set-up here."""
    timer = calibrate.ScaledTimer()
    ctx = timer.time(wl.setup)
    return ctx, timer.scaled()[0], timer.raw[0]


def setup_probe_times(name: str, n: int) -> list[tuple[float, float]]:
    """(scaled, raw) set-up seconds of the workload, each in a fresh process."""
    times = []
    for _ in range(n):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                              "--workload", name],
                             env=child_env(), capture_output=True, text=True, check=True)
        scaled, raw = out.stdout.split()[-2:]
        times.append((float(scaled), float(raw)))
    return times


def memory_probe(name: str, seed: int, seconds: float) -> int:
    """Peak RSS (kB) of a fresh process that sets up and serves the workload's
    first `memory_ops` ops, without the timing loop's per-op records."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--memory-probe",
                          "--workload", name, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         env=child_env(), capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


def import_probes() -> dict:
    """Interpreter start and package import times, medians over fresh processes."""
    env = child_env()
    timer = calibrate.ScaledTimer()
    pkg, expint = [], []
    for _ in range(IMPORT_PROBES):
        timer.time(subprocess.run, [sys.executable, "-c", "pass"], env=env, check=True)
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loglambert"],
                             env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        pkg.append(cumulative["loglambert"])
        expint.append(cumulative["loglambert.expint"])
    # -X importtime reports raw times; scale each like the start next to it.
    scales = timer.scales()
    return {"cli.interp_ms": statistics.median(timer.scaled()) * 1e3,
            "import.loglambert_ms": statistics.median(map(float.__mul__, pkg, scales)),
            "import.expint_ms": statistics.median(map(float.__mul__, expint, scales))}


# ------------------------------------------------------------------ loops

def library_timed(wl, ctx, gate, pool, seconds: float):
    """Whole blocks of ops until `seconds` have passed: (timer, judge).

    `gate` judges the first pass over the pool (see workloads.PassJudge);
    if time runs out before that pass ends, the rest of it runs untimed.
    """
    timer = calibrate.ScaledTimer()
    op, block, n = wl.op, wl.block_ops, len(pool)
    judge = workloads.PassJudge(gate, n)
    i = 0
    deadline = clock() + seconds
    while True:
        for _ in range(block):
            g = judge.gate_for(i)
            timer.time(op, ctx, g, pool[i % n])
            judge.judged(i)
            i += 1
        if clock() >= deadline:
            break
    for j in range(i, n):
        op(ctx, judge.gate_for(j), pool[j])
        judge.judged(j)
    return timer, judge


def trace_op_count(wl, seconds: float) -> int:
    blocks = max(1, round(wl.trace_ops_per_s * seconds / wl.block_ops))
    return blocks * wl.block_ops


def library_traced(wl, ctx, pool, seconds: float, typed_error):
    """The same ops traced, then untraced: (recorder, its summary, gate, overhead)."""
    ops = [pool[i % len(pool)] for i in range(trace_op_count(wl, seconds))]
    # Traced pass first, so a short run still sees cold catalog caches.
    rec, gate, traced = spans.Recorder(), workloads.Gate(typed_error), calibrate.ScaledTimer()
    with rec:
        for inp in ops:
            traced.time(rec.run_op, wl.op, ctx, gate, inp)
    plain, untraced = workloads.Gate(typed_error), calibrate.ScaledTimer()
    for inp in ops:
        untraced.time(wl.op, ctx, plain, inp)
    overhead = sum(untraced.scaled()) / sum(traced.scaled())
    return rec, spans.Summary(rec, traced.scales()), gate, overhead


def cli_rounds(gate, rounds, workdir: Path, *, seconds=None, count=None, flags=()):
    """Whole rounds of README commands, for `seconds` or `count` rounds:
    (timer, command of each op, peak RSS kB of the commands, judge).

    `gate` judges the first pass over `rounds` (see workloads.PassJudge);
    with `seconds`, the rest of that pass runs untimed if time runs out
    before it ends.
    """
    launcher = Launcher(workdir)
    try:
        timer, names, rss_kb = calibrate.ScaledTimer(launcher.interpreter_start,
                                                     INTERP_NOMINAL_S), [], 0
        judge = workloads.PassJudge(gate, sum(map(len, rounds)))
        deadline = clock() + (seconds or 0.0)
        r = 0
        k = 0  # ops so far; rounds repeat whole, so op k repeats op k - judge.n

        def command(name: str, timed: bool):
            nonlocal k
            argv = [sys.executable, *flags, "-m", "loglambert",
                    *workloads.README_COMMANDS[name]]
            rc, maxrss = timer.time(launcher.run, argv) if timed else launcher.run(argv)
            workloads.cli_verdict(judge.gate_for(k), name, rc, *launcher.outputs())
            judge.judged(k)
            k += 1
            return maxrss

        while True:
            for name in rounds[r % len(rounds)]:
                rss_kb = max(rss_kb, command(name, True))
                names.append(name)
            r += 1
            if (count is not None and r >= count) or (seconds is not None
                                                      and clock() >= deadline):
                break
        if seconds is not None:
            for r in range(r, len(rounds)):
                for name in rounds[r]:
                    rss_kb = max(rss_kb, command(name, False))
        return timer, names, rss_kb, judge
    finally:
        launcher.close()


# ---------------------------------------------------------------- metrics

def end_to_end(setup, timer, judge, rss_kb, tail_pct):
    """(end-to-end metrics, what the info line records about them)."""
    gate = judge.gate
    lat = sorted(timer.scaled())
    raw = sorted(timer.raw)
    pct, tail_value, beyond = tail(lat, tail_pct)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "throughput_ops_s": len(lat) / math.fsum(lat),
        "op_p50_us": statistics.median(lat) * 1e6,
        "op_tail_us": tail_value * 1e6,
        "ok_ratio": gate.ok / gate.attempted,
        "nonfail_ratio": 1.0 - judge.failed / gate.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {"ops": len(lat), "op_tail_percentile": pct, "op_tail_samples_beyond": beyond,
            "raw": {"setup_s": statistics.median(r for _, r in setup),
                    "throughput_ops_s": len(raw) / math.fsum(raw),
                    "op_p50_us": statistics.median(raw) * 1e6,
                    "op_tail_us": tail(raw, tail_pct)[1] * 1e6},
            "setup_samples_s": [s for s, _ in setup]}
    return metrics, info


def per_layer(summary, gate, failed, overhead, probes, walls):
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    m = {k: 0 if unit == "count" else 0.0 for k, unit in PER_LAYER.items()}
    m.update(probes)
    m["trace.overhead_ratio"] = overhead
    m["fail_ratio"] = failed / gate.attempted
    m["refuse_ratio"] = gate.refused / gate.attempted
    for name, times in walls.items():
        m[f"cli.{name}.wall_ms"] = statistics.median(times) * 1e3
    if summary is None:
        return m
    for key in m:
        prefix, _, stat = key.rpartition(".")
        if stat == "calls":
            m[key] = summary.calls(prefix)
        elif stat == "self_us_p50":
            m[key] = summary.self_us_p50(prefix)
        elif stat == "share" and prefix != "trace":
            m[key] = summary.share(prefix)
        elif stat == "inversions_mean":
            m[key] = summary.inversions_mean(prefix)
    m["core.evaluate.iterations_mean"] = summary.iterations_mean()
    m["trace.wrapped_share"] = 1.0 - summary.share(spans.OP)
    return m


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, info line)."""
    wl = workloads.WORKLOADS[name]
    ctx, setup_scaled, setup_raw = timed_setup(wl)
    ll = ctx["ll"]
    if not Path(ll.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"loglambert was imported from {ll.__file__}, not from {SRC}")
    pool = wl.pool(random.Random(seed), ctx, seconds)
    # The pool and the package are long-lived: keep the collector from
    # walking them, so collections cost what the ops themselves allocate.
    gc.freeze()
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    gate = workloads.Gate(ll.LogLambertError)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        if name == "cli_readme":
            (workdir / "levels.txt").write_text("".join(f"{v!r}\n" for v in ctx["levels"]))
        if not trace:
            setup = [(setup_scaled, setup_raw)] + setup_probe_times(name, SETUP_PROBES)
            if name == "cli_readme":
                timer, _, rss_kb, judge = cli_rounds(gate, pool, workdir, seconds=seconds)
            else:
                timer, judge = library_timed(wl, ctx, gate, pool, seconds)
                rss_kb = memory_probe(name, seed, seconds)
            metrics, more = end_to_end(setup, timer, judge, rss_kb, wl.tail_pct)
            more["first_pass"] = judge.outcomes()
            failed, wrong = judge.failed, judge.wrong
            units = END_TO_END
        else:
            probes = import_probes()
            if name == "cli_readme":
                count = max(1, round(wl.trace_rounds_per_s * seconds))
                plain = workloads.Gate(ll.LogLambertError)
                untraced, names, _, _ = cli_rounds(plain, pool, workdir, count=count)
                traced, _, _, judge = cli_rounds(gate, pool, workdir, count=count,
                                                 flags=("-X", "importtime"))
                failed, wrong = judge.failed, judge.wrong
                walls = {n: [] for n in workloads.README_COMMANDS}
                for n, t in zip(names, untraced.scaled()):
                    walls[n].append(t)
                overhead = sum(untraced.scaled()) / sum(traced.scaled())
                metrics = per_layer(None, gate, failed, overhead, probes, walls)
                more = {"rounds": count}
            else:
                rec, summary, gate, overhead = library_traced(wl, ctx, pool, seconds,
                                                              ll.LogLambertError)
                failed, wrong = gate.failed, gate.wrong
                metrics = per_layer(summary, gate, failed, overhead, probes, {})
                spans_file = WORK / f"spans-{name}-{seed}.tsv.gz"
                rec.write(spans_file)
                more = {"trace_ops": trace_op_count(wl, seconds), "spans": len(rec.start),
                        "spans_file": str(spans_file.relative_to(ROOT))}
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        gc.unfreeze()
    if gate.ok + gate.refused + gate.failed != gate.attempted:
        raise AssertionError(f"{name}: a call was left without a verdict: {gate.outcomes()}")
    info["inputs"] = wl.properties(ctx, pool)
    info.update(more)
    info["outcomes"] = gate.outcomes()
    result = {
        "correct": wrong == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time the workload's set-up in this fresh process")
    ap.add_argument("--memory-probe", action="store_true",
                    help="internal: peak RSS of set-up plus the workload's first ops")
    args = ap.parse_args(argv)
    if not (SRC / "loglambert" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'loglambert'}; run from a loglambert "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        _, scaled, raw = timed_setup(wl)
        print(scaled, raw)
        return 0
    if args.memory_probe:
        ctx = wl.setup()
        pool = wl.pool(random.Random(args.seed), ctx, args.seconds)
        gate = workloads.Gate(ctx["ll"].LogLambertError)
        for i in range(wl.memory_ops):
            wl.op(ctx, gate, pool[i % len(pool)])
        print(peak_rss_kb())
        return 0
    if args.workload == "cli_readme":
        pin_to_one_cpu()
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
