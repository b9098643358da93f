"""The benchmark's workloads: seeded inputs, one op each, and the gate.

Each workload has
  * `setup()`: `import loglambert` plus the warm-up the workload's process
    does before serving ops (timed as `setup_s`);
  * `pool(rng, ctx, seconds)`: a fixed list of op inputs drawn from the
    seed, its length fixed by the run's length (not timed); the timed loop
    cycles through it, and its first pass over the pool is what the run's
    verdict counts (see `PassJudge`);
  * `op(ctx, gate, inp)`: one op, a closed-loop request from a single caller;
    every public call in it goes through `Gate.call` and its answer through
    `Gate.check`;
  * `properties(ctx, pool)`: the input properties recorded with the results.

The library module is imported inside `setup()` only, so that a probe
process can time the import itself.

Pools are drawn in blocks that stratify the input dimensions (every branch,
every parameter decade and every distance band appears in each block), so
two seeds give the same mix of op kinds and costs and only the points
inside each stratum differ.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import random
from collections import Counter

from spans import ei_band

ACCEPTANCE_SETS = ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 0.0),
                   (-2.0, -1.0, 1.0), (-1.0, -1.0, 0.5))

ROUNDTRIP_TOL = 1e-10


class Gate:
    """Classifies every public call as ok, refused or failed.

    refused: a typed `LogLambertError` (CLI exit 2 or 3).
    failed:  any other exception escaping the call, or an answer outside its
             documented contract (`wrong`), or for the CLI an exit code
             outside {0, 2, 3}, unparsable output or a traceback.
    """

    def __init__(self, typed_error):
        self.typed_error = typed_error
        self.attempted = 0
        self.ok = 0
        self.refused = 0
        self.failed = 0
        self.wrong = 0
        self.kinds: Counter[str] = Counter()

    def call(self, fn, *args):
        """Attempt one public call; None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except self.typed_error as exc:
            self.refuse(f"{fn.__name__}: {type(exc).__name__}")
        except Exception as exc:  # an untyped escape is what the gate counts
            self.fail(f"{fn.__name__}: {type(exc).__name__}")
        return None

    def check(self, good: bool, what: str) -> bool:
        """Record the verdict on an answer that came back."""
        if good:
            self.ok += 1
        else:
            self.failed += 1
            self.wrong += 1
            self.kinds[f"wrong {what}"] += 1
        return good

    def check_finite(self, values, what: str, good: bool = True) -> bool:
        """Verdict on numbers that must be finite.  An infinity, or a NaN
        grown from one, is an overflow the call did not signal with a typed
        error: a failure like a raw OverflowError, not a wrong answer."""
        if not all(math.isfinite(v) for v in values):
            self.fail(f"{what}: non-finite (unsignalled overflow)")
            return False
        return self.check(good, what)

    def tally(self) -> tuple[int, int, int, int, int]:
        return self.attempted, self.ok, self.refused, self.failed, self.wrong

    def refuse(self, what: str) -> None:
        self.refused += 1
        self.kinds[f"refused {what}"] += 1

    def fail(self, what: str) -> None:
        self.failed += 1
        self.kinds[f"failed {what}"] += 1

    def outcomes(self) -> dict:
        return {"attempted": self.attempted, "ok": self.ok,
                "refused": self.refused, "failed": self.failed,
                "wrong": self.wrong, "kinds": dict(sorted(self.kinds.items()))}


class PassJudge:
    """Splits the verdicts of a loop that cycles through a pool of n inputs.

    The first pass (ops 0..n-1) is judged by `gate`, so the run's counts
    depend on the seed and the pool alone, not on how many ops fitted in
    the time.  Later ops are judged by a gate of their own, and each one's
    verdict (its calls and their outcomes) is compared with the first
    pass's verdict on the same input: the library is deterministic, so an
    input whose verdict changes is a failure.
    """

    def __init__(self, gate: Gate, n: int):
        self.gate, self.n = gate, n
        self.repeat = Gate(gate.typed_error)
        self.verdicts: list[tuple] = []
        self.repeat_ops = 0
        self.mismatched: set[int] = set()
        self._open = None

    def gate_for(self, i: int) -> Gate:
        """The gate for op i; call `judged(i)` when the op has ended."""
        g = self.gate if i < self.n else self.repeat
        self._open = (g, g.tally())
        return g

    def judged(self, i: int) -> None:
        g, before = self._open
        verdict = tuple(map(operator.sub, g.tally(), before))
        if i < self.n:
            self.verdicts.append(verdict)
        else:
            self.repeat_ops += 1
            if verdict != self.verdicts[i % self.n]:
                self.mismatched.add(i % self.n)

    @property
    def failed(self) -> int:
        """Failed calls of the first pass, plus inputs whose verdict changed."""
        return min(self.gate.attempted, self.gate.failed + len(self.mismatched))

    @property
    def wrong(self) -> int:
        return self.gate.wrong + self.repeat.wrong

    def outcomes(self) -> dict:
        return {"pool_ops": self.n, "repeat_ops": self.repeat_ops,
                "repeats": self.repeat.outcomes(),
                "inputs_whose_verdict_changed": len(self.mismatched)}


def pool_blocks(wl, seconds: float) -> int:
    """Blocks in the workload's pool for a run of `seconds`."""
    return max(wl.min_pool_blocks, round(wl.pool_blocks_per_s * seconds))


def stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def _forward_residual(ll, p, y: float, x: float) -> float:
    try:
        return abs(ll.forward(p, y) - x)
    except (ArithmeticError, ValueError):
        return math.inf


def x_from_seam(bi, u: float, toward_open: bool = False) -> float:
    """A point of the branch's x-domain a log distance 10**-u from one end.

    Bounded domains: the distance is 10**-u (u in (0, 12]) of the span,
    measured from the closed (seam) end, or from the open end when
    `toward_open`; a branch between two seams measures from its upper end,
    or from its lower end when `toward_open`.  Half-infinite domains: the
    distance from the seam is max(1, |seam x|) * 10**-u, with u running
    negative for the far side.
    """
    dom = bi.x_domain
    lo, hi = dom.lo, dom.hi
    if math.isfinite(lo) and math.isfinite(hi):
        if dom.lo_closed and dom.hi_closed:
            anchor, far = (lo, hi) if toward_open else (hi, lo)
        else:
            seam_end, open_end = (lo, hi) if dom.lo_closed else (hi, lo)
            anchor, far = (open_end, seam_end) if toward_open else (seam_end, open_end)
        return anchor + (far - anchor) * 10.0 ** -u
    anchor, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)
    return anchor + sign * max(1.0, abs(anchor)) * 10.0 ** -u


# ---------------------------------------------------------------- eval_hot

class EvalHot:
    """`evaluate` plus a `forward` roundtrip on all 12 acceptance branches.

    Catalogs are built in setup, so every op is a catalog hit and the time
    is the Newton/bisection solver (plus `lambert_w` through the asymptotic
    seed when |x| >= 1e3 on a branch unbounded above).  No `Ei`, no seam
    search.
    """

    name = "eval_hot"
    block_per_branch = 8
    block_ops = 12 * block_per_branch
    pool_blocks_per_s = 12.8
    min_pool_blocks = 4
    trace_ops_per_s = 2000
    memory_ops = block_ops * 64
    tail_pct = 99.0

    @staticmethod
    def setup():
        import loglambert as ll
        branches = []
        for abc in ACCEPTANCE_SETS:
            p = ll.Params(*abc)
            branches.extend((p, bi) for bi in ll.branches(p))
        return {"ll": ll, "branches": branches}

    def pool(self, rng, ctx, seconds):
        ops = []
        for _ in range(pool_blocks(self, seconds)):
            block = []
            for p, bi in ctx["branches"]:
                dom = bi.x_domain
                unbounded = not (math.isfinite(dom.lo) and math.isfinite(dom.hi))
                two_seams = dom.lo_closed and dom.hi_closed
                for v in stratified(rng, self.block_per_branch):
                    # Bounded: 1e-12 .. 1 of the span from a seam.
                    # Unbounded: 1e-12 .. 1e10 (relative to the seam's x) from it.
                    u = 12.0 - 22.0 * v if unbounded else 12.0 * (1.0 - v)
                    x = x_from_seam(bi, u, two_seams and rng.random() < 0.5)
                    block.append((p, bi, x))
            rng.shuffle(block)
            ops.extend(block)
        return ops

    @staticmethod
    def op(ctx, gate, inp):
        ll = ctx["ll"]
        p, bi, x = inp
        r = gate.call(ll.evaluate, p, bi.index, x)
        if r is not None:
            gate.check(bi.y_range.contains(r.y)
                       and _forward_residual(ll, p, r.y, x) <= ROUNDTRIP_TOL * max(1.0, abs(x)),
                       "evaluate roundtrip")

    @staticmethod
    def properties(ctx, pool):
        asym = sum(1 for p, bi, x in pool
                   if math.isinf(bi.y_range.hi) and abs(x) >= 1e3)
        return {"parameter_sets": [list(abc) for abc in ACCEPTANCE_SETS],
                "branches": len(ctx["branches"]),
                "x_bands": "bounded: 1e-12..1 of the span from a seam; "
                           "unbounded: 1e-12..1e10 x max(1,|seam x|) from the seam",
                "share_asymptotic_seed": round(asym / len(pool), 4),
                "pool_ops": len(pool)}


# --------------------------------------------------------------- scan_cold

# Sign cases of branches(): b > 0 (any a), and b < 0 with |c| <= a (a > 0)
# or c <= |a| (a < 0).
SIGN_CASES = ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))  # (sign a, sign b)
LOG_A = (-3.0, 2.0)
LOG_B = (-3.0, 3.0)
C_SPAN = 3.0
SCAN_X_PER_BRANCH = 3


def scan_c(a: float, b: float, f: float) -> float:
    if b > 0.0:
        return C_SPAN * (2.0 * f - 1.0)
    if a > 0.0:
        return a * (2.0 * f - 1.0)
    return -C_SPAN + (abs(a) + C_SPAN) * f


class ScanCold:
    """A fresh (a, b, c) per op: catalog, inversions and calculus on it.

    Every catalog is a miss (the pool holds more than the 128 entries the
    catalog cache keeps, in a cyclic order), so the seam search is
    timed; `antiderivative` feeds `Ei` in all three argument bands.
    Known-defect regions of the parameter plane are sampled, not skipped.
    """

    name = "scan_cold"
    block_ops = 24
    pool_blocks_per_s = 6.0  # a pass over the pool takes about 60 % of the run
    min_pool_blocks = 6  # 144 ops: past the 128 entries the catalog cache keeps
    trace_ops_per_s = 25
    memory_ops = block_ops * 8  # past the 128 entries the catalog cache keeps
    tail_pct = 99.0

    @staticmethod
    def setup():
        import loglambert as ll
        ctx = {"ll": ll, "ops": 0, "ei_band_ops": Counter()}
        # Warm-up: one op for each sign of b on acceptance parameters touches
        # every code path the timed ops use, including each Ei band.
        warm = Gate(ll.LogLambertError)
        for a, b, c in ((1.0, 1.0, 1.0), (-2.0, -1.0, 1.0)):
            ScanCold.op(ctx, warm, (a, b, c, [[0.1, 0.5, 0.9]] * 3, [b < 0.0] * 9))
        # From here on: ops, and ops whose `antiderivative` reaches each Ei band.
        ctx["ops"] = 0
        ctx["ei_band_ops"].clear()
        return ctx

    def pool(self, rng, ctx, seconds):
        ops = []
        nx = 3 * SCAN_X_PER_BRANCH
        for _ in range(pool_blocks(self, seconds)):
            cols = [stratified(rng, self.block_ops) for _ in range(3)]
            block = []
            for k in range(self.block_ops):
                sa, sb = SIGN_CASES[k % len(SIGN_CASES)]
                a = sa * 10.0 ** (LOG_A[0] + (LOG_A[1] - LOG_A[0]) * cols[0][k])
                b = sb * 10.0 ** (LOG_B[0] + (LOG_B[1] - LOG_B[0]) * cols[1][k])
                c = scan_c(a, b, cols[2][k])
                # Per branch, uniform draws that `op` maps to u in (0, 12] on
                # bounded domains and (-40, 12] (x up to 1e40) on half-infinite ones.
                us = [[rng.random() for _ in range(SCAN_X_PER_BRANCH)] for _ in range(3)]
                toward_open = [rng.random() < 0.5 for _ in range(nx)]
                block.append((a, b, c, us, toward_open))
            rng.shuffle(block)
            ops.extend(block)
        return ops

    @staticmethod
    def op(ctx, gate, inp):
        ll = ctx["ll"]
        a, b, c, us, toward_open = inp
        p = ll.Params(a, b, c)
        ctx["ops"] += 1
        cat = gate.call(ll.branches, p)
        if cat is None or not gate.check(len(cat) == (2 if b > 0.0 else 3),
                                         "branches count"):
            return
        bands = set()
        for bi in cat:
            unbounded = not (math.isfinite(bi.x_domain.lo) and math.isfinite(bi.x_domain.hi))
            evaluated = []
            for j, v in enumerate(us[bi.index]):
                u = (12.0 - 52.0 * v) if unbounded else 12.0 * (1.0 - v)
                x = x_from_seam(bi, u, toward_open[3 * bi.index + j])
                if not bi.x_domain.contains(x):
                    continue  # the distance underflowed onto an open end
                r = gate.call(ll.evaluate, p, bi.index, x)
                if r is None:
                    continue
                if gate.check(bi.y_range.contains(r.y)
                              and _forward_residual(ll, p, r.y, x)
                              <= ROUNDTRIP_TOL * max(1.0, abs(x)),
                              "evaluate roundtrip"):
                    evaluated.append((x, r.y))
            for x, y in evaluated:
                d = gate.call(ll.derivative, p, y)
                if d is not None:
                    increasing = bi.monotone is ll.Monotone.INCREASING
                    gate.check(d > 0.0 if increasing else d < 0.0, "derivative sign")
            if evaluated:
                evaluated.sort()
                ends = evaluated[:1] + evaluated[1:][-1:]
                bands.update(ei_band(y) for x, y in ends)
                for x, y in ends:
                    f = gate.call(ll.antiderivative, p, y)
                    if f is not None:
                        gate.check_finite([f], "antiderivative")
        ctx["ei_band_ops"].update(bands)
        g = gate.call(ll.taylor_coefficients, p, 4)
        if g is not None:
            gate.check_finite(g, "taylor_coefficients", len(g) == 4)

    @staticmethod
    def properties(ctx, pool):
        ops = max(ctx["ops"], 1)
        return {"log10_abs_a": list(LOG_A), "log10_abs_b": list(LOG_B),
                "c": f"b>0: U(-{C_SPAN}, {C_SPAN}); b<0,a>0: U(-a, a); "
                     f"b<0,a<0: U(-{C_SPAN}, |a|)",
                "sign_cases_a_b": [list(s) for s in SIGN_CASES],
                "x_per_branch": SCAN_X_PER_BRANCH,
                "x_bands": "bounded: 1e-12..1 of the span from either end; "
                           "unbounded: 1e-12..1e40 x max(1,|seam x|) from the seam",
                "share_of_ops_per_ei_band": {band: round(ctx["ei_band_ops"][band] / ops, 4)
                                             for band in ("neg", "mid", "pos")},
                "pool_ops": len(pool)}


# -------------------------------------------------------------- maxent_fit

TRIPLES = ((0.9, 0.8, 0.7), (0.95, 0.85, 0.75), (0.7, 0.8, 0.9), (0.85, 0.9, 0.6))
BETA = 0.1
LEVELS = (16, 128)
CONT_TRIPLE = (1.1, 1.2, 1.3)
CONT_ALPHA = 8.0 / (1.5 * math.exp(1.5)) - 10.0 / 3.0
CONT_BETA = -0.4 * math.exp(-3.0)
CONT_GRID = tuple(-3.7 + 7.4 * i / 100 for i in range(101))
CONT_BRANCH = 1
Z_TOL = 1e-12


class MaxentFit:
    """Discrete maximum-entropy fits plus some continuous densities.

    A discrete op is `solve_alpha`, `distribution` and
    `stationarity_residuals` on 16..128 levels; a continuous op is
    `continuous_pdf` on a 101-point grid.  Hundreds of re-bracketed
    inversions per op, plus the O(n^2) `qcalculus` load of the
    stationarity check.
    """

    name = "maxent_fit"
    discrete_per_block = 8
    continuous_per_block = 2
    block_ops = discrete_per_block + continuous_per_block
    pool_blocks_per_s = 2.0
    min_pool_blocks = 1
    trace_ops_per_s = 3
    memory_ops = block_ops * 2
    tail_pct = 95.0

    @staticmethod
    def setup():
        import loglambert as ll
        # Catalogs of every induced parameter set are built here.
        for trip in TRIPLES + (CONT_TRIPLE,):
            ll.branches(ll.EntropyParams(*trip).induced_params())
        return {"ll": ll}

    def pool(self, rng, ctx, seconds):
        ll = ctx["ll"]
        lo, hi = LEVELS
        ops = []
        for _ in range(pool_blocks(self, seconds)):
            block = []
            counts = stratified(rng, self.discrete_per_block)
            for k, v in enumerate(counts):
                n = lo + int((hi - lo + 1) * v)
                ep = ll.EntropyParams(*TRIPLES[k % len(TRIPLES)])
                levels = tuple(sorted(rng.random() for _ in range(n)))
                block.append(("discrete", ep, levels))
            block.extend([("continuous", ll.EntropyParams(*CONT_TRIPLE), CONT_GRID)]
                         * self.continuous_per_block)
            rng.shuffle(block)
            ops.extend(block)
        return ops

    @staticmethod
    def op(ctx, gate, inp):
        ll = ctx["ll"]
        kind, ep, data = inp
        if kind == "continuous":
            dens = gate.call(ll.continuous_pdf, ep, CONT_ALPHA, CONT_BETA, CONT_BRANCH, data)
            if dens is not None:
                gate.check_finite(dens, "continuous_pdf >= 0",
                                  len(dens) == len(data) and all(v >= 0.0 for v in dens))
            return
        alpha = gate.call(ll.solve_alpha, data, BETA, ep)
        if alpha is None:
            return
        spec = ll.EnsembleSpec(levels=data, alpha=alpha, beta=BETA, ep=ep)
        dist = gate.call(ll.distribution, spec)
        # solve_alpha's answer is judged by the partition it produces.
        if dist is None:
            gate.fail("solve_alpha: no partition to check")
            return
        gate.check_finite([dist.partition], "solve_alpha |Z-1|",
                          abs(dist.partition - 1.0) <= Z_TOL)
        if not gate.check_finite(dist.probs, "distribution normalised",
                                 all(v >= 0.0 for v in dist.probs)
                                 and abs(math.fsum(dist.probs) - 1.0) <= Z_TOL):
            return
        res = gate.call(ll.stationarity_residuals, spec, dist.probs)
        if res is not None:
            gate.check_finite(res, "stationarity_residuals", len(res) == len(data))

    @staticmethod
    def properties(ctx, pool):
        counts = [len(data) for kind, ep, data in pool if kind == "discrete"]
        return {"triples": [list(t) for t in TRIPLES], "beta": BETA,
                "levels": f"sorted U(0, 1), count {LEVELS[0]}..{LEVELS[1]}",
                "level_count_mean": round(sum(counts) / len(counts), 2),
                "continuous": {"triple": list(CONT_TRIPLE), "alpha": CONT_ALPHA,
                               "beta": CONT_BETA, "branch": CONT_BRANCH,
                               "grid_points": len(CONT_GRID)},
                "share_continuous": round(1.0 - len(counts) / len(pool), 4),
                "pool_ops": len(pool)}


# -------------------------------------------------------------- cli_readme

# The README's six CLI commands, verbatim (run as `python -m loglambert`).
# The continuous example exits 2 at the seed commit ("grid too narrow"); it
# stays as written and counts as a refusal.
README_COMMANDS = {
    "eval": ("eval", "-A", "1", "-B", "1", "-C", "1", "--branch", "1", "-x", "2084.7878"),
    "table": ("table", "--format", "csv"),
    "branches": ("branches", "-A", "2", "-B", "1", "-C", "1"),
    "branches_samples": ("branches", "-A", "-2", "-B", "-1", "-C", "1",
                         "--samples", "200", "--format", "csv"),
    "maxent_levels": ("maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
                      "--alpha", "0", "--beta", "0.1", "--levels", "levels.txt",
                      "--solve-alpha", "--check"),
    "maxent_quadratic": ("maxent", "--q", "1.1", "--qprime", "1.2", "--r", "1.3",
                         "--alpha", "-1.548", "--beta", "-0.0199", "--branch", "1",
                         "--quadratic=-3.7:3.7:101", "--format", "csv"),
}
CLI_LEVELS = 32


def cli_verdict(gate: Gate, command: str, rc: int, stdout: str, stderr: str) -> None:
    """Classify one CLI process by its exit code, output and stderr."""
    gate.attempted += 1
    if "Traceback" in stderr or rc not in (0, 2, 3):
        gate.fail(f"cli {command}: exit {rc}")
        return
    if rc != 0:
        gate.refuse(f"cli {command}: exit {rc}")
        return
    argv = README_COMMANDS[command]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        good = len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)
    elif fmt == "json":
        try:
            good = isinstance(json.loads(stdout), dict)
        except ValueError:
            good = False
    else:
        good = bool(stdout.strip())
    gate.check(good, f"cli {command} output")


class CliReadme:
    """Each op is one process running one README command.

    Per-process cost dominates: interpreter start, package import (mpmath
    included), argparse and formatting.  Ops run in rounds of all six
    commands in a seeded order; the benchmark writes its own levels file.
    """

    name = "cli_readme"
    pool_blocks_per_s = 0.5  # blocks are rounds of all six commands
    min_pool_blocks = 1
    trace_rounds_per_s = 0.15
    tail_pct = 80.0

    @staticmethod
    def setup():
        # What every CLI process imports before it parses its arguments.
        import loglambert
        import loglambert.cli
        return {"ll": loglambert}

    def pool(self, rng, ctx, seconds):
        ctx["levels"] = sorted(rng.random() for _ in range(CLI_LEVELS))
        names = list(README_COMMANDS)
        rounds = []
        for _ in range(pool_blocks(self, seconds)):
            order = names[:]
            rng.shuffle(order)
            rounds.append(order)
        return rounds

    @staticmethod
    def properties(ctx, pool):
        return {"commands": {k: " ".join(v) for k, v in README_COMMANDS.items()},
                "levels_file": f"{CLI_LEVELS} sorted U(0, 1) levels",
                "ops_per_round": len(README_COMMANDS)}


WORKLOADS = {w.name: w() for w in (EvalHot, ScanCold, MaxentFit, CliReadme)}
