"""Replay the benchmark's inversion and fit pools and compare runs.

Record every `evaluate` call of the `eval_hot` and `scan_cold` pools (the
inputs `perfbench/workloads.py` draws for a seed) with its outcome, the
`singular_points`, `taylor_coefficients(p, 4)` and `asymptotic(p, x)` at
x = +-10, +-1e10, +-1e100 and +-1e300 of every `scan_cold` pool catalog,
`derivative` and `antiderivative` at every `y` a `scan_cold` `evaluate`
answers, and every `solve_alpha`, `distribution`,
`stationarity_residuals` and `continuous_pdf` call of the `maxent_fit`
pool, and one unsorted warm walk per `eval_hot` pool branch, then compare
two such records:

    python tests/_replay.py --src src [--seeds 1 2] > new.tsv
    python tests/_replay.py --src OTHER/src > old.tsv
    python tests/_replay.py --compare old.tsv new.tsv [--mpmath 33]

A record has one tab-separated line per call: workload, seed, a, b, c,
branch and x (floats in hex), then either `ok`, y (hex), the residual (hex)
and the solver's point count, or the class name of the error raised.
`--src` picks the library copy to replay, so one record can come from an
older checkout.  The pools are those of a benchmark run of the length
`BENCHMARK.json` sets.  A seam line has workload `singular_points`, seed,
a, b and c, then either `ok` and the seams (hex, comma-separated) or the
class name of the error raised.  A calculus line has workload `calculus`,
seed, a, b and c, the call's name and its argument (the order 4, or x or
y in hex), then either `ok` and the answer in hex (the coefficients
comma-separated) or the class name of the error raised.  A fit line has
workload `maxent_fit`, seed, the op's index in the pool, the call's name,
the op's triple (q, q' and r, comma-separated) and its number of levels
(of grid points, for `continuous_pdf`),
the number of evaluations of f (with its slope) the call made through
the core, the number of passes over the levels it made (misses of the
pass memo `maxent._all_weights`) and the number of Gauss-Kronrod panels it
evaluated (calls of `maxent._gauss_kronrod_panel`: `continuous_pdf`'s
quadrature, 0 for the other calls), then either `ok` and the answer in hex (`solve_alpha`: alpha;
`distribution`: the partition and the probabilities, comma-separated;
`stationarity_residuals`: the residuals, comma-separated; `continuous_pdf`:
the densities, comma-separated) or the class name and message of the error
raised.  A walk line has workload `warm_walk`, seed, a, b, c and branch,
then the number of x and the evaluations of f the walk made, then each
answer in hex or the class name of the error raised, comma-separated: one
warm inverter per `eval_hot` pool branch takes that branch's pool x one at
a time in pool order, which is no order, so its solves start both from the
inverse series and as `evaluate` solves them.  (On the `maxent_fit` pools
every warm solve but each walk's first starts from the series.)

`--compare A B` pairs the calls of the two records by input (workload,
seed, a, b, c, branch and x; repeats of one input pair in order), so the
records may replay different inputs: a seam that moved by an ulp moves the
`scan_cold` inputs drawn from it.  It prints, per workload: each record's
outcome counts, the mean, p99 and max of its point counts and how many of
its answers took one point (the first point met tol, so the solver loop
was not entered), the number of inputs only one record has, the outcome-class changes (each listed with
its input), the answers equal to the bit, the ulp moves of the answers
that differ, and every answer whose residual is above `tol*max(1, |x|)`
(tol = 1e-12, evaluate's default).  For the seams it prints each record's
outcome counts, the outcome-class changes, the catalogs whose seams are
equal to the bit and the ulp moves of those that differ, and per calculus
call the same counts, changes, equal answers and ulp moves.  `--mpmath N`
adds, per workload, the relative error against a 50-digit root of every N-th
`eval_hot` and every N-th `scan_cold` input answered in both records (median,
p90, max, and the three inputs with the largest; an answer of 0 points is a
seam, which the seam check covers, and is skipped), the ulp distance of every
moved seam of either record from its 60-digit root, the relative error
of each coefficient of every `taylor_coefficients` answer that moved or that
only one record has (the other refused it) against
`_oracle.taylor_reference`, 50-digit coefficients (median, p90, max and the
largest error/k at order k; those below DBL_MIN skipped), the same of every
N-th `asymptotic` answer of both records and of every one only one record
has against `_oracle.asymptotic_reference`, the paper's formula in 50
digits, and each record's largest and median relative error
of the `continuous_pdf` densities against `_oracle.continuous_reference`,
25 digits (every pool op shares one triple, multipliers and grid, so the
reference is computed once).  For the fits it
prints, per call, each record's outcome counts, total evaluations of f,
histogram of passes and total and histogram of panels, for `solve_alpha`
per triple the passes per solve and the evaluations of f per level and
pass (the two the set-up makes per solve included), the ops whose
count of evaluations or of panels differs, the outcome-class changes, and how many
answers and refusals (class and message) are equal to the bit, listing each
op whose answer or refusal differs; for `distribution` also each
record's largest |Z - 1|, and the largest relative move of `solve_alpha`'s
alpha, of the probabilities and of the densities answered in both records.
For the walks it prints each record's evaluations of f per x, the walks
whose count differs, the outcome-class changes and the answers equal to
the bit, with the ulp moves of those that differ; `--mpmath N` adds the
relative error of every N-th moved answer against a 50-digit root.

Like `diff`, `--compare A B` exits 1 when the records differ: an input
only one record has, an outcome class that changes, or an `evaluate`
answer (y, residual or point count), a seam, a calculus answer, a fit
answer or refusal or a walk answer that differs in bits.  It exits 0 when
the two records agree to the bit.  The fits' and walks' counts of
evaluations of f and the fits' passes and panels are costs, not answers: they are
printed, and a change in them alone exits 0.

This file is a tool, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import struct
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12
WORKLOADS = ("eval_hot", "scan_cold")
SEAMS = "singular_points"
CALCULUS = "calculus"
CALCULUS_CALLS = ("taylor_coefficients", "asymptotic", "derivative", "antiderivative")
TAYLOR_ORDER = 4  # the order the scan_cold op asks for
ASYMPTOTIC_XS = (10.0, -10.0, 1e10, -1e10, 1e100, -1e100, 1e300, -1e300)
FITS = "maxent_fit"
FIT_CALLS = ("solve_alpha", "distribution", "stationarity_residuals", "continuous_pdf")
WALKS = "warm_walk"
MOVED_VALUES = {"solve_alpha": "alpha", "distribution": "probabilities",
                "continuous_pdf": "densities"}


def record(src: str, seeds) -> None:
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import workloads
    from loglambert import core

    # Count the evaluations of f through the core.  The wrapper goes in
    # before any catalog binds f to its plans and before maxent imports it.
    f_evals = [0]
    forward_and_slope = core._forward_and_slope

    def counted(p, y):
        f_evals[0] += 1
        return forward_and_slope(p, y)

    core._forward_and_slope = counted
    from loglambert import maxent  # binds the wrapper

    def misses() -> int:
        return maxent._all_weights.cache_info().misses

    # Count the quadrature panels; the quadratures look the panel up in
    # maxent's globals at each call.
    panels = [0]
    panel = maxent._gauss_kronrod_panel

    def counted_panel(f, a, b):
        panels[0] += 1
        return panel(f, a, b)

    maxent._gauss_kronrod_panel = counted_panel

    rows: list[list[str]] = []
    tag = ("", "")  # the workload and seed being replayed
    index = 0  # the op's index in the pool

    class Recorder(workloads.Gate):
        # The workload's gate, also recording the outcome of each `evaluate`
        # call (with `derivative` and `antiderivative` at a `scan_cold`
        # answer) and of each fit call.
        def call(self, fn, *args):
            if fn.__name__ in FIT_CALLS:
                return super().call(_fit_recorder(rows, [*tag, str(index)], fn, f_evals,
                                                  misses, panels, _fit_case(fn.__name__, args)),
                                    *args)
            if fn.__name__ != "evaluate":
                return super().call(fn, *args)
            p, branch, x = args
            key = [*tag, p.a.hex(), p.b.hex(), p.c.hex(), str(branch), x.hex()]

            def evaluate(*args):
                try:
                    r = fn(*args)
                except Exception as exc:
                    rows.append(key + [type(exc).__name__])
                    raise
                rows.append(key + ["ok", r.y.hex(), r.residual.hex(), str(r.iterations)])
                if tag[0] == "scan_cold":
                    for call in (ll.derivative, ll.antiderivative):
                        rows.append(_calculus(tag[1], p, call, r.y))
                return r
            return super().call(evaluate, *args)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in (*WORKLOADS, FITS):
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            tag = (name, str(seed))
            ctx = wl.setup()
            ll = ctx["ll"]
            gate = Recorder(ll.LogLambertError)
            walks: dict[tuple, list[float]] = {}  # eval_hot's pool x by (p, branch)
            for index, inp in enumerate(wl.pool(random.Random(seed), ctx, seconds)):
                if name == "eval_hot":
                    walks.setdefault((inp[0], inp[1].index), []).append(inp[2])
                if name == "scan_cold":
                    rows.append([SEAMS, str(seed), *(v.hex() for v in inp[:3]),
                                 *_seams(ll, *inp[:3])])
                    p = ll.Params(*inp[:3])
                    rows.append(_calculus(str(seed), p, ll.taylor_coefficients, TAYLOR_ORDER))
                    rows.extend(_calculus(str(seed), p, ll.asymptotic, x) for x in ASYMPTOTIC_XS)
                wl.op(ctx, gate, inp)
            for (p, branch), xs in walks.items():
                rows.append(_walk(str(seed), core, p, branch, xs, f_evals))
    for row in rows:
        print("\t".join(row))


def _fit_case(name: str, args) -> list[str]:
    # The triple (comma-separated) and the number of levels or grid points of a fit call.
    if name == "solve_alpha":
        ep, data = args[2], args[0]
    elif name == "continuous_pdf":
        ep, data = args[0], args[4]
    else:  # a spec first
        ep, data = args[0].ep, args[0].levels
    return [",".join(repr(v) for v in (ep.q, ep.q_prime, ep.r)), str(len(data))]


def _fit_recorder(rows, key, fn, f_evals, misses, panels, case):
    # fn, also appending to rows its case, the evaluations of f it made
    # (counted in f_evals[0]), its passes over the levels (the growth of
    # misses()), the quadrature panels it evaluated (counted in panels[0])
    # and its outcome: `ok` and the answer in hex, or the class name and
    # message of the error raised.
    def recorded(*args):
        f_evals[0], panels[0], before = 0, 0, misses()

        def costs():
            return [fn.__name__, *case, str(f_evals[0]), str(misses() - before), str(panels[0])]
        try:
            r = fn(*args)
        except Exception as exc:
            rows.append(key + costs() + [type(exc).__name__, " ".join(str(exc).split())])
            raise
        if isinstance(r, float):
            answer = [r.hex()]
        elif isinstance(r, list):
            answer = [",".join(v.hex() for v in r)]
        else:
            answer = [r.partition.hex(), ",".join(v.hex() for v in r.probs)]
        rows.append(key + costs() + ["ok", *answer])
        return r
    recorded.__name__ = fn.__name__
    return recorded


def _walk(seed: str, core, p, branch: int, xs, f_evals) -> list[str]:
    # A walk line: one warm inverter takes xs one at a time, in order, so a
    # refusal does not end the walk; f_evals[0] counts the evaluations of f.
    invert, answers = core._inverter(p, branch, TOL), []
    f_evals[0] = 0
    for x in xs:
        try:
            answers.append(invert([x])[0][0].hex())
        except Exception as exc:
            answers.append(type(exc).__name__)
    return [WALKS, seed, p.a.hex(), p.b.hex(), p.c.hex(), str(branch), str(len(xs)),
            str(f_evals[0]), ",".join(answers)]


def _calculus(seed: str, p, fn, arg) -> list[str]:
    # A calculus line for fn(p, arg): `ok` and the answer in hex (values
    # comma-separated), or the class name of the error raised.
    key = [CALCULUS, seed, p.a.hex(), p.b.hex(), p.c.hex(), fn.__name__,
           arg.hex() if isinstance(arg, float) else str(arg)]
    try:
        r = fn(p, arg)
    except Exception as exc:
        return key + [type(exc).__name__]
    return key + ["ok", ",".join(v.hex() for v in r) if isinstance(r, list) else r.hex()]


def _seams(ll, a, b, c) -> list[str]:
    # `ok` and the seams in hex, or the class name of the error raised.
    try:
        seams = ll.singular_points(ll.Params(a, b, c))
    except ll.LogLambertError as exc:
        return [type(exc).__name__]
    return ["ok", ",".join(d.hex() for d in seams)]


def _load(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split("\t") for line in fh]


def _ordered(v: float) -> int:
    # Doubles as integers whose difference counts the ulps between them.
    n = struct.unpack("<q", struct.pack("<d", v))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _quantiles(values) -> str:
    v = sorted(values)
    if not v:
        return "none"
    return (f"median {v[len(v) // 2]:.3g}, p90 {v[int(0.9 * (len(v) - 1))]:.3g}, "
            f"max {v[-1]:.3g}")


def _mp_root(row) -> float:
    # The root of f(y) = x to 50 digits on the double answer's branch,
    # bracketed from the answer y toward the side where f approaches x:
    # points at distances from y that double from 1e-17*|y|, and toward
    # y = 0, once past y/2, at half the point before, until f - x changes
    # sign.  A point where f' has turned sign lies past the seam that ends
    # the branch, so the next point is halfway back to the last one on the
    # branch.  Then bisected.
    import mpmath as mp

    mp.mp.dps = 50
    a, b, c, x = (mp.mpf(float.fromhex(row[i])) for i in (2, 3, 4, 6))
    y = mp.mpf(float.fromhex(row[8]))

    def g_and_slope(v):
        log_bv, e_v = mp.log(b * v), mp.exp(v)
        return (a * v * log_bv + v + c) * e_v - x, (a * (v + 1) * log_bv + v + a + c + 1) * e_v

    g_y, slope = g_and_slope(y)
    if g_y == 0:
        return y
    rising = slope > 0
    sign = 1 if (g_y < 0) == rising else -1
    toward_zero = (sign > 0) == (y < 0)
    near, dist = y, mp.mpf(1e-17) * abs(y)
    far = y + sign * dist
    for _ in range(5000):
        g_far, slope_far = g_and_slope(far)
        if (slope_far > 0) != rising:
            far = (near + far) / 2
            continue
        if (g_far > 0) != (g_y > 0):
            break
        near, dist = far, 2 * dist
        far = near / 2 if toward_zero and dist >= abs(y) / 2 else y + sign * dist
    else:
        raise ValueError(f"no sign change of f - x found from the answer {row}")
    lo, hi, g_lo = y, far, g_y
    while abs(hi - lo) > mp.mpf(10) ** -45 * abs(hi):
        ratio = hi / lo  # lo and hi lie on one side of 0
        mid = (lo + hi) / 2 if 0.25 <= ratio <= 4 else lo * mp.sqrt(ratio)
        g_mid = g_and_slope(mid)[0]
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _mp_seam(a, b, c, delta: float):
    # The root of the seam equation next to delta, to 60 digits: bracketed
    # by stepping out from delta, then bisected.
    import mpmath as mp

    with mp.workdps(60):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)

        def s(y):
            return a * (y + 1) * mp.log(b * y) + y + a + c + 1

        lo = hi = mp.mpf(delta)
        step = mp.mpf(math.ulp(delta))
        while (s(lo) > 0) == (s(hi) > 0):
            lo, hi, step = lo - step, hi + step, 2 * step
            if b * lo <= 0:
                lo = delta / 2 if delta > 0 else 2 * delta
            if b * hi <= 0:
                hi = delta / 2 if delta < 0 else 2 * delta
        while abs(hi - lo) > mp.mpf(10) ** -55 * abs(hi):
            mid = (lo + hi) / 2
            if (s(mid) > 0) == (s(lo) > 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _pair(rows_a, rows_b, width=7):
    # (ra, rb) for the calls of A and B with one input (the first `width`
    # fields), the k-th repeat of an input in A with its k-th in B; then the
    # unpaired rows of each.
    queues: dict[tuple, list] = {}
    for rb in rows_b:
        queues.setdefault(tuple(rb[:width]), []).append(rb)
    pairs, only_a = [], []
    for ra in rows_a:
        queue = queues.get(tuple(ra[:width]))
        if queue:
            pairs.append((ra, queue.pop(0)))
        else:
            only_a.append(ra)
    return pairs, only_a, [rb for queue in queues.values() for rb in queue]


def compare(path_a: str, path_b: str, mp_every: int) -> bool:
    # Prints the comparison; True when the records differ (see the module
    # docstring).
    rows_a, rows_b = _load(path_a), _load(path_b)
    differs = False
    for name in WORKLOADS:
        own_a = [r for r in rows_a if r[0] == name]
        own_b = [r for r in rows_b if r[0] == name]
        pairs, only_a, only_b = _pair(own_a, own_b)
        print(f"== {name}: {len(own_a)} and {len(own_b)} evaluate calls, "
              f"{len(pairs)} with the same input")
        for label, rows in (("A", own_a), ("B", own_b)):
            counts = Counter(r[7] for r in rows)
            its = sorted(int(r[10]) for r in rows if r[7] == "ok")
            mean = statistics.fmean(its) if its else math.nan
            p99 = its[int(0.99 * (len(its) - 1))] if its else 0
            print(f"  {label}: outcomes {dict(sorted(counts.items()))}, "
                  f"points mean {mean:.3f}, p99 {p99}, max {max(its, default=0)}, "
                  f"one point {its.count(1)}")
            bad = [r for r in rows if r[7] == "ok" and float.fromhex(r[9])
                   > TOL * max(1.0, abs(float.fromhex(r[6])))]
            print(f"  {label}: answers above tol*max(1,|x|): {len(bad)}")
            for r in bad:
                print("    " + " ".join(r))
        print(f"  inputs only in A: {len(only_a)}, only in B: {len(only_b)}")
        flips = [(ra, rb) for ra, rb in pairs if ra[7] != rb[7]]
        print(f"  outcome-class changes: {len(flips)}")
        for ra, rb in flips:
            a, b, c, x = (float.fromhex(ra[i]) for i in (2, 3, 4, 6))
            print(f"    seed {ra[1]} ({a!r}, {b!r}, {c!r}) branch {ra[5]} x={x!r}: "
                  f"{ra[7]} -> {rb[7]}")
        both = [(ra, rb) for ra, rb in pairs if ra[7] == rb[7] == "ok"]
        equal = sum(ra[8] == rb[8] for ra, rb in both)
        moves = [abs(_ordered(float.fromhex(ra[8])) - _ordered(float.fromhex(rb[8])))
                 for ra, rb in both if ra[8] != rb[8]]
        print(f"  answered in both: {len(both)}, y equal to the bit: {equal}, "
              f"(y, points) equal: {sum(ra[8:] == rb[8:] for ra, rb in both)}")
        print(f"  ulp moves of the {len(moves)} that differ: {_quantiles(moves)}")
        differs |= bool(only_a or only_b or flips
                        or any(ra[8:] != rb[8:] for ra, rb in both))
        if mp_every:
            # An answer of 0 points is a seam of the catalog, whose f(d) is x
            # in doubles: the seams' own check covers it.
            checked = [(ra, rb) for ra, rb in both if "0" not in (ra[10], rb[10])][::mp_every]
            errs_a, errs_b = [], []
            for ra, rb in checked:
                root = _mp_root(rb)
                errs_a.append(float(abs(float.fromhex(ra[8]) - root) / abs(root)))
                errs_b.append(float(abs(float.fromhex(rb[8]) - root) / abs(root)))
            print(f"  relative error against 50-digit roots, {len(errs_a)} answers:")
            print(f"    A: {_quantiles(errs_a)}")
            print(f"    B: {_quantiles(errs_b)}")
            worst = sorted(range(len(checked)), key=lambda i: -max(errs_a[i], errs_b[i]))[:3]
            for i in worst:
                a, b, c, x = (float.fromhex(checked[i][0][k]) for k in (2, 3, 4, 6))
                print(f"    ({a!r}, {b!r}, {c!r}) branch {checked[i][0][5]} x={x!r}: "
                      f"A {errs_a[i]:.3g}, B {errs_b[i]:.3g}")
    differs |= compare_seams([r for r in rows_a if r[0] == SEAMS],
                             [r for r in rows_b if r[0] == SEAMS], mp_every)
    differs |= compare_calculus([r for r in rows_a if r[0] == CALCULUS],
                                [r for r in rows_b if r[0] == CALCULUS], mp_every)
    differs |= compare_fits([r for r in rows_a if r[0] == FITS],
                            [r for r in rows_b if r[0] == FITS], mp_every)
    # A walk's x are its branch's eval_hot inputs, in B's pool order.
    walk_xs: dict[tuple, list[str]] = {}
    for r in rows_b:
        if r[0] == "eval_hot":
            walk_xs.setdefault(tuple(r[1:6]), []).append(r[6])
    differs |= compare_walks([r for r in rows_a if r[0] == WALKS],
                             [r for r in rows_b if r[0] == WALKS], walk_xs, mp_every)
    return differs


def compare_walks(rows_a, rows_b, walk_xs, mp_every: int) -> bool:
    # Fields 6 and 7 are the number of x and the evaluations of f, field 8
    # the answers.
    pairs, only_a, only_b = _pair(rows_a, rows_b, 6)
    print(f"== {WALKS}: {len(rows_a)} and {len(rows_b)} eval_hot branch walks, "
          f"{len(pairs)} with the same input")
    print(f"  walks only in A: {len(only_a)}, only in B: {len(only_b)}")
    for label, rows in (("A", rows_a), ("B", rows_b)):
        xs, evals = sum(int(r[6]) for r in rows), sum(int(r[7]) for r in rows)
        print(f"  {label}: {xs} x, evaluations of f {evals} ({evals / max(xs, 1):.3f} per x)")
    print(f"  walks whose evaluations of f differ: {sum(ra[7] != rb[7] for ra, rb in pairs)}")
    # (row, x, answer in A, answer in B) per x of the paired walks.
    answers = [(ra, x, va, vb) for ra, rb in pairs if ra[6] == rb[6]
               for x, va, vb in zip(walk_xs.get(tuple(ra[1:6]), [""] * int(ra[6])),
                                    ra[8].split(","), rb[8].split(","))]
    # A refusal is an error's class name, capitalised; an answer is hex.
    ok = [item for item in answers if not (item[2][0].isupper() or item[3][0].isupper())]
    flips = sum(va[0].isupper() != vb[0].isupper() for _, _, va, vb in answers)
    print(f"  outcome-class changes: {flips}")
    moved = [item for item in ok if item[2] != item[3]]
    moves = [abs(_ordered(float.fromhex(va)) - _ordered(float.fromhex(vb)))
             for _, _, va, vb in moved]
    print(f"  answered in both: {len(ok)}, equal to the bit: {len(ok) - len(moves)}")
    print(f"  ulp moves of the {len(moves)} that differ: {_quantiles(moves)}")
    if mp_every and moved:
        errs_a, errs_b = [], []
        for ra, x, va, vb in moved[::mp_every]:
            root = _mp_root(["", "", *ra[2:6], x, "ok", vb])
            errs_a.append(float(abs(float.fromhex(va) - root) / abs(root)))
            errs_b.append(float(abs(float.fromhex(vb) - root) / abs(root)))
        print(f"  relative error against 50-digit roots, {len(errs_a)} moved answers:")
        print(f"    A: {_quantiles(errs_a)}")
        print(f"    B: {_quantiles(errs_b)}")
    return bool(only_a or only_b or any(ra[6] != rb[6] or ra[8] != rb[8] for ra, rb in pairs))


def compare_calculus(rows_a, rows_b, mp_every: int) -> bool:
    pairs, only_a, only_b = _pair(rows_a, rows_b)
    print(f"== {CALCULUS}: {len(rows_a)} and {len(rows_b)} scan_cold calls, "
          f"{len(pairs)} with the same input")
    print(f"  inputs only in A: {len(only_a)}, only in B: {len(only_b)}")
    for call in CALCULUS_CALLS:
        own = [(ra, rb) for ra, rb in pairs if ra[5] == call]
        print(f"  {call}: {len(own)} calls")
        for label, side in (("A", 0), ("B", 1)):
            counts = Counter(pair[side][7] for pair in own)
            print(f"    {label}: outcomes {dict(sorted(counts.items()))}")
        flips = [(ra, rb) for ra, rb in own if ra[7] != rb[7]]
        print(f"    outcome-class changes: {len(flips)}")
        for ra, rb in flips:
            a, b, c = (float.fromhex(ra[i]) for i in (2, 3, 4))
            print(f"      seed {ra[1]} ({a!r}, {b!r}, {c!r}) at {ra[6]}: {ra[7]} -> {rb[7]}")
        both = [(ra, rb) for ra, rb in own if ra[7] == rb[7] == "ok"]
        moves = [abs(_ordered(float.fromhex(va)) - _ordered(float.fromhex(vb)))
                 for ra, rb in both
                 for va, vb in zip(ra[8].split(","), rb[8].split(",")) if va != vb]
        print(f"    answered in both: {len(both)}, equal to the bit: "
              f"{sum(ra[8] == rb[8] for ra, rb in both)}")
        print(f"    ulp moves of the {len(moves)} values that differ: {_quantiles(moves)}")
        if mp_every and call in ("taylor_coefficients", "asymptotic"):
            _report_mp_errors(call, both, own, only_a, only_b, mp_every)
    return bool(only_a or only_b or any(ra != rb for ra, rb in pairs))


def _report_mp_errors(call, both, own, only_a, only_b, mp_every: int) -> None:
    # Relative errors against 50-digit references: of the Taylor answers
    # that moved and of every N-th asymptotic answer of both records, and of
    # every answer only one record has (the other refused it, or lacks the
    # input).  For the Taylor coefficients also the largest error/k at order k.
    if call == "taylor_coefficients":
        checked = [(ra, rb) for ra, rb in both if ra[8] != rb[8]]
        print(f"    relative error against 50-digit coefficients, {len(checked)} moved answers:")
    else:
        checked = both[::mp_every]
        print(f"    relative error against the 50-digit formula, {len(checked)} answers in both:")
    for label, side in (("A", 0), ("B", 1)):
        print(f"      {label}: " + _error_summary([pair[side] for pair in checked]))
    for label, side, unpaired in (("A", 0, only_a), ("B", 1, only_b)):
        alone = [pair[side] for pair in own if pair[side][7] == "ok" != pair[1 - side][7]]
        alone += [r for r in unpaired if r[5] == call and r[7] == "ok"]
        print(f"    answered only in {label}, {len(alone)} answers: {_error_summary(alone)}")


def _error_summary(rows) -> str:
    # Quantiles of the relative errors of the calculus answers in rows against
    # _oracle's 50-digit references (references below DBL_MIN skipped), and
    # for Taylor coefficients the largest error/k.
    import mpmath as mp

    sys.path.append(str(ROOT / "src"))  # for _oracle's own import of loglambert
    from _oracle import asymptotic_reference, taylor_reference

    errs, per_k, unreal = [], [], 0
    for r in rows:
        a, b, c = (float.fromhex(r[i]) for i in (2, 3, 4))
        try:
            refs = (taylor_reference(a, b, c, int(r[6])) if r[5] == "taylor_coefficients"
                    else [asymptotic_reference(a, b, c, float.fromhex(r[6]))])
        except ValueError:  # the formula is not real there, though the double answered
            unreal += 1
            continue
        for k, (ref, v) in enumerate(zip(refs, r[8].split(",")), 1):
            if abs(ref) >= sys.float_info.min:
                errs.append(float(abs(mp.mpf(float.fromhex(v)) - ref) / abs(ref)))
                per_k.append(errs[-1] / k)
    out = _quantiles(errs)
    if rows and rows[0][5] == "taylor_coefficients":
        out += f"; largest error/k {max(per_k, default=0.0):.3g}"
    return out + (f"; {unreal} with no real reference" if unreal else "")


def compare_fits(rows_a, rows_b, mp_every: int) -> bool:
    # Field 4 is the op's triple, field 5 its number of levels, field 6 the
    # call's count of evaluations of f, field 7 its passes, field 8 its
    # panels, field 9 its outcome.
    pairs, only_a, only_b = _pair(rows_a, rows_b, 4)
    print(f"== {FITS}: {len(rows_a)} and {len(rows_b)} calls, {len(pairs)} with the same op")
    print(f"  ops only in A: {len(only_a)}, only in B: {len(only_b)}")
    for call in FIT_CALLS:
        own = [(ra, rb) for ra, rb in pairs if ra[3] == call]
        print(f"  {call}: {len(own)} calls")
        for label, side in (("A", 0), ("B", 1)):
            counts = Counter(pair[side][9] for pair in own)
            passes = Counter(int(pair[side][7]) for pair in own)
            panels = Counter(int(pair[side][8]) for pair in own)
            print(f"    {label}: outcomes {dict(sorted(counts.items()))}, evaluations of f "
                  f"{sum(int(pair[side][6]) for pair in own)}, passes "
                  f"{dict(sorted(passes.items()))}, panels "
                  f"{sum(int(pair[side][8]) for pair in own)} {dict(sorted(panels.items()))}")
        if call == "solve_alpha":
            _fit_census(own)
        print(f"    ops whose evaluations of f differ: "
              f"{sum(ra[6] != rb[6] for ra, rb in own)}, whose panels differ: "
              f"{sum(ra[8] != rb[8] for ra, rb in own)}")
        flips = [(ra, rb) for ra, rb in own if ra[9] != rb[9]]
        print(f"    outcome-class changes: {len(flips)}")
        for kind, same in (("answers", lambda r: r[9] == "ok"),
                           ("refusals", lambda r: r[9] != "ok")):
            both = [(ra, rb) for ra, rb in own if ra[9] == rb[9] and same(ra)]
            print(f"    {kind} in both: {len(both)}, equal to the bit: "
                  f"{sum(ra[9:] == rb[9:] for ra, rb in both)}")
        answered = [(ra, rb) for ra, rb in own if ra[9] == rb[9] == "ok"]
        if call == "distribution":
            for label, side in (("A", 0), ("B", 1)):
                worst = max((abs(float.fromhex(pair[side][10]) - 1.0) for pair in own
                             if pair[side][9] == "ok"), default=math.nan)
                print(f"    {label}: largest |Z-1| {worst:.3g}")
        if call in MOVED_VALUES:
            print(f"    largest relative move of the {MOVED_VALUES[call]}: "
                  f"{max(_relative_moves(answered), default=0.0):.3g}")
        if call == "continuous_pdf" and mp_every and answered:
            reference = _continuous_reference()
            print("    relative error of the densities against 25-digit references:")
            for label, side in (("A", 0), ("B", 1)):
                errs = [float(abs(float.fromhex(v) - ref) / ref) for pair in answered
                        for v, ref in zip(pair[side][10].split(","), reference)]
                print(f"      {label}: largest {max(errs):.3g}, median {statistics.median(errs):.3g}")
        for ra, rb in own:
            if ra[9:] != rb[9:]:
                print(f"    seed {ra[1]} op {ra[2]}: {' '.join(ra[9:])[:120]} -> "
                      f"{' '.join(rb[9:])[:120]}")
    return bool(only_a or only_b or any(ra[9:] != rb[9:] for ra, rb in pairs))


def _fit_census(pairs) -> None:
    # Per triple and record: the solves, their passes (mean and histogram)
    # and their evaluations of f per level and pass.
    for triple in dict.fromkeys(ra[4] for ra, _ in pairs):
        print(f"    triple ({triple.replace(',', ', ')}):")
        for label, side in (("A", 0), ("B", 1)):
            rows = [pair[side] for pair in pairs if pair[side][4] == triple]
            passes = Counter(int(r[7]) for r in rows)
            level_passes = sum(int(r[5]) * int(r[7]) for r in rows)
            print(f"      {label}: {len(rows)} solves, {sum(passes.elements()) / len(rows):.3f} "
                  f"passes per solve {dict(sorted(passes.items()))}, "
                  f"{sum(int(r[6]) for r in rows) / max(level_passes, 1):.3f} evaluations "
                  f"of f per level and pass")


def _continuous_reference():
    # The densities of the pool's continuous op, whose triple, multipliers,
    # branch and grid every such op shares, from _oracle.continuous_reference.
    sys.path.extend([str(ROOT / "src"), str(ROOT / "perfbench")])  # for _oracle and workloads
    import workloads
    from _oracle import continuous_reference
    from loglambert import EntropyParams

    return continuous_reference(EntropyParams(*workloads.CONT_TRIPLE), workloads.CONT_ALPHA,
                                workloads.CONT_BETA, workloads.CONT_BRANCH,
                                workloads.CONT_GRID)[1]


def _relative_moves(pairs):
    # |b - a|/|a| of each value (the last field: alpha, the probabilities or
    # the densities) answered in both records; 0 for two equal values.
    for ra, rb in pairs:
        for va, vb in zip(ra[-1].split(","), rb[-1].split(",")):
            a, b = float.fromhex(va), float.fromhex(vb)
            yield abs(b - a) / abs(a) if a != b else 0.0


def compare_seams(rows_a, rows_b, mp_every: int) -> bool:
    pairs, only_a, only_b = _pair(rows_a, rows_b, 5)
    print(f"== {SEAMS}: {len(rows_a)} and {len(rows_b)} scan_cold catalogs, "
          f"{len(pairs)} with the same input")
    for label, rows in (("A", rows_a), ("B", rows_b)):
        print(f"  {label}: outcomes {dict(sorted(Counter(r[5] for r in rows).items()))}")
    print(f"  inputs only in A: {len(only_a)}, only in B: {len(only_b)}")
    flips = [(ra, rb) for ra, rb in pairs if ra[5] != rb[5]]
    print(f"  outcome-class changes: {len(flips)}")
    for ra, rb in flips:
        a, b, c = (float.fromhex(ra[i]) for i in (2, 3, 4))
        print(f"    seed {ra[1]} ({a!r}, {b!r}, {c!r}): {' '.join(ra[5:])} -> "
              f"{' '.join(rb[5:])}")
    both = [(ra, rb) for ra, rb in pairs if ra[5] == rb[5] == "ok"]
    moved = [(ra, float.fromhex(da), float.fromhex(db)) for ra, rb in both
             for da, db in zip(ra[6].split(","), rb[6].split(",")) if da != db]
    print(f"  found in both: {len(both)}, seams equal to the bit: "
          f"{sum(ra[6] == rb[6] for ra, rb in both)} catalogs")
    print(f"  ulp moves of the {len(moved)} seams that differ: "
          f"{_quantiles(abs(_ordered(da) - _ordered(db)) for _, da, db in moved)}")
    if mp_every and moved:
        dist_a, dist_b = [], []
        for ra, da, db in moved:
            root = _mp_seam(*(float.fromhex(ra[i]) for i in (2, 3, 4)), da)
            dist_a.append(float(abs(da - root)) / math.ulp(da))
            dist_b.append(float(abs(db - root)) / math.ulp(db))
        print("  ulps from the 60-digit root, moved seams:")
        print(f"    A: {_quantiles(dist_a)}")
        print(f"    B: {_quantiles(dist_b)}")
    return bool(only_a or only_b or flips or moved)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="library source directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--mpmath", type=int, default=0, metavar="N",
                    help="with --compare: check every N-th eval_hot, scan_cold and asymptotic "
                         "answer and moved walk answer, every moved seam, every moved or new "
                         "Taylor or asymptotic answer and the continuous_pdf densities "
                         "against mpmath")
    args = ap.parse_args(argv)
    if args.compare:
        return int(compare(*args.compare, args.mpmath))
    record(args.src, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
