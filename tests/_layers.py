"""Time the library layer by layer, for one source tree or two side by side.

    python tests/_layers.py --src OLD/src --src src [--rounds 3] [--out BENCH.json]

Each `--src` is a directory holding the `loglambert` package (a checkout's
`src`).  For every tree, a fresh interpreter imports the package from that
directory and times each layer below in blocks of `timeit` (each block runs
the call enough times to take about 20 ms; five blocks per round); the
trees take turns, round by round, so a host whose speed drifts moves them
alike.  Per layer and tree it keeps the median and quartiles, over all
blocks, of the time per call in µs:

- `ei` at a point of each of its pieces and of the regimes of the older
  kernel (series, continued fraction, root Taylor series, asymptotic
  series), named by `x`; `EI_POINTS` says which piece and regime each is;
- `antiderivative` (its `ei` on both sides of 0), `w0`, `wm1` and `forward`;
- `evaluate` on a bounded branch, on an unbounded branch and next to a seam;
- `branches()` with the catalog cache cleared first, for b > 0 and b < 0;
- `taylor_coefficients(p, 4)`;
- `import loglambert`: the package's cumulative `-X importtime` in a fresh
  process that reads and writes no bytecode cache, as a benchmark host with
  `PYTHONDONTWRITEBYTECODE` set imports it, in ms (10 processes per round).

It writes the host, the Python version, each tree's git sha (when the tree
lies in a git checkout; `+changes` when it has uncommitted changes) and
these numbers to `--out` as JSON, and prints them as a Markdown table, with
the ratio of each tree's median to the first's, and the trees' paths.  It
needs only the standard library.  This file is a tool, not a test module:
pytest does not collect it, and the benchmark does not read it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

BLOCKS = 5
BLOCK_SECONDS = 0.02
IMPORT_PROBES = 10

# x: (the piece of the fixed-cost kernel, the regime of the looping kernel)
EI_POINTS = {
    -100.0: ("-e^-t/t*h, v = 1/t (t > 40)", "continued fraction (x <= -2.5)"),
    -20.0: ("-e^-t/t*h on [6, 40]", "continued fraction (x <= -2.5)"),
    -2.6: ("-e^-t/t*h on [1, 6]", "continued fraction (x <= -2.5)"),
    -2.4: ("-e^-t/t*h on [1, 6]", "series (-2.5 < x < 0)"),
    -0.75: ("-e^-t/t*h on [0.5625, 1]", "series (-2.5 < x < 0)"),
    -0.3: ("gamma + ln|x| + x*P(x)", "series (-2.5 < x < 0)"),
    0.1: ("gamma + ln|x| + x*P(x)", "series (0 < x <= 40)"),
    0.38: ("ln(x/x0) + (x - x0)*R(x) on [0.1875, 3]", "root Taylor series (|x - x0| < 0.1)"),
    1.0: ("ln(x/x0) + (x - x0)*R(x) on [0.1875, 3]", "series (0 < x <= 40)"),
    4.5: ("ln(x/x0) + (x - x0)*R(x) on [3, 6]", "series (0 < x <= 40)"),
    10.0: ("e^x/x*g on [6, 20]", "series (0 < x <= 40)"),
    39.0: ("e^x/x*g on [20, 40]", "series (0 < x <= 40)"),
    41.0: ("e^x/x*g, v = 1/x (x > 40)", "asymptotic series (x > 40)"),
    300.0: ("e^x/x*g, v = 1/x (x > 40)", "asymptotic series (x > 40)"),
    712.0: ("e^x/x*g, v = 1/x, e^x as e^(x/2)^2 (x > 709)", "asymptotic series (x > 40)"),
}

# name: (statement, setup); the setup runs once per block, outside the timing.
LAYERS = {
    **{f"ei({x!r})": (f"ei({x!r})", "") for x in EI_POINTS},
    "antiderivative(P1, 1.5)": ("antiderivative(P1, 1.5)", ""),
    "antiderivative(PNEG, -3.0)": ("antiderivative(PNEG, -3.0)", ""),
    "w0(2.0)": ("w0(2.0)", ""),
    "wm1(-0.2)": ("wm1(-0.2)", ""),
    "forward(P1, 1.5)": ("forward(P1, 1.5)", ""),
    "evaluate bounded (PNEG, 1, 0.1)": ("evaluate(PNEG, 1, 0.1)", "branches(PNEG)"),
    "evaluate unbounded (P1, 1, 2084.7878)": ("evaluate(P1, 1, 2084.7878)", "branches(P1)"),
    "evaluate next to a seam (P1, 1, f(d) + 1e-6)": ("evaluate(P1, 1, 0.9461078437329514)",
                                                     "branches(P1)"),
    "branches uncached (b > 0)": ("clear(); branches(P1)", ""),
    "branches uncached (b < 0)": ("clear(); branches(PNEG)", ""),
    "taylor_coefficients(PT, 4)": ("taylor_coefficients(PT, 4)", ""),
}

CHILD_SETUP = """
from loglambert import (Params, antiderivative, branches, ei, evaluate, forward,
                        taylor_coefficients, w0, wm1)
from loglambert import core
clear = core._catalog.cache_clear
P1, PNEG, PT = Params(1.0, 1.0, 1.0), Params(-2.0, -1.0, 1.0), Params(1.0, 1.0, -1.0)
"""


def _child(src: str) -> dict:
    # One round in this process: BLOCKS blocks per layer, µs per call.
    sys.path.insert(0, src)
    env: dict = {}
    exec(CHILD_SETUP, env)
    out = {}
    for name, (stmt, setup) in LAYERS.items():
        exec(setup, env)
        timer = timeit.Timer(stmt, globals=env)
        number, _ = timer.autorange()
        number = max(1, round(number * BLOCK_SECONDS / 0.2))
        out[name] = [t / number * 1e6 for t in timer.repeat(BLOCKS, number)]
    return out


def _import_ms(src: str, no_cache: str) -> list[float]:
    # An empty PYTHONPYCACHEPREFIX: no tree reads bytecode an earlier run left.
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPYCACHEPREFIX": no_cache}
    times = []
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loglambert"],
                             env=env, capture_output=True, text=True, check=True).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "loglambert":
                times.append(int(parts[1]) / 1e3)
    return times


def _git_sha(src: str) -> str | None:
    run = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True)
    if run.returncode:
        return None
    dirty = subprocess.run(["git", "-C", src, "status", "--porcelain", "--", "."],
                           capture_output=True, text=True).stdout.strip()
    return run.stdout.strip() + ("+changes" if dirty else "")


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True, help="a directory holding loglambert")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", help="write the JSON record here")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.src[0])))
        return 0

    srcs = [str(Path(s).resolve()) for s in args.src]
    blocks = {s: {name: [] for name in LAYERS} for s in srcs}
    imports = {s: [] for s in srcs}
    with tempfile.TemporaryDirectory() as no_cache:
        for k in range(args.rounds):
            for s in (srcs if k % 2 == 0 else srcs[::-1]):
                run = subprocess.run([sys.executable, "-B", __file__, "--child", "--src", s],
                                     capture_output=True, text=True, check=True)
                for name, values in json.loads(run.stdout).items():
                    blocks[s][name] += values
                imports[s] += _import_ms(s, no_cache)

    record = {
        "host": {"machine": platform.machine(), "processor": platform.processor(),
                 "platform": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "unit": "µs per call (import loglambert: ms)",
        "ei_points": {f"ei({x!r})": {"piece": piece, "older_regime": regime}
                      for x, (piece, regime) in EI_POINTS.items()},
        "trees": [{"tree": i + 1, "git_sha": _git_sha(s),
                   "layers": {**{name: _summary(v) for name, v in blocks[s].items()},
                              "import loglambert (ms)": _summary(imports[s])}}
                  for i, s in enumerate(srcs)],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    first = record["trees"][0]["layers"]
    print(f"Python {record['python']}, {record['host']['platform']}; median [q1, q3] of "
          f"{args.rounds * BLOCKS} blocks per layer, µs per call (import: ms)\n")
    print("| layer | " + " | ".join(f"tree {i + 1}" for i in range(len(srcs)))
          + "".join(f" | tree {i + 1} / tree 1" for i in range(1, len(srcs))) + " |")
    print("|---" * (2 * len(srcs)) + "|")
    for name in first:
        cells = [record["trees"][i]["layers"][name] for i in range(len(srcs))]
        row = [f"{c['median']:.3g} [{c['q1']:.3g}, {c['q3']:.3g}]" for c in cells]
        row += [f"{c['median'] / cells[0]['median']:.3f}" for c in cells[1:]]
        print(f"| {name} | " + " | ".join(row) + " |")
    for tree, s in zip(record["trees"], srcs):
        print(f"\ntree {tree['tree']}: {s} ({tree['git_sha'] or 'no git checkout'})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
