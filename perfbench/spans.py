"""Span recording for the traced run, from outside the program.

`Recorder.install` rebinds each wrapped public function in every
`loglambert` module attribute bound to that function object, so calls the
package makes internally (`core.ei`, `core.lambert_w`, `core.asymptotic`,
`maxent.evaluate`, `maxent.branches`, ...) are recorded as well as the
benchmark's own calls.  Spans live in flat arrays in memory and are written
out once, at the end of the run.

A span is (name, start, end, parent span, op id).  Self time is a span's
duration minus the time its direct children cover; children of one span
never overlap because there is one caller and no threads.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array

# Public entry points wrapped in the traced run, by module.  The cheap
# kernels `forward`, `forward_slope` and `singular_residual` cost less than a
# span, so they stay unwrapped and their time counts as their caller's self
# time.  `lambert_w` carries `w0`/`wm1`, and `ln_qqr` carries `ln_qq`/`ln_q`,
# so those inner entry points are not wrapped separately.
WRAPPED = {
    "core": ("branches", "evaluate", "derivative", "antiderivative",
             "taylor_coefficients", "asymptotic"),
    "lambertw": ("lambert_w",),
    "expint": ("ei",),
    "qcalculus": ("ln_qqr", "entropy_qqr"),
    "maxent": ("solve_alpha", "distribution", "stationarity_residuals",
               "continuous_pdf"),
}

OP = "op"

# Ei's three argument bands: continued fraction, mpmath series, asymptotic.
EI_NEG_CUTOFF = -6.0
EI_POS_CUTOFF = 40.0


def ei_band(x: float) -> str:
    if x < EI_NEG_CUTOFF:
        return "neg"
    if x > EI_POS_CUTOFF:
        return "pos"
    return "mid"


def span_name(module: str, func: str) -> str:
    # Span names are the layer metric prefixes: `core.evaluate`, `lambertw`,
    # `expint.mid`, `qcalculus.ln_qqr`, `maxent.solve_alpha`.
    if module in ("lambertw", "expint"):
        return module
    return f"{module}.{func}"


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.iterations = array("i")  # EvalResult.iterations of each evaluate
        self._stack = [-1]
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op, *args) -> None:
        """Run one benchmark op under a root span of its own."""
        self._op_id += 1
        i = self._open(self.name_id(OP))
        try:
            op(*args)
        finally:
            self._close(i)

    def _wrap(self, module: str, func: str, fn):
        open_, close = self._open, self._close
        if module == "expint":
            bands = {b: self.name_id(f"expint.{b}") for b in ("neg", "mid", "pos")}

            def wrapper(x, *args, **kwargs):
                i = open_(bands[ei_band(x)])
                try:
                    return fn(x, *args, **kwargs)
                finally:
                    close(i)
        elif func == "evaluate":
            nid, iterations = self.name_id(span_name(module, func)), self.iterations

            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                iterations.append(result.iterations)
                return result
        else:
            nid = self.name_id(span_name(module, func))

            def wrapper(*args, **kwargs):
                i = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(i)
        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Rebind every wrapped function wherever a package module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "loglambert" or n.startswith("loglambert."))]
        for module, funcs in WRAPPED.items():
            home = sys.modules[f"loglambert.{module}"]
            for func in funcs:
                fn = getattr(home, func)
                wrapper = self._wrap(module, func, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Write every span as gzipped TSV, times in µs from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\n")


class Summary:
    """Self time and counts per span name, from a finished recording.

    `op_scale[k]`, when given, scales every span of op k (for example to a
    reference CPU speed).
    """

    def __init__(self, rec: Recorder, op_scale=None):
        n = len(rec.start)
        dur = array("d", (rec.end[i] - rec.start[i] for i in range(n)))
        if op_scale is not None:
            for i in range(n):
                dur[i] *= op_scale[rec.op[i]]
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = rec.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        self.self_times = {name: array("d") for name in rec.names}
        for i in range(n):
            self.self_times[rec.names[rec.name[i]]].append(dur[i] - covered[i])
        self.op_wall = sum(dur[i] for i in range(n) if rec.parent[i] < 0)
        self.iterations = rec.iterations

        # Public `evaluate` calls under each maxent span instance.
        evaluate_id = rec._name_ids.get("core.evaluate")
        under: dict[int, int] = {}
        if evaluate_id is not None:
            for i in range(n):
                if rec.name[i] == evaluate_id:
                    p = rec.parent[i]
                    while p >= 0:
                        under[p] = under.get(p, 0) + 1
                        p = rec.parent[p]
        self.inversions: dict[str, list[int]] = {}
        for i in range(n):
            name = rec.names[rec.name[i]]
            if name.startswith("maxent."):
                self.inversions.setdefault(name, []).append(under.get(i, 0))

    def calls(self, prefix: str) -> int:
        return sum(len(v) for k, v in self.self_times.items() if _under(k, prefix))

    def self_us_p50(self, prefix: str) -> float:
        samples = [t for k, v in self.self_times.items() if _under(k, prefix) for t in v]
        return statistics.median(samples) * 1e6 if samples else 0.0

    def share(self, prefix: str) -> float:
        total = sum(t for k, v in self.self_times.items() if _under(k, prefix) for t in v)
        return total / self.op_wall if self.op_wall > 0.0 else 0.0

    def inversions_mean(self, name: str) -> float:
        counts = self.inversions.get(name, [])
        return sum(counts) / len(counts) if counts else 0.0

    def iterations_mean(self) -> float:
        its = self.iterations
        return sum(its) / len(its) if its else 0.0


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")
