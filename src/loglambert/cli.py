"""Command-line interface.

Subcommands:

* ``eval``      invert the forward map on one branch at a given x
* ``table``     accuracy table of the large-x approximation (a = b = c = 1)
* ``branches``  branch catalog, optionally with curve samples for plotting
* ``maxent``    maximum-entropy distribution for given multipliers

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 domain/parameter errors, 3 convergence failures.  Formats: ``table``
(4 decimals), ``csv`` and ``json`` (17 significant digits; JSON emits one
object with ``params`` and ``rows``).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import core, maxent
from .errors import ConvergenceError, DomainError, LogLambertError
from .qcalculus import EntropyParams

__all__ = ["main"]


def _fmt17(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _fmt4(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if v != 0.0 and (abs(v) >= 1e6 or abs(v) < 1e-4):
            return f"{v:.4e}"
        return f"{v:.4f}"
    return str(v)


def _emit(fmt: str, params: dict, columns: list[str], rows: list[dict],
          summary: dict | None = None) -> None:
    # json and csv are imported only for the format that needs them: most
    # commands print a table, and start-up time is most of a command's cost.
    if fmt == "json":
        import json

        doc = {"params": params, "rows": rows}
        if summary:
            doc.update(summary)
        print(json.dumps(doc))
        return
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt17(row.get(c, "")) for c in columns])
        if summary:
            for k, v in summary.items():
                print(f"{k} = {_fmt17(v)}", file=sys.stderr)
        return
    widths = {c: len(c) for c in columns}
    text_rows = []
    for row in rows:
        tr = {c: _fmt4(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(tr[c]))
        text_rows.append(tr)
    print("  ".join(c.ljust(widths[c]) for c in columns))
    print("  ".join("-" * widths[c] for c in columns))
    for tr in text_rows:
        print("  ".join(tr[c].ljust(widths[c]) for c in columns))
    if summary:
        print()
        for k, v in summary.items():
            print(f"{k} = {_fmt17(v)}")


def _add_coeff_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-A", type=float, required=True,
                     help="coefficient of the y*ln(b*y) term")
    sub.add_argument("-B", type=float, required=True,
                     help="scale inside the logarithm (sign fixes the y half-line)")
    sub.add_argument("-C", type=float, required=True,
                     help="additive offset")


def _cmd_eval(args) -> int:
    p = core.Params(args.A, args.B, args.C)
    result = core.evaluate(p, args.branch, args.x, tol=args.tol)
    row = {
        "x": args.x,
        "y": result.y,
        "residual": result.residual,
        "iterations": result.iterations,
        "at_seam": result.at_seam,
    }
    _emit(args.format,
          {"a": args.A, "b": args.B, "c": args.C, "branch": args.branch,
           "tol": args.tol},
          ["x", "y", "residual", "iterations", "at_seam"], [row])
    return 0


_TABLE_MISPRINT_NOTE = "recomputed x; reference tables list 3575.7472 here"


def _cmd_table(args) -> int:
    p = core.Params(1.0, 1.0, 1.0)
    rows = []
    for y in range(4, 11):
        x = core.forward(p, float(y))
        approx = core.asymptotic(p, x)
        rel_err = abs(approx - y) / y
        rows.append({
            "x": x,
            "exact": float(y),
            "approx": approx,
            "rel_err": rel_err,
            "note": _TABLE_MISPRINT_NOTE if y == 4 else "",
        })
    _emit(args.format, {"a": 1.0, "b": 1.0, "c": 1.0},
          ["x", "exact", "approx", "rel_err", "note"], rows)
    return 0


def _display_span(bi: core.BranchInfo) -> tuple[float, float]:
    # Finite y-window used for curve sampling: open limits pulled inward,
    # infinite ends capped a few units past the seam.
    lo, hi = bi.y_range.lo, bi.y_range.hi
    if math.isinf(lo):
        lo = hi - 6.0
    elif lo == 0.0:
        lo = hi / 1000.0
    if math.isinf(hi):
        hi = lo + 6.0
    elif hi == 0.0:
        hi = lo / 1000.0
    return lo, hi


def _cmd_branches(args) -> int:
    p = core.Params(args.A, args.B, args.C)
    catalog = core.branches(p)
    params = {"a": args.A, "b": args.B, "c": args.C}

    if args.samples > 0:
        n = args.samples
        rows = []
        spans = []
        for bi in catalog:
            lo, hi = _display_span(bi)
            spans.append((lo, hi))
            for i in range(n):
                y = lo + (hi - lo) * i / (n - 1) if n > 1 else lo
                rows.append({"series": f"branch{bi.index}", "y": y,
                             "x": core.forward(p, y)})
        window_lo = min(s[0] for s in spans)
        window_hi = max(s[1] for s in spans)
        for i in range(n):
            y = window_lo + (window_hi - window_lo) * i / (n - 1) if n > 1 else window_lo
            if abs(y + 1.0) < 1e-9 or y == 0.0:
                continue
            rows.append({
                "series": "g", "y": y,
                "x": (-y - args.C - args.A - 1.0) / (y + 1.0),
            })
            rows.append({
                "series": "h", "y": y,
                "x": args.A * core._log_by(p, y, "the h curve"),
            })
        _emit(args.format, params, ["series", "y", "x"], rows)
        return 0

    rows = []
    for bi in catalog:
        row = {
            "branch": bi.index,
            "y_lo": bi.y_range.lo,
            "y_lo_closed": bi.y_range.lo_closed,
            "y_hi": bi.y_range.hi,
            "y_hi_closed": bi.y_range.hi_closed,
            "x_lo": bi.x_domain.lo,
            "x_lo_closed": bi.x_domain.lo_closed,
            "x_hi": bi.x_domain.hi,
            "x_hi_closed": bi.x_domain.hi_closed,
            "monotone": bi.monotone.value,
        }
        for k, (dy, dx) in enumerate(bi.seams, start=1):
            row[f"seam{k}_y"] = dy
            row[f"seam{k}_x"] = dx
        rows.append(row)
    columns = ["branch", "y_lo", "y_lo_closed", "y_hi", "y_hi_closed",
               "x_lo", "x_lo_closed", "x_hi", "x_hi_closed", "monotone",
               "seam1_y", "seam1_x", "seam2_y", "seam2_x"]
    _emit(args.format, params, columns, rows)
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DomainError(f"bad --quadratic grid {text!r}; expected LO:HI:N") from None
    if n < 2 or not hi > lo:
        raise DomainError(f"bad --quadratic grid {text!r}; need HI > LO and N >= 2")
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _read_levels(path: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"--levels: cannot read {path!r}: {reason}") from None
    levels = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            levels.append(float(line))
        except ValueError:
            raise DomainError(
                f"--levels {path!r}, line {number}: {line.strip()!r} is not a number"
            ) from None
    if not levels:
        raise DomainError(f"--levels {path!r} holds no levels")
    return levels


def _cmd_maxent(args) -> int:
    ep = EntropyParams(q=args.q, q_prime=args.qprime, r=args.r, k=args.k)
    params = {"q": args.q, "q_prime": args.qprime, "r": args.r, "k": args.k,
              "beta": args.beta}

    if args.quadratic:
        if args.branch is None:
            raise DomainError("continuous mode needs an explicit --branch")
        grid = _parse_grid(args.quadratic)
        dens = maxent.continuous_pdf(ep, args.alpha, args.beta, args.branch, grid)
        params["alpha"] = args.alpha
        params["branch"] = args.branch
        rows = [{"x": x, "p": d} for x, d in zip(grid, dens)]
        _emit(args.format, params, ["x", "p"], rows)
        return 0

    levels = _read_levels(args.levels)
    branch = args.branch
    if branch is None:
        branch = maxent.suggest_branch(ep, len(levels))
    alpha = args.alpha
    if args.solve_alpha:
        alpha = maxent.solve_alpha(levels, args.beta, ep, branch)
    spec = maxent.EnsembleSpec(levels=tuple(levels), alpha=alpha,
                               beta=args.beta, ep=ep)
    dist = maxent.distribution(spec, branch)
    rows = [
        {"index": i, "level": lv, "x": dist.x_values[i], "p": dist.probs[i]}
        for i, lv in enumerate(levels)
    ]
    summary = {
        "alpha": alpha,
        "branch": branch,
        "partition": dist.partition,
        "beta_r": dist.beta_r,
        "normalization_defect": abs(math.fsum(dist.probs) - 1.0),
    }
    if args.check:
        residuals = maxent.stationarity_residuals(spec, dist.probs)
        summary["max_stationarity_residual"] = max(abs(r) for r in residuals)
    _emit(args.format, params, ["index", "level", "x", "p"], rows, summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loglambert",
        description="Branch inversion of (a*y*ln(b*y) + y + c)*e^y and the "
                    "maximum-entropy distributions built on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="invert the forward map on one branch")
    _add_coeff_flags(pe)
    pe.add_argument("--branch", type=int, required=True, help="branch index")
    pe.add_argument("-x", type=float, required=True, help="value to invert")
    pe.add_argument("--tol", type=float, default=1e-12,
                    help="residual tolerance: |f(y) - x| <= tol*max(1, |x|), "
                         "absolute below |x| = 1 (default 1e-12)")
    pe.set_defaults(func=_cmd_eval)

    pt = sub.add_parser(
        "table",
        help="accuracy table of the large-x approximation (a=b=c=1)",
    )
    pt.set_defaults(func=_cmd_table)

    pb = sub.add_parser("branches", help="branch catalog / curve samples")
    _add_coeff_flags(pb)
    pb.add_argument("--samples", type=int, default=0,
                    help="emit N curve samples per branch plus the auxiliary "
                         "curves g, h whose intersections locate the seams")
    pb.set_defaults(func=_cmd_branches)

    pm = sub.add_parser("maxent", help="maximum-entropy distribution")
    pm.add_argument("--q", type=float, required=True)
    pm.add_argument("--qprime", type=float, required=True)
    pm.add_argument("--r", type=float, required=True)
    pm.add_argument("--k", type=float, default=1.0, help="entropy scale")
    pm.add_argument("--alpha", type=float, required=True,
                    help="normalisation multiplier")
    pm.add_argument("--beta", type=float, required=True,
                    help="level multiplier")
    pm.add_argument("--levels", help="file with one level per line")
    pm.add_argument("--quadratic", metavar="LO:HI:N",
                    help="continuous mode: grid for the quadratic level x**2")
    pm.add_argument("--branch", type=int, default=None,
                    help="branch index (default: warm-start suggestion)")
    pm.add_argument("--solve-alpha", action="store_true",
                    help="tune alpha so the weights sum to 1 before reporting")
    pm.add_argument("--check", action="store_true",
                    help="also report the max stationarity residual")
    pm.set_defaults(func=_cmd_maxent)

    for sp in (pe, pt, pb, pm):
        sp.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "maxent" and not args.quadratic and not args.levels:
        parser.error("maxent needs --levels FILE or --quadratic LO:HI:N")
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LogLambertError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
