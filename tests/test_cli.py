"""End-to-end CLI tests (subprocess, stdout/stderr separation, exit codes)."""

import csv
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loglambert
from loglambert import LogLambertError, Params, branches, cli, forward

BASE = [sys.executable, "-m", "loglambert"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, expect=0, **kwargs):
    cp = subprocess.run(BASE + list(args), capture_output=True, text=True, **kwargs)
    assert cp.returncode == expect, (cp.returncode, cp.stderr)
    return cp


def test_eval_reference_row():
    cp = run_cli("eval", "-A", "1", "-B", "1", "-C", "1",
                 "--branch", "1", "-x", "2084.7878")
    assert "5.0000" in cp.stdout


def test_eval_zero_crossing_json():
    cp = run_cli("eval", "-A", "1", "-B", "1", "-C", "0",
                 "--branch", "1", "-x", "0", "--format", "json")
    doc = json.loads(cp.stdout)
    assert doc["params"]["branch"] == 1
    assert doc["rows"][0]["y"] == pytest.approx(1.0 / math.e, rel=1e-12)


def test_eval_domain_error_exit_code_and_message():
    cp = run_cli("eval", "-A", "1", "-B", "1", "-C", "1",
                 "--branch", "0", "-x", "1e9", expect=2)
    assert cp.stdout == ""
    assert "0.94" in cp.stderr  # names the valid x-interval


def test_eval_infinite_tol_refused():
    cp = run_cli("eval", "-A", "1", "-B", "1", "-C", "1",
                 "--branch", "1", "-x", "2084.7878", "--tol", "inf", expect=2)
    assert_one_line_error(cp, "tol must be finite")


def test_eval_convergence_exit_code():
    cp = run_cli("eval", "-A", "1", "-B", "1", "-C", "1",
                 "--branch", "1", "-x", "10", "--tol", "1e-300", expect=3)
    assert "error" in cp.stderr


def test_table_rows():
    cp = run_cli("table", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    assert len(rows) == 7
    by_exact = {float(r["exact"]): r for r in rows}
    assert float(by_exact[7.0]["x"]) == pytest.approx(23710.7124, abs=5e-4)
    assert float(by_exact[7.0]["approx"]) == pytest.approx(6.3581, abs=1e-4)
    assert float(by_exact[7.0]["rel_err"]) == pytest.approx(9.16961e-2, abs=1e-4)
    assert float(by_exact[9.0]["rel_err"]) == pytest.approx(6.90741e-2, abs=1e-4)
    # the first row is recomputed and annotated, not the misprinted value
    assert float(by_exact[4.0]["x"]) == pytest.approx(575.7476, abs=5e-4)
    assert "3575.7472" in by_exact[4.0]["note"]
    assert by_exact[5.0]["note"] == ""


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_table_command_in_every_format(fmt):
    # Seven rows, y = 4..10 in the `exact` column, in each output format.
    cp = run_cli("table", "--format", fmt)
    assert "Traceback" not in cp.stderr
    if fmt == "json":
        rows = json.loads(cp.stdout)["rows"]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    else:
        # Columns are left-justified to the width of their rule of dashes.
        header, rule, *lines = cp.stdout.splitlines()
        spans = [m.span() for m in re.finditer("-+", rule)]
        names = [header[i:j].strip() for i, j in spans]
        rows = [{name: line[i:j].strip() for name, (i, j) in zip(names, spans)}
                for line in lines]
        assert all(len(line) <= len(rule) for line in lines)
    assert len(rows) == 7
    assert [float(r["exact"]) for r in rows] == [float(y) for y in range(4, 11)]
    assert all(float(r["x"]) > 0.0 and 0.0 < float(r["rel_err"]) < 1.0 for r in rows)


def test_branches_catalog_counts():
    cp = run_cli("branches", "-A", "2", "-B", "1", "-C", "1", "--format", "json")
    doc = json.loads(cp.stdout)
    assert len(doc["rows"]) == 2
    assert {r["monotone"] for r in doc["rows"]} == {"increasing", "decreasing"}
    cp = run_cli("branches", "-A", "-2", "-B", "-1", "-C", "1", "--format", "json")
    doc = json.loads(cp.stdout)
    assert len(doc["rows"]) == 3
    seam_ys = {round(r["seam1_y"], 6) for r in doc["rows"]}
    assert len(seam_ys) == 2  # two distinct seam points shared across branches


def test_branches_unsupported_case_exit():
    # Three seams for b > 0 (four branches) stay refused.
    cp = run_cli("branches", "-A", "-0.169", "-B", "2.278", "-C", "-2.794", expect=2)
    assert "has 3 roots" in cp.stderr


def test_branches_seam_out_of_range_exit():
    # The seam lies near y = 3490, where e^y overflows.
    cp = run_cli("branches", "-A", "-0.8", "-B", "0.001", "-C", "0.8", expect=2)
    assert cp.stdout == ""
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
    assert "e^-708 <= |y| <= 709.78" in cp.stderr
    assert "a=-0.8, b=0.001, c=0.8" in cp.stderr


def test_branch_curves_csv_roundtrip():
    cp = run_cli("branches", "-A", "2", "-B", "1", "-C", "1",
                 "--samples", "25", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    p = Params(2.0, 1.0, 1.0)
    series = {r["series"] for r in rows}
    assert series == {"branch0", "branch1", "g", "h"}
    checked = 0
    for r in rows:
        if not r["series"].startswith("branch"):
            continue
        y = float(r["y"])
        x = float(r["x"])
        assert forward(p, y) == pytest.approx(x, rel=1e-15, abs=1e-300)
        checked += 1
    assert checked == 50


def test_branch_curves_where_b_times_y_underflows():
    # The seam is 7.67e-308, so b*y is subnormal or rounds to 0 on branch 0
    # and at the first sample of the h curve, a*ln(b*y): every format still
    # gives a finite h, and no traceback.
    argv = ["branches", "-A", "0.01", "-B", "1e-16", "-C", "6.43", "--samples", "3"]
    out = {fmt: run_cli(*argv, "--format", fmt) for fmt in ("table", "csv", "json")}
    assert all("Traceback" not in cp.stderr for cp in out.values())
    h = [float(r["x"]) for r in csv.DictReader(io.StringIO(out["csv"].stdout))
         if r["series"] == "h"]
    assert len(h) == 3 and all(map(math.isfinite, h))
    doc = json.loads(out["json"].stdout)
    assert [r["x"] for r in doc["rows"] if r["series"] == "h"] == h
    cells = [line.split()[2] for line in out["table"].stdout.splitlines()
             if line.startswith("h ")]
    assert len(cells) == 3 and all(math.isfinite(float(v)) for v in cells)


def test_maxent_equal_levels(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("0.7\n0.7\n")
    cp = run_cli("maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
                 "--alpha", "0", "--beta", "0.1", "--levels", str(levels),
                 "--solve-alpha", "--format", "json")
    doc = json.loads(cp.stdout)
    probs = [r["p"] for r in doc["rows"]]
    assert probs[0] == probs[1] == pytest.approx(0.5, rel=1e-14)
    assert doc["normalization_defect"] <= 1e-12


def test_maxent_check_flag(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("0.0\n0.3\n0.6\n0.9\n")
    cp = run_cli("maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
                 "--alpha", "0", "--beta", "0.1", "--levels", str(levels),
                 "--solve-alpha", "--check", "--format", "json")
    doc = json.loads(cp.stdout)
    assert doc["max_stationarity_residual"] <= 1e-6
    assert doc["max_stationarity_residual"] <= 1e-12  # the closed form's rounding
    assert doc["partition"] == pytest.approx(1.0, abs=1e-12)


def test_maxent_csv_summary_on_stderr(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("0.0\n0.5\n")
    cp = run_cli("maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
                 "--alpha", "0", "--beta", "0.1", "--levels", str(levels),
                 "--solve-alpha", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    assert len(rows) == 2
    assert "partition" in cp.stderr  # diagnostics stay off the data stream


def test_maxent_continuous_symmetric():
    alpha = 8.0 / (1.5 * math.exp(1.5)) - 10.0 / 3.0
    beta = -0.4 * math.exp(-3.0)
    cp = run_cli("maxent", "--q", "1.1", "--qprime", "1.2", "--r", "1.3",
                 "--alpha", str(alpha), "--beta", str(beta),
                 "--branch", "1", "--quadratic=-3.7:3.7:15",
                 "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    dens = [float(r["p"]) for r in rows]
    assert len(dens) == 15
    # the parsed grid is symmetric only up to float rounding
    for a, b in zip(dens, dens[::-1]):
        assert a == pytest.approx(b, rel=1e-9)
    assert max(dens) > 0.0


def test_maxent_requires_levels_or_grid():
    cp = subprocess.run(
        BASE + ["maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
                "--alpha", "0", "--beta", "0.1"],
        capture_output=True, text=True,
    )
    assert cp.returncode == 2  # argparse usage error


MAXENT = ["maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7",
          "--alpha", "0", "--beta", "0.1"]


def assert_one_line_error(cp, *fragments):
    assert cp.stdout == ""
    assert "Traceback" not in cp.stderr
    lines = cp.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), cp.stderr
    for fragment in fragments:
        assert fragment in lines[0]


def test_maxent_levels_missing_file(tmp_path):
    cp = run_cli(*MAXENT, "--levels", str(tmp_path / "missing.txt"), expect=2)
    assert_one_line_error(cp, "--levels", "missing.txt")


def test_maxent_levels_unreadable_file(tmp_path):
    cp = run_cli(*MAXENT, "--levels", str(tmp_path), expect=2)  # a directory
    assert_one_line_error(cp, "--levels", "cannot read")


def test_maxent_levels_non_numeric_line(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("0.1\n\n0.2x\n0.3\n")
    cp = run_cli(*MAXENT, "--levels", str(levels), expect=2)
    assert_one_line_error(cp, "--levels", "line 3", "0.2x")


def test_maxent_levels_empty_file(tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("\n  \n")
    cp = run_cli(*MAXENT, "--levels", str(levels), expect=2)
    assert_one_line_error(cp, "--levels", "no levels")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# For a sample count past the CLI's bound: a build that does not refuse it
# fails fast (MemoryError under a 1 GiB address-space cap, or the timeout)
# instead of hanging the suite.
BOUNDED = dict(timeout=30, preexec_fn=_cap_memory)


@pytest.mark.parametrize("extra, fragment", [
    (["--quadratic", "1:2", "--branch", "1"], "--quadratic"),
    (["--quadratic", "2:1:5", "--branch", "1"], "--quadratic"),
    (["--quadratic=-1:1:5"], "--branch"),
    # grid points that are not finite: an infinite end, or HI - LO overflows
    (["--quadratic=-inf:3:5", "--branch", "1"], "--quadratic"),
    (["--quadratic=0:inf:5", "--branch", "1"], "--quadratic"),
    (["--quadratic=-1e308:1e308:5", "--branch", "1"], "--quadratic"),
    # more grid points than the CLI allows
    (["--quadratic=0:1:100000000000000000", "--branch", "0"], "--quadratic"),
    # a non-finite multiplier was reported as `x must not be NaN`
    (["--quadratic=-1:1:5", "--branch", "1", "--alpha", "nan"], "alpha and beta must be finite"),
    (["--quadratic=-1:1:5", "--branch", "1", "--beta", "inf"], "alpha and beta must be finite"),
])
def test_maxent_grid_errors(extra, fragment):
    cp = run_cli(*MAXENT, *extra, expect=2, **BOUNDED)
    assert_one_line_error(cp, fragment)


def test_branches_negative_samples_refused():
    cp = run_cli("branches", "-A", "2", "-B", "1", "-C", "1", "--samples", "-3", expect=2)
    assert_one_line_error(cp, "--samples")


def test_branches_samples_past_the_bound_refused():
    cp = run_cli("branches", "-A", "2", "-B", "1", "-C", "1",
                 "--samples", "100000000000000000000", expect=2, **BOUNDED)
    assert_one_line_error(cp, "--samples", str(cli._MAX_SAMPLES))


def test_sample_bound_is_admitted_and_stated_in_help():
    cp = run_cli("branches", "-A", "2", "-B", "1", "-C", "1", "--samples",
                 str(cli._MAX_SAMPLES), "--format", "csv", **BOUNDED)
    assert cp.stdout.count("\nbranch") == 2 * cli._MAX_SAMPLES
    for sub in ("branches", "maxent"):
        assert f"{cli._MAX_SAMPLES})" in run_cli(sub, "--help").stdout


def _package_env():
    # run from any directory against the same package the tests import
    src = str(Path(loglambert.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def _audited_runs(tmp_path, *flags):
    # tests/_import_tree.py on `import loglambert` and on each README command:
    # (argv, heavy modules loaded).  The tool itself fails a run that loads a
    # heavy module its --format does not name, or runs the maxent half for
    # another command.
    (tmp_path / "levels.txt").write_text("0.0\n0.3\n0.6\n0.9\n")
    tool = Path(__file__).resolve().parent / "_import_tree.py"
    for argv in [["loglambert"], *_readme_commands()]:
        if ">" in argv:
            argv = argv[:argv.index(">")]
        cp = subprocess.run([sys.executable, *flags, str(tool), *argv[1:]], capture_output=True,
                            text=True, cwd=tmp_path, env=_package_env())
        assert cp.returncode == 0, cp.stderr
        ran, heavy = cp.stderr.splitlines()[-2:]
        assert ran.startswith("ran: loglambert ") and heavy.startswith("heavy:"), cp.stderr
        yield argv, heavy.split()[1:]


def test_import_does_not_load_mpmath(tmp_path):
    # Without -S, so that mpmath is importable and even a guarded import of it shows.
    for argv, heavy in _audited_runs(tmp_path):
        assert "mpmath" not in heavy, argv


def test_cli_import_leaves_out_heavy_modules(tmp_path):
    # -S keeps site from loading any of them first; only the --format's module may load.
    for argv, heavy in _audited_runs(tmp_path, "-S"):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
        assert heavy == ([] if fmt == "table" else [fmt]), argv


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command(argv, tmp_path):
    (tmp_path / "levels.txt").write_text("0.0\n0.3\n0.6\n0.9\n")
    assert argv[0] == "loglambert"
    if ">" in argv:  # drop the shell redirection; the output is read from stdout
        argv = argv[:argv.index(">")]
    cp = subprocess.run(BASE + argv[1:], capture_output=True, text=True,
                        cwd=tmp_path, env=_package_env())
    assert cp.returncode == 0, cp.stderr
    assert "Traceback" not in cp.stderr
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    assert_parses(fmt, cp.stdout)


def assert_parses(fmt, out):
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)
    elif fmt == "json":
        assert json.loads(out)["rows"]
    else:
        assert out.strip()


# Numbers as typed on a command line: mostly ordinary, sometimes huge, zero,
# non-finite or not numbers at all.  "-A=-2" keeps argparse from reading a
# negative value as an option.
EDGE = st.sampled_from(["0", "-0.0", "1e308", "-1e308", "1e-320", "inf", "-inf",
                        "nan", "abc", "", "1,5"])
# 3 ordinary : 1 edge (one_of merges a strategy listed twice, so build three)
NUMBER = st.one_of([st.floats(-5.0, 5.0).map(repr) for _ in range(3)] + [EDGE])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["eval", "branches"]))
    coeffs = [draw(NUMBER) for _ in "ABC"]
    argv = [command] + [f"-{flag}={v}" for flag, v in zip("ABC", coeffs)]
    if command == "eval":
        x, branch = draw(NUMBER), draw(st.integers(-1, 3))
        if draw(st.booleans()):
            try:  # x = f(y) at an admissible y, on the branch holding y
                p = Params(*map(float, coeffs))
                y = math.copysign(draw(st.floats(0.05, 4.0)), p.b)
                x = repr(forward(p, y))
                branch = next(bi.index for bi in branches(p) if bi.y_range.contains(y))
            except (ValueError, OverflowError, LogLambertError, StopIteration):
                pass
        argv += [f"--branch={branch}", f"-x={x}"]
    else:
        argv += [f"--samples={draw(st.sampled_from([0, 1, 5]))}"]
    return argv + ["--format", draw(st.sampled_from(["table", "csv", "json"]))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_cli_answers_or_exits_cleanly(argv, capsys):
    assert_exits_cleanly(argv, capsys)


def assert_exits_cleanly(argv, capsys):
    # Exit 0 with parsable output, or 2/3 with a message and no traceback.
    capsys.readouterr()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3), (rc, err)
    assert "Traceback" not in err
    if rc != 0:
        assert out == "" and err.strip(), err
    else:
        assert_parses(argv[-1], out)


# Levels files for `maxent --levels`: one per way reading them can go wrong,
# plus files that parse.  "missing" is never written; "directory" is one.
LEVELS_FILES = {
    "four": "0.0\n0.3\n0.6\n0.9\n",
    "many": "".join(f"{(7 * k % 32) / 32!r}\n" for k in range(32)),
    "pair": "0.4\n0.35\n",
    "blank_lines": "\n0.1\n\n0.2\n",
    "empty": "",
    "blank": "\n  \n",
    "text": "0.1\nabc\n",
    "non_finite": "nan\n0.3\ninf\n",
    "huge": "1e308\n1e308\n-1e308\n",
    "binary": b"\xff\xfe\x00".decode("latin-1"),
}
# (q, q', r, alpha, beta): the README's continuous command, its discrete
# one, and a triple whose solve_alpha stalls at the rounding floor on "pair".
CONTINUOUS_BASE = ("1.1", "1.2", "1.3", "-2.1433", "-0.0199")
DISCRETE_BASES = (("0.9", "0.8", "0.7", "0", "0.1"), ("0.998", "0.834", "0.783", "0", "0.1"))
# Grids that answer for the continuous base, then ones that do not.
GRIDS = ("-3.7:3.7:101", "-3.7:3.7:11", "-3.72:3.72:2", "-3.7:3.7:40",
         "-1:1:21", "-6:6:31", "0:1:1", "1:0:5", "a:b:c", "1:2", "-inf:inf:5",
         "-1e200:1e200:3")


@pytest.fixture(scope="module")
def levels_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("levels")
    for name, text in LEVELS_FILES.items():
        (root / name).write_text(text, encoding="latin-1")
    (root / "directory").mkdir()
    return root


@st.composite
def maxent_argv(draw, root):
    # A base command with each value kept, or one time in five replaced by
    # a NUMBER; a grid or a levels file; every format.
    quadratic = draw(st.booleans())
    base = CONTINUOUS_BASE if quadratic else draw(st.sampled_from(DISCRETE_BASES))
    values = [draw(NUMBER) if draw(st.integers(0, 4)) == 0 else v for v in base]
    argv = ["maxent"] + [f"--{flag}={v}" for flag, v in
                         zip(("q", "qprime", "r", "alpha", "beta"), values)]
    if quadratic:
        argv += [f"--quadratic={draw(st.sampled_from(GRIDS))}",
                 f"--branch={draw(st.sampled_from([1, 1, 1, 0, 2, -1]))}"]
    else:
        name = draw(st.sampled_from(sorted(LEVELS_FILES) + ["missing", "directory"]))
        argv.append(f"--levels={root / name}")
        argv += draw(st.sampled_from([[], ["--solve-alpha"], ["--check"],
                                      ["--solve-alpha", "--check"], ["--branch=0"],
                                      ["--branch=3", "--solve-alpha"]]))
    return argv + ["--format", draw(st.sampled_from(["table", "csv", "json"]))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_maxent_answers_or_exits_cleanly(data, levels_dir, capsys):
    assert_exits_cleanly(data.draw(maxent_argv(levels_dir)), capsys)
