"""The package's names, and which modules `import loglambert` and each CLI
command run.

`maxent` and `qcalculus` run on first use (see `loglambert/__init__.py`), so
every check starts a fresh interpreter: in this one, other tests have long
since loaded them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loglambert

TESTS = Path(__file__).resolve().parent
IMPORT_TREE = TESTS / "_import_tree.py"
CORE = ["loglambert", "loglambert.core", "loglambert.errors", "loglambert.expint",
        "loglambert.lambertw"]
FIRST_USE = {"loglambert.maxent", "loglambert.qcalculus"}


def _env():
    src = str(Path(loglambert.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def fresh(*argv, cwd=None):
    cp = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                        env=_env(), cwd=cwd, timeout=60)
    assert cp.returncode == 0, cp.stderr
    return cp


def fresh_code(code):
    return fresh("-c", code)


def test_every_name_is_its_home_modules_object():
    # Every name is read from the package first, then compared with the
    # object its home module (the first that lists or defines it) holds.
    fresh_code("""if True:
        import loglambert as ll
        names = [n for n in ll.__all__ if n != "__version__"]
        got = {n: getattr(ll, n) for n in names}
        from loglambert import core, errors, expint, lambertw, maxent, qcalculus
        homes = {}
        for m in (core, errors, expint, lambertw, qcalculus, maxent):
            for n in getattr(m, "__all__", vars(m)):
                homes.setdefault(n, m)
        missing = sorted(set(names) - set(homes))
        assert not missing, missing
        wrong = [n for n in names if got[n] is not getattr(homes[n], n)]
        assert not wrong, wrong
    """)


def test_the_first_use_names_are_their_modules_all_lists():
    # The package writes these names out, so that listing them runs neither
    # module; the set of public names is the one the package has always had.
    fresh_code("""if True:
        import loglambert as ll
        listed = ll._FIRST_USE_NAMES
        assert listed == ll.qcalculus.__all__ + ll.maxent.__all__, listed
        assert set(ll.__all__) == {
            "Params", "Interval", "Monotone", "BranchInfo", "EvalResult",
            "forward", "forward_slope", "singular_residual", "singular_points",
            "branches", "evaluate", "derivative", "antiderivative",
            "taylor_first_order", "taylor_coefficients", "asymptotic",
            "WBranch", "lambert_w", "w0", "wm1", "BRANCH_POINT",
            "ei", "EULER_GAMMA",
            "EntropyParams", "ln_q", "exp_q", "ln_qq", "ln_qqr", "entropy_qqr",
            "EnsembleSpec", "DiscreteDistribution", "level_argument", "probability",
            "distribution", "suggest_branch", "solve_alpha", "pseudo_beta",
            "stationarity_residuals", "continuous_weight", "continuous_pdf",
            "LogLambertError", "DomainError", "SingularityError", "ConvergenceError",
            "NoSolutionError", "UnsupportedCaseError",
            "PrecisionError", "IntegrationError", "RangeError",
            "__version__",
        }
        assert len(ll.__all__) == 50
    """)


def test_dir_lists_every_name_before_any_is_read():
    fresh_code("""if True:
        import loglambert as ll
        listed = dir(ll)
        assert listed == sorted(listed)
        missing = sorted((set(ll.__all__) | {"maxent", "qcalculus"}) - set(listed))
        assert not missing, missing
    """)


def test_a_read_binds_its_modules_names_in_the_package():
    fresh_code("""if True:
        import loglambert as ll
        maxent_names = ("solve_alpha", "distribution", "EnsembleSpec", "continuous_pdf")
        assert not set(maxent_names) & set(vars(ll))
        assert "EntropyParams" not in vars(ll)
        ll.solve_alpha
        assert set(maxent_names) <= set(vars(ll))
        assert "EntropyParams" in vars(ll)  # maxent imports qcalculus
        assert vars(ll)["solve_alpha"] is ll.maxent.solve_alpha
    """)


def test_submodules_resolve_as_attributes():
    fresh_code("""if True:
        import sys
        import loglambert as ll
        assert ll.maxent is sys.modules["loglambert.maxent"]
        assert ll.qcalculus is sys.modules["loglambert.qcalculus"]
        assert ll.maxent.__name__ == "loglambert.maxent"
        assert ll.qcalculus.EntropyParams is ll.EntropyParams
        import loglambert.maxent as m
        from loglambert.qcalculus import ln_qqr
        assert m is ll.maxent and ln_qqr is ll.ln_qqr
    """)


def test_star_import_binds_every_name():
    fresh_code("""if True:
        import loglambert as ll
        ns = {}
        exec("from loglambert import *", ns)
        missing = sorted(set(ll.__all__) - set(ns))
        assert not missing, missing
        assert all(ns[n] is getattr(ll, n) for n in ll.__all__)
    """)


def test_an_unknown_name_raises_the_standard_error():
    fresh_code("""if True:
        import loglambert as ll
        try:
            ll.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'loglambert' has no attribute 'no_such_name'", exc
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(ll, "maxent_") and not hasattr(ll, "_maxent")
    """)


def test_first_use_from_many_threads_at_once():
    # A thread that read the module while another was still running it saw
    # a half-built module (AttributeError on maxent.__all__).
    fresh_code("""if True:
        import sys, threading
        import loglambert as ll
        start, out = threading.Barrier(16), []

        def first_use():
            start.wait()
            try:
                out.append(ll.solve_alpha([0.1, 0.2, 0.3], 0.1, ll.EntropyParams(0.9, 0.8, 0.7)))
            except Exception as exc:
                out.append(repr(exc))

        threads = [threading.Thread(target=first_use) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(out) == 16 and len(set(out)) == 1 and isinstance(out[0], float), out
    """)


def ran(cp):
    line = cp.stderr.splitlines()[-2]
    assert line.startswith("ran: "), cp.stderr
    return line.split()[1:]


def test_import_runs_the_core_and_defers_the_maxent_half():
    assert ran(fresh(str(IMPORT_TREE))) == CORE
    fresh_code("""if True:
        import sys
        import loglambert
        # Registered at once, though not run: perfbench/spans.py's
        # Recorder.install looks each module up in sys.modules.
        assert {"loglambert.maxent", "loglambert.qcalculus"} <= set(sys.modules)
    """)


def test_a_tracer_installed_before_first_use_leaves_no_wrapper_behind():
    # perfbench/spans.py's Recorder rebinds each function it traces wherever
    # a loglambert module in sys.modules holds it, and binds it back on exit.
    # The maxent half must run before that, or it would import the wrappers
    # and keep them.
    fresh_code(f"""if True:
        import sys
        sys.path.insert(0, {str(TESTS.parent / "perfbench")!r})
        import spans
        import loglambert as ll
        with spans.Recorder():
            ll.solve_alpha([0.1, 0.2, 0.3], 0.1, ll.EntropyParams(0.9, 0.8, 0.7))
        left = [(name, attr) for name, m in sys.modules.items() if name.startswith("loglambert")
                for attr, v in vars(m).items()
                if getattr(getattr(v, "__code__", None), "co_filename", "").endswith("spans.py")]
        assert not left, left
        assert ll.solve_alpha is ll.maxent.solve_alpha and ll.maxent.branches is ll.branches
    """)


def test_import_time_lists_expint():
    # perfbench/run.py's import_probes reads the cumulative times of
    # `loglambert` and `loglambert.expint` from this output.
    cp = fresh("-X", "importtime", "-c", "import loglambert")
    names = {line.split("|")[-1].strip() for line in cp.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"loglambert", "loglambert.expint"} <= names
    assert not names & FIRST_USE


@pytest.mark.parametrize("argv", [
    ["eval", "-A", "1", "-B", "1", "-C", "1", "--branch", "1", "-x", "2084.7878"],
    ["table", "--format", "csv"],
    ["branches", "-A", "2", "-B", "1", "-C", "1"],
    ["branches", "-A", "-2", "-B", "-1", "-C", "1", "--samples", "20"],
    ["maxent", "--q", "0.9", "--qprime", "0.8", "--r", "0.7", "--alpha", "0",
     "--beta", "0.1", "--levels", "levels.txt", "--solve-alpha", "--check"],
    ["maxent", "--q", "1.1", "--qprime", "1.2", "--r", "1.3", "--alpha", "-2.1433",
     "--beta", "-0.0199", "--branch", "1", "--quadratic=-3.7:3.7:11"],
], ids=" ".join)
def test_each_command_runs_only_what_it_needs(argv, tmp_path):
    (tmp_path / "levels.txt").write_text("0.0\n0.3\n0.6\n0.9\n")
    modules = ran(fresh(str(IMPORT_TREE), *argv, cwd=tmp_path))
    assert modules[:len(CORE)] == CORE
    assert "loglambert.cli" in modules
    if argv[0] == "maxent":
        assert FIRST_USE <= set(modules)
    else:
        assert not FIRST_USE & set(modules)
