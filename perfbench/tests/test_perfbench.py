"""Tests of the benchmark harness itself (not of the library).

Tiny in-process runs of every workload; fresh-process set-up probes are
switched off so the suite stays fast.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

import loglambert  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".iterations_mean", ".inversions_mean")


@pytest.fixture(autouse=True)
def no_setup_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def tiny(workload, trace, seed=1):
    seconds = 0.5 if workload == "cli_readme" else 0.3
    return run.measure(workload, seed, seconds, trace)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result, info = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    outcomes = info["outcomes"]
    assert outcomes["ok"] + outcomes["refused"] + outcomes["failed"] == result["attempted"]
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    json.dumps(info)


def test_planted_wrong_answer_is_a_failure(monkeypatch):
    real = loglambert.evaluate
    planted = set()

    def wrong_half_line(p, branch, x, tol=1e-12):
        # Answers on branch 2 are moved off the branch (b*y > 0 no longer holds).
        r = real(p, branch, x, tol)
        if branch == 2:
            planted.add((p, x))
            return type(r)(y=-r.y, residual=r.residual, iterations=r.iterations)
        return r

    monkeypatch.setattr(loglambert, "evaluate", wrong_half_line)
    result, info = tiny("eval_hot", False)
    assert result["correct"] is False
    # Every pool input on branch 2 once: the first pass over the pool.
    assert result["failed"] == info["outcomes"]["wrong"] == len(planted) > 0
    assert info["first_pass"]["inputs_whose_verdict_changed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_verdict_that_changes_on_a_repeat_is_a_failure(monkeypatch):
    wl = workloads.WORKLOADS["eval_hot"]
    pool_ops = workloads.pool_blocks(wl, 0.3) * wl.block_ops
    real = loglambert.evaluate
    calls = []

    def flaky(p, branch, x, tol=1e-12):
        # Right on the first pass; some repeats then escape untyped.
        calls.append(1)
        if len(calls) > pool_ops and len(calls) % 5 == 0:
            raise OverflowError("math range error")
        return real(p, branch, x, tol)

    monkeypatch.setattr(loglambert, "evaluate", flaky)
    result, info = tiny("eval_hot", False)
    first = info["first_pass"]
    assert first["pool_ops"] == pool_ops < len(calls)
    assert info["outcomes"]["failed"] == 0
    assert result["failed"] == first["inputs_whose_verdict_changed"] > 0
    assert result["correct"] is True  # an untyped escape is not a wrong answer
    assert result["metrics"]["nonfail_ratio"]["value"] < 1.0


def test_first_pass_counts_do_not_depend_on_time():
    # 144 scan_cold ops outlast 0.3 s, so the pass is finished untimed.
    first, info = tiny("scan_cold", False, seed=5)
    second, _ = tiny("scan_cold", False, seed=5)
    assert info["first_pass"]["pool_ops"] == 144
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_untyped_exception_is_a_failure_but_not_a_wrong_answer():
    gate = workloads.Gate(loglambert.LogLambertError)

    def overflow():
        raise OverflowError("math range error")

    def refuse():
        raise loglambert.NoSolutionError("no seam")

    assert gate.call(overflow) is None and gate.call(refuse) is None
    gate.check_finite([math.inf], "antiderivative")
    gate.check_finite([1.0, math.nan], "taylor_coefficients")
    gate.check_finite([1.0, 2.0], "taylor_coefficients", good=False)
    assert (gate.refused, gate.failed, gate.wrong) == (1, 4, 1)


@pytest.mark.parametrize("rc, out, err, verdict", [
    (0, "x,y\n1,2\n", "", "ok"),
    (0, "x,y\n1\n", "", "wrong"),
    (2, "", "error: grid too narrow", "refused"),
    (3, "", "error: stalled", "refused"),
    (1, "", "Traceback (most recent call last):\n", "failed"),
    (2, "", "Traceback (most recent call last):\n", "failed"),
    (-9, "", "", "failed"),
])
def test_cli_verdict(rc, out, err, verdict):
    gate = workloads.Gate(loglambert.LogLambertError)
    workloads.cli_verdict(gate, "table", rc, out, err)
    counts = {"ok": gate.ok, "refused": gate.refused, "failed": gate.failed - gate.wrong,
              "wrong": gate.wrong}
    assert counts == {k: int(k == verdict) for k in counts}


@pytest.mark.parametrize("workload", ["scan_cold", "maxent_fit"])
def test_same_seed_same_counts(workload):
    first, _ = tiny(workload, True, seed=7)
    second, _ = tiny(workload, True, seed=7)
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())


def test_pool_depends_only_on_seed():
    import random
    wl = workloads.WORKLOADS["scan_cold"]
    ctx = wl.setup()
    assert wl.pool(random.Random(3), ctx, 1) == wl.pool(random.Random(3), ctx, 1)
    assert wl.pool(random.Random(3), ctx, 1) != wl.pool(random.Random(4), ctx, 1)


def test_rebinding_catches_internal_calls():
    import loglambert.core as core
    import loglambert.expint as expint
    import loglambert.maxent as maxent
    real_evaluate, real_ei = core.evaluate, expint.ei
    rec = spans.Recorder()
    with rec:
        assert maxent.evaluate is core.evaluate is loglambert.evaluate
        assert core.evaluate.__wrapped__ is real_evaluate
        assert core.ei is expint.ei and core.ei.__wrapped__ is real_ei
        assert core.forward is loglambert.forward and not hasattr(core.forward, "__wrapped__")
        rec.run_op(core.antiderivative, core.Params(1.0, 1.0, 1.0), 2.0)
    assert core.evaluate is real_evaluate and maxent.evaluate is real_evaluate
    summary = spans.Summary(rec)
    assert summary.calls("core.antiderivative") == 1
    assert summary.calls("expint.mid") == 1  # Ei reached through core's own binding
    assert 0.0 < summary.share("expint") < 1.0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_hot",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
