"""Smoke test of the benchmark at tiny sizes: every workload, traced and not.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(setup_reps=2, train_windows=64, trace_train_windows=64,
                       forecast_windows=300, trace_forecast_windows=256,
                       trace_requests=20, min_requests=20, sweep_tickers=2)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_once(capsys, workload: str, seed: int, trace: int):
    """Run the benchmark in-process; return (final JSON, env, FAILED lines)."""
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace)])
    assert run.run(args, TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return (json.loads(lines[-1]), env,
            [l for l in lines if l.startswith("FAILED")])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_reports_every_declared_metric(workload, trace, capsys):
    result, env, failures = run_once(capsys, workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["autodiff.tape_nodes_per_step"] > 0
        assert values["autodiff.linear.calls"] > 0
        assert values["model.forward_normalized_ms"] > 0
    else:
        assert all(v > 0 for v in values.values()), values
    assert env["blas_threads"] == 1


def test_traced_counts_repeat_across_runs(capsys):
    counts = []
    for seed in (1, 2):
        result, _, failures = run_once(capsys, "sweep", seed, 1)
        assert result["correct"], failures
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.pairs"] == 4 and counts[0]["cli.pairs_failed"] == 0


def test_drift_record_flags_changed_value(tmp_path):
    record = run.DriftRecord(tmp_path / "record.json", "key")
    assert record.compare("outputs", "abc") == ""
    assert record.compare("outputs", "abc") == ""
    assert "drift" in record.compare("outputs", "abd")


def test_pair_counts_from_manifest():
    ok = {"records": 6, "failures": []}
    assert workloads.pair_counts(ok, 2) == (2, 2)
    partial = {"records": 3, "failures": [{"ticker": "A", "horizon": 96},
                                          {"ticker": "B", "error": "x"}]}
    assert workloads.pair_counts(partial, 2) == (4, 1)
    assert workloads.pair_counts(None, 2) == (0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
