import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


def result(throughput, nmse, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput,
                                             "unit": "1/s"},
                        "nmse": {"value": nmse, "unit": "nmse"}}}


BEFORE = {"forecast": result(500.0, 0.40), "train": result(300.0, 0.50)}


def compare(tmp_path, after):
    paths = []
    for name, data in (("before", BEFORE), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_within_bounds_passes(tmp_path):
    # 3x the throughput, nmse 10 % worse (its bound is 20 %)
    done = compare(tmp_path, {"forecast": result(1500.0, 0.44),
                              "train": result(300.0, 0.50)})
    assert done.returncode == 0, done.stdout
    assert "REGRESSED" not in done.stdout
    assert "forecast throughput_per_s: 500 -> 1500" in done.stdout


@pytest.mark.parametrize("after, culprit", [
    ({"forecast": result(360.0, 0.40), "train": result(300.0, 0.50)},
     "forecast throughput_per_s"),                 # 28 % slower, bound 25 %
    ({"forecast": result(500.0, 0.40), "train": result(300.0, 0.61)},
     "train nmse"),                                # 22 % worse, bound 20 %
    ({"forecast": result(500.0, 0.40), "train": result(300.0, 0.50, 1)},
     "train: correct False"),
    ({"forecast": result(500.0, 0.40)}, "train: missing"),
])
def test_regression_fails(tmp_path, after, culprit):
    done = compare(tmp_path, after)
    assert done.returncode == 1, done.stdout
    regressed = [line for line in done.stdout.splitlines()
                 if line.startswith("REGRESSED")]
    assert len(regressed) == 1 and culprit in regressed[0], done.stdout


def claim(tmp_path, parent, change, metric="throughput_per_s"):
    """Run ``--claim forecast:<metric>`` on two files of paired runs."""
    paths = []
    for name, values in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(
            json.dumps({"correct": True, "attempted": 10, "failed": 0,
                        "metrics": {metric: {"value": v}}}) + "\n"
            for v in values))
    return subprocess.run([sys.executable, str(SCRIPT), "--claim",
                           f"forecast:{metric}", *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


PARENT = [1465.0, 1500.0, 1550.0, 1580.0, 1590.0, 1600.0, 1610.0, 1620.0,
          1630.0, 1642.0]     # quartiles 1557.5-1617.5, IQR 60


@pytest.mark.parametrize("change, code, wins", [
    ([v + 600 for v in PARENT], 0, "10/10"),                 # wide gap
    ([v + 600 for v in PARENT[:8]] + [1000.0, 1000.0], 1, "8/10"),
    ([v + 1 for v in PARENT], 1, "10/10"),                   # gap inside IQR
    ([v + 600 for v in PARENT[:9]] + [PARENT[9]], 0, "9/10 pairs (1 tied)"),
    ([v + 600 for v in PARENT[:8]] + PARENT[8:], 1, "8/10 pairs (2 tied)"),
])
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_above_the_iqr(
        tmp_path, change, code, wins):
    done = claim(tmp_path, PARENT, change)
    assert done.returncode == code, done.stdout + done.stderr
    assert f"change better in {wins}" in done.stdout
    assert "IQR 60" in done.stdout
    assert ("HOLDS" if code == 0 else "NOT MET") in done.stdout


def test_claim_on_a_lower_is_better_metric(tmp_path):
    parent = [2.2, 2.3, 2.4, 2.5, 2.6, 2.2, 2.3, 2.4, 2.5, 2.6]
    faster = [v - 1.0 for v in parent]
    assert claim(tmp_path, parent, faster, "job_s").returncode == 0
    assert claim(tmp_path, faster, parent, "job_s").returncode == 1


def test_claim_rejects_unpaired_files(tmp_path):
    done = claim(tmp_path, PARENT, PARENT[:9])
    assert done.returncode == 2 and "equally many runs" in done.stderr


def no_regress(tmp_path, parent, change):
    """Run ``--no-regress`` on two files of runs, each given as a list of
    (job_s value, failed operations, correct) triples."""
    paths = []
    for name, runs in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(
            json.dumps({"correct": ok, "attempted": 10, "failed": failed,
                        "metrics": {"job_s": {"value": v, "unit": "s"}}})
            + "\n" for v, failed, ok in runs))
    return subprocess.run([sys.executable, str(SCRIPT), "--no-regress",
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def runs(values, failed=0, correct=True):
    return [(v, failed, correct) for v in values]


STEADY = [2.0, 2.02, 2.04, 2.06, 2.08, 1.98, 2.0, 2.02, 2.04, 2.06]
NOISY = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]   # IQR 50 %


def job_line(stdout):
    return next(line for line in stdout.splitlines() if "job_s:" in line)


@pytest.mark.parametrize("parent, change, verdict, code", [
    (STEADY, [v * 1.1 for v in STEADY], "ok", 0),           # 10 % slower
    (STEADY, [v * 1.3 for v in STEADY], "REGRESSED", 1),    # bound 25 %
    (NOISY, [v * 1.1 for v in NOISY], "UNRESOLVED", 0),
    (NOISY, [v * 0.3 for v in NOISY], "ok", 0),     # every run beats every
])
def test_no_regress_verdicts(tmp_path, parent, change, verdict, code):
    done = no_regress(tmp_path, runs(parent), runs(change))
    assert done.returncode == code, done.stdout + done.stderr
    line = job_line(done.stdout)
    assert line.split()[0] == verdict, line
    assert "parent quartiles" in line and "bound 25%" in line


def test_no_regress_prints_medians_and_relative_change(tmp_path):
    done = no_regress(tmp_path, runs(NOISY), runs([v * 1.1 for v in NOISY]))
    assert ("job_s: median 2 -> 2.2 s (10.0% worse), parent quartiles "
            "1.5-2.5 (IQR 50.0% of the median)") in job_line(done.stdout)


def test_no_regress_lists_every_run_in_pair_order(tmp_path):
    change = [v * 1.1 for v in NOISY]
    lines = no_regress(tmp_path, runs(NOISY), runs(change)).stdout.splitlines()
    at = lines.index(job_line("\n".join(lines)))
    assert lines[at + 1].split() == ["parent", "job_s", "by", "pair:",
                                     *(f"{v:.6g}" for v in NOISY)]
    assert lines[at + 2].split() == ["change", "job_s", "by", "pair:",
                                     *(f"{v:.6g}" for v in change)]


@pytest.mark.parametrize("change", [
    runs(STEADY[:9]) + runs(STEADY[9:], correct=False),
    runs(STEADY[:9]) + runs(STEADY[9:], failed=1),
], ids=["not_correct", "more_failures"])
def test_no_regress_fails_on_broken_or_failing_runs(tmp_path, change):
    done = no_regress(tmp_path, runs(STEADY), change)
    assert done.returncode == 1, done.stdout
    assert done.stdout.splitlines()[0].startswith("REGRESSED")
    assert job_line(done.stdout).startswith("ok")
