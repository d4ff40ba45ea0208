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
