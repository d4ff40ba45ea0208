import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# A stand-in for perfbench/run.py: logs which checkout ran which seed and
# whether its bytecode cache was still there, then prints a result line.
STUB = """\
import sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
cached = (here / "src" / "volmixer" / "__pycache__").exists()
with open(here.parent / "order.log", "a") as fh:
    fh.write(f"{here.name} {seed} {cached}\\n")
print("env ...")
print('{"correct": true, "attempted": 1, "failed": 0, "metrics": '
      '{"job_s": {"value": %s, "unit": "s"}}}' % seed)
"""


def checkout(root: Path, name: str, script: str = STUB) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(script)
    return path


def run_pairs(tmp_path, parent, change, pairs=3):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "sweep", "--pairs",
         str(pairs), "--seconds", "1", "--first-seed", "5", "--out",
         str(tmp_path / "BENCH"), str(parent), str(change)],
        capture_output=True, text=True, timeout=120)


def test_alternates_and_writes_one_line_per_pair(tmp_path):
    parent, change = checkout(tmp_path, "parent"), checkout(tmp_path, "change")
    for path in (parent, change):
        (path / "src" / "volmixer" / "__pycache__").mkdir(parents=True)
    done = run_pairs(tmp_path, parent, change)
    assert done.returncode == 0, done.stderr
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 5 False", "change 5 False",
                     "change 6 False", "parent 6 False",
                     "parent 7 False", "change 7 False"]
    for name in ("before", "after"):
        runs = [json.loads(line) for line in
                (tmp_path / f"BENCH_{name}.jsonl").read_text().splitlines()]
        assert [r["metrics"]["job_s"]["value"] for r in runs] == [5, 6, 7]


def test_failed_run_exits_1(tmp_path):
    parent = checkout(tmp_path, "parent")
    change = checkout(tmp_path, "change", "import sys\nsys.exit(2)\n")
    done = run_pairs(tmp_path, parent, change)
    assert done.returncode == 1
    assert "exited 2" in done.stderr
    assert len((tmp_path / "BENCH_before.jsonl").read_text().splitlines()) == 1
