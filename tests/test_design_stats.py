import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "design_stats.py"


def test_reports_this_repository():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    stats = json.loads(line)
    modules = sorted((ROOT / "src" / "volmixer").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, modules)],
                        capture_output=True, text=True, check=True)
    assert stats["src_lines"]["total"] == int(wc.stdout.split()[-2])
    assert set(stats["src_lines"]) == {p.name for p in modules} | {"total"}
    assert stats["tape_nodes"] == {"1": 11, "32": 11}
    for pool in ("step_pool", "forward_pool"):
        assert set(stats[pool]) == {"float64"}
        assert stats[pool]["float64"]["buffers"] > 0
    # the residual feedforward hands back its hidden layer in a forward-only
    # pass: 18 buffers, 7.9 MiB, when it was four ops
    assert stats["forward_pool"]["float64"]["buffers"] <= 14
    assert stats["forward_pool"]["float64"]["mib"] <= 5.0
    # and takes the pre-activation's buffer back within a training step: a
    # warm default batch-32 step held 74 buffers, 32.2 MiB, as four ops
    assert stats["step_pool"]["float64"]["buffers"] <= 67
    assert stats["step_pool"]["float64"]["mib"] <= 23.0
