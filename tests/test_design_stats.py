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
    assert stats["tape_nodes"] == {"1": 17, "32": 17}
    assert set(stats["step_pool"]) == {"float64"}
    assert stats["step_pool"]["float64"]["buffers"] > 0
