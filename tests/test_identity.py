import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "identity.py"


def tree(tmp_path, name, edit=None):
    """A copy of this repository's sources, with ``edit`` = (file, old, new)
    applied."""
    path = tmp_path / name
    shutil.copytree(ROOT / "src", path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if edit is not None:
        file, old, new = edit
        source = path / "src" / "volmixer" / file
        text = source.read_text()
        assert text.count(old) == 1
        source.write_text(text.replace(old, new))
    return path


def identity(parent, change, *extra):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1", "--tickers", "1",
         *extra, str(parent), str(change)],
        capture_output=True, text=True, timeout=300)
    verdicts = [line.split() for line in done.stdout.splitlines()]
    return done, {words[1]: words[0] for words in verdicts
                  if len(words) == 2 and words[0] in ("identical", "differs")}


def test_copies_of_one_tree_are_identical(tmp_path):
    done, verdicts = identity(tree(tmp_path, "a"), tree(tmp_path, "b"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "identical"
    # one cache, two checkpoints and plots, metrics and report, per run
    assert len(verdicts) == 7
    assert set(verdicts.values()) == {"identical"}


def test_perturbed_constant_names_its_artifact(tmp_path):
    change = tree(tmp_path, "b", ("model.py", 'b"VOLMIXCK"', 'b"VOLMIXCX"'))
    done, verdicts = identity(tree(tmp_path, "a"), change)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[-1] == "differs"
    differs = {name for name, v in verdicts.items() if v == "differs"}
    assert differs == {"out/SYNA_F12.ckpt", "out/SYNA_F96.ckpt"}


def test_allow_rel_accepts_small_metric_changes(tmp_path):
    change = tree(tmp_path, "b", ("training.py", "0.999, 1e-8", "0.999, 2e-8"))
    done, verdicts = identity(tree(tmp_path, "a"), change, "--allow-rel",
                              "0.5")
    assert done.returncode == 0, done.stderr
    assert verdicts["out/metrics.csv"] == "differs"
    assert verdicts["data/SYNA_2021-02-05_2023-12-29.csv"] == "identical"
    changes = [line for line in done.stdout.splitlines()
               if "largest relative change" in line]
    assert len(changes) == 2
    assert all(" mae 0," not in line for line in changes)
