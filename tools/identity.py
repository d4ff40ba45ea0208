#!/usr/bin/env python3
"""Check that two source trees produce the same pipeline artifacts.

    python3 tools/identity.py PARENT_TREE CHANGE_TREE
    python3 tools/identity.py --allow-rel 1e-12 PARENT_TREE CHANGE_TREE

For each seed (``--seeds``, default ``1,2``), once without and once with
covariates, it runs a seeded ``volmixer fetch --fixtures`` and ``volmixer
run`` in a fresh subprocess per tree, with ``PYTHONPATH`` set to that tree's
``src``. The inputs are the first ``--tickers`` (default 3) synthetic
tickers of ``perfbench/synth.py``, written once from this repository's copy
and read by both trees, so nothing is fetched over the network. The model
is the ``sweep`` workload's, trained for 3 epochs at batch 100, so every
pair also runs a short last batch.

It prints ``identical`` or ``differs`` for every checkpoint, SVG plot,
``metrics.csv``, ``report.md`` and cache CSV (a file that only one tree
wrote differs), and, for each ``metrics.csv``, the largest relative change
of every column.

Exits 0 if every artifact is identical. With ``--allow-rel X`` it also
exits 0 when only checkpoints, plots, reports and metrics differ, every
``metrics.csv`` keeps its rows and columns, and no value in it changed by
more than X relative. Exits 1 otherwise, and 2 if a pipeline run fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import synth  # noqa: E402

CONFIG = {"lookback": 32, "horizons": [12, 96], "d_model": 4,
          "num_blocks": 1, "num_scales": 2, "decomp_kernel": 9,
          "ff_hidden": 8, "batch_size": 100, "max_epochs": 3, "patience": 3}

# fetch, then run, in the tree whose src is argv[1]
PIPELINE = """\
import sys
from pathlib import Path
import volmixer
from volmixer.cli import main
if not Path(volmixer.__file__).resolve().is_relative_to(Path(sys.argv[1])):
    sys.exit(f"imported {volmixer.__file__}, not from {sys.argv[1]}")
for command in ("fetch", "run"):
    code = main(sys.argv[2:] + [command])
    if code:
        sys.exit(f"volmixer {command} exited {code}")
"""


def run_pipeline(tree: Path, work: Path, fixtures: Path, roster: Path,
                 seed: int, covariates: bool) -> None:
    """``fetch`` + ``run`` of ``tree`` into ``work/data`` and ``work/out``."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({
        **CONFIG, "seed": seed, "covariates": covariates,
        "roster": str(roster), "data_dir": str(work / "data"),
        "out_dir": str(work / "out")}))
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(src), "--config", str(config),
         "--fixtures", str(fixtures)],
        cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree} seed {seed} covariates {covariates}: "
                           f"{done.stderr.strip()[-2000:]}")


def artifacts(work: Path) -> set[str]:
    """The compared files of one run, relative to ``work``."""
    patterns = ("data/*.csv", "out/*.ckpt", "out/*.svg", "out/metrics.csv",
                "out/report.md")
    return {str(p.relative_to(work)) for pattern in patterns
            for p in work.glob(pattern)}


def column_changes(before: bytes, after: bytes) -> dict[str, float] | None:
    """Largest relative change of each column of two ``metrics.csv``
    files; None if their headers or row counts differ. A text cell that
    changed counts as an infinite change."""
    rows = [list(csv.reader(io.StringIO(b.decode()))) for b in (before, after)]
    if rows[0][:1] != rows[1][:1] or len(rows[0]) != len(rows[1]):
        return None
    changes = dict.fromkeys(rows[0][0], 0.0)
    for row_a, row_b in zip(rows[0][1:], rows[1][1:]):
        for name, a, b in zip(rows[0][0], row_a, row_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
                change = abs(x - y) / max(abs(x), abs(y))
            except ValueError:
                change = math.inf
            changes[name] = max(changes[name], change)
    return changes


def compare(parent: Path, change: Path, allow_rel: float | None) -> bool:
    """Print one verdict per artifact of two runs; whether they pass."""
    ok = True
    for name in sorted(artifacts(parent) | artifacts(change)):
        a, b = parent / name, change / name
        both = a.exists() and b.exists()
        same = both and a.read_bytes() == b.read_bytes()
        print(f"  {'identical' if same else 'differs':9}  {name}")
        within = both and name.startswith("out/")
        if both and name.endswith("metrics.csv"):
            changes = column_changes(a.read_bytes(), b.read_bytes())
            print("             " + (
                "rows or columns differ" if changes is None else
                "largest relative change: " + ", ".join(
                    f"{col} {value:.3g}" for col, value in changes.items())))
            within = (changes is not None and allow_rel is not None
                      and max(changes.values()) <= allow_rel)
        if not same:
            ok &= allow_rel is not None and within
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2",
                        type=lambda text: [int(s) for s in text.split(",")],
                        help="comma-separated run seeds (default 1,2)")
    parser.add_argument("--tickers", type=int, default=3)
    parser.add_argument("--allow-rel", type=float, default=None,
                        help="largest relative change of metrics.csv to "
                             "accept, with checkpoints, plots and reports "
                             "free to differ")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        for seed in args.seeds:
            fixtures, roster = tmp / f"fixtures{seed}", tmp / f"{seed}.json"
            synth.write_inputs(seed, fixtures, roster,
                               synth.TICKERS[:args.tickers])
            for covariates in (False, True):
                label = f"seed {seed}, covariates {('off', 'on')[covariates]}"
                runs = [tmp / side / label.replace(", ", "_").replace(" ", "")
                        for side in ("parent", "change")]
                try:
                    for tree, work in zip((args.parent, args.change), runs):
                        run_pipeline(tree, work, fixtures, roster, seed,
                                     covariates)
                except RuntimeError as exc:
                    print(f"pipeline failed: {exc}", file=sys.stderr)
                    return 2
                print(f"{label}:")
                ok &= compare(*runs, args.allow_rel)
    print("identical" if ok and args.allow_rel is None else
          f"within --allow-rel {args.allow_rel}" if ok else "differs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
