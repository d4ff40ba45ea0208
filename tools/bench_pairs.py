#!/usr/bin/env python3
"""Run one benchmark workload as alternating pairs from two checkouts.

    python3 tools/bench_pairs.py --workload sweep --pairs 10 --seconds 30 \\
        --out BENCH_14_sweep PARENT_DIR CHANGE_DIR

Pair k (k = 1 .. N) runs ``perfbench/run.py --workload W --seed S+k-1
--seconds T --trace 0`` once in each checkout, the parent first on odd
pairs and the change first on even ones, so that a drift of the host's
speed falls on both sides alike. Before every run it deletes the
checkout's ``src/volmixer/__pycache__``, so that each set-up compiles the
same sources from scratch and ``setup_s`` does not depend on what an
earlier process left cached. The last output line of each run, a JSON
object, is appended to ``OUT_before.jsonl`` (parent) or
``OUT_after.jsonl`` (change) as soon as the run ends; line k of each file
is pair k, as ``tools/bench_compare.py --claim`` reads them. Exits 1 at
the first run that fails or prints no JSON line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """One benchmark run in ``checkout``; its last output line."""
    shutil.rmtree(checkout / "src" / "volmixer" / "__pycache__",
                  ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} seed {seed} exited {done.returncode}:"
                           f"\n{done.stderr.strip()}")
    return lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True,
                        help="prefix of the two .jsonl files written")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    files = {args.parent: Path(f"{args.out}_before.jsonl"),
             args.change: Path(f"{args.out}_after.jsonl")}
    for path in files.values():
        path.write_text("")
    for k in range(1, args.pairs + 1):
        seed = args.first_seed + k - 1
        order = ((args.parent, args.change) if k % 2
                 else (args.change, args.parent))
        for checkout in order:
            try:
                line = run_once(checkout, args.workload, seed, args.seconds)
                metrics = json.loads(line)["metrics"]
            except (RuntimeError, ValueError, KeyError) as exc:
                print(f"pair {k}: {exc}", file=sys.stderr)
                return 1
            with files[checkout].open("a") as fh:
                fh.write(line + "\n")
            print(f"pair {k} seed {seed} {checkout}: "
                  + " ".join(f"{name}={m['value']:.6g}"
                             for name, m in metrics.items()
                             if m["value"] is not None), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
