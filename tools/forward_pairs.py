#!/usr/bin/env python3
"""Time the ``forecast`` workload's forward passes in two source trees, as
alternating pairs of short, fresh processes.

    python3 tools/forward_pairs.py PARENT_TREE CHANGE_TREE
    python3 tools/forward_pairs.py --rounds 10 --requests 3000 \\
        --batches 30 PARENT_TREE CHANGE_TREE

Each process imports ``volmixer`` from its tree's ``src`` and builds the
workload's fixed model (``ModelConfig(seed=0)``) over the bundled AAPL
fixture's windows, read from this repository's copy. After a warm-up, it
times ``--requests`` batch-1 ``forward`` calls, each on one (P, C) window
as a request sends it, and ``--batches`` batch-256 calls, both on windows
drawn by one seeded generator, and prints the batch-1 median and p99 and
the batch-256 median.

Round k runs one process per tree, the parent first on odd rounds and the
change first on even ones, so that a drift of the host's speed falls on both
sides alike. The script prints each round's readings and, per reading, the
median over rounds of the change-to-parent ratio and the number of rounds in
which the change read lower. Exits 1 if a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

AAPL = (Path(__file__).resolve().parent.parent / "tests" / "fixtures"
        / "AAPL_2010_2023.csv")

# argv: tree, fixture, requests, batches, seed; prints one JSON line
PROBE = """\
import json, sys, time
from pathlib import Path
import numpy as np
import volmixer
from volmixer import market_data as md
from volmixer.model import ModelConfig, TimeMixerModel
tree, fixture = Path(sys.argv[1]), Path(sys.argv[2])
requests, batches, seed = map(int, sys.argv[3:6])
if not Path(volmixer.__file__).resolve().is_relative_to(tree):
    sys.exit(f"imported {volmixer.__file__}, not from {tree}")
values, _ = md.feature_matrix(md.parse_ohlcv_csv(fixture.read_text(), "AAPL"))
x = md.make_windows(values, 64, 12).x
model = TimeMixerModel(ModelConfig(seed=0))
rng = np.random.default_rng(seed)
picks = rng.integers(0, x.shape[0], size=requests)
groups = [rng.permutation(x.shape[0])[:256] for _ in range(batches)]
for i in picks[:200]:
    model.forward(x[i])
model.forward(x[groups[0]])
clock = time.perf_counter
single = []
for i in picks:
    t0 = clock()
    model.forward(x[i])
    single.append(clock() - t0)
batch = []
for idx in groups:
    t0 = clock()
    model.forward(x[idx])
    batch.append(clock() - t0)
print(json.dumps({"b1_median_us": float(np.median(single)) * 1e6,
                  "b1_p99_us": float(np.percentile(single, 99)) * 1e6,
                  "b256_ms": float(np.median(batch)) * 1e3}))
"""

READINGS = ("b1_median_us", "b1_p99_us", "b256_ms")


def probe(tree: Path, requests: int, batches: int, seed: int) -> dict:
    """One fresh process's readings in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tree.resolve()), str(AAPL),
         str(requests), str(batches), str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--batches", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    ratios: dict[str, list[float]] = {name: [] for name in READINGS}
    for k in range(1, args.rounds + 1):
        seed = args.first_seed + k - 1
        order = ((args.parent, args.change) if k % 2
                 else (args.change, args.parent))
        got = {}
        for tree in order:
            try:
                got[tree] = probe(tree, args.requests, args.batches, seed)
            except (RuntimeError, ValueError) as exc:
                print(f"round {k}: {exc}", file=sys.stderr)
                return 1
        for name in READINGS:
            ratios[name].append(got[args.change][name]
                                / got[args.parent][name])
        print(f"round {k} seed {seed}: " + "  ".join(
            f"{name} {got[args.parent][name]:.4g} -> "
            f"{got[args.change][name]:.4g}" for name in READINGS), flush=True)
    for name, values in ratios.items():
        lower = sum(r < 1.0 for r in values)
        print(f"{name}: change/parent median {statistics.median(values):.3f} "
              f"(range {min(values):.3f}-{max(values):.3f}), change lower "
              f"in {lower}/{len(values)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
