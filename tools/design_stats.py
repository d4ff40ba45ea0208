#!/usr/bin/env python3
"""Print the design numbers ROADMAP tracks for one source tree.

    python3 tools/design_stats.py TREE

It prints one JSON line:

- ``src_lines``: lines of each ``TREE/src/volmixer/*.py`` module (newlines,
  as ``wc -l`` counts them) and their ``total``;
- ``tape_nodes``: the tape nodes that a default ``forward_normalized``
  records, at batch 1 and at batch 32;
- ``step_pool``: the buffers, and their MiB, that a fresh workspace holds
  after one default batch-32 training step, by dtype: every buffer it cut,
  whether still lent or given back within the step;
- ``forward_pool``: the same for the chunk workspace that a default model
  keeps after one batch-256 ``forward``.

The model numbers come from a fresh subprocess with ``PYTHONPATH`` set to
``TREE/src``, so any two trees can be compared from this one script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# argv[1] is the tree's src; prints the model numbers as one JSON object
MEASURE = """\
import json
import sys
from pathlib import Path
import numpy as np
import volmixer
from volmixer import autodiff as ad
from volmixer import training
from volmixer.model import ModelConfig, TimeMixerModel
if not Path(volmixer.__file__).resolve().is_relative_to(Path(sys.argv[1])):
    sys.exit(f"imported {volmixer.__file__}, not from {sys.argv[1]}")
config = ModelConfig()
rng = np.random.default_rng(0)
nodes = {}
for batch in (1, 32):
    with ad.Tape() as tape:
        TimeMixerModel(config).forward_normalized(
            rng.normal(size=(batch, config.lookback, config.channels)))
    nodes[str(batch)] = len(tape)
x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, config.channels))
y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
model = TimeMixerModel(config)
ws = ad.Workspace()
training._step(model, training.Adam(model), ws,
               *training._normalized_batch(x, y))


def held(ws):
    pool = {}
    for buf in [b for _, b in ws._lent] + [b for free in ws._free.values()
                                           for b in free]:
        entry = pool.setdefault(buf.dtype.name, {"buffers": 0, "mib": 0.0})
        entry["buffers"] += 1
        entry["mib"] += buf.nbytes / 2 ** 20
    for entry in pool.values():
        entry["mib"] = round(entry["mib"], 3)
    return pool


model = TimeMixerModel(config)
model.forward(1.0 + 0.1 * rng.standard_normal((256, config.lookback,
                                               config.channels)))
print(json.dumps({"tape_nodes": nodes, "step_pool": held(ws),
                  "forward_pool": held(model._forward_pool)}))
"""


def src_lines(tree: Path) -> dict[str, int]:
    """Newlines of each ``src/volmixer`` module, and their total."""
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((tree / "src" / "volmixer").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def model_stats(tree: Path) -> dict:
    src = (tree / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", MEASURE, str(src)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    try:
        stats = model_stats(args.tree)
    except RuntimeError as exc:
        print(f"measurement failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"tree": str(args.tree), "src_lines": src_lines(args.tree),
                      **stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
