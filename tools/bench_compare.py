#!/usr/bin/env python3
"""Gate one set of saved benchmark results against an earlier one.

    python3 tools/bench_compare.py before.json after.json

Each file maps a workload name to the JSON object that ``perfbench/run.py``
prints as its last line (``correct``, ``attempted``, ``failed``,
``metrics``). For every workload in the earlier file and every end-to-end
metric of the repository's ``BENCHMARK.json``, the later value may be worse
than the earlier one by at most the metric's relative bound. A workload or
metric that the later file lacks, a run that is no longer correct and a
larger share of failed operations also count as regressions. Prints one
line per comparison; exits 1 if anything regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worse_by(before: float, after: float, better: str) -> float:
    """Relative worsening of ``after`` from ``before`` (negative: better)."""
    change = (after - before) if better == "lower" else (before - after)
    if before == 0:
        return float("inf") if change > 0 else 0.0
    return change / abs(before)


def compare(before: dict, after: dict, spec: dict) -> list[tuple[str, bool]]:
    """One (message, regressed) pair per comparison made."""
    lines = []
    for workload, old in before.items():
        new = after.get(workload)
        if new is None:
            lines.append((f"{workload}: missing from the later results", True))
            continue
        old_share = old["failed"] / max(old["attempted"], 1)
        new_share = new["failed"] / max(new["attempted"], 1)
        lines.append((f"{workload}: correct {new['correct']}, failed "
                      f"{new['failed']}/{new['attempted']} (was "
                      f"{old['failed']}/{old['attempted']})",
                      not new["correct"] or new_share > old_share))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = old["metrics"].get(name, {}).get("value")
            b = new["metrics"].get(name, {}).get("value")
            if a is None:
                continue
            if b is None:
                lines.append((f"{workload} {name}: missing from the later "
                              f"results", True))
                continue
            worse = worse_by(a, b, metric["better"])
            verdict = (f"{worse:.1%} worse" if worse > 0 else
                       f"{-worse:.1%} better" if worse < 0 else "unchanged")
            lines.append((f"{workload} {name}: {a:.6g} -> {b:.6g} "
                          f"{metric['unit']} ({verdict}, bound "
                          f"{metric['bound']:.0%})", worse > metric["bound"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    lines = compare(json.loads(args.before.read_text()),
                    json.loads(args.after.read_text()), spec)
    for message, regressed in lines:
        print(f"{'REGRESSED' if regressed else 'ok':9s} {message}")
    return 1 if any(regressed for _, regressed in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
