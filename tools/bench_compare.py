#!/usr/bin/env python3
"""Gate one set of saved benchmark results against an earlier one.

    python3 tools/bench_compare.py before.json after.json
    python3 tools/bench_compare.py --claim WORKLOAD:METRIC parent.jsonl change.jsonl
    python3 tools/bench_compare.py --no-regress parent.jsonl change.jsonl

Each file maps a workload name to the JSON object that ``perfbench/run.py``
prints as its last line (``correct``, ``attempted``, ``failed``,
``metrics``). For every workload in the earlier file and every end-to-end
metric of the repository's ``BENCHMARK.json``, the later value may be worse
than the earlier one by at most the metric's relative bound. A workload or
metric that the later file lacks, a run that is no longer correct and a
larger share of failed operations also count as regressions. Prints one
line per comparison; exits 1 if anything regressed, 0 otherwise.

With ``--claim``, each file holds the result lines of repeated runs of one
workload, one run per line, and line k of each file is pair k, run
alternately. It prints the metric's wins/pairs, both medians and both
quartile ranges, and exits 1 unless the change wins at least nine tenths of
the pairs (a tie counts for neither side) and its median is better than the
parent's by more than the parent's interquartile range, or if a change run
is not correct.

With ``--no-regress``, the two files hold paired runs of one workload in
the same form. For every end-to-end metric it prints both medians, the
parent's quartiles and the relative change of the median, with a verdict:
REGRESSED when the change's median is worse than the parent's by more than
the metric's bound; UNRESOLVED when the parent's interquartile range,
relative to its median, is wider than the bound and not every change run
beats every parent run, so the runs cannot show a change of the bound's
size; ok otherwise. Under each verdict it lists the metric's parent runs
and change runs in pair order ("-" for a run without the metric). It exits
1 on a regression, on a change run that is not correct and on a larger
share of failed operations than the parent's; an unresolved metric does not
change the exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worse_by(before: float, after: float, better: str) -> float:
    """Relative worsening of ``after`` from ``before`` (negative: better)."""
    change = (after - before) if better == "lower" else (before - after)
    if before == 0:
        return float("inf") if change > 0 else 0.0
    return change / abs(before)


def describe(worse: float) -> str:
    return (f"{worse:.1%} worse" if worse > 0 else
            f"{-worse:.1%} better" if worse < 0 else "unchanged")


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
            lines.append((f"{workload} {name}: {a:.6g} -> {b:.6g} "
                          f"{metric['unit']} ({describe(worse)}, bound "
                          f"{metric['bound']:.0%})", worse > metric["bound"]))
    return lines


def claim(parent: list[dict], change: list[dict], metric: dict,
          label: str) -> tuple[list[str], bool]:
    """Report lines and whether the change's gain on ``metric`` holds over
    the paired runs ``parent[k]``, ``change[k]``."""
    name, lower = metric["name"], metric["better"] == "lower"
    old = [run["metrics"][name]["value"] for run in parent]
    new = [run["metrics"][name]["value"] for run in change]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
    ties = sum(a == b for a, b in zip(old, new))
    # quartiles and median, interpolated as NumPy's default percentile is
    p1, p2, p3 = statistics.quantiles(old, n=4, method="inclusive")
    c1, c2, c3 = statistics.quantiles(new, n=4, method="inclusive")
    gap = (p2 - c2) if lower else (c2 - p2)
    broken = sum(not run["correct"] for run in change)
    held = wins >= 0.9 * len(old) and gap > p3 - p1 and not broken
    unit = metric["unit"]
    return [f"{label}: change better in {wins}/{len(old)} pairs "
            f"({ties} tied)",
            f"parent median {p2:.6g} {unit}, quartiles {p1:.6g}-{p3:.6g} "
            f"(IQR {p3 - p1:.6g})",
            f"change median {c2:.6g} {unit}, quartiles {c1:.6g}-{c3:.6g}",
            f"median gap {gap:.6g} {unit} in the better direction; "
            f"{broken} change runs not correct",
            f"claim {'HOLDS' if held else 'NOT MET'} (needs 9/10 of the "
            f"pairs and a gap above the parent's IQR)"], held


def no_regress(parent: list[dict], change: list[dict],
               spec: dict) -> list[tuple[str, str]]:
    """One (verdict, message) pair per check of the ``change`` runs against
    the ``parent`` runs of one workload."""
    def share(runs):
        return (sum(run["failed"] for run in runs)
                / max(sum(run["attempted"] for run in runs), 1))

    broken = sum(not run["correct"] for run in change)
    failing = broken or share(change) > share(parent)
    lines = [("REGRESSED" if failing else "ok",
              f"{len(change) - broken}/{len(change)} change runs correct; "
              f"failed share {share(change):.2%} (parent "
              f"{share(parent):.2%})")]
    for metric in spec["end_to_end"]:
        name, bound, unit = metric["name"], metric["bound"], metric["unit"]
        paired = [[run["metrics"].get(name, {}).get("value") for run in runs]
                  for runs in (parent, change)]
        old, new = ([v for v in values if v is not None] for values in paired)
        if len(old) < 2:
            continue
        if not new:
            lines.append(("REGRESSED", f"{name}: missing from the change's "
                                       f"runs"))
            continue
        p1, p2, p3 = statistics.quantiles(old, n=4, method="inclusive")
        c2 = statistics.median(new)
        worse = worse_by(p2, c2, metric["better"])
        spread = (p3 - p1) / abs(p2) if p2 else float("inf")
        beats_all = (max(new) < min(old) if metric["better"] == "lower"
                     else min(new) > max(old))
        verdict = ("REGRESSED" if worse > bound else "UNRESOLVED"
                   if spread > bound and not beats_all else "ok")
        lines.append((verdict, f"{name}: median {p2:.6g} -> {c2:.6g} {unit} "
                               f"({describe(worse)}), parent quartiles "
                               f"{p1:.6g}-{p3:.6g} (IQR {spread:.1%} of the "
                               f"median), bound {bound:.0%}"))
        lines += [("", f"  {side} {name} by pair: " + " ".join(
                       "-" if v is None else f"{v:.6g}" for v in values))
                  for side, values in zip(("parent", "change"), paired)]
    return lines


def read_runs(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--claim", metavar="WORKLOAD:METRIC",
                      help="test a claimed gain over paired runs")
    mode.add_argument("--no-regress", action="store_true",
                      help="check paired runs of one workload for "
                           "regressions")
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.claim:
        name = args.claim.partition(":")[2]
        metric = next((m for m in spec["end_to_end"] + spec["per_layer"]
                       if m["name"] == name), None)
        parent, change = read_runs(args.before), read_runs(args.after)
        if metric is None or len(parent) != len(change) or len(parent) < 2:
            parser.error(f"{args.claim}: needs a metric of {SPEC.name} and "
                         f"two files of equally many runs, at least 2; got "
                         f"{len(parent)} and {len(change)}")
        lines, held = claim(parent, change, metric, args.claim)
        print("\n".join(lines))
        return 0 if held else 1
    if args.no_regress:
        parent, change = read_runs(args.before), read_runs(args.after)
        if len(parent) < 2 or not change:
            parser.error(f"--no-regress needs at least 2 parent runs and one "
                         f"change run; got {len(parent)} and {len(change)}")
        checks = no_regress(parent, change, spec)
        for verdict, message in checks:
            print(f"{verdict:10s} {message}")
        return 1 if any(v == "REGRESSED" for v, _ in checks) else 0
    lines = compare(json.loads(args.before.read_text()),
                    json.loads(args.after.read_text()), spec)
    for message, regressed in lines:
        print(f"{'REGRESSED' if regressed else 'ok':9s} {message}")
    return 1 if any(regressed for _, regressed in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
