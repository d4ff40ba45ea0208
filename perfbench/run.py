#!/usr/bin/env python3
"""volmixer benchmark: one command per workload run, outputs checked.

    python3 perfbench/run.py --workload {train,forecast,sweep} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off. ``--trace 1`` runs a fixed unit of the workload four times,
alternately untraced and traced, and reports the per-layer metrics (self
times, call counts, output megabytes, rows) plus the tracing overhead; the
counts must repeat exactly, within the run and across runs of the same code.

Human-readable lines come first (environment, each metric with its unit and
sample count, failures); the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Run it
from the repository root; see ``perfbench/README.md``.
"""

import os

# Pin BLAS before NumPy loads: one thread keeps runs steady on a shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"


def code_hash() -> str:
    """Digest of the program and benchmark sources; keys the drift record."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_describe": git_describe(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
        "code_hash": code_hash(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DriftRecord:
    """Seeded fingerprints and traced counts kept across runs in one checkout.

    A run whose outputs or counts differ from an earlier run of the same
    code, sizes and seed is flagged as drift.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key

    def compare(self, name: str, value) -> str:
        """Store ``value`` on first sight; otherwise return a mismatch note."""
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            data = {}
        entry = data.setdefault(self.key, {})
        if name in entry:
            if entry[name] != value:
                return (f"drift in {name}: {value!r} vs {entry[name]!r} "
                        f"from an earlier run of the same code")
            return ""
        entry[name] = value
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return ""


def layer_counts(rec, unit_counts: dict, out) -> dict:
    """Counts of one traced unit; tape nodes must be the same every step."""
    nodes = rec.tape_nodes or rec.forward_ops
    out.check(len(set(nodes)) <= 1,
              f"tape nodes per step vary within the run: {sorted(set(nodes))}")
    return {**rec.counts, **unit_counts,
            "autodiff.tape_nodes_per_step": nodes[0] if nodes else 0}


def traced_run(workload, vm, per_layer, out) -> dict:
    """Alternate untraced and traced units; return per-layer values."""
    times = {False: [], True: []}
    traced, fingerprints = [], []
    for trace in (False, True, False, True):
        rec = spans.Recorder()
        ctx = spans.instrument(vm, rec) if trace else contextlib.nullcontext()
        out.attempted += 1
        t0 = perf_counter()
        try:
            with ctx:
                unit_counts = workload.unit(vm, out)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            out.failures.append(f"{'traced' if trace else 'untraced'} unit "
                                f"raised {exc!r}")
            continue
        times[trace].append(perf_counter() - t0)
        fingerprints.append(unit_counts.pop("fingerprint"))
        if trace:
            traced.append((rec, layer_counts(rec, unit_counts, out)))
    if not traced or not times[False]:
        return {}
    out.fingerprint = fingerprints[0]
    out.check(len(set(fingerprints)) == 1,
              "units gave different outputs, traced or not")
    out.counts = first = traced[0][1]
    for _, counts in traced[1:]:
        out.check(counts == first, f"counts drift within the run: "
                  f"{sorted(k for k in first if counts.get(k) != first[k])}")
    selfs = [rec.self_ms() for rec, _ in traced]
    off, on = median(times[False]), median(times[True])
    values = {}
    for name in per_layer:
        if name == "trace.overhead_pct":
            values[name] = (on - off) / off * 100.0
        elif name.endswith("_ms"):
            values[name] = median([s.get(name[:-3], 0.0) for s in selfs])
        elif name.endswith("_s"):
            values[name] = median([s.get(name[:-2], 0.0) for s in selfs]) / 1e3
        else:
            values[name] = first.get(name, 0)
    return values


def run(args, sizes=None) -> int:
    if not (ROOT / "src" / "volmixer").is_dir():
        print(f"error: no volmixer sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = sizes or workloads.Sizes()
    env = environment()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = workloads.Outcome()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, sizes)
        timer = workloads.SetupTimer(workload,
                                     1 if args.trace else sizes.setup_reps,
                                     args.seconds)
        vm, state = timer.rep()
        if args.trace:
            values = traced_run(workload, vm, declared, out)
            out.metrics = {name: (value, declared[name], 2)
                           for name, value in values.items()}
            env["trace_overhead_pct"] = values.get("trace.overhead_pct")
        else:
            workload.measure(vm, state, timer, args.seconds, out)
            timer.finish()
            out.metrics["setup_s"] = (median(timer.times), "s",
                                      len(timer.times))
            out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    undeclared = {name: unit for name, (_, unit, _) in out.metrics.items()
                  if declared.get(name) != unit}
    if undeclared:
        raise RuntimeError(f"not declared in BENCHMARK.json: {undeclared}")
    metrics = {name: out.metrics.get(name, (math.nan, unit, 0))
               for name, unit in declared.items()}

    sizes_digest = hashlib.sha256(repr(asdict(sizes)).encode()).hexdigest()[:8]
    drift = DriftRecord(WORK_ROOT / "record.json",
                        f"{args.workload}|{env['code_hash']}|{sizes_digest}")
    if out.fingerprint:
        note = drift.compare(f"seed {args.seed} trace {args.trace} outputs",
                             out.fingerprint)
        out.check(not note, note)
    if args.trace and out.counts:
        note = drift.compare("traced counts", out.counts)
        out.check(not note, note)

    report(args, env, metrics, workload, out)
    result = {
        "correct": not out.failures,
        "attempted": max(out.attempted, 1),
        "failed": len(out.failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, env, metrics, workload, out) -> None:
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    # info: medians the host's noise keeps from being steady enough to gate
    for name, (value, unit, n) in [*metrics.items(), *out.info.items()]:
        alias = f"  ({workload.aliases[name]})" if name in workload.aliases else ""
        note = "  not in the result" if name in out.info else ""
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={n}{alias}{note}")
    attempted = max(out.attempted, 1)
    print(f"  {'failed_ratio':36s} {len(out.failures) / attempted:14.6g} "
          f"{'':6s} n={attempted}")
    for failure in out.failures:
        print(f"FAILED {failure}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
