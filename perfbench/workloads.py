"""The three benchmark workloads: ``train``, ``forecast`` and ``sweep``.

Each workload has four parts:

* the constructor makes the inputs from the seed (untimed, not in
  ``setup_s``);
* ``setup`` is what a user pays before the first result: importing volmixer,
  parsing the fixture, windowing, and model init or checkpoint load;
* ``measure`` runs the timed closed loop (one client, each request sent
  after the previous one returned) for the requested seconds with tracing
  off, checking every output, and lets a ``SetupTimer`` repeat the set-up
  between its timed calls;
* ``unit`` is a fixed amount of the same work, run alternately with and
  without span tracing, so per-layer counts repeat exactly.

Why these workloads: ``train`` is dominated by autodiff backward, tape
replay and the Adam step; ``forecast`` runs the forward pass only, at
batch 1 (per-op Python overhead) and batch 256 (array math); ``sweep`` is
what a user runs, and the only one where ``market_data`` parsing, the CLI,
checkpoint save, ``evaluate_split`` and report emission carry weight.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import numpy as np

import spans
import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
AAPL = ROOT / "tests" / "fixtures" / "AAPL_2010_2023.csv"
MODULES = ("autodiff", "market_data", "multiscale", "model", "training",
           "evaluation", "cli")

# val_mse is the best of the epochs' validation losses; after one epoch it
# spreads by about 20 % across seeds, after two by about 5 %
TRAIN_EPOCHS = 2
MIN_REPS = 2          # timed jobs per run, at least
FORECAST_MODEL_SEED = 0
FORECAST_BATCH = 256
REL_TOL = 1e-12
# the sweep's model: small widths, a fixed epoch budget, a long horizon
SWEEP_CONFIG = {"lookback": 32, "horizons": [12, 96], "d_model": 4,
                "num_blocks": 1, "num_scales": 2, "decomp_kernel": 9,
                "ff_hidden": 8, "batch_size": 128, "max_epochs": 1,
                "patience": 1}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the smoke test shrinks these."""
    setup_reps: int = 41
    train_windows: Optional[int] = None    # cap on the AAPL train split
    trace_train_windows: int = 640
    forecast_windows: Optional[int] = None  # cap on the AAPL windows served
    trace_forecast_windows: int = 1024
    trace_requests: int = 300
    min_requests: int = 200
    sweep_tickers: int = len(synth.TICKERS)


@dataclass
class Outcome:
    """What one run measured and checked."""
    metrics: dict = field(default_factory=dict)   # name -> (value, unit, n)
    info: dict = field(default_factory=dict)      # printed, not in the result
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprint: str = ""                         # digest of seeded outputs
    counts: dict = field(default_factory=dict)    # traced counts, must repeat

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def fresh_import() -> SimpleNamespace:
    """Import volmixer from the checkout's ``src/``, discarding cached modules.

    Dropping the cached modules makes the import part of every set-up
    repetition, as it is for a user starting a process.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "volmixer" or m.startswith("volmixer.")]:
        del sys.modules[name]
    importlib.import_module("volmixer.cli")
    vm = SimpleNamespace(**{m: sys.modules[f"volmixer.{m}"] for m in MODULES})
    if not Path(vm.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"volmixer imported from {vm.cli.__file__}, "
                           f"not from {SRC}")
    return vm


class SetupTimer:
    """Set-up repetitions spread evenly over the measured run.

    A shared machine's speed can drift by about 20 % over 10 to 20 s, so
    repetitions run back to back all sample one moment; spread over the run,
    their median sees the same fast and slow spells as the other metrics.
    The measurement loops call ``poll`` at points between their timed calls
    and read time from ``clock``, which leaves out the time spent in set-up.
    """

    def __init__(self, workload, reps: int, seconds: float):
        self.workload, self.reps = workload, reps
        self.gap = seconds / max(reps - 1, 1)
        self.times: list[float] = []
        self.spent = 0.0
        self.start = perf_counter()

    def clock(self) -> float:
        return perf_counter() - self.spent

    def rep(self):
        """Import volmixer afresh and set the workload up; timed."""
        t0 = perf_counter()
        gc.collect()    # each repetition starts from a collected heap
        t1 = perf_counter()
        vm = fresh_import()
        state = self.workload.setup(vm)
        t2 = perf_counter()
        self.times.append(t2 - t1)
        self.spent += t2 - t0
        return vm, state

    def poll(self) -> None:
        """Run the repetitions that are due: the k-th at ``k * gap``."""
        while (len(self.times) < self.reps
               and self.clock() - self.start >= len(self.times) * self.gap):
            self.rep()

    def finish(self) -> None:
        """Run the repetitions the measurement ended before."""
        while len(self.times) < self.reps:
            self.rep()


UNTIMED = SetupTimer(None, 0, 0.0)    # for traced units: no set-up reps


def another_rep(rep: int, elapsed: float, seconds: float) -> bool:
    """Start timed job ``rep`` after ``elapsed`` seconds? At least
    ``MIN_REPS``; after that only while it is expected to end no later than
    half a job past the deadline."""
    per_rep = elapsed / rep if rep else 0.0
    return rep < MIN_REPS or elapsed + per_rep / 2 < seconds


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quiet_cli(vm, argv) -> tuple[int, str]:
    """Run ``volmixer`` in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = vm.cli.main(argv)
    return code, err.getvalue()


def stamp_after(owner, attr: str, stamps: list, timer: SetupTimer):
    """Patch ``owner.attr`` to append ``timer.clock()`` each time it returns,
    then give the timer a chance to run a set-up repetition."""
    def make(fn):
        def stamped(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(timer.clock())
            timer.poll()
            return out
        return stamped
    return spans.patched(owner, attr, make)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    name = "train"
    tail = 90
    aliases = {"throughput_per_s": "train_samples_per_s",
               "latency_ms_p50": "train_step_ms_p50",
               "latency_ms_tail": "train_step_ms_p90",
               "job_s": "train_call_s", "nmse": "val_mse"}

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes

    def setup(self, vm, train_windows=None):
        md = vm.market_data
        series = md.parse_ohlcv_csv(AAPL.read_text(), "AAPL")
        values, dates = md.feature_matrix(series)
        ds = md.split_chronological(md.make_windows(values, 64, 12,
                                                    dates=dates))
        cap = train_windows or self.sizes.train_windows
        if cap is not None:
            ds.train_range = (0, min(cap, ds.train_range[1]))
        model = vm.model.TimeMixerModel(vm.model.ModelConfig(seed=self.seed))
        return ds, model

    def _train(self, vm, ds, model):
        config = vm.training.TrainConfig(max_epochs=TRAIN_EPOCHS,
                                         patience=TRAIN_EPOCHS, seed=self.seed)
        return vm.training.train(model, ds, config)

    def measure(self, vm, state, timer: SetupTimer, seconds: float,
                out: Outcome) -> None:
        ds, model = state
        n_train = ds.train_range[1] - ds.train_range[0]
        batch = vm.training.TrainConfig().batch_size
        sizes = [min(batch, n_train - lo) for lo in range(0, n_train, batch)]
        steps, samples, step_time, calls, losses = [], 0, 0.0, [], []
        t_start = timer.clock()
        for rep in itertools.count():
            if not another_rep(rep, timer.clock() - t_start, seconds):
                break
            if rep:
                model = vm.model.TimeMixerModel(
                    vm.model.ModelConfig(seed=self.seed))
            stamps = []
            with stamp_after(vm.training.Adam, "step", stamps, timer):
                t0 = timer.clock()
                try:
                    report = self._train(vm, ds, model)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    out.check(False, f"train raised {exc!r}")
                    continue
                calls.append(timer.clock() - t0)
            # the first step of each epoch also pays the call's set-up or the
            # previous epoch's validation, so skip it
            step = np.arange(1, len(stamps)) % len(sizes)
            intervals = np.diff(stamps)[step > 0]
            steps.extend(intervals * 1e3)
            samples += int(np.asarray(sizes)[step[step > 0]].sum())
            step_time += float(intervals.sum())
            loss = report.best_val_loss
            out.check(len(stamps) == len(sizes) * TRAIN_EPOCHS,
                      f"{len(stamps)} Adam steps, expected "
                      f"{len(sizes) * TRAIN_EPOCHS}")
            out.check(math.isfinite(loss)
                      and all(map(math.isfinite, report.train_losses)),
                      f"non-finite loss {loss!r}")
            losses.append(loss)
            out.check(loss == losses[0], f"val_mse {loss!r} differs from "
                                         f"{losses[0]!r} in the same run")
        if not calls:
            return
        out.metrics["throughput_per_s"] = (samples / step_time, "1/s",
                                           len(steps))
        out.info["latency_ms_p50"] = (percentile(steps, 50), "ms", len(steps))
        out.metrics["latency_ms_tail"] = (percentile(steps, self.tail), "ms",
                                          len(steps))
        out.metrics["job_s"] = (float(np.median(calls)), "s", len(calls))
        out.metrics["nmse"] = (losses[0], "nmse", len(losses))
        out.fingerprint = repr(losses[0])

    def unit(self, vm, out: Outcome) -> dict:
        ds, model = self.setup(vm, self.sizes.trace_train_windows)
        loss = self._train(vm, ds, model).best_val_loss
        out.check(math.isfinite(loss), f"non-finite loss {loss!r}")
        return {"fingerprint": repr(loss)}


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

class Forecast:
    name = "forecast"
    tail = 99
    aliases = {"throughput_per_s": "forecast_windows_per_s",
               "latency_ms_p50": "forecast_latency_ms_p50",
               "latency_ms_tail": "forecast_latency_ms_p99",
               "job_s": "forecast_pass_s", "nmse": "forecast_nmse"}

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.ckpt = work / "forecast.ckpt"
        vm = fresh_import()
        # weights are fixed so nmse fingerprints the forward pass; the seed
        # picks the batch composition and the single-window request stream
        vm.model.TimeMixerModel(
            vm.model.ModelConfig(seed=FORECAST_MODEL_SEED)).save(self.ckpt)
        n = self.setup(vm)[0].shape[0]
        rng = np.random.default_rng(seed)
        self.order = rng.permutation(n)
        self.requests = rng.integers(0, n, size=1 << 16)

    def setup(self, vm, ckpt=None):
        md = vm.market_data
        series = md.parse_ohlcv_csv(AAPL.read_text(), "AAPL")
        values, _ = md.feature_matrix(series)
        ds = md.make_windows(values, 64, 12)
        cap = self.sizes.forecast_windows
        return ds.x[:cap], ds.y[:cap], vm.model.TimeMixerModel.load(
            ckpt or self.ckpt)

    @staticmethod
    def _batch(model, x, idx, preds, out: Outcome) -> float:
        """Forecast ``x[idx]`` in one call; a window seen before must repeat."""
        t0 = perf_counter()
        pred = model.forward(x[idx])
        dt = perf_counter() - t0
        if out.check(pred.shape == (idx.size, model.config.horizon)
                     and bool(np.all(np.isfinite(pred))),
                     f"batch forecast shape {pred.shape} or non-finite"):
            seen = ~np.isnan(preds[idx, 0])
            out.check(np.array_equal(preds[idx][seen], pred[seen]),
                      "batch forecasts differ between passes")
            preds[idx] = pred
        return dt

    @staticmethod
    def _request(model, x, i, answers: list) -> float:
        t0 = perf_counter()
        pred = model.forward(x[i])
        dt = perf_counter() - t0
        answers.append((i, pred))
        return dt

    @staticmethod
    def _check_answers(model, preds, answers, out: Outcome) -> None:
        """Each batch-1 forecast must equal its row of the batch forecast."""
        for i, pred in answers:
            ok = (pred.shape == (model.config.horizon,)
                  and bool(np.all(np.isfinite(pred))))
            gap = float(np.max(np.abs(pred - preds[i]))) if ok else math.inf
            out.check(gap <= REL_TOL * max(1.0, float(np.max(np.abs(preds[i])))),
                      f"window {i}: batch-1 forecast differs from its "
                      f"batch-{FORECAST_BATCH} row by {gap:.3e}")

    def measure(self, vm, state, timer: SetupTimer, seconds: float,
                out: Outcome) -> None:
        """Alternate one batch-256 call with single-window requests for as
        long as the batch took, so both phases sample the whole run."""
        x, y, model = state
        n = x.shape[0]
        preds = np.full((n, model.config.horizon), np.nan)
        rates, latencies, answers = [], [], []
        served, batch_time = 0, 0.0
        t_start = timer.clock()
        while (served < n or len(latencies) < self.sizes.min_requests
               or timer.clock() - t_start < seconds):
            lo = served % n
            idx = self.order[lo:lo + FORECAST_BATCH]
            dt = self._batch(model, x, idx, preds, out)
            rates.append(idx.size / dt)
            served += idx.size
            batch_time += dt
            until = timer.clock() + dt
            while timer.clock() < until:
                i = self.requests[len(latencies) % self.requests.size]
                latencies.append(self._request(model, x, i, answers) * 1e3)
            # here, not between requests: a cold cache would show in the tail
            timer.poll()
        self._check_answers(model, preds, answers, out)
        out.metrics["throughput_per_s"] = (float(np.median(rates)), "1/s",
                                           len(rates))
        out.info["latency_ms_p50"] = (percentile(latencies, 50), "ms",
                                      len(latencies))
        out.metrics["latency_ms_tail"] = (percentile(latencies, self.tail),
                                          "ms", len(latencies))
        out.metrics["job_s"] = (n * batch_time / served, "s", len(rates))
        out.metrics["nmse"] = (normalized_mse(x, y, preds), "nmse", n)
        out.fingerprint = hashlib.sha256(preds.tobytes()).hexdigest()

    def unit(self, vm, out: Outcome) -> dict:
        ckpt = self.ckpt.with_suffix(".unit.ckpt")
        vm.model.TimeMixerModel(
            vm.model.ModelConfig(seed=FORECAST_MODEL_SEED)).save(ckpt)
        x, _, model = self.setup(vm, ckpt)
        order = self.order[:self.sizes.trace_forecast_windows]
        preds = np.full((x.shape[0], model.config.horizon), np.nan)
        answers = []
        for lo in range(0, order.size, FORECAST_BATCH):
            self._batch(model, x, order[lo:lo + FORECAST_BATCH], preds, out)
        for r in self.requests[:self.sizes.trace_requests]:
            self._request(model, x, order[r % order.size], answers)
        self._check_answers(model, preds, answers, out)
        return {"fingerprint": hashlib.sha256(preds[order].tobytes()).hexdigest()}


def normalized_mse(x: np.ndarray, y: np.ndarray, pred: np.ndarray) -> float:
    """MSE on each window's instance-normalized scale, as training scores it."""
    std = np.maximum(x[:, :, 0].std(axis=1, keepdims=True), 1e-8)
    return float(np.mean(((pred - y) / std) ** 2))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class Sweep:
    name = "sweep"
    tail = 90
    aliases = {"throughput_per_s": "ingest_rows_per_s",
               "latency_ms_p50": "pair_ms_p50",
               "latency_ms_tail": "pair_ms_p90",
               "job_s": "sweep_s", "nmse": "test_mse_vs_persistence"}

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.sizes = work, sizes
        tickers = synth.TICKERS[:sizes.sweep_tickers]
        self.rows = synth.write_inputs(seed, work / "fixtures",
                                       work / "roster.json", tickers)
        self.pairs = len(tickers) * len(SWEEP_CONFIG["horizons"])
        self.config = work / "config.json"
        self.config.write_text(json.dumps({
            **SWEEP_CONFIG, "seed": seed, "roster": str(work / "roster.json"),
            "data_dir": str(work / "data"), "out_dir": str(work / "out")}))
        self.argv = ["--config", str(self.config)]

    def setup(self, vm):
        config = vm.cli.load_run_config(str(self.config), [])
        config.validate()
        roster = vm.market_data.AssetRoster.from_json(config.roster)
        models = [vm.model.TimeMixerModel(config.model_config(h))
                  for h in config.horizons]
        return roster, models

    def _sweep(self, vm, out: Outcome, timer: SetupTimer, pair_stamps: list):
        """fetch, prepare and run once from clean directories; checked.

        Returns the commands' times, ``metrics.csv`` (empty if a command
        failed) and the run's manifest (``None`` if it wrote none).
        ``pair_stamps`` gets the start of ``run`` and the end of each pair's
        test forecast, so consecutive differences are per-pair times.
        """
        for sub in ("data", "out"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        manifest_path = self.work / "out" / "manifest.json"
        times = {}
        for command, extra in (("fetch", ["--fixtures",
                                          str(self.work / "fixtures")]),
                               ("prepare", []), ("run", [])):
            timer.poll()
            t0 = timer.clock()
            if command == "run":
                pair_stamps.append(t0)
            with stamp_after(vm.evaluation, "predict_test", pair_stamps, timer):
                code, err = quiet_cli(vm, self.argv + extra + [command])
            times[command] = timer.clock() - t0
            if not out.check(code == 0, f"volmixer {command} exited {code}: "
                                        f"{err.strip()[-300:]}"):
                manifest = (json.loads(manifest_path.read_text())
                            if manifest_path.exists() else None)
                return times, b"", manifest
        cached = sum(len(p.read_text().splitlines()) - 1
                     for p in (self.work / "data").glob("*.csv"))
        out.check(cached == self.rows,
                  f"fetch cached {cached} rows, inputs hold {self.rows}")
        manifest = json.loads(manifest_path.read_text())
        out.check(not manifest["failures"]
                  and manifest["records"] == 3 * self.pairs,
                  f"manifest: {manifest['records']} records, failures "
                  f"{manifest['failures']}")
        csv = (self.work / "out" / "metrics.csv").read_bytes()
        rows = csv.decode().strip().split("\n")[1:]
        out.check(len(rows) == 3 * self.pairs
                  and all(math.isfinite(float(v)) for r in rows
                          for v in r.split(",")[2:5]),
                  f"metrics.csv has {len(rows)} rows for {self.pairs} pairs")
        return times, csv, manifest

    def measure(self, vm, state, timer: SetupTimer, seconds: float,
                out: Outcome) -> None:
        ingest, runs, pair_ms, digests = [], [], [], []
        csv = b""
        t_start = timer.clock()
        for rep in itertools.count():
            if not another_rep(rep, timer.clock() - t_start, seconds):
                break
            stamps = []
            times, csv_rep, _ = self._sweep(vm, out, timer, stamps)
            if not csv_rep:
                continue
            csv = csv or csv_rep
            digests.append(hashlib.sha256(csv_rep).hexdigest())
            out.check(digests[-1] == digests[0],
                      "metrics.csv differs between sweeps of the same run")
            ingest.append(self.rows / (times["fetch"] + times["prepare"]))
            runs.append(times["run"])
            pair_ms.extend(np.diff(stamps) * 1e3)
        if not runs:
            return
        out.metrics["throughput_per_s"] = (float(np.median(ingest)), "1/s",
                                           len(ingest))
        out.info["latency_ms_p50"] = (percentile(pair_ms, 50), "ms",
                                      len(pair_ms))
        out.metrics["latency_ms_tail"] = (percentile(pair_ms, self.tail), "ms",
                                          len(pair_ms))
        out.metrics["job_s"] = (float(np.median(runs)), "s", len(runs))
        out.metrics["nmse"] = (mse_vs_persistence(csv.decode()), "nmse",
                               self.pairs)
        out.fingerprint = digests[0]

    def unit(self, vm, out: Outcome) -> dict:
        _, csv, manifest = self._sweep(vm, out, UNTIMED, [])
        pairs, scored = pair_counts(manifest, len(SWEEP_CONFIG["horizons"]))
        return {"fingerprint": hashlib.sha256(csv).hexdigest(),
                "cli.pairs": pairs, "cli.pairs_failed": self.pairs - scored}


def pair_counts(manifest: Optional[dict], horizons: int) -> tuple[int, int]:
    """(pairs ``volmixer run`` attempted, pairs it scored), from its manifest.

    A scored pair has three records (model, persistence, window mean); a
    failure entry without a horizon is a ticker that failed to load, which
    stands for all of its pairs.
    """
    if manifest is None:
        return 0, 0
    scored = manifest["records"] // 3
    failed = sum(1 if "horizon" in f else horizons
                 for f in manifest["failures"])
    return scored + failed, scored


def mse_vs_persistence(csv: str) -> float:
    """Test MSE of the models over that of persistence, pooled over pairs.

    Pooling weights each pair by its test windows, so short histories with
    few windows do not swing the ratio from one seed to the next.
    """
    mse, n = {}, {}
    for line in csv.strip().split("\n")[1:]:
        ticker, horizon, _, value, _, count = line.split(",")
        mse[ticker, horizon], n[ticker, horizon] = float(value), int(count)
    pairs = [(t, h) for t, h in mse if ":" not in t]
    model = sum(mse[p] * n[p] for p in pairs)
    persistence = sum(mse[f"{t}:persistence", h] * n[t, h] for t, h in pairs)
    return model / persistence


WORKLOADS = {w.name: w for w in (Train, Forecast, Sweep)}
