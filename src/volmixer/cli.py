"""Command-line pipeline: fetch -> prepare -> train -> eval -> report.

Driven by a declarative JSON run configuration, with ``--set key=value``
overrides for one-off tweaks. One model is trained per (ticker, horizon)
pair (direct multi-step forecasting); artifacts are flat files named
``<ticker>_F<horizon>.*``.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 partial
failure (some assets failed, others completed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from volmixer import __version__
from volmixer import evaluation, market_data
from volmixer.market_data import (AssetRoster, FetchError, EmptyDataError,
                                  cache_path, fetch_ohlcv, parse_ohlcv_csv,
                                  serialize_ohlcv_csv)
from volmixer.model import ModelConfig, TimeMixerModel
from volmixer.multiscale import ConfigError
from volmixer.training import TrainConfig, TrainingError, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

DEFAULT_ENDPOINT = "https://query1.finance.yahoo.com/v8/finance/chart"


class ValidationFailure(ValueError):
    pass


@dataclass
class RunConfig:
    roster: str = "roster.json"
    data_dir: str = "data"
    out_dir: str = "out"
    endpoint: str = DEFAULT_ENDPOINT
    lookback: int = 64
    horizons: list[int] = field(default_factory=lambda: list(evaluation.HORIZONS))
    channels: int = 1
    covariates: bool = False
    d_model: int = 32
    num_blocks: int = 2
    num_scales: int = 3
    decomp_kernel: int = 25
    ff_hidden: int = 64
    vol_window: int = 21
    periods_per_year: int = 252
    test_fraction: float = 0.2
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 300
    patience: int = 15
    seed: int = 0

    def validate(self) -> None:
        if not self.horizons or any(f < 1 for f in self.horizons):
            raise ValidationFailure("horizons must be a nonempty list of "
                                    "positive integers")
        if not Path(self.roster).exists():
            raise ValidationFailure(f"roster file not found: {self.roster}")
        if not 0 < self.test_fraction < 1:
            raise ValidationFailure("test_fraction must be in (0, 1)")
        # surfaces model shape problems before any data work
        try:
            self.model_config(self.horizons[0]).validate()
        except ConfigError as exc:
            raise ValidationFailure(str(exc)) from exc
        try:
            self.train_config().validate()
        except TrainingError as exc:
            raise ValidationFailure(str(exc)) from exc

    def model_config(self, horizon: int) -> ModelConfig:
        channels = 3 if self.covariates else self.channels
        return ModelConfig(lookback=self.lookback, horizon=horizon,
                           channels=channels, d_model=self.d_model,
                           num_blocks=self.num_blocks,
                           num_scales=self.num_scales,
                           decomp_kernel=self.decomp_kernel,
                           ff_hidden=self.ff_hidden, seed=self.seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(batch_size=self.batch_size,
                           learning_rate=self.learning_rate,
                           max_epochs=self.max_epochs, patience=self.patience,
                           seed=self.seed)


def load_run_config(path, overrides, seed=None, out=None) -> RunConfig:
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for item in overrides or []:
        if "=" not in item:
            raise ValidationFailure(f"--set expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        if key not in fields:
            raise ValidationFailure(f"unknown config key '{key}'")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    unknown = set(raw) - set(fields)
    if unknown:
        raise ValidationFailure(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig(**raw)
    if seed is not None:
        config.seed = seed
    if out is not None:
        config.out_dir = out
    return config


def _code_version() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"volmixer-{__version__}"


def _load_cached(config: RunConfig, entry) -> market_data.OhlcvSeries:
    path = cache_path(config.data_dir, entry.ticker, entry.start, entry.end)
    if not path.exists():
        raise FetchError(f"{entry.ticker}: no cached data at {path}; "
                         f"run 'fetch' first")
    return parse_ohlcv_csv(path.read_text(), ticker=entry.ticker)


def _prepare_dataset(config: RunConfig, series, horizon: int):
    values, dates = market_data.feature_matrix(
        series, window=config.vol_window, covariates=config.covariates,
        periods_per_year=config.periods_per_year)
    dataset = market_data.make_windows(values, config.lookback, horizon,
                                       dates=dates)
    return market_data.split_chronological(dataset, config.test_fraction)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fetch(config: RunConfig, fixtures=None) -> int:
    roster = AssetRoster.from_json(config.roster)
    if not roster.entries:
        raise ValidationFailure("roster is empty")
    Path(config.data_dir).mkdir(parents=True, exist_ok=True)
    failures = []
    for entry in roster.entries:
        try:
            result = fetch_ohlcv(entry.ticker, entry.start, entry.end,
                                 config.endpoint, fixtures_dir=fixtures)
        except (FetchError, EmptyDataError, market_data.FormatError) as exc:
            print(f"{entry.ticker}: FAILED ({exc})", file=sys.stderr)
            failures.append(entry.ticker)
            continue
        series = result.series
        path = cache_path(config.data_dir, entry.ticker, entry.start, entry.end)
        path.write_text(serialize_ohlcv_csv(series))
        print(f"{entry.ticker}: {len(series)} rows "
              f"({series.rows[0].day} .. {series.rows[-1].day}), "
              f"{result.dropped_rows} dropped -> {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_prepare(config: RunConfig) -> int:
    roster = AssetRoster.from_json(config.roster)
    for entry in roster.entries:
        series = _load_cached(config, entry)
        for horizon in config.horizons:
            ds = _prepare_dataset(config, series, horizon)
            print(f"{entry.ticker} F={horizon}: {len(ds)} windows, "
                  f"train {ds.train_range}, val {ds.val_range}, "
                  f"test {ds.test_range}")
    return EXIT_OK


def _train_pair(config: RunConfig, series, ticker: str, horizon: int,
                out_dir: Path):
    dataset = _prepare_dataset(config, series, horizon)
    model = TimeMixerModel(config.model_config(horizon))
    report = train(model, dataset, config.train_config())
    stem = out_dir / f"{ticker}_F{horizon}"
    model.save(stem.with_suffix(".ckpt"))
    report.write(stem.with_suffix(".train.json"))
    return model, dataset, report


def cmd_train(config: RunConfig) -> int:
    roster = AssetRoster.from_json(config.roster)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for entry in roster.entries:
        series = _load_cached(config, entry)
        for horizon in config.horizons:
            _, _, report = _train_pair(config, series, entry.ticker, horizon,
                                       out_dir)
            print(f"{entry.ticker} F={horizon}: best val "
                  f"{report.best_val_loss:.6e} at epoch {report.best_epoch} "
                  f"({report.stopping_reason})")
    return EXIT_OK


def cmd_eval(config: RunConfig) -> int:
    roster = AssetRoster.from_json(config.roster)
    out_dir = Path(config.out_dir)
    records, plots = [], {}
    for entry in roster.entries:
        series = _load_cached(config, entry)
        data_range = f"{entry.start}..{entry.end}"
        for horizon in config.horizons:
            ckpt = out_dir / f"{entry.ticker}_F{horizon}.ckpt"
            if not ckpt.exists():
                raise evaluation.EvaluationError(
                    f"missing checkpoint {ckpt}; run 'train' first")
            model = TimeMixerModel.load(ckpt)
            dataset = _prepare_dataset(config, series, horizon)
            records.extend(_score_pair(model, dataset, entry.ticker, horizon,
                                       data_range, plots))
    evaluation.emit_report(records, out_dir, plots)
    print(f"wrote {len(records)} records to {out_dir / 'metrics.csv'}")
    return EXIT_OK


def _score_pair(model, dataset, ticker, horizon, data_range, plots):
    pred = evaluation.predict_test(model, dataset)
    _, y_test = dataset.test
    records = [
        evaluation.score(ticker, horizon, pred, y_test,
                         model.config.hash(), data_range),
        evaluation.score(f"{ticker}:persistence", horizon,
                         evaluation.baseline_persistence(dataset.test[0], horizon),
                         y_test, "", data_range),
        evaluation.score(f"{ticker}:window_mean", horizon,
                         evaluation.baseline_window_mean(dataset.test[0], horizon),
                         y_test, "", data_range),
    ]
    lo, _ = dataset.test_range
    sample_dates = ([str(d) for d in dataset.dates[lo + dataset.lookback:
                                                   lo + dataset.lookback + horizon]]
                    if dataset.dates else [])
    plots[f"{ticker}_F{horizon}"] = (sample_dates, y_test[0], pred[0],
                                     f"{ticker} F={horizon} (first test window)")
    return records


def cmd_run(config: RunConfig) -> int:
    """Full sweep: prepare, train, evaluate, and report every pair.

    Per-pair failures are isolated and recorded in the manifest; the exit
    code signals partial failure if any pair failed.
    """
    roster = AssetRoster.from_json(config.roster)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, plots, failures = [], {}, []
    for entry in roster.entries:
        try:
            series = _load_cached(config, entry)
        except (FetchError, market_data.FormatError,
                market_data.ValidationError) as exc:
            failures.append({"ticker": entry.ticker, "error": str(exc)})
            print(f"{entry.ticker}: FAILED ({exc})", file=sys.stderr)
            continue
        data_range = f"{entry.start}..{entry.end}"
        for horizon in config.horizons:
            try:
                model, dataset, _ = _train_pair(config, series, entry.ticker,
                                                horizon, out_dir)
                records.extend(_score_pair(model, dataset, entry.ticker,
                                           horizon, data_range, plots))
            except (TrainingError, market_data.LengthError,
                    market_data.SplitError, ConfigError) as exc:
                failures.append({"ticker": entry.ticker, "horizon": horizon,
                                 "error": str(exc)})
                print(f"{entry.ticker} F={horizon}: FAILED ({exc})",
                      file=sys.stderr)
    if records:
        evaluation.emit_report(records, out_dir, plots)
    manifest = {
        "config": asdict(config),
        "code_version": _code_version(),
        "records": len(records),
        "failures": failures,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    if failures:
        return EXIT_PARTIAL
    if not records:
        raise ValidationFailure("no (ticker, horizon) pair produced results")
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    csv_path = Path(config.out_dir) / "metrics.csv"
    if not csv_path.exists():
        raise ValidationFailure(f"no metrics at {csv_path}; run 'eval' first")
    records = evaluation.records_from_csv(csv_path.read_text())
    md = evaluation.records_to_markdown(records)
    (Path(config.out_dir) / "report.md").write_text(md)
    print(md)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volmixer",
        description="Multiscale-mixing volatility forecasting pipeline")
    parser.add_argument("--config", help="path to JSON run configuration")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest="overrides", help="override one config field")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--fixtures",
                        help="directory of recorded JSON responses; forces "
                             "offline mode for 'fetch'")
    parser.add_argument("command",
                        choices=["fetch", "prepare", "train", "eval", "run",
                                 "report"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, args.overrides,
                                 seed=args.seed, out=args.out)
        config.validate()
        if args.command == "fetch":
            return cmd_fetch(config, fixtures=args.fixtures)
        if args.command == "prepare":
            return cmd_prepare(config)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "run":
            return cmd_run(config)
        return cmd_report(config)
    except (ValidationFailure, market_data.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
