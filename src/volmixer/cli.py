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
import json
import subprocess
import sys
import typing
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

from volmixer import __version__
from volmixer import evaluation, market_data
from volmixer.atomic import write_atomic
from volmixer.autodiff import NumericError
from volmixer.market_data import (AssetRoster, FetchError, EmptyDataError,
                                  cache_path, fetch_ohlcv, parse_ohlcv_csv,
                                  serialize_ohlcv_csv)
from volmixer.model import CheckpointError, ModelConfig, TimeMixerModel
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
    lookback: int = ModelConfig.lookback
    horizons: list[int] = field(default_factory=lambda: list(evaluation.HORIZONS))
    covariates: bool = False
    d_model: int = ModelConfig.d_model
    num_blocks: int = ModelConfig.num_blocks
    num_scales: int = ModelConfig.num_scales
    decomp_kernel: int = ModelConfig.decomp_kernel
    ff_hidden: int = ModelConfig.ff_hidden
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    seed: int = ModelConfig.seed    # TrainConfig's seed too

    def validate(self) -> None:
        if not self.horizons or any(f < 1 for f in self.horizons):
            raise ValidationFailure("horizons must be a nonempty list of "
                                    "positive integers")
        repeated = sorted({f for f in self.horizons
                           if self.horizons.count(f) > 1})
        if repeated:
            raise ValidationFailure(f"horizons must be distinct; repeated: "
                                    f"{repeated}")
        if not AssetRoster.from_json(self.roster).entries:
            raise ValidationFailure(f"{self.roster}: roster is empty")
        # surfaces model shape problems before any data work
        try:
            self.model_config(self.horizons[0]).validate()
        except ConfigError as exc:
            raise ValidationFailure(str(exc)) from exc
        try:
            self.train_config().validate()
        except TrainingError as exc:
            raise ValidationFailure(str(exc)) from exc

    def _shared(self, cls) -> dict:
        """This config's values of the fields ``cls`` shares by name."""
        mine = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls)
                if f.name in mine}

    def model_config(self, horizon: int) -> ModelConfig:
        # feature_matrix: volatility alone, or with log return and log volume
        return ModelConfig(horizon=horizon,
                           channels=3 if self.covariates else 1,
                           **self._shared(ModelConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._shared(TrainConfig))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what each RunConfig field type accepts, and its name in error messages;
# a float field also takes an int
_FITS = {
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    list[int]: ("a list of integers",
                lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def load_run_config(path, overrides, seed=None, out=None) -> RunConfig:
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationFailure(f"config {path} is not a JSON object")
    types = typing.get_type_hints(RunConfig)
    for item in overrides or []:
        if "=" not in item:
            raise ValidationFailure(f"--set expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        if key not in types:
            raise ValidationFailure(f"unknown config key '{key}'")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
        if types[key] is str and not isinstance(raw[key], str):
            raw[key] = value    # a path such as out_dir=2024 stays text
    unknown = set(raw) - set(types)
    if unknown:
        raise ValidationFailure(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        want, fits = _FITS[types[key]]
        if not fits(value):
            raise ValidationFailure(f"config key '{key}' must be {want}, "
                                    f"got {value!r}")
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
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"volmixer-{__version__}"


def _load_cached(config: RunConfig, entry) -> market_data.OhlcvSeries:
    path = cache_path(config.data_dir, entry.ticker, entry.start, entry.end)
    if not path.exists():
        raise FetchError(f"{entry.ticker}: no cached data at {path}; "
                         f"run 'fetch' first")
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FetchError(f"{entry.ticker}: cannot read {path}: {exc}") from exc
    return parse_ohlcv_csv(raw, ticker=entry.ticker)


def _prepare_dataset(config: RunConfig, features, horizon: int):
    values, dates = features
    dataset = market_data.make_windows(values, config.lookback, horizon,
                                       dates=dates)
    return market_data.split_chronological(dataset)


# recorded and stepped over: a ticker's load failure, then a pair's failure,
# which includes an I/O error on one of the pair's artifacts
LOAD_ERRORS = (FetchError, market_data.FormatError, market_data.ValidationError)
PAIR_ERRORS = (TrainingError, market_data.LengthError, market_data.SplitError,
               ConfigError, CheckpointError, NumericError, OSError)


def _record_failure(failures: list, exc: Exception, label: str, **where):
    failures.append({**where, "error": str(exc)})
    print(f"{label}: FAILED ({exc})", file=sys.stderr)


def _each_pair(config: RunConfig, work) -> list[dict]:
    """Call ``work(entry, horizon, dataset)`` for every (ticker, horizon) pair.

    Each ticker's cache is loaded, and its features built, once. A ticker
    that fails to load, or a pair whose dataset or ``work`` fails, is
    recorded and the loop goes on; a ticker whose features fail is recorded
    as that failure of each of its pairs. Returns the failures as
    ``{"ticker", ["horizon"], "error"}`` dicts.
    """
    failures = []
    for entry in AssetRoster.from_json(config.roster).entries:
        try:
            series = _load_cached(config, entry)
        except LOAD_ERRORS as exc:
            _record_failure(failures, exc, entry.ticker, ticker=entry.ticker)
            continue
        try:
            features = market_data.feature_matrix(
                series, covariates=config.covariates)
        except PAIR_ERRORS as exc:
            features = exc      # each horizon records it as its failure
        for horizon in config.horizons:
            try:
                if isinstance(features, Exception):
                    raise features
                work(entry, horizon, _prepare_dataset(config, features,
                                                      horizon))
            except PAIR_ERRORS as exc:
                _record_failure(failures, exc, f"{entry.ticker} F={horizon}",
                                ticker=entry.ticker, horizon=horizon)
        # so that this ticker's data are freed before the next one loads
        del series, features
    return failures


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fetch(config: RunConfig, fixtures=None) -> int:
    Path(config.data_dir).mkdir(parents=True, exist_ok=True)
    failures = []
    for entry in AssetRoster.from_json(config.roster).entries:
        path = cache_path(config.data_dir, entry.ticker, entry.start, entry.end)
        try:
            result = fetch_ohlcv(entry.ticker, entry.start, entry.end,
                                 config.endpoint, fixtures_dir=fixtures)
            write_atomic(path, serialize_ohlcv_csv(result.series))
        except LOAD_ERRORS + (EmptyDataError, OSError) as exc:
            _record_failure(failures, exc, entry.ticker, ticker=entry.ticker)
            continue
        series = result.series
        print(f"{entry.ticker}: {len(series)} rows "
              f"({series.days[0]} .. {series.days[-1]}), "
              f"{result.dropped_rows} dropped -> {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_prepare(config: RunConfig) -> int:
    def work(entry, horizon, ds):
        print(f"{entry.ticker} F={horizon}: {len(ds)} windows, "
              f"train {ds.train_range}, val {ds.val_range}, "
              f"test {ds.test_range}")
    return EXIT_PARTIAL if _each_pair(config, work) else EXIT_OK


def _train_pair(config: RunConfig, entry, horizon: int, dataset):
    model = TimeMixerModel(config.model_config(horizon))
    report = train(model, dataset, config.train_config())
    stem = Path(config.out_dir) / f"{entry.ticker}_F{horizon}"
    model.save(stem.with_suffix(".ckpt"))
    report.write(stem.with_suffix(".train.json"))
    print(f"{entry.ticker} F={horizon}: best val "
          f"{report.best_val_loss:.6e} at epoch {report.best_epoch} "
          f"({report.stopping_reason})")
    return model


def cmd_train(config: RunConfig) -> int:
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    failures = _each_pair(config, lambda entry, horizon, dataset:
                          _train_pair(config, entry, horizon, dataset))
    return EXIT_PARTIAL if failures else EXIT_OK


def _score_pairs(config: RunConfig, get_model) -> int:
    """Score ``get_model(entry, horizon, dataset)`` on every pair and write
    its plot, then write the report and ``manifest.json``; shared by
    ``eval`` and ``run``."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []

    def work(entry, horizon, dataset):
        model = get_model(entry, horizon, dataset)
        pair_records, plot = evaluation.score_pair(model, dataset, entry.ticker)
        write_atomic(out_dir / f"{entry.ticker}_F{horizon}.svg",
                     evaluation.forecast_plot_svg(*plot))
        records.extend(pair_records)

    failures = _each_pair(config, work)
    if records:
        evaluation.emit_report(records, out_dir)
        print(f"wrote {len(records)} records to {out_dir / 'metrics.csv'}")
    manifest = {
        "config": asdict(config),
        "code_version": _code_version(),
        "records": len(records),
        "failures": failures,
    }
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2))
    return EXIT_PARTIAL if failures else EXIT_OK


def _load_checkpoint(config: RunConfig, entry, horizon: int):
    ckpt = Path(config.out_dir) / f"{entry.ticker}_F{horizon}.ckpt"
    if not ckpt.exists():
        raise CheckpointError(f"missing checkpoint {ckpt}; run 'train' first")
    model = TimeMixerModel.load(ckpt)
    found, wanted = asdict(model.config), asdict(config.model_config(horizon))
    for key, want in wanted.items():
        if found[key] != want:
            raise CheckpointError(f"{ckpt}: checkpoint has {key} "
                                  f"{found[key]}, the run config {want}")
    return model


def cmd_eval(config: RunConfig) -> int:
    return _score_pairs(config, lambda entry, horizon, _:
                        _load_checkpoint(config, entry, horizon))


def cmd_run(config: RunConfig) -> int:
    """Full sweep: prepare, train, evaluate, and report every pair.

    Per-pair failures are isolated and recorded in the manifest; the exit
    code signals partial failure if any pair failed.
    """
    return _score_pairs(config, lambda entry, horizon, dataset:
                        _train_pair(config, entry, horizon, dataset))


def cmd_report(config: RunConfig) -> int:
    csv_path = Path(config.out_dir) / "metrics.csv"
    if not csv_path.exists():
        raise ValidationFailure(f"no metrics at {csv_path}; run 'eval' first")
    records = evaluation.records_from_csv(csv_path.read_text())
    md = evaluation.records_to_markdown(records)
    write_atomic(Path(config.out_dir) / "report.md", md)
    print(md)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# each subcommand's handler, given the validated config and the parsed
# arguments; a lambda looks its ``cmd_*`` function up when it is called
COMMANDS = {
    "fetch": lambda config, args: cmd_fetch(config, fixtures=args.fixtures),
    "prepare": lambda config, _: cmd_prepare(config),
    "train": lambda config, _: cmd_train(config),
    "eval": lambda config, _: cmd_eval(config),
    "run": lambda config, _: cmd_run(config),
    "report": lambda config, _: cmd_report(config),
}


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
    parser.add_argument("command", choices=COMMANDS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, args.overrides,
                                 seed=args.seed, out=args.out)
        config.validate()
        return COMMANDS[args.command](config, args)
    except (ValidationFailure, market_data.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
