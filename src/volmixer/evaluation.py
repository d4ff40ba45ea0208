"""Test-split metrics (MAE / MSE / RMSE), reference baselines, and report
emission as CSV, markdown tables, and standalone SVG plots."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from volmixer.atomic import write_atomic
from volmixer.market_data import WindowedDataset
from volmixer.model import EVAL_BATCH, TimeMixerModel

CSV_HEADER = "ticker,horizon,mae,mse,rmse,n_samples"

HORIZONS = (12, 96, 192, 336, 720)


class EvaluationError(RuntimeError):
    pass


@dataclass
class MetricsRecord:
    ticker: str
    horizon: int
    mae: float
    mse: float
    rmse: float
    n_samples: int

    def __post_init__(self):
        if self.horizon < 1 or self.n_samples < 1:
            raise EvaluationError(f"horizon {self.horizon} and n_samples "
                                  f"{self.n_samples} must be >= 1")
        if not all(0 <= m < math.inf for m in (self.mae, self.mse, self.rmse)):
            raise EvaluationError("metrics must be finite and nonnegative")
        if not math.isclose(self.rmse, math.sqrt(self.mse),
                            rel_tol=0, abs_tol=1e-12 * max(1.0, self.rmse)):
            raise EvaluationError(f"rmse {self.rmse} != sqrt(mse {self.mse})")


def _check_shapes(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise EvaluationError(f"shape mismatch or empty: {pred.shape} vs "
                              f"{target.shape}")
    return pred, target


def mae(pred, target) -> float:
    """Mean absolute error over every forecast entry."""
    pred, target = _check_shapes(pred, target)
    return float(np.mean(np.abs(pred - target)))


def mse(pred, target) -> float:
    pred, target = _check_shapes(pred, target)
    return float(np.mean((pred - target) ** 2))


def rmse(pred, target) -> float:
    return math.sqrt(mse(pred, target))


def _targets(lookback: np.ndarray) -> np.ndarray:
    """Channel 0 (the target) of a nonempty (N, P, C) batch of lookback
    windows, as (N, P)."""
    lookback = np.asarray(lookback, dtype=np.float64)
    if lookback.ndim != 3 or lookback.size == 0:
        raise EvaluationError(f"expected a nonempty (N, P, C) batch of "
                              f"lookback windows, got {lookback.shape}")
    return lookback[..., 0]


def baseline_persistence(lookback: np.ndarray, horizon: int) -> np.ndarray:
    """(N, P, C) -> (N, F): each window's last target value, repeated."""
    return np.repeat(_targets(lookback)[:, -1:], horizon, axis=1)


def baseline_window_mean(lookback: np.ndarray, horizon: int) -> np.ndarray:
    """(N, P, C) -> (N, F): the mean of each window's last 21 target
    values (about a trading month), repeated."""
    means = _targets(lookback)[:, -21:].mean(axis=1, keepdims=True)
    return np.repeat(means, horizon, axis=1)


def predict_test(model: TimeMixerModel, dataset: WindowedDataset) -> np.ndarray:
    """Denormalized forecasts for every test sample, (N_test, F)."""
    x_test, _ = dataset.test
    preds = [model.forward(x_test[lo:lo + EVAL_BATCH])
             for lo in range(0, x_test.shape[0], EVAL_BATCH)]
    return np.concatenate(preds, axis=0)


def score(ticker: str, horizon: int, pred: np.ndarray,
          target: np.ndarray) -> MetricsRecord:
    m = mse(pred, target)
    return MetricsRecord(ticker=ticker, horizon=horizon,
                         mae=mae(pred, target), mse=m, rmse=math.sqrt(m),
                         n_samples=int(np.asarray(pred).shape[0]))


def score_pair(model: TimeMixerModel, dataset: WindowedDataset,
               ticker: str) -> tuple[list[MetricsRecord], tuple]:
    """Score one (ticker, horizon) pair on its test split.

    Returns the model's, persistence's and window mean's records, and the
    first test window as a ``(dates, actual, predicted, title)`` plot for
    :func:`forecast_plot_svg`. Forecasts are denormalized before scoring.
    """
    horizon = dataset.horizon
    pred = predict_test(model, dataset)
    x_test, y_test = dataset.test
    records = [
        score(ticker, horizon, pred, y_test),
        score(f"{ticker}:persistence", horizon,
              baseline_persistence(x_test, horizon), y_test),
        score(f"{ticker}:window_mean", horizon,
              baseline_window_mean(x_test, horizon), y_test),
    ]
    first = dataset.test_range[0] + dataset.lookback
    dates = [str(d) for d in dataset.dates[first:first + horizon]]
    return records, (dates, y_test[0], pred[0],
                     f"{ticker} F={horizon} (first test window)")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def records_to_csv(records: Sequence[MetricsRecord]) -> str:
    if not records:
        raise EvaluationError("no records to report")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.ticker},{r.horizon},{r.mae!r},{r.mse!r},"
                     f"{r.rmse!r},{r.n_samples}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[MetricsRecord]:
    """Read ``metrics.csv``; a malformed record raises ``EvaluationError``
    naming its line."""
    lines = text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise EvaluationError(f"expected header '{CSV_HEADER}'")
    # the line number of lines[0], past any blank lines strip() removed
    first = text[:len(text) - len(text.lstrip())].count("\n") + 1
    records = []
    for lineno, line in enumerate(lines[1:], start=first + 1):
        if not line:
            continue
        try:
            ticker, horizon, v_mae, v_mse, v_rmse, n = line.split(",")
            records.append(MetricsRecord(
                ticker=ticker, horizon=int(horizon), mae=float(v_mae),
                mse=float(v_mse), rmse=float(v_rmse), n_samples=int(n)))
        except (ValueError, EvaluationError) as exc:
            raise EvaluationError(f"line {lineno}: {exc}") from exc
    return records


def records_to_markdown(records: Sequence[MetricsRecord]) -> str:
    """Horizon-blocked table: one column per ticker, one row per metric; a
    repeated (ticker, horizon) pair raises ``EvaluationError``."""
    if not records:
        raise EvaluationError("no records to report")
    tickers = sorted({r.ticker for r in records})
    horizons = sorted({r.horizon for r in records})
    by_key = {}
    for r in records:
        if by_key.setdefault((r.ticker, r.horizon), r) is not r:
            raise EvaluationError(f"repeated record for ticker {r.ticker!r} "
                                  f"at horizon {r.horizon}")
    lines = ["| Horizon | Metric | " + " | ".join(tickers) + " |",
             "|---|---|" + "---|" * len(tickers)]
    for horizon in horizons:
        for metric in ("mae", "mse", "rmse"):
            cells = []
            for ticker in tickers:
                rec = by_key.get((ticker, horizon))
                cells.append(f"{getattr(rec, metric):.4f}" if rec else "-")
            label = f"{horizon} days" if metric == "mae" else ""
            lines.append(f"| {label} | {metric.upper()} | "
                         + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def forecast_plot_svg(dates, actual: np.ndarray, predicted: np.ndarray,
                      title: str = "") -> str:
    """Plain-XML SVG line plot (800 x 300) of actual vs predicted series."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    n = actual.size
    if n == 0 or predicted.size != n:
        raise EvaluationError("plot series must be nonempty and equal length")
    width, height, pad = 800, 300, 40
    lo = min(actual.min(), predicted.min())
    hi = max(actual.max(), predicted.max())
    span = (hi - lo) or 1.0

    def pts(series):
        coords = []
        for i, v in enumerate(series):
            px = pad + (width - 2 * pad) * (i / max(n - 1, 1))
            py = height - pad - (height - 2 * pad) * ((v - lo) / span)
            coords.append(f"{px:.1f},{py:.1f}")
        return " ".join(coords)

    labels = ""
    if dates:
        labels = (f'<text x="{pad}" y="{height - 8}" font-size="11">'
                  f"{dates[0]}</text>"
                  f'<text x="{width - pad - 70}" y="{height - 8}" '
                  f'font-size="11">{dates[-1]}</text>')
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">
<rect width="{width}" height="{height}" fill="white"/>
<text x="{pad}" y="20" font-size="13">{title}</text>
<polyline points="{pts(actual)}" fill="none" stroke="#333" stroke-width="1.5"/>
<polyline points="{pts(predicted)}" fill="none" stroke="#d62728" stroke-width="1.5"/>
<text x="{width - pad - 120}" y="20" font-size="11" fill="#333">actual</text>
<text x="{width - pad - 60}" y="20" font-size="11" fill="#d62728">predicted</text>
{labels}
</svg>
"""


def emit_report(records: Sequence[MetricsRecord], out_dir) -> dict[str, Path]:
    """Write metrics.csv and report.md."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out_dir / "metrics.csv"
    write_atomic(csv_path, records_to_csv(records))
    paths["csv"] = csv_path
    md_path = out_dir / "report.md"
    write_atomic(md_path, records_to_markdown(records))
    paths["markdown"] = md_path
    return paths
