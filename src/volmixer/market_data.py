"""OHLCV acquisition, annualized rolling-volatility targets, and windowed
chronological datasets.

Daily candles come either from a chart-style HTTP JSON endpoint or from
recorded JSON fixtures; raw series are cached as CSV keyed by ticker and
date range. Missing calendar days are simply absent rows: returns are taken
between consecutive available closes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

TRADING_DAYS_PER_YEAR = 252
DEFAULT_VOL_WINDOW = 21
CSV_HEADER = "Date,Open,High,Low,Close,Volume"


class FetchError(RuntimeError):
    """Network-level failure after retries; safe to retry later."""


class FormatError(ValueError):
    """Payload could not be parsed; carries a byte offset when known."""

    def __init__(self, message: str, offset: Optional[int] = None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyDataError(ValueError):
    """The source returned no usable rows."""


class ValidationError(ValueError):
    """Rows violate the series invariants (ordering, positivity)."""


class LengthError(ValueError):
    """Input too short for the requested operation."""


class SplitError(ValueError):
    """Requested split leaves some partition empty."""


@dataclass(frozen=True)
class OhlcvRow:
    day: date
    open: float
    high: float
    low: float
    close: float
    volume: int


@dataclass
class OhlcvSeries:
    ticker: str
    rows: list[OhlcvRow]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if min(row.open, row.high, row.low, row.close) <= 0:
                raise ValidationError(
                    f"{self.ticker}: nonpositive price in row {i} ({row.day})")
            if row.volume < 0:
                raise ValidationError(
                    f"{self.ticker}: negative volume in row {i} ({row.day})")
            if i > 0 and row.day <= self.rows[i - 1].day:
                raise ValidationError(
                    f"{self.ticker}: dates not strictly increasing at row {i} "
                    f"({row.day})")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dates(self) -> list[date]:
        return [r.day for r in self.rows]

    @property
    def closes(self) -> np.ndarray:
        return np.array([r.close for r in self.rows])

    @property
    def volumes(self) -> np.ndarray:
        return np.array([r.volume for r in self.rows], dtype=np.float64)


@dataclass
class VolatilitySeries:
    """Annualized rolling volatility; one point per fully-covered window."""
    ticker: str
    dates: list[date]
    sigma: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.sigma):
            raise ValidationError("dates and sigma lengths differ")
        if np.any(self.sigma < 0):
            raise ValidationError("volatility must be nonnegative")


@dataclass(frozen=True)
class RosterEntry:
    ticker: str
    start: date
    end: date
    display_name: str
    asset_class: str  # stock | index_etf | forex | crypto


@dataclass
class AssetRoster:
    entries: list[RosterEntry]

    def __post_init__(self):
        tickers = [e.ticker for e in self.entries]
        if len(set(tickers)) != len(tickers):
            raise ValidationError("duplicate tickers in roster")
        for e in self.entries:
            if e.start >= e.end:
                raise ValidationError(f"{e.ticker}: start {e.start} not before "
                                      f"end {e.end}")

    @classmethod
    def from_json(cls, path) -> "AssetRoster":
        raw = json.loads(Path(path).read_text())
        entries = [RosterEntry(ticker=e["ticker"],
                               start=date.fromisoformat(e["start"]),
                               end=date.fromisoformat(e["end"]),
                               display_name=e.get("display_name", e["ticker"]),
                               asset_class=e.get("asset_class", "stock"))
                   for e in raw]
        return cls(entries)


# ---------------------------------------------------------------------------
# CSV parsing / serialization
# ---------------------------------------------------------------------------

def parse_ohlcv_csv(text, ticker: str = "") -> OhlcvSeries:
    """Parse the cache CSV format. Header is exact and case-sensitive."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.split("\n")
    if not lines or lines[0].strip("\r") != CSV_HEADER:
        raise FormatError(f"expected header '{CSV_HEADER}', got "
                          f"'{lines[0].strip() if lines else ''}'")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            day = date.fromisoformat(parts[0])
            o, h, l, c = (float(p) for p in parts[1:5])
            vol = int(parts[5])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if min(o, h, l, c) <= 0:
            raise ValidationError(f"line {lineno}: nonpositive price")
        rows.append(OhlcvRow(day, o, h, l, c, vol))
    return OhlcvSeries(ticker=ticker, rows=rows)


def serialize_ohlcv_csv(series: OhlcvSeries) -> str:
    lines = [CSV_HEADER]
    for r in series.rows:
        lines.append(f"{r.day.isoformat()},{float(r.open)!r},{float(r.high)!r},"
                     f"{float(r.low)!r},{float(r.close)!r},{int(r.volume)}")
    return "\n".join(lines) + "\n"


def cache_path(data_dir, ticker: str, start: date, end: date) -> Path:
    return Path(data_dir) / f"{ticker}_{start.isoformat()}_{end.isoformat()}.csv"


# ---------------------------------------------------------------------------
# fetching
# ---------------------------------------------------------------------------

@dataclass
class FetchResult:
    series: OhlcvSeries
    dropped_rows: int


def parse_chart_json(payload, ticker: str) -> FetchResult:
    """Parse a chart-API JSON document into a sorted, validated series.

    Days with any missing field are dropped and counted. Unsorted days are
    tolerated and sorted; duplicate days are an error.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{ticker}: invalid JSON: {exc.msg}",
                              offset=exc.pos) from exc
    try:
        result = payload["chart"]["result"][0]
        timestamps = result["timestamp"]
        quote = result["indicators"]["quote"][0]
    except (KeyError, IndexError, TypeError) as exc:
        raise FormatError(f"{ticker}: chart JSON missing {exc}") from exc
    if not timestamps:
        raise EmptyDataError(f"{ticker}: no data points in response")
    n = len(timestamps)
    columns = []
    for key in ("open", "high", "low", "close", "volume"):
        column = quote.get(key, [None] * n)    # a missing column drops every row
        if not isinstance(column, list) or len(column) != n:
            raise FormatError(f"{ticker}: quote '{key}' is not a list of {n} "
                              f"values")
        columns.append(column)
    rows = []
    dropped = 0
    for ts, *fields in zip(timestamps, *columns):
        if any(v is None for v in fields):
            dropped += 1
            continue
        day = datetime.fromtimestamp(ts, tz=timezone.utc).date()
        o, h, l, c, v = fields
        rows.append(OhlcvRow(day, float(o), float(h), float(l), float(c), int(v)))
    if not rows:
        raise EmptyDataError(f"{ticker}: all rows dropped")
    rows.sort(key=lambda r: r.day)
    return FetchResult(OhlcvSeries(ticker=ticker, rows=rows), dropped)


def fetch_ohlcv(ticker: str, start: date, end: date, endpoint: str,
                fixtures_dir=None, retries: int = 3,
                backoff: float = 0.5) -> FetchResult:
    """Fetch daily candles for [start, end] from a chart-API endpoint.

    With ``fixtures_dir`` set, reads ``<fixtures_dir>/<ticker>.json`` instead
    of touching the network (all tests run this way).
    """
    if start >= end:
        raise ValidationError(f"{ticker}: start {start} not before end {end}")
    if fixtures_dir is not None:
        path = Path(fixtures_dir) / f"{ticker}.json"
        if not path.exists():
            raise FetchError(f"{ticker}: no fixture at {path}")
        result = parse_chart_json(path.read_bytes(), ticker)
    else:
        import requests

        params = {
            "period1": int(datetime(start.year, start.month, start.day,
                                    tzinfo=timezone.utc).timestamp()),
            "period2": int(datetime(end.year, end.month, end.day,
                                    tzinfo=timezone.utc).timestamp()),
            "interval": "1d",
        }
        url = f"{endpoint.rstrip('/')}/{ticker}"
        last_exc = None
        for attempt in range(retries):
            try:
                resp = requests.get(url, params=params, timeout=30)
                resp.raise_for_status()
                result = parse_chart_json(resp.content, ticker)
                break
            except (requests.RequestException, OSError) as exc:
                last_exc = exc
                time.sleep(backoff * (2 ** attempt))
        else:
            raise FetchError(f"{ticker}: fetch failed after {retries} "
                             f"attempts: {last_exc}") from last_exc
    kept = [r for r in result.series.rows if start <= r.day <= end]
    if not kept:
        raise EmptyDataError(f"{ticker}: no rows inside [{start}, {end}]")
    return FetchResult(OhlcvSeries(ticker=ticker, rows=kept),
                       result.dropped_rows)


# ---------------------------------------------------------------------------
# volatility target
# ---------------------------------------------------------------------------

def compute_log_returns(closes) -> np.ndarray:
    """r_t = ln(P_t / P_{t-1}); output is one shorter than the input."""
    closes = np.asarray(closes, dtype=np.float64)
    if closes.size < 2:
        raise LengthError(f"need at least 2 prices, got {closes.size}")
    if np.any(closes <= 0):
        raise ValidationError("log returns require strictly positive prices")
    return np.diff(np.log(closes))


def rolling_volatility(returns, window: int = DEFAULT_VOL_WINDOW,
                       periods_per_year: int = TRADING_DAYS_PER_YEAR) -> np.ndarray:
    """Annualized trailing-window sample standard deviation of returns.

    Uses divisor n-1 (sample std, the realized-volatility convention) and
    sqrt(periods_per_year) annualization. Output length is
    len(returns) - window + 1.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if window < 2:
        raise ValidationError(f"window must be >= 2, got {window}")
    if returns.size < window:
        raise LengthError(f"need >= {window} returns, got {returns.size}")
    windows = np.lib.stride_tricks.sliding_window_view(returns, window)
    sigma = math.sqrt(periods_per_year) * windows.std(axis=-1, ddof=1)
    # identical values must give exactly zero despite float cancellation
    sigma[np.ptp(windows, axis=-1) == 0] = 0.0
    return sigma


def volatility_series(series: OhlcvSeries, window: int = DEFAULT_VOL_WINDOW,
                      periods_per_year: int = TRADING_DAYS_PER_YEAR
                      ) -> VolatilitySeries:
    returns = compute_log_returns(series.closes)
    sigma = rolling_volatility(returns, window, periods_per_year)
    return VolatilitySeries(ticker=series.ticker,
                            dates=series.dates[window:], sigma=sigma)


def feature_matrix(series: OhlcvSeries, window: int = DEFAULT_VOL_WINDOW,
                   covariates: bool = False,
                   periods_per_year: int = TRADING_DAYS_PER_YEAR
                   ) -> tuple[np.ndarray, list[date]]:
    """Model input channels aligned on volatility dates.

    Channel 0 is always the annualized volatility (the forecast target).
    With ``covariates`` the daily log return and log-volume join as extra
    channels.
    """
    vol = volatility_series(series, window, periods_per_year)
    cols = [vol.sigma]
    if covariates:
        returns = compute_log_returns(series.closes)
        cols.append(returns[window - 1:])
        cols.append(np.log1p(series.volumes[window:]))
    return np.stack(cols, axis=-1), vol.dates


# ---------------------------------------------------------------------------
# windowing and splits
# ---------------------------------------------------------------------------

@dataclass
class WindowedDataset:
    """Aligned (lookback, horizon) pairs with an optional chronological split.

    ``x`` is (N, P, C); ``y`` is (N, F) holding the target channel only.
    Split ranges are half-open index intervals into the sample axis.
    """
    x: np.ndarray
    y: np.ndarray
    lookback: int
    horizon: int
    channels: int
    train_range: Optional[tuple[int, int]] = None
    val_range: Optional[tuple[int, int]] = None
    test_range: Optional[tuple[int, int]] = None
    dates: list[date] = field(default_factory=list)

    def __len__(self) -> int:
        return self.x.shape[0]

    def _slice(self, rng):
        if rng is None:
            raise SplitError("dataset has not been split yet")
        lo, hi = rng
        return self.x[lo:hi], self.y[lo:hi]

    @property
    def train(self):
        return self._slice(self.train_range)

    @property
    def val(self):
        return self._slice(self.val_range)

    @property
    def test(self):
        return self._slice(self.test_range)


def make_windows(values: np.ndarray, lookback: int, horizon: int,
                 stride: int = 1, dates: Optional[list[date]] = None
                 ) -> WindowedDataset:
    """Slide a (lookback, horizon) window over a (T, C) value matrix.

    Sample i pairs x = values[i : i+P] with y = values[i+P : i+P+F, 0],
    stepping starts by ``stride``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    total = values.shape[0]
    if total < lookback + horizon:
        raise LengthError(f"series length {total} < lookback {lookback} + "
                          f"horizon {horizon}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    spans = np.lib.stride_tricks.sliding_window_view(
        values, lookback + horizon, axis=0)[::stride]     # (N, C, P + F)
    x = spans[:, :, :lookback].transpose(0, 2, 1).copy()
    y = spans[:, 0, lookback:].copy()
    return WindowedDataset(x=x, y=y, lookback=lookback, horizon=horizon,
                           channels=values.shape[1],
                           dates=list(dates) if dates else [])


def split_chronological(dataset: WindowedDataset, test_fraction: float = 0.2,
                        gap: Optional[int] = None) -> WindowedDataset:
    """Assign chronological train/val/test ranges over the sample axis.

    The last ceil(test_fraction * N) samples form the test set; validation is
    sized to 10% of the training set. ``gap`` samples are discarded between
    consecutive splits so that no earlier split's target overlaps a later
    split's lookback; it defaults to lookback + horizon - 1, the smallest
    leak-proof spacing for stride-1 windows. Pass ``gap=0`` for plain
    contiguous arithmetic.
    """
    n = len(dataset)
    if not 0 < test_fraction < 1:
        raise ValidationError(f"test_fraction must be in (0,1), got {test_fraction}")
    if gap is None:
        gap = dataset.lookback + dataset.horizon - 1
    n_test = math.ceil(test_fraction * n)
    avail = n - n_test - 2 * gap
    n_val = round(avail / 11) if avail > 0 else 0
    n_train = avail - n_val
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise SplitError(f"{n} samples cannot support train/val/test with "
                         f"test_fraction={test_fraction} and gap={gap} "
                         f"(train={n_train}, val={n_val}, test={n_test})")
    dataset.train_range = (0, n_train)
    dataset.val_range = (n_train + gap, n_train + gap + n_val)
    dataset.test_range = (n - n_test, n)
    return dataset
