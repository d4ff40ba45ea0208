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
import re
import time
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Optional

import numpy as np

TRADING_DAYS_PER_YEAR = 252
DEFAULT_VOL_WINDOW = 21
CSV_HEADER = "Date,Open,High,Low,Close,Volume"
FETCH_ATTEMPTS = 3
FETCH_BACKOFF_S = 0.5   # sleep before the second attempt; doubles after


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


PRICE_COLUMNS = ("open", "high", "low", "close")
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _valid_price(value):
    """The price rule: finite and strictly positive. Works elementwise on
    arrays; NaN and +-inf fail it."""
    return (value > 0) & (value < math.inf)


@dataclass(eq=False)
class OhlcvSeries:
    """Daily bars held as columns, one element per day.

    ``days`` is ``datetime64[D]``, strictly increasing; the four price
    columns are float64, finite and positive; ``volume`` is int64 and
    nonnegative. Constructor arguments are converted to those dtypes.
    """
    ticker: str
    days: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype="datetime64[D]")
        for name in PRICE_COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=np.float64))
        self.volume = np.asarray(self.volume, dtype=np.int64)
        n = len(self.days)
        if any(getattr(self, name).shape != (n,)
               for name in ("days", *PRICE_COLUMNS, "volume")):
            raise ValidationError(f"{self.ticker}: columns must be 1-D and "
                                  f"of equal length")
        prices = np.stack([getattr(self, name) for name in PRICE_COLUMNS])
        increasing = np.ones(n, dtype=bool)
        increasing[1:] = np.diff(self.days) > np.timedelta64(0, "D")
        for ok, problem in (
                (_valid_price(prices).all(axis=0),
                 "non-finite or nonpositive price in"),
                (self.volume >= 0, "negative volume in"),
                (increasing, "dates not strictly increasing at")):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValidationError(
                    f"{self.ticker}: {problem} row {i} ({self.days[i]})")

    def __len__(self) -> int:
        return len(self.days)

    def take(self, index) -> "OhlcvSeries":
        """The rows selected by an integer index array or a boolean mask."""
        return OhlcvSeries(self.ticker, self.days[index],
                           *(getattr(self, name)[index]
                             for name in PRICE_COLUMNS),
                           self.volume[index])


def _series_from_rows(ticker: str, rows: list[tuple]) -> OhlcvSeries:
    """Build a series from ``(day ordinal, open, high, low, close, volume)``
    tuples, in order."""
    ordinals, *prices, volumes = zip(*rows) if rows else [()] * 6
    try:
        volume = np.array(volumes, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{ticker}: volume outside the int64 range") from exc
    days = (np.array(ordinals, dtype=np.int64)
            - _EPOCH_ORDINAL).astype("datetime64[D]")
    return OhlcvSeries(ticker, days, *prices, volume)


# tickers name cache files and artifacts, and ':' marks baseline rows in
# metrics.csv, so no '/', ',', ':' or leading '.': "^GSPC", "EURUSD=X", "BRK.B"
_TICKER = re.compile(r"[A-Za-z0-9^][A-Za-z0-9^=._-]*")


@dataclass(frozen=True)
class RosterEntry:
    ticker: str
    start: date
    end: date


@dataclass
class AssetRoster:
    entries: list[RosterEntry]

    def __post_init__(self):
        for i, e in enumerate(self.entries):
            if not (isinstance(e.ticker, str) and _TICKER.fullmatch(e.ticker)):
                raise ValidationError(
                    f"roster entry {i}: ticker {e.ticker!r} is not letters, "
                    f"digits and '^=._-' starting with a letter, digit or "
                    f"'^'")
        tickers = [e.ticker for e in self.entries]
        if len(set(tickers)) != len(tickers):
            raise ValidationError("duplicate tickers in roster")
        for e in self.entries:
            if e.start >= e.end:
                raise ValidationError(f"{e.ticker}: start {e.start} not before "
                                      f"end {e.end}")

    @classmethod
    def from_json(cls, path) -> "AssetRoster":
        """Read a JSON list of ``{"ticker", "start", "end"}`` objects with ISO
        dates; other keys are ignored. A file that cannot be read or is not
        UTF-8 JSON and a malformed roster raise ``ValidationError`` naming
        the problem."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read roster {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: roster is not JSON text: "
                                  f"{exc}") from exc
        if not isinstance(raw, list):
            raise ValidationError(f"{path}: roster is not a JSON list")
        entries = []
        for i, e in enumerate(raw):
            try:
                if not isinstance(e, dict):
                    raise TypeError("not an object")
                entries.append(RosterEntry(ticker=e["ticker"],
                                           start=date.fromisoformat(e["start"]),
                                           end=date.fromisoformat(e["end"])))
            except KeyError as exc:
                raise ValidationError(f"{path}: roster entry {i} lacks "
                                      f"{exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: roster entry {i}: "
                                      f"{exc}") from exc
        return cls(entries)


# ---------------------------------------------------------------------------
# CSV parsing / serialization
# ---------------------------------------------------------------------------

def parse_ohlcv_csv(text, ticker: str = "") -> OhlcvSeries:
    """Parse the cache CSV format. Header is exact and case-sensitive.

    Raises ``FormatError`` for undecodable bytes or a malformed line and
    ``ValidationError`` for a line whose price breaks the price rule or rows
    that break the series invariants. ``_csv_rows``, the per-line
    reference, takes what ``_csv_columns``, which converts whole columns,
    does not.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{ticker}: cache is not UTF-8 text: "
                              f"{exc.reason}", offset=exc.start) from exc
    series = _csv_columns(text, ticker)
    return _csv_rows(text, ticker) if series is None else series


# each line's separators; the first 11 bytes of a line lie in [form,
# form + span): a YYYY-MM-DD date's digits and dashes, then a comma
_LINE_SEPARATORS = np.frombuffer(b",,,,,\n", np.uint8)
_DATE_FORM = np.frombuffer(b"0000-00-00,", np.uint8)
_DATE_SPAN = np.array([10, 10, 10, 10, 1, 10, 10, 1, 10, 10, 1], np.uint8)


def _csv_columns(text: str, ticker: str) -> Optional[OhlcvSeries]:
    """The series of LF-ended lines of five commas, each opening with a
    ``YYYY-MM-DD`` date from year 1 on, with one NumPy call a column; None
    for other text, a value NumPy cannot convert or a price rule broken."""
    start = len(CSV_HEADER) + 1
    if not text.startswith(CSV_HEADER + "\n"):
        return None
    raw = text.encode("utf-8", "surrogatepass")
    body = np.frombuffer(raw, np.uint8)[start:]
    seps = np.flatnonzero((body == 10) | (body == 44))
    n = len(seps) // 6
    if (len(seps) != 6 * n or (seps[-1] + 1 if n else 0) != len(body)
            or not (body[seps].reshape(n, 6) == _LINE_SEPARATORS).all()):
        return None
    line_starts = np.concatenate(([0], seps[5::6] + 1))[:n]
    heads = body.take(line_starts[:, None] + np.arange(11), mode="clip")
    if not (heads - _DATE_FORM < _DATE_SPAN).all():
        return None
    fields = text[start:].replace("\n", ",").split(",")
    try:
        days = np.array(fields[0:-1:6], dtype="datetime64[D]")
        prices = [np.array(fields[k:-1:6], dtype=np.float64)
                  for k in range(1, 5)]
        volume = np.array(fields[5:-1:6], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    # NumPy reads year 0, which date.fromisoformat rejects
    if not ((days >= np.datetime64("0001-01-01")).all()
            and _valid_price(np.stack(prices)).all()):
        return None
    return OhlcvSeries(ticker, days, *prices, volume)


def _csv_rows(text: str, ticker: str) -> OhlcvSeries:
    """``parse_ohlcv_csv`` one line at a time: the reference for every
    accepted value and every error message."""
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
            day = date.fromisoformat(parts[0]).toordinal()
            o, h, l, c = (float(p) for p in parts[1:5])
            vol = int(parts[5])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if not (_valid_price(o) and _valid_price(h) and _valid_price(l)
                and _valid_price(c)):
            raise ValidationError(f"line {lineno}: non-finite or nonpositive "
                                  f"price")
        rows.append((day, o, h, l, c, vol))
    return _series_from_rows(ticker, rows)


def serialize_ohlcv_csv(series: OhlcvSeries) -> str:
    rows = zip(np.datetime_as_string(series.days).tolist(),
               *(getattr(series, name).tolist() for name in PRICE_COLUMNS),
               series.volume.tolist())
    return "\n".join([CSV_HEADER, *(f"{d},{o!r},{h!r},{l!r},{c!r},{v}"
                                     for d, o, h, l, c, v in rows)]) + "\n"


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
    tolerated and sorted; duplicate days are an error. Raises
    ``FormatError`` for a malformed document, ``EmptyDataError`` when no
    row survives and ``ValidationError`` when rows break series invariants.
    ``_chart_rows``, the per-row reference, takes what ``_chart_columns``,
    which converts whole columns, does not.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{ticker}: invalid JSON: {exc.msg}",
                              offset=exc.pos) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{ticker}: payload is not UTF-8 text: "
                              f"{exc.reason}", offset=exc.start) from exc
    try:
        result = payload["chart"]["result"][0]
        timestamps = result["timestamp"]
        quote = result["indicators"]["quote"][0]
    except (KeyError, IndexError, TypeError) as exc:
        raise FormatError(f"{ticker}: chart JSON missing {exc}") from exc
    if not isinstance(timestamps, list):
        raise FormatError(f"{ticker}: 'timestamp' is not a list")
    if not isinstance(quote, dict):
        raise FormatError(f"{ticker}: 'quote' is not an object")
    if not timestamps:
        raise EmptyDataError(f"{ticker}: no data points in response")
    result = _chart_columns(timestamps, quote, ticker)
    return _chart_rows(timestamps, quote, ticker) if result is None else result


# the timestamps that datetime.fromtimestamp maps to years 1 to 9999
_TIMESTAMP_RANGE = (-62135596800, 253402300799)


def _chart_columns(timestamps: list, quote: dict,
                   ticker: str) -> Optional[FetchResult]:
    """The result for int timestamps of years 1 to 9999 and five quote lists
    of numbers and nulls (no NaN) that keep a row, with one NumPy call a
    column; None for any other document or a value NumPy cannot convert."""
    n = len(timestamps)
    columns = [quote.get(key) for key in (*PRICE_COLUMNS, "volume")]
    if not all(isinstance(column, list) for column in columns):
        return None
    lo, hi = _TIMESTAMP_RANGE
    try:
        stamps = np.array(timestamps)
        values = np.array(columns, dtype=np.float64)    # null reads as NaN
        if (stamps.dtype != np.int64 or stamps.shape != (n,)
                or values.shape != (5, n)
                or not ((stamps >= lo) & (stamps <= hi)).all()):
            return None
        missing = np.isnan(values)
        # loops over the NaN entries alone: each must be a null, not a NaN
        if any(columns[k][i] is not None
               for k, i in np.argwhere(missing).tolist()):
            return None
        volume = columns[4].copy()
        for i in np.flatnonzero(missing[4]).tolist():
            volume[i] = 0
        volume = np.array(volume, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    kept = np.flatnonzero(~missing.any(axis=0))
    if not len(kept):
        return None
    days = stamps[kept] // 86400
    order = np.argsort(days, kind="stable")
    kept = kept[order]
    series = OhlcvSeries(ticker, days[order].astype("datetime64[D]"),
                         *values[:4, kept], volume[kept])
    return FetchResult(series, n - len(kept))


def _chart_rows(timestamps: list, quote: dict, ticker: str) -> FetchResult:
    """``parse_chart_json`` one row at a time: the reference for every
    accepted value and every error message."""
    n = len(timestamps)
    columns = []
    for key in ("open", "high", "low", "close", "volume"):
        column = quote.get(key, [None] * n)    # a missing column drops every row
        if not isinstance(column, list) or len(column) != n:
            raise FormatError(f"{ticker}: quote '{key}' is not a list of {n} "
                              f"values")
        cast = int if key == "volume" else float
        try:
            columns.append([None if v is None else cast(v) for v in column])
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{ticker}: quote '{key}' holds a non-numeric "
                              f"value ({exc})") from exc
    rows = []
    dropped = 0
    for ts, *fields in zip(timestamps, *columns):
        if any(v is None for v in fields):
            dropped += 1
            continue
        try:
            day = datetime.fromtimestamp(ts, tz=timezone.utc).date()
        except (TypeError, ValueError, OverflowError, OSError) as exc:
            raise FormatError(f"{ticker}: 'timestamp' value {ts!r} is not a "
                              f"valid time ({exc})") from exc
        rows.append((day.toordinal(), *fields))
    if not rows:
        raise EmptyDataError(f"{ticker}: all rows dropped")
    rows.sort(key=lambda r: r[0])
    return FetchResult(_series_from_rows(ticker, rows), dropped)


def fetch_ohlcv(ticker: str, start: date, end: date, endpoint: str,
                fixtures_dir=None) -> FetchResult:
    """Fetch daily candles for [start, end] from a chart-API endpoint.

    Makes up to ``FETCH_ATTEMPTS`` requests, sleeping 0.5 s and then 1 s
    between them, and raises ``FetchError`` right after the last one fails.
    With ``fixtures_dir`` set, reads ``<fixtures_dir>/<ticker>.json`` instead
    of touching the network.
    """
    if start >= end:
        raise ValidationError(f"{ticker}: start {start} not before end {end}")
    if fixtures_dir is not None:
        path = Path(fixtures_dir) / f"{ticker}.json"
        if not path.exists():
            raise FetchError(f"{ticker}: no fixture at {path}")
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise FetchError(f"{ticker}: cannot read {path}: {exc}") from exc
        result = parse_chart_json(payload, ticker)
    else:
        import requests

        # period2 is exclusive: 00:00 UTC on the day after ``end`` asks for
        # every bar stamped on ``end`` too
        stop = end + timedelta(days=1)
        params = {
            "period1": int(datetime(start.year, start.month, start.day,
                                    tzinfo=timezone.utc).timestamp()),
            "period2": int(datetime(stop.year, stop.month, stop.day,
                                    tzinfo=timezone.utc).timestamp()),
            "interval": "1d",
        }
        url = f"{endpoint.rstrip('/')}/{ticker}"
        last_exc = None
        for attempt in range(FETCH_ATTEMPTS):
            if attempt:
                time.sleep(FETCH_BACKOFF_S * 2 ** (attempt - 1))
            try:
                resp = requests.get(url, params=params, timeout=30)
                resp.raise_for_status()
                result = parse_chart_json(resp.content, ticker)
                break
            except (requests.RequestException, OSError) as exc:
                last_exc = exc
        else:
            raise FetchError(f"{ticker}: fetch failed after {FETCH_ATTEMPTS} "
                             f"attempts: {last_exc}") from last_exc
    days = result.series.days
    kept = result.series.take((days >= np.datetime64(start))
                              & (days <= np.datetime64(end)))
    if not len(kept):
        raise EmptyDataError(f"{ticker}: no rows inside [{start}, {end}]")
    return FetchResult(kept, result.dropped_rows)


# ---------------------------------------------------------------------------
# volatility target
# ---------------------------------------------------------------------------

def compute_log_returns(closes) -> np.ndarray:
    """r_t = ln(P_t / P_{t-1}); output is one shorter than the input."""
    closes = np.asarray(closes, dtype=np.float64)
    if closes.size < 2:
        raise LengthError(f"need at least 2 prices, got {closes.size}")
    if not np.all(_valid_price(closes)):
        raise ValidationError("log returns require finite, strictly positive "
                              "prices")
    return np.diff(np.log(closes))


def rolling_volatility(returns) -> np.ndarray:
    """Annualized trailing 21-day sample standard deviation of returns.

    Uses divisor n-1 (sample std, the realized-volatility convention) and
    sqrt(252) annualization. Output length is len(returns) - 20.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.size < DEFAULT_VOL_WINDOW:
        raise LengthError(f"need >= {DEFAULT_VOL_WINDOW} returns, got "
                          f"{returns.size}")
    windows = np.lib.stride_tricks.sliding_window_view(returns,
                                                       DEFAULT_VOL_WINDOW)
    sigma = math.sqrt(TRADING_DAYS_PER_YEAR) * windows.std(axis=-1, ddof=1)
    # identical values must give exactly zero despite float cancellation
    sigma[np.ptp(windows, axis=-1) == 0] = 0.0
    return sigma


def feature_matrix(series: OhlcvSeries, covariates: bool = False
                   ) -> tuple[np.ndarray, list[date]]:
    """Model input channels aligned on volatility dates.

    Channel 0 is always the 21-day annualized volatility (the forecast
    target). With ``covariates`` the daily log return and log-volume join
    as extra channels.
    """
    returns = compute_log_returns(series.close)
    cols = [rolling_volatility(returns)]
    if covariates:
        cols.append(returns[DEFAULT_VOL_WINDOW - 1:])
        cols.append(np.log1p(series.volume[DEFAULT_VOL_WINDOW:]))
    return (np.stack(cols, axis=-1),
            series.days[DEFAULT_VOL_WINDOW:].tolist())


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
                 dates: Optional[list[date]] = None) -> WindowedDataset:
    """Slide a (lookback, horizon) window over a (T, C) value matrix.

    Sample i pairs x = values[i : i+P] with y = values[i+P : i+P+F, 0], for
    every start i = 0 .. T-P-F; a 1-D series is one channel.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    total = values.shape[0]
    if total < lookback + horizon:
        raise LengthError(f"series length {total} < lookback {lookback} + "
                          f"horizon {horizon}")
    spans = np.lib.stride_tricks.sliding_window_view(
        values, lookback + horizon, axis=0)               # (N, C, P + F)
    x = spans[:, :, :lookback].transpose(0, 2, 1).copy()
    y = spans[:, 0, lookback:].copy()
    return WindowedDataset(x=x, y=y, lookback=lookback, horizon=horizon,
                           dates=list(dates) if dates else [])


def split_chronological(dataset: WindowedDataset) -> WindowedDataset:
    """Assign chronological train/val/test ranges over the sample axis.

    The last ceil(0.2 * N) samples form the test set; validation is sized to
    10% of the training set. lookback + horizon - 1 samples, the smallest
    leak-proof spacing, are discarded between consecutive splits, so that no
    earlier split's target overlaps a later split's lookback.
    """
    n = len(dataset)
    gap = dataset.lookback + dataset.horizon - 1
    n_test = math.ceil(0.2 * n)
    avail = n - n_test - 2 * gap
    n_val = round(avail / 11) if avail > 0 else 0
    n_train = avail - n_val
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise SplitError(f"{n} samples cannot support train/val/test with "
                         f"gap={gap} (train={n_train}, val={n_val}, "
                         f"test={n_test})")
    dataset.train_range = (0, n_train)
    dataset.val_range = (n_train + gap, n_train + gap + n_val)
    dataset.test_range = (n - n_test, n)
    return dataset
