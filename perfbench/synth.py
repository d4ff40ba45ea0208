"""Seeded synthetic inputs for the ``sweep`` workload.

Each ticker gets a chart-API JSON document (the format ``volmixer fetch
--fixtures`` reads) with GARCH(1,1)-like daily returns, so realized
volatility clusters the way real equities' does. History lengths are fixed
per ticker and span a few years to about thirty, so row counts vary across
tickers but not across seeds: only prices and innovations depend on the
seed, which keeps the amount of work per run constant.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

END = date(2023, 12, 29)
# (ticker, years of history, GARCH alpha, GARCH beta)
TICKERS = (
    ("SYNA", 3, 0.08, 0.90),
    ("SYNB", 6, 0.05, 0.93),
    ("SYNC", 12, 0.10, 0.85),
    ("SYND", 20, 0.06, 0.92),
    ("SYNE", 30, 0.07, 0.91),
)
# every DROP_EVERY-th day has a missing field, so the dropped-row path runs
DROP_EVERY = 997
_OPEN_UTC_SECONDS = 14 * 3600 + 30 * 60


def business_days_back(end: date, n: int) -> list[date]:
    days, d = [], end
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d -= timedelta(days=1)
    return days[::-1]


def garch_returns(rng: np.random.Generator, n: int, alpha: float,
                  beta: float, annual_vol: float = 0.3) -> np.ndarray:
    """Daily log returns whose variance follows a GARCH(1,1) recursion."""
    long_var = annual_vol ** 2 / 252
    omega = long_var * (1.0 - alpha - beta)
    z = rng.standard_normal(n)
    r = np.empty(n)
    var = long_var
    for t in range(n):
        r[t] = 0.0002 + np.sqrt(var) * z[t]
        var = omega + alpha * r[t] ** 2 + beta * var
    return r


def chart_json(rng: np.random.Generator, days: list[date], alpha: float,
               beta: float) -> dict:
    n = len(days)
    returns = garch_returns(rng, n, alpha, beta)
    close = rng.uniform(20, 200) * np.exp(np.cumsum(returns))
    prev = np.concatenate([[close[0]], close[:-1]])
    daily = np.abs(returns) + 0.002
    open_ = prev * np.exp(0.2 * daily * rng.standard_normal(n))
    spread = np.abs(rng.standard_normal(n)) * daily
    high = np.maximum(open_, close) * np.exp(spread)
    low = np.minimum(open_, close) * np.exp(-spread)
    volume = (1e6 * np.exp(0.4 * rng.standard_normal(n))).astype(int)
    quote = {"open": open_.tolist(), "high": high.tolist(),
             "low": low.tolist(), "close": close.tolist(),
             "volume": volume.tolist()}
    for i in range(DROP_EVERY - 1, n, DROP_EVERY):
        quote["volume"][i] = None
    stamps = [(d - date(1970, 1, 1)).days * 86400 + _OPEN_UTC_SECONDS
              for d in days]
    return {"chart": {"result": [{"timestamp": stamps,
                                  "indicators": {"quote": [quote]}}],
                      "error": None}}


def write_inputs(seed: int, fixtures_dir: Path, roster_path: Path,
                 tickers=TICKERS) -> int:
    """Write one ``<TICKER>.json`` per ticker plus the roster.

    Returns the number of OHLCV rows the documents hold after dropped days.
    """
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    entries, rows = [], 0
    for i, (ticker, years, alpha, beta) in enumerate(tickers):
        rng = np.random.default_rng([seed, i])
        days = business_days_back(END, 252 * years)
        payload = chart_json(rng, days, alpha, beta)
        (fixtures_dir / f"{ticker}.json").write_text(json.dumps(payload))
        entries.append({"ticker": ticker, "start": days[0].isoformat(),
                        "end": days[-1].isoformat(), "display_name": ticker,
                        "asset_class": "stock"})
        rows += len(days) - len(days) // DROP_EVERY
    roster_path.write_text(json.dumps(entries))
    return rows
