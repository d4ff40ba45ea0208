"""From raw OHLCV bars to a windowed, leakage-free forecasting dataset.

Reads the bundled daily price fixture, derives annualized realized volatility
from log returns, and shows how the chronological split keeps the train, val,
and test segments disjoint in time.
"""

from pathlib import Path

from volmixer import market_data as md

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
    / "AAPL_2010_2023.csv"

series = md.parse_ohlcv_csv(FIXTURE.read_text(), "AAPL")
print(f"{series.ticker}: {len(series)} daily bars, "
      f"{series.days[0]} .. {series.days[-1]}")

values, dates = md.feature_matrix(series)
sigma = values[:, 0]    # channel 0, the forecast target
print(f"volatility series: {sigma.size} points, "
      f"min {sigma.min():.3f}, mean {sigma.mean():.3f}, "
      f"max {sigma.max():.3f} (annualized, 21-day window)")
lookback, horizon = 64, 12
ds = md.split_chronological(md.make_windows(values, lookback, horizon))
for name, (lo, hi) in [("train", ds.train_range), ("val", ds.val_range),
                       ("test", ds.test_range)]:
    print(f"{name:5s}: windows [{lo}, {hi}) -> {hi - lo} samples")

last_train_target = ds.train_range[1] - 1 + lookback + horizon - 1
print(f"last time index any train target touches: {last_train_target}")
print(f"first time index any val input touches:  {ds.val_range[0]}")
print("no shared time points between splits" if
      ds.val_range[0] > last_train_target else "LEAKAGE")
