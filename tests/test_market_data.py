import json
import math
from datetime import date

import numpy as np
import pytest

from conftest import FIXTURES
from volmixer import market_data as md
from volmixer.market_data import (EmptyDataError, FormatError, LengthError,
                                  OhlcvRow, OhlcvSeries, SplitError,
                                  ValidationError)


def series_of(closes, start_ordinal=738000):
    rows = [OhlcvRow(date.fromordinal(start_ordinal + i), c, c * 1.01,
                     c * 0.99, c, 1000 + i)
            for i, c in enumerate(closes)]
    return OhlcvSeries(ticker="TEST", rows=rows)


class TestCsv:
    def test_two_lines(self):
        text = ("Date,Open,High,Low,Close,Volume\n"
                "2020-01-02,10,11,9,10.5,100\n"
                "2020-01-03,10.5,12,10,11,200\n")
        series = md.parse_ohlcv_csv(text, "X")
        assert len(series) == 2
        assert series.rows[1].close == 11

    def test_zero_close_rejected_with_line(self):
        text = ("Date,Open,High,Low,Close,Volume\n"
                "2020-01-02,10,11,9,0,100\n")
        with pytest.raises(ValidationError, match="line 2"):
            md.parse_ohlcv_csv(text)

    def test_wrong_header(self):
        with pytest.raises(FormatError):
            md.parse_ohlcv_csv("Open,Date,High,Low,Close,Volume\n")

    def test_round_trip_identity(self, rng):
        closes = np.exp(rng.normal(0, 0.5, 50)) * 100
        original = series_of(closes)
        parsed = md.parse_ohlcv_csv(md.serialize_ohlcv_csv(original), "TEST")
        assert parsed == original

    def test_unsorted_dates_rejected(self):
        rows = [OhlcvRow(date(2020, 1, 3), 1, 1, 1, 1, 0),
                OhlcvRow(date(2020, 1, 2), 1, 1, 1, 1, 0)]
        with pytest.raises(ValidationError):
            OhlcvSeries("X", rows)


def chart_payload(days, quote):
    ts = [int(date.fromisoformat(d).toordinal() - date(1970, 1, 1).toordinal())
          * 86400 + 50000 for d in days]
    return {"chart": {"result": [{"timestamp": ts,
                                  "indicators": {"quote": [quote]}}],
                      "error": None}}


class TestChartParsing:
    def test_missing_field_row_dropped(self):
        payload = chart_payload(
            ["2020-01-02", "2020-01-03"],
            {"open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
             "close": [1.5, 1.5], "volume": [10, None]})
        result = md.parse_chart_json(json.dumps(payload), "X")
        assert result.dropped_rows == 1
        assert len(result.series) == 1

    def test_shuffled_dates_sorted(self):
        payload = chart_payload(
            ["2020-01-06", "2020-01-02", "2020-01-03"],
            {"open": [1, 1, 1], "high": [2, 2, 2], "low": [0.5] * 3,
             "close": [1.5, 1.6, 1.7], "volume": [1, 2, 3]})
        result = md.parse_chart_json(json.dumps(payload), "X")
        days = result.series.dates
        assert days == sorted(days)

    def test_invalid_json_reports_offset(self):
        with pytest.raises(FormatError, match="byte offset"):
            md.parse_chart_json('{"chart": nope}', "X")

    def test_empty_result(self):
        payload = chart_payload([], {"open": [], "high": [], "low": [],
                                     "close": [], "volume": []})
        with pytest.raises(EmptyDataError):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_missing_column_drops_every_row(self):
        payload = chart_payload(["2020-01-02"], {"open": [1], "high": [2],
                                                 "low": [0.5], "close": [1.5]})
        with pytest.raises(EmptyDataError):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_short_column_rejected(self):
        payload = chart_payload(
            ["2020-01-02", "2020-01-03"],
            {"open": [1, 1], "high": [2, 2], "low": [0.5, 0.5],
             "close": [1.5], "volume": [10, 10]})
        with pytest.raises(FormatError, match="close"):
            md.parse_chart_json(json.dumps(payload), "X")

    def test_non_list_column_rejected(self):
        payload = chart_payload(
            ["2020-01-02"], {"open": [1], "high": 2, "low": [0.5],
                             "close": [1.5], "volume": [10]})
        with pytest.raises(FormatError, match="high"):
            md.parse_chart_json(json.dumps(payload), "X")


class TestFetch:
    def test_fixture_fetch_aapl_span(self, tmp_path):
        # chart fixture derived from the committed AAPL CSV
        series = md.parse_ohlcv_csv(
            open(f"{FIXTURES}/AAPL_2010_2023.csv").read(), "AAPL")
        payload = chart_payload(
            [r.day.isoformat() for r in series.rows],
            {"open": [r.open for r in series.rows],
             "high": [r.high for r in series.rows],
             "low": [r.low for r in series.rows],
             "close": [r.close for r in series.rows],
             "volume": [r.volume for r in series.rows]})
        (tmp_path / "AAPL.json").write_text(json.dumps(payload))
        result = md.fetch_ohlcv("AAPL", date(2010, 1, 1), date(2023, 12, 31),
                                endpoint="unused", fixtures_dir=tmp_path)
        assert result.series.rows[0].day >= date(2010, 1, 1)
        assert result.series.rows[-1].day <= date(2023, 12, 31)
        assert len(result.series) == len(series)

    def test_missing_fixture_is_fetch_error(self, tmp_path):
        with pytest.raises(md.FetchError):
            md.fetch_ohlcv("NOPE", date(2020, 1, 1), date(2020, 2, 1),
                           endpoint="unused", fixtures_dir=tmp_path)

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            md.fetch_ohlcv("X", date(2021, 1, 1), date(2020, 1, 1), "unused")


class TestLogReturns:
    def test_constant_prices(self):
        assert md.compute_log_returns([100, 100, 100]).tolist() == [0.0, 0.0]

    def test_direct_values(self):
        assert math.isclose(md.compute_log_returns([100, 110])[0],
                            math.log(1.1), abs_tol=1e-12)
        assert math.isclose(md.compute_log_returns([100, 50])[0],
                            -math.log(2), abs_tol=1e-12)

    def test_nonpositive_price(self):
        with pytest.raises(ValidationError):
            md.compute_log_returns([100, -1])

    def test_exp_cumsum_reconstructs_prices(self, rng):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 200)))
        returns = md.compute_log_returns(prices)
        rebuilt = prices[0] * np.exp(np.cumsum(returns))
        assert np.max(np.abs(rebuilt - prices[1:])) < 1e-9


class TestRollingVolatility:
    def test_zero_returns(self):
        sigma = md.rolling_volatility(np.zeros(40), window=21)
        assert np.all(sigma == 0.0)
        assert sigma.size == 20

    def test_two_point_derived_value(self):
        # sqrt(252) * sample std of [0.01, 0.03]
        sigma = md.rolling_volatility([0.01, 0.03], window=2)
        expected = math.sqrt(252) * np.std([0.01, 0.03], ddof=1)
        assert math.isclose(sigma[0], expected, rel_tol=1e-12)
        assert math.isclose(sigma[0], 0.224499, abs_tol=5e-7)

    def test_constant_returns(self):
        sigma = md.rolling_volatility([0.02] * 21, window=21)
        assert sigma.tolist() == [0.0]

    def test_constant_prices_give_zero_sigma(self):
        series = series_of([50.0] * 40)
        vol = md.volatility_series(series)
        assert np.all(vol.sigma == 0.0)

    def test_brute_force_oracle(self, rng):
        returns = rng.normal(0, 0.02, 1000)
        sigma = md.rolling_volatility(returns, window=21)
        for i in range(0, sigma.size, 37):
            window = returns[i:i + 21]
            mu = sum(window) / 21
            var = sum((r - mu) ** 2 for r in window) / 20
            assert abs(sigma[i] - math.sqrt(252 * var)) < 1e-12

    def test_length_contract(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 100)) * 10)
        vol = md.volatility_series(series, window=21)
        assert vol.sigma.size == len(series) - 1 - 20
        with pytest.raises(LengthError):
            md.rolling_volatility(np.zeros(5), window=21)


class TestMakeWindows:
    def test_index_arithmetic(self, rng):
        values = np.arange(10.0)
        ds = md.make_windows(values, lookback=4, horizon=2)
        assert len(ds) == 5
        assert ds.x[0, :, 0].tolist() == [0, 1, 2, 3]
        assert ds.y[0].tolist() == [4, 5]

    def test_exact_boundary(self):
        ds = md.make_windows(np.arange(6.0), lookback=4, horizon=2)
        assert len(ds) == 1
        assert ds.x.flags.writeable and ds.y.flags.writeable

    def test_too_short(self):
        with pytest.raises(LengthError):
            md.make_windows(np.arange(5.0), lookback=4, horizon=2)

    def test_stride(self):
        ds = md.make_windows(np.arange(20.0), lookback=4, horizon=2, stride=3)
        assert len(ds) == math.floor((20 - 4 - 2) / 3) + 1

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_matches_list_stack_reference(self, rng, stride, channels):
        values = rng.normal(size=(23, channels))
        ds = md.make_windows(values, lookback=5, horizon=3, stride=stride)
        starts = range(0, 23 - 5 - 3 + 1, stride)
        x = np.stack([values[i:i + 5] for i in starts])
        y = np.stack([values[i + 5:i + 8, 0] for i in starts])
        for got, expected in ((ds.x, x), (ds.y, y)):
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestSplit:
    def test_contiguous_arithmetic(self):
        ds = md.make_windows(np.arange(125.0), lookback=4, horizon=2)
        assert len(ds) == 120
        md.split_chronological(ds, test_fraction=0.2, gap=0)
        assert ds.test_range == (96, 120)
        assert ds.val_range == (87, 96)
        assert ds.train_range == (0, 87)

    def test_val_is_ten_percent_of_train(self, rng):
        for n_extra in (0, 37, 111, 400):
            ds = md.make_windows(np.arange(300.0 + n_extra), lookback=8,
                                 horizon=4)
            md.split_chronological(ds, test_fraction=0.2)
            n_train = ds.train_range[1] - ds.train_range[0]
            n_val = ds.val_range[1] - ds.val_range[0]
            assert abs(n_val - round(0.1 * n_train)) <= 1

    def test_chronological_ordering(self):
        ds = md.make_windows(np.arange(300.0), lookback=8, horizon=4)
        md.split_chronological(ds)
        assert ds.train_range[1] <= ds.val_range[0]
        assert ds.val_range[1] <= ds.test_range[0]

    def test_no_leakage_with_default_gap(self):
        ds = md.make_windows(np.arange(400.0), lookback=8, horizon=4)
        md.split_chronological(ds)
        # every val/test lookback starts after every train target index
        max_train_target = (ds.train_range[1] - 1) + ds.lookback + ds.horizon - 1
        assert ds.val_range[0] > max_train_target
        max_val_target = (ds.val_range[1] - 1) + ds.lookback + ds.horizon - 1
        assert ds.test_range[0] > max_val_target

    def test_degenerate_split_rejected(self):
        ds = md.make_windows(np.arange(9.0), lookback=4, horizon=2)
        with pytest.raises(SplitError):
            md.split_chronological(ds, test_fraction=0.2)


class TestFeatureMatrix:
    def test_univariate_default(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 80)) * 10)
        values, dates = md.feature_matrix(series)
        assert values.shape == (80 - 21, 1)
        assert len(dates) == values.shape[0]

    def test_covariate_channels(self, rng):
        series = series_of(np.exp(rng.normal(0, 0.01, 80)) * 10)
        values, _ = md.feature_matrix(series, covariates=True)
        assert values.shape == (80 - 21, 3)
        returns = md.compute_log_returns(series.closes)
        assert np.allclose(values[:, 1], returns[20:])


class TestRoster:
    def test_from_json(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([
            {"ticker": "AAPL", "start": "2010-01-01", "end": "2023-12-31",
             "display_name": "Apple Inc.", "asset_class": "stock"},
            {"ticker": "BTCUSD", "start": "2014-01-01", "end": "2023-12-31",
             "asset_class": "crypto"},
        ]))
        roster = md.AssetRoster.from_json(path)
        assert [e.ticker for e in roster.entries] == ["AAPL", "BTCUSD"]

    def test_duplicate_tickers_rejected(self):
        entry = md.RosterEntry("A", date(2020, 1, 1), date(2021, 1, 1), "A", "stock")
        with pytest.raises(ValidationError):
            md.AssetRoster([entry, entry])

    def test_inverted_range_rejected(self):
        entry = md.RosterEntry("A", date(2021, 1, 1), date(2020, 1, 1), "A", "stock")
        with pytest.raises(ValidationError):
            md.AssetRoster([entry])
