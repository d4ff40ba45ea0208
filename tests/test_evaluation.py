import math
from datetime import date, timedelta

import numpy as np
import pytest

from volmixer import evaluation as ev
from volmixer.market_data import make_windows, split_chronological
from volmixer.model import ModelConfig, TimeMixerModel


class TestMetrics:
    def test_zero_on_identical(self, rng):
        x = rng.normal(size=(4, 3))
        assert ev.mae(x, x) == 0.0
        assert ev.mse(x, x) == 0.0
        assert ev.rmse(x, x) == 0.0

    def test_direct_values(self):
        assert ev.mae([[1.0, 2.0]], [[0.0, 0.0]]) == 1.5
        assert ev.mse([[1.0, 1.0]], [[0.0, 0.0]]) == 1.0
        assert ev.rmse([[1.0, 1.0]], [[0.0, 0.0]]) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ev.EvaluationError):
            ev.mae(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(100))
    def test_brute_force_oracles(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(10, 5))
        target = rng.normal(size=(10, 5))
        abs_total, sq_total = 0.0, 0.0
        for i in range(10):
            for j in range(5):
                abs_total += abs(pred[i, j] - target[i, j])
                sq_total += (pred[i, j] - target[i, j]) ** 2
        assert abs(ev.mae(pred, target) - abs_total / 50) < 1e-12
        assert abs(ev.mse(pred, target) - sq_total / 50) < 1e-12
        assert abs(ev.rmse(pred, target) ** 2 - ev.mse(pred, target)) < 1e-12

    def test_permutation_invariance(self, rng):
        pred = rng.normal(size=(20, 4))
        target = rng.normal(size=(20, 4))
        perm = rng.permutation(20)
        assert ev.mae(pred, target) == pytest.approx(
            ev.mae(pred[perm], target[perm]), abs=1e-15)
        assert ev.mse(pred, target) == pytest.approx(
            ev.mse(pred[perm], target[perm]), abs=1e-15)


class TestMetricsRecord:
    def test_rmse_consistency_enforced(self):
        with pytest.raises(ev.EvaluationError):
            ev.MetricsRecord("X", 12, mae=0.1, mse=0.04, rmse=0.3, n_samples=5)

    def test_negative_metric_rejected(self):
        with pytest.raises(ev.EvaluationError):
            ev.MetricsRecord("X", 12, mae=-0.1, mse=0.04, rmse=0.2, n_samples=5)


class TestBaselines:
    def test_persistence_repeats_last_value(self):
        out = ev.baseline_persistence(np.array([[[0.1], [0.2], [0.3]]]),
                                      horizon=3)
        assert out.tolist() == [[0.3, 0.3, 0.3]]

    def test_persistence_zero_error_on_constant(self):
        x = np.full((4, 8, 1), 0.5)
        pred = ev.baseline_persistence(x, horizon=6)
        target = np.full((4, 6), 0.5)
        assert ev.mae(pred, target) == 0.0

    def test_persistence_error_grows_linearly_on_ramp(self):
        lookback = np.arange(10.0).reshape(1, 10, 1)
        errors = []
        for horizon in (1, 2, 4):
            pred = ev.baseline_persistence(lookback, horizon)
            target = np.arange(10.0, 10.0 + horizon)[None]
            errors.append(ev.mae(pred, target))
        # ramp of slope 1: MAE = (F + 1) / 2
        assert errors == [1.0, 1.5, 2.5]

    def test_window_mean(self):
        # the last 21 of 30 steps, 9 .. 29: mean 19
        x = np.arange(30.0).reshape(1, 30, 1)
        out = ev.baseline_window_mean(x, horizon=2)
        assert out.tolist() == [[19.0, 19.0]]


class TestReports:
    def records(self):
        def rec(ticker, horizon, m):
            return ev.MetricsRecord(ticker, horizon, mae=m, mse=m * m,
                                    rmse=m, n_samples=7)
        return [rec("AAPL", 12, 0.01), rec("AAPL", 96, 0.04),
                rec("SPY", 12, 0.02), rec("SPY", 96, 0.03)]

    def test_csv_single_record_header(self):
        text = ev.records_to_csv(self.records()[:1])
        lines = text.strip().split("\n")
        assert lines[0] == "ticker,horizon,mae,mse,rmse,n_samples"
        assert len(lines) == 2

    def test_csv_round_trip_byte_identical(self):
        text = ev.records_to_csv(self.records())
        back = ev.records_from_csv(text)
        assert ev.records_to_csv(back) == text

    @pytest.mark.parametrize("record, message", [
        ("AAPL,12,0.01,0.0001", r"line 5: not enough values to unpack"),
        ("AAPL,12,x,0.0001,0.01,7", "line 5: could not convert string to "
                                    "float: 'x'"),
        ("AAPL,12,0.01,0.0001,0.01,7.5", "line 5: invalid literal for int"),
        ("AAPL,12,0.01,0.0001,0.5,7", r"line 5: rmse 0.5 != sqrt"),
        ("AAPL,-3,0.1,0.01,0.1,-7", "line 5: horizon -3 and n_samples -7 "
                                    "must be >= 1"),
        ("AAPL,0,0.1,0.01,0.1,0", "line 5: horizon 0 and n_samples 0"),
        ("AAPL,12,nan,0.01,0.1,5", "line 5: metrics must be finite"),
        ("AAPL,12,inf,0.01,0.1,5", "line 5: metrics must be finite"),
    ], ids=["short", "non_numeric", "fractional_count", "inconsistent",
            "negative_counts", "zero_counts", "nan_metric", "inf_metric"])
    def test_malformed_csv_record_names_its_line(self, record, message):
        # a blank line before the header still counts
        text = "\n" + ev.records_to_csv(self.records()[:2]) + record + "\n"
        with pytest.raises(ev.EvaluationError, match=message):
            ev.records_from_csv(text)

    def test_markdown_layout(self):
        md = ev.records_to_markdown(self.records())
        lines = md.strip().split("\n")
        assert lines[0] == "| Horizon | Metric | AAPL | SPY |"
        # 2 horizon blocks x 3 metrics + header + rule
        assert len(lines) == 2 + 2 * 3

    def test_markdown_rejects_a_repeated_pair(self):
        # the table has one cell per (ticker, horizon), so a second record
        # for a pair would replace the first without a trace
        records = self.records()
        again = ev.MetricsRecord("SPY", 12, mae=0.5, mse=0.25, rmse=0.5,
                                 n_samples=7)
        with pytest.raises(ev.EvaluationError, match="repeated record for "
                                                     "ticker 'SPY' at horizon "
                                                     "12"):
            ev.records_to_markdown(records + [again])

    def test_empty_records_rejected(self):
        with pytest.raises(ev.EvaluationError):
            ev.records_to_csv([])

    def test_svg_plot(self, tmp_path):
        svg = ev.forecast_plot_svg(["2020-01-01", "2020-02-01"],
                                   np.array([0.1, 0.2, 0.3]),
                                   np.array([0.12, 0.18, 0.31]),
                                   title="demo")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "2020-01-01" in svg

    def test_emit_report_writes_all_artifacts(self, tmp_path):
        paths = ev.emit_report(self.records(), tmp_path)
        assert paths["csv"].read_text() == ev.records_to_csv(self.records())
        assert paths["markdown"].read_text() \
            == ev.records_to_markdown(self.records())
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["metrics.csv", "report.md"]


class TestEvaluateAsset:
    def make_pair(self, horizon, seed=0):
        rng = np.random.default_rng(seed)
        sig = 0.2 + 0.05 * np.sin(np.arange(300) / 10) \
            + 0.01 * rng.normal(size=300)
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(300)]
        ds = split_chronological(make_windows(sig, 16, horizon, dates=days))
        model = TimeMixerModel(ModelConfig(lookback=16, horizon=horizon,
                                           d_model=4, num_blocks=1,
                                           num_scales=1, decomp_kernel=5,
                                           ff_hidden=4, seed=seed))
        return model, ds

    def test_one_record_per_horizon(self):
        for horizon in (4, 8):
            model, ds = self.make_pair(horizon)
            records, _ = ev.score_pair(model, ds, "TEST")
            assert [r.ticker for r in records] == \
                ["TEST", "TEST:persistence", "TEST:window_mean"]
            assert all(r.horizon == horizon for r in records)
            assert all(r.n_samples == len(ds.test[0]) for r in records)

    def test_deterministic(self):
        model, ds = self.make_pair(4)
        a, plot_a = ev.score_pair(model, ds, "T")
        b, plot_b = ev.score_pair(model, ds, "T")
        assert a == b
        assert plot_a[3] == plot_b[3]
        np.testing.assert_array_equal(plot_a[2], plot_b[2])

    def test_plot_is_first_test_window(self):
        model, ds = self.make_pair(4)
        first = ds.test_range[0] + 16
        _, (dates, actual, predicted, title) = ev.score_pair(model, ds, "T")
        assert dates == [str(d) for d in ds.dates[first:first + 4]]
        assert len(dates) == 4
        np.testing.assert_array_equal(actual, ds.test[1][0])
        np.testing.assert_array_equal(predicted,
                                      ev.predict_test(model, ds)[0])
        assert title == "T F=4 (first test window)"
