"""Acceptance suite: one test per criterion, each printing a pass line."""

import json
import math
import time

import numpy as np

from conftest import FIXTURES, finite_diff_check, leaf
from volmixer import autodiff as ad
from volmixer import cli
from volmixer import evaluation as ev
from volmixer import market_data as md
from volmixer.autodiff import Tensor
from volmixer.model import ModelConfig, TimeMixerModel, instance_normalize
from volmixer.multiscale import build_multiscale, series_decomp
from volmixer.training import TrainConfig, mse_loss, train


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_gradient_correctness():
    """All primitives and the full tiny-model loss pass finite differences."""
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = leaf(rng, 4, 3)
        b = leaf(rng, 4, 3)
        w = leaf(rng, 3, 2)
        bias = leaf(rng, 2)
        tw = leaf(rng, 4, 2)
        tb = leaf(rng, 2)
        w2 = leaf(rng, 3, 2)
        bias2 = leaf(rng, 2)
        # time segments of lengths 2, 1, 1: two steps of each chain
        up_w = [leaf(rng, 2, 1), leaf(rng, 1, 1)]
        up_b = [leaf(rng, 1), leaf(rng, 1)]
        down_w = [leaf(rng, 1, 2), leaf(rng, 1, 1)]
        down_b = [leaf(rng, 2), leaf(rng, 1)]
        bases = [np.zeros((4, 4)), np.zeros((4, 4))]
        for base in bases:
            base[:2, :2] = rng.normal(size=(2, 2))
            base[2, 2], base[3, 3] = rng.normal(size=2)
        mixing = (bases[0], up_w, up_b, bases[1], down_w, down_b)
        cases = [
            lambda: ad.mean(ad.multiply(ad.add(a, b), ad.subtract(a, b))),
            lambda: ad.mean(ad.multiply(a, b)),
            lambda: ad.mean(ad.linear(a, w, bias)),
            lambda: ad.mean(ad.gelu(a)),
            lambda: ad.mean(ad.multiply(ad.time_linear(a, tw, tb),
                                        ad.time_linear(b, tw, tb))),
            lambda: ad.mean(ad.multiply(ad.avg_pool_halve(a),
                                        ad.avg_pool_halve(b))),
            lambda: ad.mean(ad.multiply(ad.moving_average(a, 3),
                                        ad.moving_average(b, 3))),
            lambda: ad.mean(ad.multiply(ad.transpose_last2(a),
                                        ad.transpose_last2(b))),
            lambda: ad.mean(ad.multiply(ad.reshape(a, (3, 4)),
                                        ad.reshape(b, (3, 4)))),
            lambda: ad.mean(ad.multiply(
                ad.segment_linear(a, [w, w2], [bias, bias2], [3, 1]),
                ad.segment_linear(b, [w, w2], [bias, bias2], [3, 1]))),
            lambda: ad.mean(ad.multiply(
                ad.time_linear(a, *ad.cascade(*mixing)),
                ad.time_linear(b, *ad.cascade(*mixing)))),
            lambda: ad.mean(ad.multiply(ad.concat([tw, w]),
                                        ad.concat([tw, w]))),
        ]
        tensors = [a, b, w, bias, tw, tb, w2, bias2, *up_w, *up_b, *down_w,
                   *down_b]
        for build in cases:
            for t in tensors:
                t.zero_grad()
            finite_diff_check(build, tensors, eps=1e-5, tol=1e-4)

        model = TimeMixerModel(ModelConfig(lookback=8, horizon=2, d_model=4,
                                           num_blocks=1, num_scales=1,
                                           decomp_kernel=3, ff_hidden=4,
                                           seed=seed))
        x, _ = instance_normalize(rng.normal(0.2, 0.05, (2, 8, 1)))
        target = Tensor(rng.normal(size=(2, 2)))
        finite_diff_check(lambda: mse_loss(model.forward_normalized(x), target),
                          list(model.params.values()), eps=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"gradient checks took {elapsed:.1f}s"
    report(1, f"all primitives + tiny model over 10 seeds in {elapsed:.1f}s")


def test_criterion_2_volatility_oracle():
    rng = np.random.default_rng(0)
    returns = rng.normal(0, 0.02, 1000)
    sigma = md.rolling_volatility(returns)
    for i in range(sigma.size):
        window = returns[i:i + 21]
        mu = sum(window) / 21
        var = sum((r - mu) ** 2 for r in window) / 20
        assert abs(sigma[i] - math.sqrt(252 * var)) < 1e-12
    days = np.datetime64("2021-07-29") + np.arange(60)
    prices = np.full(60, 50.0)
    flat, _ = md.feature_matrix(
        md.OhlcvSeries("FLAT", days, prices, prices, prices, prices,
                       np.ones(60, dtype=np.int64)))
    assert np.all(flat[:, 0] == 0.0)
    report(2, "brute-force match to 1e-12 on 1000 points; constant prices "
              "give exactly zero")


def test_criterion_3_decomposition_exactness():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(3, 80))
        kernel = int(rng.integers(0, 8)) * 2 + 1
        x = rng.normal(size=(t_len, int(rng.integers(1, 4))))
        seasonal, trend = series_decomp(Tensor(x), kernel)
        assert np.max(np.abs(seasonal.values + trend.values - x)) < 1e-12
    lookback, num_scales = 96, 3
    scales = build_multiscale(
        Tensor(np.random.default_rng(1).normal(size=(lookback, 2))),
        num_scales)
    assert [s.shape[-2] for s in scales] == \
        [lookback // 2 ** m for m in range(num_scales + 1)]
    report(3, "seasonal + trend reconstructs to 1e-12 on 100 cases; "
              "scale lengths follow floor(P / 2^m)")


def test_criterion_4_residual_identity():
    x = np.random.default_rng(2).normal(0.2, 0.05, (3, 64, 1))
    outs = []
    for depth in (1, 2, 3, 5):
        model = TimeMixerModel(ModelConfig(num_blocks=depth, seed=8))
        for name, t in model.params.items():
            if (".ff" in name and ("W2" in name or "b2" in name)) or \
                    name.startswith("head.pred"):
                t.values = np.zeros_like(t.values)
        outs.append(model.forward(x))
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)
    report(4, "zeroed mixing outputs make the forecast bit-identical for "
              "depths 1, 2, 3, 5")


def test_criterion_5_learnability_beats_persistence():
    t0 = time.perf_counter()
    steps = np.arange(520)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        signal = (np.sin(2 * np.pi * steps / 96)
                  + 0.5 * np.sin(2 * np.pi * steps / 12)
                  + 0.05 * rng.normal(size=steps.size) + 3)
        ds = md.split_chronological(md.make_windows(signal, 64, 12))
        model = TimeMixerModel(ModelConfig(lookback=64, horizon=12, seed=seed))
        train(model, ds, TrainConfig(max_epochs=20, patience=20, seed=seed))
        x_test, y_test = ds.test
        model_mae = ev.mae(model.forward(x_test), y_test)
        persist_mae = ev.mae(ev.baseline_persistence(x_test, 12), y_test)
        assert model_mae < 0.8 * persist_mae, \
            f"seed {seed}: model {model_mae:.4f} vs persistence {persist_mae:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(5, f"model beats persistence by >= 20% on 3 seeds in {elapsed:.0f}s")


def test_criterion_6_short_horizon_beats_long_on_aapl_fixture():
    series = md.parse_ohlcv_csv(
        open(f"{FIXTURES}/AAPL_2010_2023.csv").read(), "AAPL")
    assert series.days[0].item().year == 2010
    assert series.days[-1].item().year == 2023
    values, _ = md.feature_matrix(series)
    maes = {}
    for horizon in (12, 336):
        ds = md.split_chronological(md.make_windows(values, 64, horizon))
        model = TimeMixerModel(ModelConfig(lookback=64, horizon=horizon,
                                           d_model=16, num_blocks=1,
                                           num_scales=2, decomp_kernel=25,
                                           ff_hidden=32, seed=0))
        train(model, ds, TrainConfig(max_epochs=5, patience=5, seed=0))
        x_test, y_test = ds.test
        maes[horizon] = ev.mae(model.forward(x_test), y_test)
    assert maes[12] < maes[336]
    report(6, f"AAPL fixture MAE(F=12)={maes[12]:.4f} < "
              f"MAE(F=336)={maes[336]:.4f}")


def test_criterion_7_split_contract():
    checked = 0
    for n_points, lookback, horizon in ((400, 8, 4), (700, 16, 8),
                                        (1200, 32, 12), (3000, 64, 21)):
        ds = md.split_chronological(
            md.make_windows(np.arange(float(n_points)), lookback, horizon))
        n_train = ds.train_range[1] - ds.train_range[0]
        n_val = ds.val_range[1] - ds.val_range[0]
        assert abs(n_val - round(0.1 * n_train)) <= 1
        max_train_target = (ds.train_range[1] - 1) + lookback + horizon - 1
        assert ds.val_range[0] > max_train_target
        max_val_target = (ds.val_range[1] - 1) + lookback + horizon - 1
        assert ds.test_range[0] > max_val_target
        checked += 1
    report(7, f"val is 10% of train within +-1 and no leakage on "
              f"{checked} datasets")


def test_criterion_8_metric_identities():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(8, 6))
        target = rng.normal(size=(8, 6))
        assert abs(ev.rmse(pred, target) ** 2 - ev.mse(pred, target)) < 1e-12
        abs_sum, sq_sum = 0.0, 0.0
        for i in range(8):
            for j in range(6):
                abs_sum += abs(pred[i, j] - target[i, j])
                sq_sum += (pred[i, j] - target[i, j]) ** 2
        assert abs(ev.mae(pred, target) - abs_sum / 48) < 1e-12
        assert abs(ev.mse(pred, target) - sq_sum / 48) < 1e-12
    report(8, "rmse^2 == mse and brute-force metric agreement on 100 "
              "instances")


def test_criterion_9_run_determinism(tmp_path):
    from test_cli import synth_chart_json

    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    payload, days = synth_chart_json(seed=7)
    (fixtures / "GAMMA.json").write_text(json.dumps(payload))
    (tmp_path / "roster.json").write_text(json.dumps([
        {"ticker": "GAMMA", "start": days[0].isoformat(),
         "end": days[-1].isoformat(), "asset_class": "stock"}]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "roster": str(tmp_path / "roster.json"),
        "data_dir": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
        "lookback": 32, "horizons": [4], "d_model": 4, "num_blocks": 1,
        "num_scales": 2, "decomp_kernel": 9, "ff_hidden": 4,
        "max_epochs": 2, "patience": 2,
    }))
    assert cli.main(["--config", str(config), "--fixtures", str(fixtures),
                     "fetch"]) == 0
    assert cli.main(["--config", str(config), "--seed", "5", "run"]) == 0
    first = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert cli.main(["--config", str(config), "--seed", "5", "run"]) == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == first
    report(9, "two seeded runs produced byte-identical metrics CSVs")
