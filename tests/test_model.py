import numpy as np
import pytest

from conftest import finite_diff_check
from volmixer import autodiff as ad
from volmixer.autodiff import Tape, Tensor
from volmixer.model import (ModelConfig, TimeMixerModel, denormalize,
                            instance_normalize, parameter_shapes)
from volmixer.multiscale import ConfigError, build_multiscale
from volmixer.training import mse_loss

TINY = ModelConfig(lookback=8, horizon=2, channels=1, d_model=4, num_blocks=1,
                   num_scales=1, decomp_kernel=3, ff_hidden=4, seed=7)


def embedded_scales(model, rng, batch=2):
    cfg = model.config
    x = rng.normal(size=(batch, cfg.lookback, cfg.channels))
    h = ad.linear(Tensor(x), model.params["embed.W"], model.params["embed.b"])
    return build_multiscale(h, cfg.num_scales)


# ---------------------------------------------------------------------------
# independent straight-line reference forward pass (oracle)
# ---------------------------------------------------------------------------

def ref_moving_average(x, kernel):
    half = kernel // 2
    xp = np.concatenate([np.repeat(x[:1], half, axis=0), x,
                         np.repeat(x[-1:], half, axis=0)], axis=0)
    out = np.zeros_like(x)
    for t in range(x.shape[0]):
        out[t] = xp[t:t + kernel].mean(axis=0)
    return out


def reference_forward(model, x):
    """Plain-numpy re-implementation of the whole pipeline for one window."""
    cfg = model.config
    p = {k: t.values for k, t in model.params.items()}
    mu, sd = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8)
    h = ((x - mu) / sd) @ p["embed.W"] + p["embed.b"]

    scales = [h]
    for _ in range(cfg.num_scales):
        prev = scales[-1]
        t2 = (prev.shape[0] // 2) * 2
        scales.append(0.5 * (prev[0:t2:2] + prev[1:t2:2]))

    for layer in range(cfg.num_blocks):
        pre = f"block{layer}"
        trend = [ref_moving_average(s, cfg.decomp_kernel) for s in scales]
        seasonal = [s - t for s, t in zip(scales, trend)]
        for m in range(1, cfg.num_scales + 1):
            seasonal[m] = seasonal[m] + (
                seasonal[m - 1].T @ p[f"{pre}.bottom_up{m}.W"]
                + p[f"{pre}.bottom_up{m}.b"]).T
        for m in range(cfg.num_scales - 1, -1, -1):
            trend[m] = trend[m] + (
                trend[m + 1].T @ p[f"{pre}.top_down{m}.W"]
                + p[f"{pre}.top_down{m}.b"]).T
        new_scales = []
        for m, s in enumerate(scales):
            mix = seasonal[m] + trend[m]
            hid = mix @ p[f"{pre}.ff{m}.W1"] + p[f"{pre}.ff{m}.b1"]
            c = np.sqrt(2 / np.pi)
            hid = 0.5 * hid * (1 + np.tanh(c * (hid + 0.044715 * hid ** 3)))
            new_scales.append(s + hid @ p[f"{pre}.ff{m}.W2"]
                              + p[f"{pre}.ff{m}.b2"])
        scales = new_scales

    fused = sum((s.T @ p[f"head.pred{m}.W"]).T
                for m, s in enumerate(scales))
    y = (fused @ p["out.W"] + p["out.b"])[:, 0]
    return y * sd[0] + mu[0]


class TestInstanceNormalize:
    def test_constant_channel_maps_to_zero(self):
        out, stats = instance_normalize(np.full((10, 1), 3.0))
        assert np.all(out == 0.0)
        assert stats.std[0, 0] == 1e-8

    def test_two_point_symmetry(self):
        out, stats = instance_normalize(np.array([[1.0], [3.0]]))
        assert np.allclose(out.ravel(), [-1.0, 1.0])  # population divisor
        assert stats.mean[0, 0] == 2.0

    def test_round_trip(self, rng):
        x = rng.normal(2.0, 3.0, (5, 16, 2))
        out, stats = instance_normalize(x)
        back = denormalize(out[..., 0], stats, channel=0)
        assert np.max(np.abs(back - x[..., 0])) < 1e-10

    def test_normalized_moments(self, rng):
        x = rng.normal(5.0, 2.0, (3, 32, 2))
        out, _ = instance_normalize(x)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-12
        assert np.max(np.abs(out.std(axis=1) - 1)) < 1e-12


class TestConfig:
    def test_scale_lengths(self):
        cfg = ModelConfig(lookback=64, num_scales=3)
        assert cfg.scale_lengths() == [64, 32, 16, 8]

    def test_too_short_lookback_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=8, num_scales=3).validate()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(decomp_kernel=24).validate()


class TestInit:
    def test_same_seed_identical(self):
        a = TimeMixerModel(ModelConfig(seed=3))
        b = TimeMixerModel(ModelConfig(seed=3))
        assert np.array_equal(a.parameter_vector(), b.parameter_vector())

    def test_different_seeds_differ(self):
        a = TimeMixerModel(ModelConfig(seed=3))
        b = TimeMixerModel(ModelConfig(seed=4))
        assert not np.array_equal(a.parameter_vector(), b.parameter_vector())

    def test_biases_start_zero(self):
        model = TimeMixerModel(ModelConfig())
        assert np.all(model.params["embed.b"].values == 0)
        assert np.all(model.params["block0.ff0.b1"].values == 0)

    def test_parameter_count_matches_independent_ledger(self):
        cfg = ModelConfig(lookback=64, horizon=12, channels=1, d_model=16,
                          num_blocks=2, num_scales=2, ff_hidden=32)
        model = TimeMixerModel(cfg)
        # independent count: walk the architecture shapes by hand
        lens = [64 // 2 ** m for m in range(3)]
        d, h = 16, 32
        count = 1 * d + d                                   # embedding
        per_block = 0
        for m in range(1, 3):
            per_block += lens[m - 1] * lens[m] + lens[m]    # bottom-up
        for m in range(2):
            per_block += lens[m + 1] * lens[m] + lens[m]    # top-down
        per_block += 3 * (d * h + h + h * d + d)            # feedforwards
        count += 2 * per_block
        count += sum(lens[m] * 12 for m in range(3))        # predictors
        count += d * 1 + 1                                  # output projection
        assert model.parameter_vector().size == count
        assert sum(int(np.prod(s)) for s in parameter_shapes(cfg).values()) == count


class TestPdm:
    def test_zero_output_layers_make_pure_residual(self, rng):
        model = TimeMixerModel(TINY)
        for name, t in model.params.items():
            if ".ff" in name and ("W2" in name or "b2" in name):
                t.values = np.zeros_like(t.values)
        scales = embedded_scales(model, rng)
        out = model.pdm_forward(0, scales)
        for before, after in zip(scales, out):
            assert np.array_equal(before.values, after.values)

    def test_zero_scale_count_is_ff_of_input(self, rng):
        cfg = ModelConfig(lookback=8, horizon=2, d_model=4, num_blocks=1,
                          num_scales=0, decomp_kernel=3, ff_hidden=4, seed=1)
        model = TimeMixerModel(cfg)
        scales = embedded_scales(model, rng, batch=1)
        out = model.pdm_forward(0, scales)
        p = {k: t.values for k, t in model.params.items()}
        x = scales[0].values
        c = np.sqrt(2 / np.pi)
        hid = x @ p["block0.ff0.W1"] + p["block0.ff0.b1"]
        hid = 0.5 * hid * (1 + np.tanh(c * (hid + 0.044715 * hid ** 3)))
        expected = x + hid @ p["block0.ff0.W2"] + p["block0.ff0.b2"]
        assert np.max(np.abs(out[0].values - expected)) < 1e-12

    def test_isolated_bottom_up_changes_only_scale_one(self, rng):
        cfg = ModelConfig(lookback=16, horizon=2, d_model=4, num_blocks=1,
                          num_scales=2, decomp_kernel=3, ff_hidden=4, seed=5)
        base = TimeMixerModel(cfg)
        for name, t in base.params.items():
            if "bottom_up" in name or "top_down" in name:
                t.values = np.zeros_like(t.values)
        scales = embedded_scales(base, rng)
        plain = [s.values.copy() for s in base.pdm_forward(0, scales)]
        rng2 = np.random.default_rng(9)
        base.params["block0.bottom_up1.W"].values = rng2.normal(
            size=base.params["block0.bottom_up1.W"].shape)
        mixed = [s.values.copy() for s in base.pdm_forward(0, scales)]
        assert np.array_equal(plain[0], mixed[0])
        assert not np.array_equal(plain[1], mixed[1])
        assert np.array_equal(plain[2], mixed[2])

    def test_top_down_reads_coarser_only(self, rng):
        cfg = ModelConfig(lookback=16, horizon=2, d_model=4, num_blocks=1,
                          num_scales=2, decomp_kernel=3, ff_hidden=4, seed=5)
        model = TimeMixerModel(cfg)
        for name, t in model.params.items():
            if "bottom_up" in name:
                t.values = np.zeros_like(t.values)
        scales = embedded_scales(model, rng)
        out_a = [s.values.copy() for s in model.pdm_forward(0, scales)]
        # perturbing the finest scale must not reach coarser outputs
        bumped = [Tensor(s.values.copy()) for s in scales]
        bumped[0].values += 1.0
        out_b = [s.values.copy() for s in model.pdm_forward(0, bumped)]
        assert not np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[1], out_b[1])
        assert np.array_equal(out_a[2], out_b[2])

    def test_ladder_mismatch_rejected(self, rng):
        model = TimeMixerModel(TINY)
        bad = [Tensor(rng.normal(size=(2, 5, 4))),
               Tensor(rng.normal(size=(2, 4, 4)))]
        with pytest.raises(ad.ShapeError):
            model.pdm_forward(0, bad)


class TestFmm:
    def test_single_scale(self, rng):
        cfg = ModelConfig(lookback=8, horizon=3, d_model=4, num_scales=0,
                          decomp_kernel=3, ff_hidden=4, seed=2)
        model = TimeMixerModel(cfg)
        scales = embedded_scales(model, rng, batch=1)
        out = model.fmm_forward(scales)
        w = model.params["head.pred0.W"].values
        expected = np.swapaxes(np.swapaxes(scales[0].values, -1, -2) @ w,
                               -1, -2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_sum_with_one_nonzero_predictor(self, rng):
        model = TimeMixerModel(TINY)
        model.params["head.pred0.W"].values *= 0.0
        scales = embedded_scales(model, rng)
        out = model.fmm_forward(scales)
        w = model.params["head.pred1.W"].values
        expected = np.swapaxes(np.swapaxes(scales[1].values, -1, -2) @ w,
                               -1, -2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_linearity(self, rng):
        model = TimeMixerModel(TINY)
        scales = embedded_scales(model, rng)
        scaled = [Tensor(3.5 * s.values) for s in scales]
        lhs = model.fmm_forward(scaled).values
        rhs = 3.5 * model.fmm_forward(scales).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestForward:
    def test_deterministic(self, rng):
        x = rng.normal(0.2, 0.05, (3, 64, 1))
        a = TimeMixerModel(ModelConfig(seed=11)).forward(x)
        b = TimeMixerModel(ModelConfig(seed=11)).forward(x)
        assert np.array_equal(a, b)

    def test_matches_reference_forward(self, rng):
        model = TimeMixerModel(ModelConfig(lookback=32, horizon=5, d_model=6,
                                           num_blocks=2, num_scales=2,
                                           decomp_kernel=5, ff_hidden=8,
                                           seed=21))
        x = rng.normal(0.3, 0.08, (32, 1))
        got = model.forward(x)
        expected = reference_forward(model, x)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_constant_input_recenters_at_input_level(self):
        model = TimeMixerModel(ModelConfig(seed=1))
        x = np.full((64, 1), 0.42)
        out = model.forward(x)
        expected = reference_forward(model, x)
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.max(np.abs(out - 0.42)) < 1e-6  # std clamp shrinks the net

    def test_affine_scaling_commutes(self, rng):
        model = TimeMixerModel(ModelConfig(seed=3))
        x = rng.normal(0.2, 0.05, (64, 1))
        assert np.allclose(model.forward(10 * x), 10 * model.forward(x),
                           rtol=1e-10)

    def test_residual_identity_across_depths(self, rng):
        x = rng.normal(0.2, 0.05, (2, 64, 1))
        outs = []
        for depth in (1, 2, 4):
            model = TimeMixerModel(ModelConfig(num_blocks=depth, seed=6))
            for name, t in model.params.items():
                if (".ff" in name and ("W2" in name or "b2" in name)) or \
                        name.startswith("head.pred"):
                    t.values = np.zeros_like(t.values)
            outs.append(model.forward(x))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_tape_nodes_of_default_forward(self, rng):
        cfg = ModelConfig()
        scales = cfg.num_scales + 1
        # per block: decomposition (moving average, subtract) per scale, two
        # mixing maps per halving (time_linear, add) and the residual
        # feedforward (linear, gelu, linear, add, add) per scale
        per_block = 2 * scales + 2 * 2 * cfg.num_scales + 5 * scales
        # embed, pools, blocks, summed heads, output projection and reshape
        expected = (1 + cfg.num_scales + cfg.num_blocks * per_block
                    + scales + (scales - 1) + 2)
        assert expected == 93
        tape = Tape()
        with tape:
            TimeMixerModel(cfg).forward_normalized(
                rng.normal(size=(2, cfg.lookback, cfg.channels)))
        assert len(tape) == expected

    def test_shape_mismatch(self, rng):
        model = TimeMixerModel(ModelConfig())
        with pytest.raises(ad.ShapeError):
            model.forward(rng.normal(size=(3, 60, 1)))

    def test_nan_input_raises_numeric_error(self):
        model = TimeMixerModel(ModelConfig())
        x = np.full((64, 1), 0.3)
        x[10] = np.nan
        with pytest.raises(ad.NumericError):
            model.forward(x)


class TestGradients:
    def test_end_to_end_tiny_model(self, rng):
        model = TimeMixerModel(TINY)
        x = rng.normal(0.2, 0.05, (2, 8, 1))
        x_norm, _ = instance_normalize(x)
        target = Tensor(rng.normal(size=(2, 2)))

        def build_loss():
            return mse_loss(model.forward_normalized(x_norm), target)

        finite_diff_check(build_loss, list(model.params.values()))


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = TimeMixerModel(ModelConfig(seed=13))
        x = rng.normal(0.2, 0.05, (2, 64, 1))
        before = model.forward(x)
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = TimeMixerModel.load(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.forward(x), before)

    def test_manifest_validated_against_config(self, tmp_path):
        model = TimeMixerModel(TINY)
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = bytearray(path.read_bytes())
        # corrupt a manifest shape inside the JSON header
        idx = blob.find(b'"shape": [1, 4]')
        assert idx > 0
        blob[idx:idx + 15] = b'"shape": [1, 5]'
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            TimeMixerModel.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            TimeMixerModel.load(path)
