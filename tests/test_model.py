import hashlib
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FIXTURES, finite_diff_check
from volmixer import autodiff as ad
from volmixer.autodiff import Tape, Tensor
from volmixer.model import (CheckpointError, ModelConfig, TimeMixerModel,
                            _chunk_windows, denormalize, instance_normalize,
                            parameter_shapes)
from volmixer.multiscale import ConfigError, build_multiscale
from volmixer.training import Adam, mse_loss

TINY = ModelConfig(lookback=8, horizon=2, channels=1, d_model=4, num_blocks=1,
                   num_scales=1, decomp_kernel=3, ff_hidden=4, seed=7)
# the model of the sweep benchmark workload
SWEEP = ModelConfig(lookback=32, horizon=12, d_model=4, num_blocks=1,
                    num_scales=2, decomp_kernel=9, ff_hidden=8)


def embedded_stack(model, rng, batch=2):
    """Embedded random windows as the stacked (B, ΣT, d) scale family, built
    by the per-scale reference ``build_multiscale``."""
    cfg = model.config
    x = rng.normal(size=(batch, cfg.lookback, cfg.channels))
    h = ad.linear(Tensor(x), model.params["embed.W"], model.params["embed.b"])
    return Tensor(np.concatenate(
        [s.values for s in build_multiscale(h, cfg.num_scales)], axis=-2))


def split_scales(cfg, values):
    """Cut a stacked (B, ΣT, d) array into its per-scale parts."""
    return np.split(values, np.cumsum(cfg.scale_lengths())[:-1], axis=-2)


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
        out, stats = instance_normalize(np.full((1, 10, 1), 3.0))
        assert np.all(out == 0.0)
        assert stats.std[0, 0] == 1e-8

    def test_two_point_symmetry(self):
        out, stats = instance_normalize(np.array([[[1.0], [3.0]]]))
        assert np.allclose(out.ravel(), [-1.0, 1.0])  # population divisor
        assert stats.mean[0, 0] == 2.0

    def test_round_trip(self, rng):
        x = rng.normal(2.0, 3.0, (5, 16, 2))
        out, stats = instance_normalize(x)
        back = denormalize(out[..., 0], stats)
        assert np.max(np.abs(back - x[..., 0])) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(x=hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=3, max_dims=3, max_side=12),
                        elements=st.floats(-1e6, 1e6)),
           constant=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_round_trip_property(self, x, constant):
        for b, flat in zip(range(x.shape[0]), constant):
            if flat:                        # constant window: floored std
                x[b] = x[b, :1]
        out, stats = instance_normalize(x)
        back = denormalize(out[..., 0], stats)
        scale = np.maximum(np.abs(x[..., 0]).max(axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(back - x[..., 0]) <= 1e-12 * scale)

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
        assert np.array_equal(a.flat, b.flat)

    def test_different_seeds_differ(self):
        a = TimeMixerModel(ModelConfig(seed=3))
        b = TimeMixerModel(ModelConfig(seed=4))
        assert not np.array_equal(a.flat, b.flat)

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
        assert model.flat.size == count
        assert sum(int(np.prod(s)) for s in parameter_shapes(cfg).values()) == count


class TestPdm:
    def test_zero_output_layers_make_pure_residual(self, rng):
        model = TimeMixerModel(TINY)
        for name, t in model.params.items():
            if ".ff" in name and ("W2" in name or "b2" in name):
                t.values = np.zeros_like(t.values)
        stack = embedded_stack(model, rng)
        out = model.pdm_forward(0, stack)
        for before, after in zip(split_scales(TINY, stack.values),
                                 split_scales(TINY, out.values)):
            assert np.array_equal(before, after)

    def test_zero_scale_count_is_ff_of_input(self, rng):
        cfg = ModelConfig(lookback=8, horizon=2, d_model=4, num_blocks=1,
                          num_scales=0, decomp_kernel=3, ff_hidden=4, seed=1)
        model = TimeMixerModel(cfg)
        stack = embedded_stack(model, rng, batch=1)
        out = model.pdm_forward(0, stack)
        p = {k: t.values for k, t in model.params.items()}
        x = stack.values
        c = np.sqrt(2 / np.pi)
        hid = x @ p["block0.ff0.W1"] + p["block0.ff0.b1"]
        hid = 0.5 * hid * (1 + np.tanh(c * (hid + 0.044715 * hid ** 3)))
        expected = x + hid @ p["block0.ff0.W2"] + p["block0.ff0.b2"]
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_isolated_bottom_up_changes_only_scale_one(self, rng):
        cfg = ModelConfig(lookback=16, horizon=2, d_model=4, num_blocks=1,
                          num_scales=2, decomp_kernel=3, ff_hidden=4, seed=5)
        base = TimeMixerModel(cfg)
        for name, t in base.params.items():
            if "bottom_up" in name or "top_down" in name:
                t.values = np.zeros_like(t.values)
        stack = embedded_stack(base, rng)
        plain = split_scales(cfg, base.pdm_forward(0, stack).values)
        rng2 = np.random.default_rng(9)
        base.params["block0.bottom_up1.W"].values = rng2.normal(
            size=base.params["block0.bottom_up1.W"].shape)
        mixed = split_scales(cfg, base.pdm_forward(0, stack).values)
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
        stack = embedded_stack(model, rng)
        out_a = split_scales(cfg, model.pdm_forward(0, stack).values)
        # perturbing the finest scale must not reach coarser outputs
        bumped = Tensor(stack.values.copy())
        split_scales(cfg, bumped.values)[0][...] += 1.0
        out_b = split_scales(cfg, model.pdm_forward(0, bumped).values)
        assert not np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[1], out_b[1])
        assert np.array_equal(out_a[2], out_b[2])

    def test_ladder_mismatch_rejected(self, rng):
        model = TimeMixerModel(TINY)
        bad = Tensor(rng.normal(size=(2, 5 + 4, 4)))   # ladder is 8 + 4
        with pytest.raises(ad.ShapeError):
            model.pdm_forward(0, bad)


class TestFmm:
    def test_single_scale(self, rng):
        cfg = ModelConfig(lookback=8, horizon=3, d_model=4, num_scales=0,
                          decomp_kernel=3, ff_hidden=4, seed=2)
        model = TimeMixerModel(cfg)
        stack = embedded_stack(model, rng, batch=1)
        out = model.fmm_forward(stack)
        w = model.params["head.pred0.W"].values
        expected = np.swapaxes(np.swapaxes(stack.values, -1, -2) @ w, -1, -2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_sum_with_one_nonzero_predictor(self, rng):
        model = TimeMixerModel(TINY)
        model.params["head.pred0.W"].values *= 0.0
        stack = embedded_stack(model, rng)
        out = model.fmm_forward(stack)
        w = model.params["head.pred1.W"].values
        scale1 = split_scales(TINY, stack.values)[1]
        expected = np.swapaxes(np.swapaxes(scale1, -1, -2) @ w, -1, -2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_linearity(self, rng):
        model = TimeMixerModel(TINY)
        stack = embedded_stack(model, rng)
        lhs = model.fmm_forward(Tensor(3.5 * stack.values)).values
        rhs = 3.5 * model.fmm_forward(stack).values
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

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), num_scales=st.integers(0, 3),
           d_model=st.integers(1, 6), ff_hidden=st.integers(1, 6),
           horizon=st.integers(1, 5), batch=st.integers(1, 4),
           num_blocks=st.integers(1, 2))
    def test_stacked_forward_matches_reference_property(
            self, data, num_scales, d_model, ff_hidden, horizon, batch,
            num_blocks):
        lookback = data.draw(st.integers(2 ** (num_scales + 1), 40))
        # odd kernels, up to past the whole window (wider than every scale)
        kernel = 2 * data.draw(st.integers(0, lookback)) + 1
        model = TimeMixerModel(ModelConfig(
            lookback=lookback, horizon=horizon, d_model=d_model,
            num_blocks=num_blocks, num_scales=num_scales,
            decomp_kernel=kernel, ff_hidden=ff_hidden,
            seed=data.draw(st.integers(0, 2 ** 16))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        for t in model.params.values():     # nonzero biases too
            t.values = rng.normal(0.0, 0.5, t.shape)
        x = rng.normal(0.3, 0.1, (batch, lookback, 1))
        got = model.forward(x)
        for b in range(batch):
            expected = reference_forward(model, x[b])
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got[b] - expected)) <= 1e-12 * scale

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
        # per block: the cascade that builds the time map and bias, the
        # mixing time_linear, and the residual_feedforward
        per_block = 1 + 1 + 1
        # the ladder maps the input, which needs no gradient, so it is not
        # recorded; then embed, blocks, head (concat of the predictor
        # weights, time_linear), output projection and reshape
        expected = 1 + cfg.num_blocks * per_block + 2 + 2
        assert expected == 11
        # all but the cascades and the head's concat grow with the batch
        batch_sized = expected - cfg.num_blocks - 1
        assert batch_sized == 8
        batch = 2
        tape = Tape()
        with tape:
            TimeMixerModel(cfg).forward_normalized(
                rng.normal(size=(batch, cfg.lookback, cfg.channels)))
        assert len(tape) == expected
        assert sum(node.outputs[0].shape[0] == batch
                   for node in tape.nodes) == batch_sized

    def test_shape_mismatch(self, rng):
        model = TimeMixerModel(ModelConfig())
        with pytest.raises(ad.ShapeError):
            model.forward(rng.normal(size=(3, 60, 1)))

    @pytest.mark.parametrize("shape", [(), (64,), (1, 1, 64, 1), (64, 2)],
                             ids=["0d", "1d", "4d", "channels"])
    def test_every_malformed_shape_is_shape_error(self, shape):
        model = TimeMixerModel(ModelConfig())
        with pytest.raises(ad.ShapeError,
                           match=r"expected \(64, 1\) or \(batch, 64, 1\)"):
            model.forward(np.ones(shape))

    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(channels=3)],
                             ids=["default", "C3"])
    def test_single_window_equals_its_row_of_a_batch(self, cfg):
        # the one entry point that takes a single (P, C) window
        model = TimeMixerModel(cfg)
        rng = np.random.default_rng(cfg.channels)
        x = rng.normal(0.2, 0.05, (300, cfg.lookback, cfg.channels))
        batch = model.forward(x)
        for i in (0, 1, 16, 17, 150, 299):
            single = model.forward(x[i])
            assert single.shape == (cfg.horizon,)
            assert single.tobytes() == batch[i].tobytes(), i

    def test_nan_input_raises_numeric_error(self):
        model = TimeMixerModel(ModelConfig())
        x = np.full((64, 1), 0.3)
        x[10] = np.nan
        with pytest.raises(ad.NumericError):
            model.forward(x)

    def test_overflowing_window_statistics_raise_numeric_error(self):
        # the std overflows to inf, so the normalized window is all zeros and
        # its forecast finite, and denormalizing it multiplies 0 by inf
        model = TimeMixerModel(ModelConfig())
        x = np.full((64, 1), 1e300) * np.linspace(1, 2, 64)[:, None]
        with np.errstate(all="ignore"), \
                pytest.raises(ad.NumericError, match="'denormalize'"):
            model.forward(x)


class TestPredictNormalized:
    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(channels=3),
                                     SWEEP], ids=["default", "C3", "sweep"])
    def test_byte_identical_to_whole_batch_under_a_tape(self, cfg):
        model = TimeMixerModel(cfg)
        k = _chunk_windows(cfg)
        rng = np.random.default_rng(k)
        for batch in (1, k - 1, k, k + 1, 2 * k + 3, 256):
            x = rng.normal(size=(batch, cfg.lookback, cfg.channels))
            with Tape():
                whole = model.forward_normalized(x).values
                assert model.predict_normalized(x).tobytes() == \
                    whole.tobytes(), batch
            assert model.predict_normalized(x).tobytes() == \
                whole.tobytes(), batch

    def test_chunks_are_whole_forward_passes(self, rng, monkeypatch):
        # each chunk is one forward_normalized call, of at most k windows
        model = TimeMixerModel(ModelConfig())
        k = _chunk_windows(model.config)
        sizes, forward = [], TimeMixerModel.forward_normalized

        def counted(self, x_norm):
            sizes.append(len(x_norm))
            return forward(self, x_norm)

        monkeypatch.setattr(TimeMixerModel, "forward_normalized", counted)
        model.predict_normalized(rng.normal(size=(2 * k + 3, 64, 1)))
        assert sizes == [k, k, 3]
        sizes.clear()
        with Tape():
            model.predict_normalized(rng.normal(size=(2 * k + 3, 64, 1)))
        assert sizes == [2 * k + 3]

    def test_chunk_rule(self):
        # the widest activation, (k, ΣT, ff_hidden), within 1 MiB
        assert _chunk_windows(ModelConfig()) == (1 << 20) // (8 * 120 * 64)
        assert _chunk_windows(SWEEP) >= 256     # the sweep never chunks
        assert _chunk_windows(ModelConfig(d_model=4096)) == 1

    def test_error_in_a_chunk_names_the_op_and_leaves_no_workspace(self,
                                                                   rng):
        model = TimeMixerModel(ModelConfig())
        k = _chunk_windows(model.config)
        x = rng.normal(size=(3 * k, 64, 1))
        x[2 * k + 1, 5, 0] = np.nan                       # the third chunk
        with pytest.raises(ad.NumericError, match="'time_linear'"):
            model.predict_normalized(x)
        assert ad._workspace() is ad._FRESH

    def test_results_own_their_memory(self, rng):
        model = TimeMixerModel(ModelConfig())
        k = _chunk_windows(model.config)
        for n in (3 * k + 2, 1, k):
            x = rng.normal(size=(n, 64, 1))
            first = model.predict_normalized(x)
            second = model.predict_normalized(x)
            assert first.flags.owndata and second.flags.owndata, n
            assert not np.shares_memory(first, second)
            assert first.tobytes() == second.tobytes()

    def test_forward_reuses_one_chunk_workspace_across_calls(self, rng):
        # a model serving batches cuts its k-window chunk buffers once; a
        # shorter last chunk, or a failed call, adds none to them
        model = TimeMixerModel(ModelConfig())
        k = _chunk_windows(model.config)
        x = rng.normal(size=(3 * k + 2, 64, 1))
        expected = model.forward(x)
        held = pooled(model)
        assert held
        bad = x.copy()
        bad[k + 1, 5, 0] = np.nan
        with pytest.raises(ad.NumericError):
            model.forward(bad)
        assert ad._workspace() is ad._FRESH
        for n in (3 * k + 2, 2 * k + 5, k + 1):
            assert model.forward(x[:n]).tobytes() == expected[:n].tobytes()
            assert model.predict_normalized(instance_normalize(x[:n])[0]) \
                .shape == (n, 12)
        assert pooled(model) == held


def pooled(model) -> list[int]:
    """Ids of every buffer ``forward``'s kept workspace holds."""
    pool = model._forward_pool
    return sorted(id(b) for b in [*(b for free in pool._free.values()
                                    for b in free),
                                  *(b for _, b in pool._lent)])


class TestCheckedOnce:
    """A forward-only pass checks its result once; only a non-finite result
    runs the pass again with every op checked, to name the op."""

    # the ops of a default forecast; the last two build weights-only values
    OPS = ("time_linear", "linear", "segment_linear", "gelu", "add",
           "reshape", "cascade", "concat")

    @pytest.mark.parametrize("batch", ["1", "2k+3"])
    @pytest.mark.parametrize("op", OPS)
    def test_a_non_finite_element_of_any_op_is_named(self, rng, monkeypatch,
                                                     op, batch):
        model = TimeMixerModel(ModelConfig())
        k = _chunk_windows(model.config)
        x = rng.normal(0.2, 0.05, (2 * k + 3, 64, 1))
        if batch == "1":
            x = x[:1]
        model.forward(rng.normal(0.2, 0.05, (2 * k + 3, 64, 1)))
        before = pooled(model)
        model._built.clear()        # a cold cache: cascade and concat run
        check = ad._check_finite

        def emits_nan(values, name):
            # the op's output holds one NaN, whether or not it is checked
            if name == op:
                values.flat[0] = np.nan
            check(values, name)

        monkeypatch.setattr(ad, "_check_finite", emits_nan)
        with pytest.raises(ad.NumericError, match=f"'{op}'"):
            model.forward(x)
        assert ad._workspace() is ad._FRESH
        assert ad._checking
        assert pooled(model) == before
        group = {"cascade": "block0", "concat": "head"}.get(op)
        assert group not in model._built        # a bad map is never kept

    @pytest.mark.parametrize("batch", [1, 37])     # 37 = 2k + 3 windows
    def test_a_nan_window_warns_no_more_than_per_op_checks(self, batch):
        # the unchecked pass is silent; the checked replay stops at the op
        # that a per-op check stops at, which warns nothing here
        model = TimeMixerModel(ModelConfig())
        x = np.full((batch, 64, 1), 0.3)
        x[batch // 2, 10, 0] = np.nan
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(ad.NumericError, match="'time_linear'"):
            warnings.simplefilter("always")
            model.forward(x)
        assert [str(w.message) for w in caught] == []

    def test_an_overflow_warns_once(self):
        # the replay, not the unchecked pass, warns of the overflow it stops at
        model = TimeMixerModel(ModelConfig())
        model.params["embed.W"].values[...] = 1e300
        model.params["block0.ff0.W1"].values[...] = 1e300
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(ad.NumericError, match="'segment_linear'"):
            warnings.simplefilter("always")
            model.forward(np.full((64, 1), 0.3) + np.arange(64)[:, None])
        assert [str(w.message) for w in caught] \
            == ["overflow encountered in matmul"]

    def test_blocks_hold_the_very_parameters(self):
        model = TimeMixerModel(ModelConfig(num_scales=2))
        for layer, block in enumerate(model._blocks):
            names = ([f"bottom_up{m}.{w}" for m in (1, 2)] for w in "Wb")
            names = [*names, *([f"top_down{m}.{w}" for m in (0, 1)]
                                for w in "Wb"),
                     *([f"ff{m}.{w}" for m in (0, 1, 2)]
                       for w in ("W1", "b1", "W2", "b2"))]
            assert len(block) == len(names)
            for got, want in zip(block, names):
                assert len(got) == len(want)
                assert all(t is model.params[f"block{layer}.{name}"]
                           for t, name in zip(got, want))
        assert len(model._blocks) == 2


def write_adam_step(model, rng):
    x = rng.normal(size=(3, 64, 1))
    tape = Tape()
    with tape:
        loss = mse_loss(model.forward_normalized(x),
                        Tensor(rng.normal(size=(3, 12))))
    ad.backward(loss, tape)
    Adam(model, learning_rate=1e-2).step()


def write_restore(model, rng):
    model.flat[...] = TimeMixerModel(ModelConfig(seed=99)).flat


def write_in_place(model, rng):
    model.params["block1.top_down0.b"].values[...] = rng.normal(size=64)


def write_by_assignment(model, rng):
    model.params["head.pred2.W"].values = rng.normal(size=(16, 12))


def write_one_element(model, rng):
    # as ``conftest.finite_diff_check`` perturbs one element
    model.params["block0.bottom_up3.W"].values.ravel()[5] += 1e-5


class TestWeightsOnlyCache:
    """A no-tape forward reuses each block's time map and the stacked head
    while the weights they depend on are unchanged."""

    @pytest.mark.parametrize("write", [
        write_adam_step, write_restore, write_in_place, write_by_assignment,
        write_one_element], ids=lambda f: f.__name__[len("write_"):])
    def test_forward_after_a_write_equals_a_fresh_models(self, rng, write):
        model = TimeMixerModel(ModelConfig())
        x = rng.normal(size=(5, 64, 1))
        before = model.forward_normalized(x).values
        write(model, rng)
        fresh = TimeMixerModel(ModelConfig())
        fresh.flat[...] = model.flat
        after = model.forward_normalized(x).values
        assert after.tobytes() == fresh.forward_normalized(x).values.tobytes()
        assert after.tobytes() != before.tobytes()

    def test_first_chunked_call_matches_the_tape(self, rng):
        # the maps are first built inside the chunk loop's workspace
        model = TimeMixerModel(ModelConfig())
        x = rng.normal(size=(2 * _chunk_windows(model.config) + 3, 64, 1))
        chunked = model.predict_normalized(x)
        single = model.predict_normalized(x[4:5])
        with Tape():
            want = model.forward_normalized(x).values
        assert chunked.tobytes() == want.tobytes()
        assert single.tobytes() == want[4:5].tobytes()

    def test_kept_maps_outlive_the_workspace_they_were_built_in(self, rng):
        model = TimeMixerModel(ModelConfig(seed=1))
        other = TimeMixerModel(ModelConfig(seed=2))
        x = rng.normal(size=(2, 64, 1))
        with ad.Workspace() as pool:
            model.forward_normalized(x)
            pool.reset()
            other.forward_normalized(x)     # takes the same buffers
        with Tape():
            want = model.forward_normalized(x).values
        assert model.forward_normalized(x).values.tobytes() == want.tobytes()

    def test_builds_once_per_weight_state(self, rng, monkeypatch):
        calls = {"cascade": 0, "concat": 0}
        for name in calls:
            def counted(*args, _op=getattr(ad, name), _name=name):
                calls[_name] += 1
                return _op(*args)
            monkeypatch.setattr(ad, name, counted)
        model = TimeMixerModel(ModelConfig())
        x = rng.normal(size=(2, 64, 1))
        model.forward_normalized(x)
        assert calls == {"cascade": 2, "concat": 1}
        model.forward_normalized(x)
        assert calls == {"cascade": 2, "concat": 1}
        model.params["block0.bottom_up2.W"].values[1, 2] += 0.5
        model.forward_normalized(x)
        assert calls == {"cascade": 3, "concat": 1}
        tape = Tape()
        with tape:
            model.forward_normalized(x)
        assert calls == {"cascade": 5, "concat": 2}
        assert len(tape) == 11


class TestGradients:
    def test_end_to_end_tiny_model(self, rng):
        model = TimeMixerModel(TINY)
        x = rng.normal(0.2, 0.05, (2, 8, 1))
        x_norm, _ = instance_normalize(x)
        target = Tensor(rng.normal(size=(2, 2)))

        def build_loss():
            return mse_loss(model.forward_normalized(x_norm), target)

        finite_diff_check(build_loss, list(model.params.values()))


def edit_header(path, edit):
    """Rewrite a checkpoint's JSON header with ``edit``; returns its result."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    result = edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                     + blob[12 + hlen:])
    return result


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

    def test_assigned_values_round_trip(self, tmp_path, rng):
        model = TimeMixerModel(TINY)
        new = {name: rng.normal(size=t.shape)
               for name, t in model.params.items()}
        for name, values in new.items():
            model.params[name].values = values
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = TimeMixerModel.load(path)
        for name, values in new.items():
            assert loaded.params[name].values.tobytes() == values.tobytes()

    def test_wrong_shape_assignment_is_parameter_error(self):
        model = TimeMixerModel(TINY)
        before = model.flat.copy()
        with pytest.raises(ad.ParameterError, match=r"\(1,\).*\(2,\)"):
            model.params["out.b"].values = np.array([5.0, 6.0])
        assert model.flat.tobytes() == before.tobytes()

    def test_checkpoint_from_per_scale_model_matches_reference(self):
        # tiny_v1.ckpt was written by ``save`` of the per-scale model that
        # preceded the stacked layout, with every parameter drawn at random
        model = TimeMixerModel.load(f"{FIXTURES}/tiny_v1.ckpt")
        assert all(np.shares_memory(t.values, model.flat)
                   for t in model.params.values())
        assert model.config.num_scales == 2 and model.config.num_blocks == 2
        assert model.config.decomp_kernel > model.config.scale_lengths()[-1]
        x = np.random.default_rng(5).normal(0.3, 0.08, (16, 1))
        expected = reference_forward(model, x)
        assert np.max(np.abs(model.forward(x) - expected)) < 1e-12

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

    def test_manifest_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        dropped = edit_header(path, lambda h: h["manifest"].pop(0))
        assert dropped["name"] == "embed.W"
        with pytest.raises(ValueError, match="embed.W"):
            TimeMixerModel.load(path)

    def test_swapped_manifest_entries_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)

        def swap(header):
            entries = header["manifest"]
            entries[1], entries[2] = entries[2], entries[1]

        edit_header(path, swap)
        with pytest.raises(CheckpointError,
                           match=r"entry 1 .*bottom_up1\.W.*expected .*embed\.b"):
            TimeMixerModel.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            TimeMixerModel.load(path)

    @pytest.mark.parametrize("keep", [
        lambda blob, hlen: 10,
        lambda blob, hlen: 12,
        lambda blob, hlen: 12 + hlen // 2,
        lambda blob, hlen: len(blob) - 8,
    ], ids=["at_10_bytes", "at_12_bytes", "inside_header", "inside_payload"])
    def test_truncation_is_checkpoint_error(self, tmp_path, keep):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        path.write_bytes(blob[:keep(blob, hlen)])
        with pytest.raises(CheckpointError):
            TimeMixerModel.load(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h.update(format_version=3),
        lambda h: h.update(config=[1]),
        lambda h: h["manifest"][1].update(offset=0),
        lambda h: h["manifest"][0].update(shape=3),
    ], ids=["missing_config", "version", "config_not_object", "bad_offset",
            "shape_not_list"])
    def test_malformed_header_is_checkpoint_error(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        edit_header(path, edit)
        with pytest.raises(CheckpointError):
            TimeMixerModel.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, name", [(0, "embed.W"), (-1, "out.b")])
    def test_non_finite_parameter_is_checkpoint_error(self, tmp_path, value,
                                                      index, name):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", blob[8:12])
        payload = np.frombuffer(blob, dtype="<f8", offset=12 + hlen).copy()
        payload[index] = value
        blob[12 + hlen:] = payload.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=name):
            TimeMixerModel.load(path)

    def test_header_holds_payload_sha256(self, tmp_path):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        assert header["format_version"] == 2
        assert header["payload_sha256"] == \
            hashlib.sha256(blob[12 + hlen:]).hexdigest()

    @pytest.mark.parametrize("bit", [0, 51])
    @pytest.mark.parametrize("index", [0, -1])
    def test_flipped_payload_bit_is_checkpoint_error(self, tmp_path, bit,
                                                     index):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<I", blob[8:12])
        payload = np.frombuffer(blob, dtype="<u8", offset=12 + hlen).copy()
        payload[index] ^= np.uint64(1 << bit)       # a mantissa bit
        assert np.isfinite(payload.view("<f8")).all()
        blob[12 + hlen:] = payload.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="sha256"):
            TimeMixerModel.load(path)

    def test_version_2_without_hash_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        TimeMixerModel(TINY).save(path)
        edit_header(path, lambda h: h.pop("payload_sha256"))
        with pytest.raises(CheckpointError, match="payload_sha256"):
            TimeMixerModel.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            TimeMixerModel.load(path)
