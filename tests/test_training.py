import gc
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_diff_check
from volmixer import autodiff as ad
from volmixer import model as model_module
from volmixer import training
from volmixer.autodiff import Tensor, Workspace
from volmixer.market_data import make_windows, split_chronological
from volmixer.model import ModelConfig, TimeMixerModel
from volmixer.training import (Adam, TrainConfig, TrainingError, _fit_epoch,
                               _normalized_batch, _step, evaluate_split,
                               mse_loss, train)

SMALL = ModelConfig(lookback=16, horizon=4, d_model=8, num_blocks=1,
                    num_scales=1, decomp_kernel=5, ff_hidden=8, seed=0)


def sine_dataset(length=200, lookback=16, horizon=4, noise=0.0, seed=0):
    t = np.arange(length)
    rng = np.random.default_rng(seed)
    sig = np.sin(2 * np.pi * t / 24) + 2 + noise * rng.normal(size=length)
    ds = make_windows(sig, lookback, horizon)
    return split_chronological(ds)


class TestMseLoss:
    def test_zero_on_equal(self, rng):
        x = rng.normal(size=(3, 4))
        assert float(mse_loss(Tensor(x), Tensor(x)).values) == 0.0

    def test_unit_error(self):
        out = mse_loss(Tensor([[1.0, 1.0]]), Tensor([[0.0, 0.0]]))
        assert float(out.values) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradient_is_two_diff_over_n(self, rng):
        pred = Tensor(rng.normal(size=5), requires_grad=True)
        target = Tensor(rng.normal(size=5))
        tape = ad.Tape()
        with tape:
            loss = mse_loss(pred, target)
        ad.backward(loss, tape)
        expected = 2 * (pred.values - target.values) / 5
        assert np.max(np.abs(pred.grad - expected)) < 1e-12
        pred.zero_grad()
        finite_diff_check(lambda: mse_loss(pred, target), [pred])


def fill_grads(model, value, skip=()):
    """Give every parameter but those in ``skip`` the gradient ``value``."""
    model.grad_flat[...] = value
    for name, p in model.params.items():
        p.grad = None if name in skip else p.grad_buffer


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        model = TimeMixerModel(SMALL)
        model.flat[:2] = [1.0, -2.0]
        before = model.flat.copy()
        fill_grads(model, 0.0)
        opt = Adam(model)
        opt.step()
        assert model.flat.tobytes() == before.tobytes()
        assert opt.step_count == 1

    def test_single_step_matches_hand_computation(self):
        model = TimeMixerModel(SMALL)
        model.flat[...] = 0.5
        fill_grads(model, 0.2)
        opt = Adam(model, learning_rate=0.01)
        opt.step()
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 0.5 - 0.01 * 0.2 / (np.sqrt(0.04) + 1e-8)
        assert np.max(np.abs(model.flat - expected)) < 1e-15

    def test_missing_gradient_rejected(self):
        model = TimeMixerModel(SMALL)
        opt = Adam(model)
        fill_grads(model, 0.3)
        opt.step()
        fill_grads(model, 0.2, skip={"head.pred1.W"})
        state = [a.copy() for a in (model.flat, opt.m, opt.v)]
        with pytest.raises(TrainingError, match=r"'head\.pred1\.W'"):
            opt.step()
        # all or nothing: no parameter moved and the step was not counted
        assert opt.step_count == 1
        for before, after in zip(state, (model.flat, opt.m, opt.v)):
            assert before.tobytes() == after.tobytes()

    def test_deterministic_trajectory(self):
        def run():
            ds = sine_dataset()
            model = TimeMixerModel(SMALL)
            train(model, ds, TrainConfig(max_epochs=3, patience=3, seed=4))
            return model.flat.copy()

        assert np.array_equal(run(), run())


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(patience=10, max_epochs=5).validate()

    def test_zero_learning_rate_keeps_params(self):
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        before = model.flat.copy()
        report = train(model, ds, TrainConfig(max_epochs=3, patience=3,
                                              learning_rate=0.0, seed=0))
        assert np.array_equal(model.flat, before)
        assert np.allclose(report.train_losses, report.train_losses[0])

    def test_patience_zero_stops_at_first_non_improvement(self):
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        report = train(model, ds, TrainConfig(max_epochs=50, patience=0,
                                              learning_rate=0.0, seed=0))
        # with lr=0 the val loss never improves after epoch 0
        assert report.stopping_reason == "patience"
        assert len(report.val_losses) == 2
        assert report.best_epoch == 0

    def test_best_checkpoint_restored(self):
        ds = sine_dataset(noise=0.05)
        model = TimeMixerModel(SMALL)
        report = train(model, ds, TrainConfig(max_epochs=10, patience=10,
                                              seed=1))
        x_val, y_val = ds.val
        final_val = evaluate_split(model, x_val, y_val)
        assert final_val == pytest.approx(report.best_val_loss, rel=1e-12)
        assert report.best_val_loss == min(report.val_losses)

    def test_validation_records_no_gradient_state(self):
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        model.zero_grads()
        x_val, y_val = ds.val
        evaluate_split(model, x_val, y_val)
        assert ad.active_tape() is None
        assert all(p.grad is None for p in model.params.values())

    def test_empty_split_is_a_training_error(self):
        x_val, y_val = sine_dataset().val
        with pytest.raises(TrainingError, match="cannot evaluate an empty "
                                                r"split: x has shape \(0, "):
            evaluate_split(TimeMixerModel(SMALL), x_val[:0], y_val[:0])

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases_over_first_steps(self, seed):
        ds = sine_dataset(seed=seed)
        model = TimeMixerModel(ModelConfig(lookback=16, horizon=4, d_model=8,
                                           num_blocks=1, num_scales=1,
                                           decomp_kernel=5, ff_hidden=8,
                                           seed=seed))
        x_train, y_train = ds.train
        xb, yb = x_train[:32], y_train[:32]
        xn, yn = _normalized_batch(xb, yb)
        opt = Adam(model, learning_rate=1e-3)
        losses = []
        for _ in range(6):
            model.zero_grads()
            tape = ad.Tape()
            with tape:
                loss = mse_loss(model.forward_normalized(xn), Tensor(yn))
            losses.append(float(loss.values))
            ad.backward(loss, tape)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_reproducible_given_seed(self):
        def run():
            ds = sine_dataset(noise=0.02, seed=3)
            model = TimeMixerModel(SMALL)
            report = train(model, ds, TrainConfig(max_epochs=4, patience=4,
                                                  seed=9))
            return model.flat.copy(), report.train_losses

        (va, la), (vb, lb) = run(), run()
        assert np.array_equal(va, vb)
        assert la == lb

    def test_parameters_stay_views_of_flat(self, tmp_path):
        def views_of_flat(m):
            return all(np.shares_memory(t.values, m.flat)
                       for t in m.params.values())

        model = TimeMixerModel(SMALL)
        assert views_of_flat(model)
        train(model, sine_dataset(), TrainConfig(max_epochs=3, patience=3,
                                                 seed=2))
        assert views_of_flat(model)
        path = tmp_path / "model.ckpt"
        model.save(path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        assert blob[12 + hlen:] == model.flat.tobytes()
        loaded = TimeMixerModel.load(path)
        assert views_of_flat(loaded)
        assert np.array_equal(loaded.flat, model.flat)

    def test_divergence_reported_with_location(self):
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
            train(model, ds, TrainConfig(max_epochs=5, patience=5,
                                         learning_rate=1e150, seed=0))

    def test_divergence_in_validation_reported(self):
        # one batch per epoch: the first step diverges and only validation sees it
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match="validation .* epoch 0"):
            train(model, ds, TrainConfig(max_epochs=5, patience=5,
                                         batch_size=len(ds.train[0]),
                                         learning_rate=1e150, seed=0))


def plain_steps(model, opt, x, y, order, batch_size):
    """The training step as written before pooling, under plain tapes."""
    for lo in range(0, order.size, batch_size):
        xn, yn = _normalized_batch(x[order[lo:lo + batch_size]],
                                   y[order[lo:lo + batch_size]])
        model.zero_grads()
        tape = ad.Tape()
        with tape:
            loss = mse_loss(model.forward_normalized(xn), Tensor(yn))
        ad.backward(loss, tape)
        opt.step()


def tracking(lent: dict) -> type:
    """A ``Workspace`` subclass whose instances also put every buffer they
    lend into ``lent``, by ``id``; ``lent`` holds the buffers, so the ids
    stay theirs."""
    class Tracked(Workspace):
        def empty(self, shape):
            buf = super().empty(shape)
            lent[id(buf)] = buf
            return buf
    return Tracked


def pool_backed(array, lent: dict) -> bool:
    """Whether ``array`` is, or is a view of, a buffer in ``lent``."""
    while isinstance(array, np.ndarray):
        if id(array) in lent:
            return True
        array = array.base
    return False


def held_buffers(ws):
    """Every buffer ``ws`` holds, lent or given back."""
    return [b for _, b in ws._lent] + [b for free in ws._free.values()
                                       for b in free]


class TestPooledSteps:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(1, 12), st.integers(1, 12),
           st.booleans())
    def test_pooled_steps_equal_plain_steps_bit_for_bit(self, seed, batch,
                                                        last, one_pool):
        """3 steps (two of ``batch`` windows, one of ``last`` <= ``batch``)
        through ``_fit_epoch``, or through one workspace shared by all
        three, leave ``flat``, ``m`` and ``v`` as plain tapes do."""
        last = min(last, batch)
        x, y = sine_dataset(noise=0.1, seed=seed % 7).train
        order = np.random.default_rng(seed).permutation(x.shape[0])
        order = order[:2 * batch + last]
        runs = []
        for mode in ("plain", "pooled"):
            model = TimeMixerModel(ModelConfig(**{**SMALL.__dict__,
                                                  "seed": seed}))
            opt = Adam(model, learning_rate=1e-2)
            if mode == "plain":
                plain_steps(model, opt, x, y, order, batch)
            elif one_pool:
                ws = Workspace()
                for lo in range(0, order.size, batch):
                    idx = order[lo:lo + batch]
                    _step(model, opt, ws, *_normalized_batch(x[idx], y[idx]))
            else:
                _fit_epoch(model, opt, x, y, order, batch, 0)
            assert opt.step_count == 3
            runs.append([a.tobytes() for a in (model.flat, opt.m, opt.v)])
        assert runs[0] == runs[1]

    def test_reached_grads_are_views_of_grad_flat(self):
        model = TimeMixerModel(SMALL)
        x, y = sine_dataset().train
        lent = {}
        ws = tracking(lent)()
        for _ in range(2):
            _step(model, Adam(model), ws, *_normalized_batch(x[:8], y[:8]))
            assert all(pool_backed(buf[...], lent) for buf in lent.values())
            for name, p in model.params.items():
                assert np.shares_memory(p.grad, model.grad_flat), name
                assert not pool_backed(p.grad, lent), name

    def test_pool_is_dropped_before_validation_and_after_train(self,
                                                               monkeypatch):
        pools, lent = [], {}

        class Tracked(tracking(lent)):
            def __init__(self):
                super().__init__()
                pools.append(weakref.ref(self))

        def live_pools():
            gc.collect()
            return [r for r in pools if r() is not None]

        evaluate = training.evaluate_split

        def checked_evaluate(*args):
            assert pools and not live_pools()
            return evaluate(*args)

        monkeypatch.setattr(training, "Workspace", Tracked)
        monkeypatch.setattr(training, "evaluate_split", checked_evaluate)
        model = TimeMixerModel(SMALL)
        report = train(model, sine_dataset(), TrainConfig(
            batch_size=20, max_epochs=2, patience=2, seed=0))
        assert len(report.val_losses) == 2
        assert not live_pools()
        arrays = [model.flat, model.grad_flat]
        for p in model.params.values():
            arrays += [p.values, p.grad, p.grad_buffer]
        assert lent
        assert not any(pool_backed(a, lent) for a in arrays if a is not None)

    def test_short_last_batch_runs_on_a_fresh_workspace(self, monkeypatch):
        """Each step runs on a workspace: the full batches on one, the
        short last batch on a new one, made once the first is dropped."""
        x, y = sine_dataset().train
        alive = []      # per step: which of the steps' workspaces live
        refs = []
        step = training._step

        def spy(model, optimizer, workspace, xb, yb):
            refs.append(weakref.ref(workspace))
            gc.collect()
            alive.append([r() is not None for r in refs])
            return step(model, optimizer, workspace, xb, yb)

        monkeypatch.setattr(training, "_step", spy)
        model = TimeMixerModel(SMALL)
        _fit_epoch(model, Adam(model), x, y, np.arange(2 * 8 + 3), 8, 0)
        assert alive == [[True], [True, True], [False, False, True]]

    def test_steady_step_allocates_under_1mb(self):
        """A guard, not a timing: once the pool holds a step's working set
        (about 37.5 MB at the default config and batch 32 when every array
        is allocated afresh), a step allocates under 1 MB on the heap."""
        config = ModelConfig()
        rng = np.random.default_rng(0)
        x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, 1))
        y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
        batch = _normalized_batch(x, y)
        model = TimeMixerModel(config)
        opt, ws = Adam(model), Workspace()
        for _ in range(2):
            _step(model, opt, ws, *batch)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _step(model, opt, ws, *batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1e6

    def test_default_step_holds_five_feedforward_sized_buffers(self):
        """At the default config and batch 32, a step's widest arrays are
        (32, ΣT = 120, ff_hidden = 64). Per block, the residual feedforward
        keeps its hidden layer and that layer's derivative, and one more
        buffer serves every block's pre-activation and, in the backward,
        its hidden-layer gradient; GELU works in scratch of at most
        ``_GELU_BLOCK`` elements. As four ops, whose outputs and kept
        gradients all stayed lent, the feedforward lent 8 such buffers."""
        config = ModelConfig()
        rng = np.random.default_rng(0)
        x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, 1))
        y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
        model = TimeMixerModel(config)
        ws = Workspace()
        _step(model, Adam(model), ws, *_normalized_batch(x, y))
        widest = (32, sum(config.scale_lengths()), config.ff_hidden)
        assert widest == (32, 120, 64)
        assert sum(buf.shape == widest and buf.dtype == np.float64
                   for buf in held_buffers(ws)) == 5

    def test_cold_step_holds_what_a_warm_step_holds(self):
        """The model's constant time maps are built, on a process's first
        step, on a workspace of their own: that step's workspace then holds
        as many buffers, and bytes, as a later step's (85 buffers against
        74 when the maps left their scratch in it)."""
        config = ModelConfig()
        rng = np.random.default_rng(0)
        x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, 1))
        y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
        batch = _normalized_batch(x, y)
        model = TimeMixerModel(config)
        opt = Adam(model)
        pools = []
        for cold in (True, False):
            if cold:
                model_module._stack_maps.cache_clear()
            ws = Workspace()
            _step(model, opt, ws, *batch)
            held = held_buffers(ws)
            pools.append((len(held), sum(b.nbytes for b in held)))
        assert pools[0] == pools[1]

    def test_default_step_holds_at_most_81_buffers_of_33_mib(self):
        """Each op gives back its scratch once read, and each gradient it
        formed once that is added or copied into another array, so later
        ops of the step take those buffers again: a warm default batch-32
        step's workspace holds at most 81 buffers and 33 MiB, lent or given
        back (141 buffers, 38.5 MiB, when nothing went back before the
        ``reset``), and a repeated step cuts none."""
        config = ModelConfig()
        rng = np.random.default_rng(0)
        x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, 1))
        y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
        batch = _normalized_batch(x, y)
        model = TimeMixerModel(config)
        opt = Adam(model)
        # the first step also builds the model's constant time maps
        _step(model, opt, Workspace(), *batch)
        ws = Workspace()
        held = []
        for _ in range(2):
            _step(model, opt, ws, *batch)
            held.append([b for _, b in ws._lent]
                        + [b for free in ws._free.values() for b in free])
        assert len(held[0]) <= 81
        assert sum(b.nbytes for b in held[0]) <= 33 * 2 ** 20
        assert sorted(map(id, held[1])) == sorted(map(id, held[0]))

    def test_default_step_lends_no_bool_buffer(self):
        """Each op checks its output's finiteness through a temporary mask;
        masks lent by the workspace were 34 bool buffers (1.82 MiB) held
        for the whole default step."""
        config = ModelConfig()
        rng = np.random.default_rng(0)
        x = 1.0 + 0.1 * rng.standard_normal((32, config.lookback, 1))
        y = 1.0 + 0.1 * rng.standard_normal((32, config.horizon))
        model = TimeMixerModel(config)
        ws = Workspace()
        _step(model, Adam(model), ws, *_normalized_batch(x, y))
        assert ws._lent
        assert {buf.dtype for _, buf in ws._lent} == {np.dtype(np.float64)}


@pytest.mark.slow
def test_sinusoid_regression_threshold():
    """Pinned regression: a clean sinusoid trains below 1e-3 quickly."""
    t = np.arange(400)
    ds = split_chronological(make_windows(np.sin(2 * np.pi * t / 48) + 3,
                                          64, 12))
    model = TimeMixerModel(ModelConfig(lookback=64, horizon=12, seed=0))
    report = train(model, ds, TrainConfig(max_epochs=40, patience=40, seed=0))
    assert min(report.train_losses) < 1e-3
