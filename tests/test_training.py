import numpy as np
import pytest

from conftest import finite_diff_check
from volmixer import autodiff as ad
from volmixer.autodiff import Tensor
from volmixer.market_data import make_windows, split_chronological
from volmixer.model import ModelConfig, TimeMixerModel
from volmixer.training import (Adam, TrainConfig, TrainingError, evaluate_split,
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


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": p})
        opt.step()
        assert p.values.tolist() == [1.0, -2.0]
        assert opt.step_count == 1

    def test_single_step_matches_hand_computation(self):
        p = Tensor([0.5], requires_grad=True)
        p.grad = np.array([0.2])
        opt = Adam({"p": p}, learning_rate=0.01, betas=(0.9, 0.999), eps=1e-8)
        opt.step()
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = 0.5 - 0.01 * 0.2 / (np.sqrt(0.04) + 1e-8)
        assert abs(p.values[0] - expected) < 1e-15

    def test_missing_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p})
        with pytest.raises(TrainingError):
            opt.step()

    def test_deterministic_trajectory(self):
        def run():
            ds = sine_dataset()
            model = TimeMixerModel(SMALL)
            train(model, ds, TrainConfig(max_epochs=3, patience=3, seed=4))
            return model.parameter_vector()

        assert np.array_equal(run(), run())


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(patience=10, max_epochs=5).validate()
        with pytest.raises(TrainingError):
            TrainConfig(adam_betas=(1.2, 0.9)).validate()

    def test_zero_learning_rate_keeps_params(self):
        ds = sine_dataset()
        model = TimeMixerModel(SMALL)
        before = model.parameter_vector()
        report = train(model, ds, TrainConfig(max_epochs=3, patience=3,
                                              learning_rate=0.0, seed=0))
        assert np.array_equal(model.parameter_vector(), before)
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

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_decreases_over_first_steps(self, seed):
        ds = sine_dataset(seed=seed)
        model = TimeMixerModel(ModelConfig(lookback=16, horizon=4, d_model=8,
                                           num_blocks=1, num_scales=1,
                                           decomp_kernel=5, ff_hidden=8,
                                           seed=seed))
        x_train, y_train = ds.train
        xb, yb = x_train[:32], y_train[:32]
        from volmixer.training import _normalized_batch
        xn, yn = _normalized_batch(xb, yb)
        opt = Adam(model.params, learning_rate=1e-3)
        losses = []
        for _ in range(6):
            opt.zero_grads()
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
            return model.parameter_vector(), report.train_losses

        (va, la), (vb, lb) = run(), run()
        assert np.array_equal(va, vb)
        assert la == lb

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


@pytest.mark.slow
def test_sinusoid_regression_threshold():
    """Pinned regression: a clean sinusoid trains below 1e-3 quickly."""
    t = np.arange(400)
    ds = split_chronological(make_windows(np.sin(2 * np.pi * t / 48) + 3,
                                          64, 12))
    model = TimeMixerModel(ModelConfig(lookback=64, horizon=12, seed=0))
    report = train(model, ds, TrainConfig(max_epochs=40, patience=40, seed=0))
    assert min(report.train_losses) < 1e-3
