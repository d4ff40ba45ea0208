"""Mini-batch training with Adam and validation-based early stopping.

The loss is MSE on the instance-normalized scale, which keeps step sizes
comparable across assets whose volatility levels differ by orders of
magnitude. Validation passes run outside any tape, so they record no
gradient state.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from volmixer import autodiff as ad
from volmixer.atomic import write_atomic
from volmixer.autodiff import Tape, Tensor
from volmixer.market_data import WindowedDataset
from volmixer.model import EVAL_BATCH, TimeMixerModel, instance_normalize


class TrainingError(RuntimeError):
    """Training diverged or its preconditions were violated."""


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_epochs: int = 300
    patience: int = 15
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1 or self.max_epochs < 1:
            raise TrainingError("batch_size and max_epochs must be >= 1")
        if self.learning_rate < 0:
            raise TrainingError("learning_rate must be >= 0")
        if self.patience < 0 or self.patience > self.max_epochs:
            raise TrainingError("need 0 <= patience <= max_epochs")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    stopping_reason: str = ""
    wall_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def write(self, path) -> None:
        path = Path(path)
        write_atomic(path, self.to_json())
        lines = [f"epoch {i:4d}  train {tr:.6e}  val {vl:.6e}"
                 for i, (tr, vl) in enumerate(zip(self.train_losses,
                                                  self.val_losses))]
        lines.append(f"best epoch {self.best_epoch} "
                     f"(val {self.best_val_loss:.6e}); "
                     f"stopped: {self.stopping_reason}; "
                     f"wall time {self.wall_time:.1f}s")
        write_atomic(path.with_suffix(".log"), "\n".join(lines) + "\n")


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences, differentiable through ``pred``."""
    if pred.shape != target.shape:
        raise ad.ShapeError(f"mse_loss: {pred.shape} vs {target.shape}")
    diff = ad.subtract(pred, target)
    return ad.mean(ad.multiply(diff, diff))


class Adam:
    """Standard Adam over a named parameter dict of Tensors."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3):
        self.params = params
        self.lr = learning_rate
        self.step_count = 0
        self.m = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                raise TrainingError(f"parameter '{name}' has no gradient")
            g = p.grad
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            m_hat = self.m[name] / (1 - self.b1 ** t)
            v_hat = self.v[name] / (1 - self.b2 ** t)
            # in place: the model's parameters are views into its flat vector
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _normalized_batch(x: np.ndarray, y: np.ndarray):
    """Normalize lookbacks and express targets on the same per-window scale."""
    x_norm, stats = instance_normalize(x)
    y_norm = (y - stats.mean[:, 0:1]) / stats.std[:, 0:1]
    return x_norm, y_norm


def evaluate_split(model: TimeMixerModel, x: np.ndarray, y: np.ndarray) -> float:
    """Normalized-scale MSE over a split, without recording gradients."""
    total, count = 0.0, 0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        xb, yb = _normalized_batch(x[lo:lo + EVAL_BATCH], y[lo:lo + EVAL_BATCH])
        pred = model.forward_normalized(xb).values
        total += float(np.sum((pred - yb) ** 2))
        count += yb.size
    return total / count


def train(model: TimeMixerModel, dataset: WindowedDataset,
          config: TrainConfig) -> TrainReport:
    """Fit the model on the train split; restore the best-validation weights.

    Stops after ``patience`` epochs without validation improvement or at
    ``max_epochs``. Shuffling touches the train split only.
    """
    config.validate()
    x_train, y_train = dataset.train
    x_val, y_val = dataset.val
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise TrainingError("train and val splits must be nonempty")

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, config.learning_rate)
    report = TrainReport()
    best = model.flat.copy()
    since_best = 0
    t0 = time.perf_counter()

    for epoch in range(config.max_epochs):
        order = rng.permutation(x_train.shape[0])
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            xb, yb = _normalized_batch(x_train[idx], y_train[idx])
            model.zero_grads()
            tape = Tape()
            try:
                with tape:
                    pred = model.forward_normalized(xb)
                    loss = mse_loss(pred, Tensor(yb))
                ad.backward(loss, tape)
                optimizer.step()
            except ad.NumericError as exc:
                raise TrainingError(f"loss diverged at epoch {epoch}, "
                                    f"batch {n_batches}: {exc}") from exc
            epoch_loss += float(loss.values)
            n_batches += 1
        report.train_losses.append(epoch_loss / n_batches)
        try:
            val_loss = evaluate_split(model, x_val, y_val)
        except ad.NumericError as exc:
            raise TrainingError(f"validation loss diverged at epoch "
                                f"{epoch}: {exc}") from exc
        report.val_losses.append(val_loss)

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = model.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                report.stopping_reason = "patience"
                break
    else:
        report.stopping_reason = "max_epochs"

    model.flat[...] = best
    report.wall_time = time.perf_counter() - t0
    return report
