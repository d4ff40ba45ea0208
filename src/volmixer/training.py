"""Mini-batch training with Adam and validation-based early stopping.

The loss is MSE on the instance-normalized scale, which keeps step sizes
comparable across assets whose volatility levels differ by orders of
magnitude. Validation passes run outside any tape, so they record no
gradient state. Training steps record on tapes inside an epoch's
``autodiff.Workspace``, so each step reuses the previous step's arrays.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from volmixer import autodiff as ad
from volmixer.atomic import write_atomic
from volmixer.autodiff import Tape, Tensor, Workspace
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
        if not 0 <= self.learning_rate < math.inf:    # NaN fails too
            raise TrainingError(f"learning_rate must be finite and >= 0, "
                                f"got {self.learning_rate}")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
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
        write_atomic(path, self.to_json())


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared differences, differentiable through ``pred``."""
    if pred.shape != target.shape:
        raise ad.ShapeError(f"mse_loss: {pred.shape} vs {target.shape}")
    diff = ad.subtract(pred, target)
    return ad.mean(ad.multiply(diff, diff))


class Adam:
    """Standard Adam over a model's parameter vector ``flat``, reading the
    gradients from its ``grad_flat``. The moments ``m`` and ``v`` and two
    scratch rows are allocated once, so a step allocates nothing."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: TimeMixerModel, learning_rate: float = 1e-3):
        self.params, self.flat = model.params, model.flat
        self.grads = model.grad_flat
        self.lr = learning_rate
        self.step_count = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = np.empty((2, self.flat.size))

    def step(self) -> None:
        """One update of every parameter, or, if one has no gradient, a
        ``TrainingError`` naming it and no change at all."""
        for name, p in self.params.items():
            if p.grad is None:
                raise TrainingError(f"parameter '{name}' has no gradient")
        self.step_count += 1
        t = self.step_count
        g, m, v = self.grads, self.m, self.v
        s, d = self._scratch
        # each element rounds as in m = b1 * m + (1 - b1) * g,
        # v = b2 * v + (1 - b2) * g * g and
        # flat -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
        m *= self.b1
        m += np.multiply(g, 1 - self.b1, out=s)
        v *= self.b2
        np.multiply(g, 1 - self.b2, out=s)
        s *= g
        v += s
        np.divide(m, 1 - self.b1 ** t, out=s)
        s *= self.lr
        np.divide(v, 1 - self.b2 ** t, out=d)
        np.sqrt(d, out=d)
        d += self.eps
        s /= d
        self.flat -= s


def _normalized_batch(x: np.ndarray, y: np.ndarray):
    """Normalize lookbacks and express targets on the same per-window scale."""
    x_norm, stats = instance_normalize(x)
    y_norm = (y - stats.mean[:, 0:1]) / stats.std[:, 0:1]
    return x_norm, y_norm


def evaluate_split(model: TimeMixerModel, x: np.ndarray, y: np.ndarray) -> float:
    """Normalized-scale MSE over a split, without recording gradients; an
    empty split raises ``TrainingError``."""
    if x.shape[0] == 0:
        raise TrainingError(f"cannot evaluate an empty split: x has shape "
                            f"{x.shape}")
    total, count = 0.0, 0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        xb, yb = _normalized_batch(x[lo:lo + EVAL_BATCH], y[lo:lo + EVAL_BATCH])
        pred = model.predict_normalized(xb)
        total += float(np.sum((pred - yb) ** 2))
        count += yb.size
    return total / count


def _step(model: TimeMixerModel, optimizer: Adam, workspace: Workspace,
          xb: np.ndarray, yb: np.ndarray) -> float:
    """One Adam step on a normalized batch; the batch loss.

    It resets ``workspace`` and records on a plain tape inside it, so it
    reuses the arrays of the workspace's previous step: once the pool holds
    a step's working set, a step of the same batch size allocates no
    activations, gradients or scratch anew.
    """
    model.zero_grads()
    workspace.reset()
    with workspace, Tape() as tape:
        loss = mse_loss(model.forward_normalized(xb), Tensor(yb))
    ad.backward(loss, tape)
    optimizer.step()
    return float(loss.values)


def _fit_epoch(model: TimeMixerModel, optimizer: Adam, x: np.ndarray,
               y: np.ndarray, order: np.ndarray, batch_size: int,
               epoch: int) -> float:
    """One ``_step`` per batch of ``order``; the mean batch loss.

    The full batches share one workspace. A short last batch gets a fresh
    one, so the full batches' pool is dropped before it fills its own, and
    that one is dropped when this call returns: validation allocates its
    own, larger batches.
    """
    workspace = Workspace()
    epoch_loss, n_batches = 0.0, 0
    for lo in range(0, order.size, batch_size):
        idx = order[lo:lo + batch_size]
        if idx.size != batch_size:
            workspace = Workspace()
        try:
            epoch_loss += _step(model, optimizer, workspace,
                                *_normalized_batch(x[idx], y[idx]))
        except ad.NumericError as exc:
            raise TrainingError(f"loss diverged at epoch {epoch}, "
                                f"batch {n_batches}: {exc}") from exc
        n_batches += 1
    return epoch_loss / n_batches


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
    optimizer = Adam(model, config.learning_rate)
    report = TrainReport()
    best = model.flat.copy()
    since_best = 0
    t0 = time.perf_counter()

    for epoch in range(config.max_epochs):
        order = rng.permutation(x_train.shape[0])
        report.train_losses.append(_fit_epoch(model, optimizer, x_train,
                                              y_train, order,
                                              config.batch_size, epoch))
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
