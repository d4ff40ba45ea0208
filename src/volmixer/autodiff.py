"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Operations record themselves onto the
currently active ``Tape`` (a ``with`` block); ``backward`` replays the tape
once, in reverse, accumulating gradients into every tensor that was created
with ``requires_grad=True``. Outside a tape block nothing is recorded, so
inference passes carry no gradient state.

Only the operations the forecaster actually needs are provided, with no
general broadcasting. Every map along the time axis (moving average, pooling,
mixing, predictor heads) is one op, ``time_linear``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ParameterError(ValueError):
    """An operation parameter (kernel size, axis, ...) is invalid."""


class NumericError(FloatingPointError):
    """A forward operation produced a non-finite value."""


class TapeError(RuntimeError):
    """Tape misuse: backward without a tape, reused tape, non-scalar loss."""


class Tensor:
    """Dense float64 array with an optional accumulated gradient."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations, replayable backward exactly once."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.used = False

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.pop()

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _ACTIVE[-1] if _ACTIVE else None


def _make(values: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable,
          op: str) -> Tensor:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite values produced by '{op}'")
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(tuple(inputs), out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    The tape is single-use: a second backward over it raises ``TapeError``.
    """
    if loss.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape.used:
        raise TapeError("tape already consumed by a previous backward")
    tape.used = True
    loss.grad = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)
    tape.nodes.clear()


# ---------------------------------------------------------------------------
# recorded primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(a.values + b.values, (a, b), bwd, "add")


def subtract(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"subtract: {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _make(a.values - b.values, (a, b), bwd, "subtract")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"multiply: {a.shape} vs {b.shape}")
    av, bv = a.values, b.values

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * bv)
        if b.requires_grad:
            b._accumulate(g * av)

    return _make(av * bv, (a, b), bwd, "multiply")


def mean(x: Tensor) -> Tensor:
    n = x.size

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.values, float(g) / n))

    return _make(np.asarray(x.values.mean()), (x,), bwd, "mean")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the trailing dimension of ``x``."""
    n_in, n_out = weight.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear: input trailing dim {x.shape[-1]} != {n_in}")
    if bias is not None and bias.shape != (n_out,):
        raise ShapeError(f"linear: bias shape {bias.shape} != ({n_out},)")
    out_vals = x.values @ weight.values
    if bias is not None:
        out_vals = out_vals + bias.values
    xv = x.values

    def bwd(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            x._accumulate(g @ weight.values.T)
        if weight.requires_grad:
            weight._accumulate(xv.reshape(-1, n_in).T @ g2)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_vals, inputs, bwd, "linear")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Elementwise x * Phi(x), tanh approximation."""
    v = x.values
    inner = _GELU_C * (v + 0.044715 * v ** 3)
    t = np.tanh(inner)

    def bwd(g):
        if x.requires_grad:
            sech2 = 1.0 - t * t
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * v ** 2)
            x._accumulate(g * (0.5 * (1.0 + t) + 0.5 * v * sech2 * d_inner))

    return _make(0.5 * v * (1.0 + t), (x,), bwd, "gelu")


def time_linear(x: Tensor, a, bias: Optional[Tensor] = None,
                denom: float = 1.0) -> Tensor:
    """``(a.T @ x) / denom + bias`` along the time axis (second-to-last).

    ``a`` is (T, T') and maps T input steps to T' output steps, shared across
    the leading and channel axes. It is either a learned ``Tensor`` (a mixing
    map or a predictor head) or a constant array, such as the integer count
    matrices of the averaging helpers below, which pass their divisor as
    ``denom``.
    """
    learned = isinstance(a, Tensor)
    av = a.values if learned else a
    t_in, t_out = av.shape
    xv = x.values
    if xv.ndim < 2 or xv.shape[-2] != t_in:
        raise ShapeError(f"time_linear: input {x.shape} has no time axis of "
                         f"length {t_in}")
    if bias is not None and bias.shape != (t_out,):
        raise ShapeError(f"time_linear: bias shape {bias.shape} != ({t_out},)")
    out_vals = av.T @ xv
    if denom != 1.0:
        out_vals /= denom
    if bias is not None:
        out_vals += bias.values[:, None]
    other = tuple(i for i in range(xv.ndim) if i != xv.ndim - 2)

    def bwd(g):
        if x.requires_grad:
            gx = av @ g
            x._accumulate(gx / denom if denom != 1.0 else gx)
        if learned and a.requires_grad:
            ga = np.tensordot(xv, g, axes=(other, other))
            a._accumulate(ga / denom if denom != 1.0 else ga)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=other))

    inputs = (x,) + ((a,) if learned else ())
    inputs += (bias,) if bias is not None else ()
    return _make(out_vals, inputs, bwd, "time_linear")


@functools.lru_cache(maxsize=64)
def _pool_counts(t_len: int) -> np.ndarray:
    """(T, T//2) matrix with ones at steps 2k and 2k+1 of output k."""
    k = np.arange(t_len // 2)
    counts = np.zeros((t_len, t_len // 2))
    counts[2 * k, k] = counts[2 * k + 1, k] = 1.0
    counts.setflags(write=False)
    return counts


@functools.lru_cache(maxsize=64)
def _window_counts(t_len: int, kernel: int) -> np.ndarray:
    """(T, T) matrix counting how often step s falls in step t's window.

    Windows are centered; taps past either end repeat the edge step.
    """
    half = kernel // 2
    steps = np.arange(t_len)[:, None]
    taps = np.clip(steps + np.arange(-half, half + 1), 0, t_len - 1)
    counts = np.zeros((t_len, t_len))
    np.add.at(counts, (taps, steps), 1.0)
    counts.setflags(write=False)
    return counts


def avg_pool_halve(x: Tensor) -> Tensor:
    """Halve the time axis (second-to-last) by pairwise means.

    A trailing odd element is dropped, so the output length is floor(T/2).
    """
    t_len = x.shape[-2]
    if t_len < 2:
        raise ShapeError(f"avg_pool_halve: time length {t_len} < 2")
    return time_linear(x, _pool_counts(t_len), denom=2.0)


def moving_average(x: Tensor, kernel: int) -> Tensor:
    """Centered moving average along the time axis with edge replication.

    Output length equals input length; the kernel must be odd so the window
    is symmetric.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ParameterError(f"moving_average: kernel must be odd positive, got {kernel}")
    return time_linear(x, _window_counts(x.shape[-2], kernel), denom=kernel)


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes; the model uses ``time_linear`` instead.

    Kept because ``perfbench/spans.py`` traces every op in its ``OPS`` list.
    """
    if x.values.ndim < 2:
        raise ShapeError("transpose_last2 needs at least 2 dimensions")

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(x.values, -1, -2), (x,), bwd, "transpose_last2")


def reshape(x: Tensor, shape) -> Tensor:
    old = x.values.shape

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old))

    return _make(x.values.reshape(shape), (x,), bwd, "reshape")
