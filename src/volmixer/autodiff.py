"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap float64 numpy arrays. Operations record themselves onto the
currently active ``Tape`` (a ``with`` block); ``backward`` replays the tape
once, in reverse, accumulating gradients into every tensor that was created
with ``requires_grad=True``. Outside a tape block nothing is recorded, so
inference passes carry no gradient state.

Arrays are pooled inside a ``with workspace:`` block (a ``Workspace``):
under it, every op takes its outputs, gradients and scratch arrays from that
pool, and the pool hands the same buffers out again after its ``reset``. So a
training loop that resets one workspace per step, and records each step on a
plain ``Tape()`` inside it, reuses one step's working set, and a forward-only
pass that resets one between chunks of windows reuses one chunk's; the arrays
of the previous step or chunk are overwritten by the next. Outside every
workspace block, each op allocates fresh arrays.

An op gives back, before the ``reset``, what it will not read again: its
scratch once read, and a gradient it formed once ``_accumulate`` has added
it into the receiving tensor's ``grad`` or copied it into a ``grad_buffer``.
So later ops of the same step take those buffers again. Op outputs, what a
backward closure still reads and the gradients tensors keep stay lent until
the ``reset``.

``linear``, ``time_linear`` and ``segment_linear`` add their biases as one
(T, width) block, laid out like the output's last two axes, in a single add
broadcast over the leading axes, and sum a bias gradient over the leading
axes into such a block before summing it per bias. NumPy runs a broadcast
whose inner axis is a narrow layer width one row at a time (and buffers it
when the rows are strided); the block keeps the inner loop long, and each
output element still gets its bias by the same single addition.

Only the operations the forecaster actually needs are provided, with no
general broadcasting. Every map along the time axis (moving average, pooling,
mixing, predictor heads) is one op, ``time_linear``.
"""

from __future__ import annotations

import functools
import itertools
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


class _Fresh:
    """Where ops outside every workspace block take arrays from: each
    ``empty`` is a new array, nothing is kept, and ``give_back`` does
    nothing."""

    empty = staticmethod(np.empty)
    give_back = staticmethod(lambda buf: None)


_FRESH = _Fresh()


class Tensor:
    """Dense float64 array with an optional accumulated gradient.

    Its ``grad_buffer`` is None; only a ``Parameter`` binds one.
    """

    __slots__ = ("values", "requires_grad", "grad", "grad_buffer")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.grad_buffer: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray,
                    back_to: "Workspace | _Fresh | None" = None,
                    copy_from: "Workspace | _Fresh | None" = None) -> None:
        """Add ``g`` into ``grad``.

        By default the caller hands ``g`` over and reads it no more once
        this tensor's gradient can change, so a first gradient is taken as
        it is. A caller whose ``g`` is still read elsewhere passes
        ``copy_from``, the workspace a first gradient is copied into, since
        a later ``+=`` into ``grad`` must not write into ``g``. A first
        gradient is copied into ``grad_buffer`` when there is one, not added
        to it, so its signed zeros keep their bytes.

        A caller that took ``g`` from a workspace for this call alone passes
        that workspace as ``back_to``: a ``g`` not kept as ``grad`` goes back
        there.
        """
        if self.grad is not None:
            self.grad += g
        elif self.grad_buffer is not None:
            self.grad = self.grad_buffer
            np.copyto(self.grad, g)
        elif copy_from is None:
            self.grad = g
            return
        else:
            self.grad = copy_from.empty(g.shape)
            np.copyto(self.grad, g)
        if back_to is not None:
            back_to.give_back(g)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_VALUES_SLOT = Tensor.values


def _write_through(param: "Parameter", new) -> None:
    view = _VALUES_SLOT.__get__(param)
    new = np.asarray(new, dtype=np.float64)
    if new.shape != view.shape:
        raise ParameterError(f"parameter of shape {view.shape} cannot take "
                             f"values of shape {new.shape}")
    view[...] = new


class Parameter(Tensor):
    """A trainable tensor bound to one array for life, such as its view into
    a model's parameter vector.

    Assigning to ``values`` copies into that array, so whatever else reads
    the array sees the new values; an array of another shape raises
    ``ParameterError``. ``grad_buffer``, if given, is the array that the
    first gradient is copied into and later ones are added to, so ``grad``
    is that array once the parameter is reached (a model's parameters keep
    theirs in one vector).
    """

    __slots__ = ()

    def __init__(self, values: np.ndarray,
                 grad_buffer: Optional[np.ndarray] = None):
        _VALUES_SLOT.__set__(self, values)
        self.requires_grad = True
        self.grad = None
        self.grad_buffer = grad_buffer

    # read through the slot's own getter, so a read costs no Python call
    values = property(_VALUES_SLOT.__get__, _write_through)


class _Node:
    __slots__ = ("inputs", "outputs", "backward_fn")

    def __init__(self, inputs, outputs, backward_fn):
        self.inputs = inputs
        self.outputs = outputs
        self.backward_fn = backward_fn


class Workspace:
    """Pool of float64 arrays, lent by shape inside ``with workspace:``.

    While the block is the innermost one entered, every op takes its arrays
    from the workspace. ``empty`` lends a buffer, cutting a new one from the
    heap only when every buffer of that shape is lent. ``give_back`` takes
    one buffer back before the step ends, once its op will not read it
    again, and the next ``empty`` of that shape lends it first. ``reset``
    takes all of them back, in the order they were cut, so a step that
    repeats the previous step's ``empty`` and ``give_back`` calls gets the
    same buffers and overwrites what that step left there. The buffers are
    freed with the workspace, once nothing else holds them.
    """

    def __init__(self):
        self._cut: dict[tuple, list[np.ndarray]] = {}
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._lent: list[tuple[tuple, np.ndarray]] = []

    def empty(self, shape: tuple) -> np.ndarray:
        free = self._free.get(shape)
        if free:
            buf = free.pop()
        else:
            buf = np.empty(shape)
            self._cut.setdefault(shape, []).append(buf)
        self._lent.append((shape, buf))
        return buf

    def give_back(self, buf: np.ndarray) -> None:
        """Take back ``buf``, which this workspace lends; anything else, such
        as a view of it or a buffer already given back, raises
        ``ValueError``."""
        lent = self._lent
        # a buffer comes back soon after it was lent: search from the end
        for i in range(len(lent) - 1, -1, -1):
            if lent[i][1] is buf:
                shape, _ = lent.pop(i)
                self._free.setdefault(shape, []).append(buf)
                return
        raise ValueError("give_back: the buffer is not lent by this workspace")

    def __enter__(self) -> "Workspace":
        _POOLS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _POOLS.pop()

    def reset(self) -> None:
        # reversed, so that ``pop`` lends each shape's buffers in cut order
        self._free = {shape: bufs[::-1] for shape, bufs in self._cut.items()}
        self._lent.clear()


class Tape:
    """Ordered record of operations, replayable backward exactly once.

    Recorded inside ``with workspace:``, the ops and their backward take
    every array from that workspace, so the tape's outputs and the gradients
    ``backward`` leaves on tensors without a ``grad_buffer`` are overwritten
    once the workspace is reset for the next step. Until then they stay
    lent; ``backward`` gives back only the gradients it adds into a
    ``grad`` or copies into a ``grad_buffer``, and the ops' scratch.
    """

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
_POOLS: list[Workspace] = []


def active_tape() -> Optional[Tape]:
    return _ACTIVE[-1] if _ACTIVE else None


def _workspace() -> "Workspace | _Fresh":
    """The innermost workspace entered, or ``_FRESH`` outside all of them."""
    return _POOLS[-1] if _POOLS else _FRESH


# whether each op checks that its output is finite; see ``checks``
_checking = True


class checks:
    """``with checks(False):`` runs its block without each op's check of its
    output, and ``with checks(True):`` with it; leaving the block restores
    the setting before it. The check is on by default."""

    __slots__ = ("on", "before")

    def __init__(self, on: bool):
        self.on = on

    def __enter__(self) -> None:
        global _checking
        self.before, _checking = _checking, self.on

    def __exit__(self, *exc) -> None:
        global _checking
        _checking = self.before


def _check_finite(values: np.ndarray, op: str) -> None:
    if _checking and not np.isfinite(values).all():
        raise NumericError(f"non-finite values produced by '{op}'")


def _make(values: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable,
          op: str) -> Tensor:
    _check_finite(values, op)
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    _record((out,), inputs, backward_fn)
    return out


def _record(outputs: tuple[Tensor, ...], inputs: Sequence[Tensor],
            backward_fn: Callable) -> None:
    """Put an op on the active tape if its outputs need gradients.

    ``backward_fn`` takes one gradient per output, ``None`` for an output
    that received none.
    """
    tape = active_tape()
    if tape is not None and outputs[0].requires_grad:
        tape.nodes.append(_Node(tuple(inputs), outputs, backward_fn))


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
        grads = [t.grad for t in node.outputs]
        if any(g is not None for g in grads):
            node.backward_fn(*grads)
    tape.nodes.clear()


# ---------------------------------------------------------------------------
# recorded primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    ws = _workspace()

    def bwd(g):
        # nothing reads this node's output gradient again, so the first input
        # served takes ``g`` itself and only the other one a copy
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g, copy_from=ws if a.requires_grad else None)

    return _make(np.add(a.values, b.values, out=ws.empty(a.shape)), (a, b),
                 bwd, "add")


def subtract(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"subtract: {a.shape} vs {b.shape}")
    ws = _workspace()

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g, copy_from=ws)
        if b.requires_grad:
            b._accumulate(np.negative(g, out=ws.empty(g.shape)), ws)

    return _make(np.subtract(a.values, b.values, out=ws.empty(a.shape)),
                 (a, b), bwd, "subtract")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"multiply: {a.shape} vs {b.shape}")
    av, bv = a.values, b.values
    ws = _workspace()

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.multiply(g, bv, out=ws.empty(g.shape)), ws)
        if b.requires_grad:
            b._accumulate(np.multiply(g, av, out=ws.empty(g.shape)), ws)

    return _make(np.multiply(av, bv, out=ws.empty(a.shape)), (a, b), bwd,
                 "multiply")


def mean(x: Tensor) -> Tensor:
    n = x.size
    ws = _workspace()

    def bwd(g):
        if x.requires_grad:
            gx = ws.empty(x.shape)
            gx.fill(float(g) / n)
            x._accumulate(gx, ws)

    return _make(np.asarray(x.values.mean()), (x,), bwd, "mean")


def _add_block(out: np.ndarray, block: np.ndarray, ws) -> None:
    """``out += block`` for a contiguous (..., T, width) ``out`` and a
    (T, width) ``block`` lent by ``ws``, which then takes it back: one
    broadcast over the leading axes, whose inner loop runs over the whole
    block instead of one row of ``width``."""
    view = out.reshape((-1,) + block.shape)
    view += block
    ws.give_back(block)


def _lead_sum(g: np.ndarray, rows: int, width: int, ws) -> np.ndarray:
    """``g`` (..., rows, width) summed over its leading axes into one
    (rows, width) block, adding whole blocks rather than narrow rows."""
    return np.sum(g.reshape(-1, rows, width), axis=0,
                  out=ws.empty((rows, width)))


def _bias_grad(g: np.ndarray, rows: int, width: int, axis: int,
               ws) -> np.ndarray:
    """A bias gradient: ``g``'s ``_lead_sum`` block summed along ``axis``
    (0 for one value per column, 1 per row); the block goes back."""
    block = _lead_sum(g, rows, width, ws)
    out = np.sum(block, axis=axis, out=ws.empty((block.shape[1 - axis],)))
    ws.give_back(block)
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` over the trailing dimension of ``x``.

    The bias goes in, and its gradient comes out, through a (T, n_out)
    block, T the second-to-last length of ``x`` (1 for a vector).
    """
    n_in, n_out = weight.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear: input trailing dim {x.shape[-1]} != {n_in}")
    if bias is not None and bias.shape != (n_out,):
        raise ShapeError(f"linear: bias shape {bias.shape} != ({n_out},)")
    ws = _workspace()
    xv = x.values
    rows = xv.shape[-2] if xv.ndim > 1 else 1
    out_vals = np.matmul(xv, weight.values,
                         out=ws.empty(xv.shape[:-1] + (n_out,)))
    if bias is not None:
        block = ws.empty((rows, n_out))
        block[...] = bias.values
        _add_block(out_vals, block, ws)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.values.T,
                                    out=ws.empty(xv.shape)), ws)
        if weight.requires_grad:
            weight._accumulate(np.matmul(xv.reshape(-1, n_in).T,
                                         g.reshape(-1, n_out),
                                         out=ws.empty((n_in, n_out))), ws)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_bias_grad(g, rows, n_out, 0, ws), ws)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_vals, inputs, bwd, "linear")


_GELU_C = math.sqrt(2.0 / math.pi)
# elements per pass of ``gelu``: 256 KiB of float64, so a block's scratch
# stays in cache between the kernel's passes over it
_GELU_BLOCK = 1 << 15


def _gelu_block(v, out, t, deriv, d) -> None:
    """GELU of ``v`` into ``out``, and its derivative into ``deriv`` unless
    that is None, through the scratch ``t`` and ``d``; all of one shape.

    ``t = tanh(c * (v + k * v * v * v))`` and ``out = 0.5 * v * (1 + t)``;
    the derivative is ``0.5 * (1 + t) + 0.5 * v * (1 - t * t) * d_inner``
    with ``d_inner = c * (1 + 3k * v * v)``, each rounded in that order.
    """
    np.multiply(v, v, out=t)
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=out)
    out *= v
    out *= 0.5
    if deriv is None:
        return
    np.multiply(v, v, out=d)                                # d_inner
    d *= 3 * 0.044715
    d += 1.0
    d *= _GELU_C
    np.add(t, 1.0, out=deriv)                               # first term
    deriv *= 0.5
    np.multiply(t, t, out=t)                                # second term
    np.subtract(1.0, t, out=t)
    t *= v
    t *= 0.5
    t *= d
    deriv += t


def _gelu_pass(v: np.ndarray, ws, grad: bool):
    """``(out, deriv)``: GELU of ``v`` and, if ``grad``, its derivative
    (else None), each a new array of ``v``'s shape; the scratch goes back."""
    out = ws.empty(v.shape)
    deriv = ws.empty(v.shape) if grad else None
    t = ws.empty((min(v.size, _GELU_BLOCK),))
    d = ws.empty(t.shape) if grad else None
    flat_v, flat_out = v.reshape(-1), out.reshape(-1)
    flat_deriv = deriv.reshape(-1) if grad else None
    for lo in range(0, v.size, _GELU_BLOCK):
        n = min(_GELU_BLOCK, v.size - lo)
        _gelu_block(flat_v[lo:lo + n], flat_out[lo:lo + n], t[:n],
                    flat_deriv[lo:lo + n] if grad else None,
                    d[:n] if grad else None)
    ws.give_back(t)
    if grad:
        ws.give_back(d)
    return out, deriv


def gelu(x: Tensor) -> Tensor:
    """Elementwise x * Phi(x), tanh approximation.

    Cubes and squares are products, not ``**`` (NumPy's generic power path is
    slow), and ``x`` is never written. Every input is worked through in
    blocks of at most ``_GELU_BLOCK`` elements, each with its own passes over
    1-D scratch of one block. Being elementwise, the results do not depend
    on the blocks. Under a tape the same pass forms the derivative, the one
    array the node keeps, and the backward multiplies it by the output
    gradient in place.
    """
    ws = _workspace()
    out, deriv = _gelu_pass(x.values, ws,
                            x.requires_grad and active_tape() is not None)

    def bwd(g):
        np.multiply(deriv, g, out=deriv)
        x._accumulate(deriv, ws)

    return _make(out, (x,), bwd, "gelu")


def time_linear(x: Tensor, a, bias: Optional[Tensor] = None,
                denom: float = 1.0) -> Tensor:
    """``(a.T @ x) / denom + bias`` along the time axis (second-to-last).

    ``a`` is (T, T') and maps T input steps to T' output steps, shared across
    the leading and channel axes. It is either a learned ``Tensor`` (a mixing
    map or a predictor head) or a constant array, such as the integer count
    matrices of the averaging helpers below, which pass their divisor as
    ``denom``.

    The bias, one value per output step, goes in, and its gradient comes
    out, through a (T', channels) block holding each value along its row.
    """
    learned = isinstance(a, Tensor)
    av = a.values if learned else a
    if av.ndim != 2:
        raise ShapeError(f"time_linear: map of shape {av.shape} is not 2-D")
    t_in, t_out = av.shape
    xv = x.values
    if xv.ndim < 2 or xv.shape[-2] != t_in:
        raise ShapeError(f"time_linear: input {x.shape} has no time axis of "
                         f"length {t_in}")
    if bias is not None and bias.shape != (t_out,):
        raise ShapeError(f"time_linear: bias shape {bias.shape} != ({t_out},)")
    ws = _workspace()
    out_vals = np.matmul(av.T, xv,
                         out=ws.empty(xv.shape[:-2] + (t_out, xv.shape[-1])))
    if denom != 1.0:
        out_vals /= denom
    width = xv.shape[-1]
    if bias is not None:
        block = ws.empty((t_out, width))
        block[...] = bias.values[:, None]
        _add_block(out_vals, block, ws)

    def bwd(g):
        if x.requires_grad:
            gx = np.matmul(av, g, out=ws.empty(xv.shape))
            if denom != 1.0:
                gx /= denom
            x._accumulate(gx, ws)
        if learned and a.requires_grad:
            # x as (T, n·C) and g as (n·C, T'), n the windows, copied in the
            # order ``np.tensordot`` copies them in, so one GEMM of the same
            # operands sums over every axis but time
            lead = xv.shape[:-2]
            xt = ws.empty((t_in, math.prod(lead) * width))
            np.copyto(xt.reshape((t_in,) + lead + (width,)),
                      np.moveaxis(xv, -2, 0))
            gt = ws.empty((xt.shape[1], t_out))
            np.copyto(gt.reshape(lead + (width, t_out)),
                      np.swapaxes(g, -1, -2))
            ga = np.dot(xt, gt, out=ws.empty((t_in, t_out)))
            ws.give_back(xt)
            ws.give_back(gt)
            if denom != 1.0:
                ga /= denom
            a._accumulate(ga, ws)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_bias_grad(g, t_out, width, 1, ws), ws)

    inputs = (x,) + ((a,) if learned else ())
    inputs += (bias,) if bias is not None else ()
    return _make(out_vals, inputs, bwd, "time_linear")


def _bounds(lengths: Sequence[int]) -> list[tuple[int, int]]:
    """(start, stop) of consecutive segments of the given lengths."""
    ends = list(itertools.accumulate(lengths))
    return list(zip([0] + ends[:-1], ends))


def _segments(op: str, shape: tuple, weights: Sequence[Tensor],
              biases: Sequence[Tensor], lengths: Sequence[int]):
    """``(bounds, (n_in, n_out))``: the segments of ``lengths`` and the
    weights' shape, once an input of ``shape`` and one (n_in, n_out) weight
    and (n_out,) bias per segment fit them; else ``ShapeError``."""
    first = weights[0].shape if weights else ()
    if (len(first) != 2 or len(shape) < 2
            or shape[-2:] != (sum(lengths), first[0])
            or not len(weights) == len(biases) == len(lengths)
            or any(w.shape != first or b.shape != first[1:]
                   for w, b in zip(weights, biases))):
        raise ShapeError(f"{op}: input {shape}, segments {list(lengths)}, "
                         f"weights {[w.shape for w in weights]}, biases "
                         f"{[b.shape for b in biases]}")
    return _bounds(lengths), first


def _segment_matmul(v: np.ndarray, mats, bounds, n_out: int, ws,
                    biases: Optional[Sequence[Tensor]] = None) -> np.ndarray:
    """A new (..., ΣT, n_out) array: ``v``'s time segment m times
    ``mats[m]``, plus, if given, ``biases[m]`` through a (ΣT, n_out) block
    holding it in segment m's rows."""
    out = ws.empty(v.shape[:-1] + (n_out,))
    for mat, (lo, hi) in zip(mats, bounds):
        np.matmul(v[..., lo:hi, :], mat, out=out[..., lo:hi, :])
    if biases is not None:
        block = ws.empty((bounds[-1][1], n_out))
        for b, (lo, hi) in zip(biases, bounds):
            block[lo:hi] = b.values
        _add_block(out, block, ws)
    return out


def _segment_param_grads(v: np.ndarray, g: np.ndarray, weights, biases,
                         bounds, ws) -> None:
    """Add the gradients of ``v_m @ weights[m] + biases[m]`` for the output
    gradient ``g`` into the weights and biases that need them: weight m's
    is ``v_mᵀ @ g_m`` per window, one batched matmul, summed over the
    windows; bias m's sums segment m's rows of ``g``'s ``_lead_sum``."""
    rows, n_in, n_out = bounds[-1][1], v.shape[-1], g.shape[-1]
    v3, g3 = v.reshape(-1, rows, n_in), g.reshape(-1, rows, n_out)
    per_window = ws.empty((v3.shape[0], n_in, n_out))
    g_block = _lead_sum(g, rows, n_out, ws)
    for w, b, (lo, hi) in zip(weights, biases, bounds):
        if w.requires_grad:
            np.matmul(v3[:, lo:hi].transpose(0, 2, 1), g3[:, lo:hi],
                      out=per_window)
            w._accumulate(np.sum(per_window, axis=0,
                                 out=ws.empty((n_in, n_out))), ws)
        if b.requires_grad:
            b._accumulate(np.sum(g_block[lo:hi], axis=0,
                                 out=ws.empty((n_out,))), ws)
    ws.give_back(per_window)
    ws.give_back(g_block)


def segment_linear(x: Tensor, weights: Sequence[Tensor],
                   biases: Sequence[Tensor], lengths: Sequence[int]) -> Tensor:
    """``linear`` with its own weight and bias on each time segment.

    The time axis (second-to-last) of ``x`` is cut into consecutive segments
    of ``lengths``; segment m maps to ``x_m @ weights[m] + biases[m]``.

    The biases go in, and their gradients come out, through one (ΣT, n_out)
    block holding ``biases[m]`` in segment m's rows. Weight m's gradient is
    ``x_mᵀ @ g_m`` per window, one batched matmul, summed over the windows.
    """
    xv = x.values
    bounds, (n_in, n_out) = _segments("segment_linear", xv.shape, weights,
                                      biases, lengths)
    ws = _workspace()
    out_vals = _segment_matmul(xv, [w.values for w in weights], bounds, n_out,
                               ws, biases)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(_segment_matmul(g, [w.values.T for w in weights],
                                          bounds, n_in, ws), ws)
        _segment_param_grads(xv, g, weights, biases, bounds, ws)

    return _make(out_vals, (x, *weights, *biases), bwd, "segment_linear")


def residual_feedforward(res: Tensor, x: Tensor, w1s: Sequence[Tensor],
                         b1s: Sequence[Tensor], w2s: Sequence[Tensor],
                         b2s: Sequence[Tensor],
                         lengths: Sequence[int]) -> Tensor:
    """``add(res, segment_linear(gelu(segment_linear(x, w1s, b1s, lengths)),
    w2s, b2s, lengths))`` as one op, a residual feedforward with its own
    weights on each time segment. Each stage runs the code of its op on the
    same operands in the same order, so outputs and gradients are theirs
    byte for byte.

    It checks finiteness where those ops do, under their names:
    ``'segment_linear'`` after each matmul stage, then ``'gelu'`` and
    ``'add'``, so a ``NumericError`` names the same op as theirs would.

    The node keeps ``x``, the hidden layer (the GELU output) and its
    derivative. The pre-activation goes back once GELU has read it and, with
    no gradient to form, the hidden layer once the second stage has read
    it; ``res`` is added into the output in place. The backward's
    hidden-layer gradient goes back once multiplied into the derivative, and
    ``res`` takes the output gradient itself, after every read of it.
    """
    shape = x.shape
    bounds, (n_in, hid) = _segments("residual_feedforward", shape, w1s, b1s,
                                    lengths)
    _, (_, n_out) = _segments("residual_feedforward", shape[:-1] + (hid,),
                              w2s, b2s, lengths)
    if res.shape != shape[:-1] + (n_out,):
        raise ShapeError(f"residual_feedforward: residual {res.shape} != "
                         f"output {shape[:-1] + (n_out,)}")
    inputs = (res, x, *w1s, *b1s, *w2s, *b2s)
    grad = (active_tape() is not None
            and any(t.requires_grad for t in inputs))
    ws = _workspace()
    xv = x.values
    pre = _segment_matmul(xv, [w.values for w in w1s], bounds, hid, ws, b1s)
    _check_finite(pre, "segment_linear")
    hidden, deriv = _gelu_pass(pre, ws, grad)
    ws.give_back(pre)
    _check_finite(hidden, "gelu")
    out = _segment_matmul(hidden, [w.values for w in w2s], bounds, n_out, ws,
                          b2s)
    _check_finite(out, "segment_linear")
    if not grad:
        ws.give_back(hidden)
    out += res.values

    def bwd(g):
        g_a = _segment_matmul(g, [w.values.T for w in w2s], bounds, hid, ws)
        _segment_param_grads(hidden, g, w2s, b2s, bounds, ws)
        np.multiply(deriv, g_a, out=deriv)
        ws.give_back(g_a)
        if x.requires_grad:
            x._accumulate(_segment_matmul(deriv, [w.values.T for w in w1s],
                                          bounds, n_in, ws), ws)
        _segment_param_grads(xv, deriv, w1s, b1s, bounds, ws)
        if res.requires_grad:
            res._accumulate(g)

    return _make(out, inputs, bwd, "add")


def cascade(up_base: np.ndarray, up_weights: Sequence[Tensor],
            up_biases: Sequence[Tensor], down_base: np.ndarray,
            down_weights: Sequence[Tensor],
            down_biases: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """Time map and bias of two opposite chains of affine maps over M + 1
    consecutive time segments of lengths T_0 .. T_M.

    Returns ``(a, bias)``, (ΣT, ΣT) and (ΣT,), such that
    ``time_linear(x, a, bias)`` gives, for segment m, ``u_m + v_m`` with::

        u_0 = U_0 x_0,  u_m = U_m x_m + time_linear(u_{m-1}, W_m, b_m)
        v_M = D_M x_M,  v_m = D_m x_m + time_linear(v_{m+1}, W'_m, b'_m)

    ``up_base`` and ``down_base`` are constant (ΣT, ΣT) block-diagonal
    ``time_linear`` matrices holding U_m and D_m; W_m, b_m are
    ``up_weights[m-1]`` (T_{m-1}, T_m) and ``up_biases[m-1]`` (T_m,), and
    W'_m, b'_m are ``down_weights[m]`` (T_{m+1}, T_m) and
    ``down_biases[m]`` (T_m,). The weights give the segment lengths.

    Column block m of ``a`` is the up chain's map in the rows of segments
    0..m plus the down chain's in those of segments m..M. Each chain is
    built in place in its own (ΣT + 1, ΣT) array whose extra row holds the
    bias, so every step is one product of the previous block's rows and a
    weight. Neither output depends on the batch size; the backward runs
    both recurrences in reverse.
    """
    n = len(up_weights) + 1
    lengths = ([w.shape[0] for w in up_weights] + [up_weights[-1].shape[1]]
               if up_weights else [up_base.shape[0]])
    total = sum(lengths)
    pairs = list(zip(lengths, lengths[1:]))
    shapes = [[t.shape for t in group] for group in (up_weights, up_biases,
                                                     down_weights, down_biases)]
    if (shapes != [[(f, c) for f, c in pairs], [(c,) for _, c in pairs],
                   [(c, f) for f, c in pairs], [(f,) for f, _ in pairs]]
            or {up_base.shape, down_base.shape} != {(total, total)}):
        raise ShapeError(f"cascade: bases {up_base.shape} and "
                         f"{down_base.shape}, weights and biases {shapes}")
    bounds = _bounds(lengths)
    ws = _workspace()
    up = ws.empty((total + 1, total))       # bias row first, then a's rows
    up[0] = 0.0
    up[1:] = up_base
    down = ws.empty((total + 1, total))     # a's rows, then the bias row
    down[:total] = down_base
    down[total] = 0.0
    for m in range(1, n):
        (fine, lo), (_, hi) = bounds[m - 1], bounds[m]
        np.matmul(up[:lo + 1, fine:lo], up_weights[m - 1].values,
                  out=up[:lo + 1, lo:hi])
        up[0, lo:hi] += up_biases[m - 1].values
    for m in range(n - 2, -1, -1):
        (lo, hi), (_, coarse) = bounds[m], bounds[m + 1]
        np.matmul(down[hi:, hi:coarse], down_weights[m].values,
                  out=down[hi:, lo:hi])
        down[total, lo:hi] += down_biases[m].values
    a_vals = np.add(up[1:], down[:total], out=ws.empty((total, total)))
    bias_vals = np.add(up[0], down[total], out=ws.empty((total,)))
    _check_finite(a_vals, "cascade")
    _check_finite(bias_vals, "cascade")
    params = (*up_weights, *up_biases, *down_weights, *down_biases)
    grad = any(t.requires_grad for t in params)
    a = Tensor(a_vals, requires_grad=grad)
    bias = Tensor(bias_vals, requires_grad=grad)

    def bwd(ga, gb):
        g_up = ws.empty((total + 1, total))
        g_down = ws.empty((total + 1, total))
        g_up.fill(0.0)
        g_down.fill(0.0)
        if ga is not None:
            g_up[1:] = ga
            g_down[:total] = ga
        if gb is not None:
            g_up[0] = gb
            g_down[total] = gb
        for m in range(n - 1, 0, -1):
            (fine, lo), (_, hi) = bounds[m - 1], bounds[m]
            w, b = up_weights[m - 1], up_biases[m - 1]
            g_prod = g_up[:lo + 1, lo:hi]
            if w.requires_grad:
                w._accumulate(np.matmul(up[:lo + 1, fine:lo].T, g_prod,
                                        out=ws.empty(w.shape)), ws)
            if b.requires_grad:
                b._accumulate(g_prod[0], copy_from=ws)
            back = np.matmul(g_prod, w.values.T,
                             out=ws.empty((lo + 1, lo - fine)))
            g_up[:lo + 1, fine:lo] += back
            ws.give_back(back)
        ws.give_back(g_up)
        for m in range(n - 1):
            (lo, hi), (_, coarse) = bounds[m], bounds[m + 1]
            w, b = down_weights[m], down_biases[m]
            g_prod = g_down[hi:, lo:hi]
            if w.requires_grad:
                w._accumulate(np.matmul(down[hi:, hi:coarse].T, g_prod,
                                        out=ws.empty(w.shape)), ws)
            if b.requires_grad:
                b._accumulate(g_prod[-1], copy_from=ws)
            back = np.matmul(g_prod, w.values.T,
                             out=ws.empty((total + 1 - hi, coarse - hi)))
            g_down[hi:, hi:coarse] += back
            ws.give_back(back)
        ws.give_back(g_down)

    _record((a, bias), params, bwd)
    return a, bias


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors along their first axis."""
    if not parts or any(p.shape[1:] != parts[0].shape[1:] for p in parts):
        raise ShapeError(f"concat: shapes {[p.shape for p in parts]}")
    bounds = _bounds([p.shape[0] for p in parts])
    ws = _workspace()

    def bwd(g):
        for p, (lo, hi) in zip(parts, bounds):
            if p.requires_grad:
                p._accumulate(g[lo:hi], copy_from=ws)

    out = ws.empty((bounds[-1][1],) + parts[0].shape[1:])
    return _make(np.concatenate([p.values for p in parts], out=out), parts,
                 bwd, "concat")


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
    ws = _workspace()

    def bwd(g):
        if x.requires_grad:
            x._accumulate(np.swapaxes(g, -1, -2), copy_from=ws)

    return _make(np.swapaxes(x.values, -1, -2), (x,), bwd, "transpose_last2")


def reshape(x: Tensor, shape) -> Tensor:
    old = x.values.shape
    ws = _workspace()

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g.reshape(old), copy_from=ws)

    return _make(x.values.reshape(shape), (x,), bwd, "reshape")
