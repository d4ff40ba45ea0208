"""Multiscale mixing forecaster: embedding, decomposable mixing blocks,
a multi-predictor head, and per-window instance normalization.

Layout conventions: activations are (batch, time, channels); mixing layers
act along the time axis and are shared across channels; the feedforward acts
along channels and is shared across time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from volmixer import autodiff as ad
from volmixer.atomic import write_atomic
from volmixer.autodiff import Parameter, Tensor
from volmixer.multiscale import ConfigError, build_multiscale, series_decomp

_MAGIC = b"VOLMIXCK"
_FORMAT_VERSION = 2     # 2 adds the payload's sha256; 1 is still read
_STD_FLOOR = 1e-8
EVAL_BATCH = 256    # windows per forward-only call when scoring a split
# bytes of the widest activation of one chunk of a forward-only pass: a chunk
# this size stays in a 2 MB L2 cache from op to op
_CHUNK_BYTES = 1 << 20


class CheckpointError(ValueError):
    """A checkpoint file is malformed: truncated, tampered with or of an
    unsupported format version."""


@dataclass
class ModelConfig:
    lookback: int = 64          # past steps consumed (P)
    horizon: int = 12           # future steps predicted (F)
    channels: int = 1           # input channels (C)
    d_model: int = 32           # embedding width
    num_blocks: int = 2         # stacked mixing blocks (L)
    num_scales: int = 3         # downsampling halvings (M); M+1 scales total
    decomp_kernel: int = 25     # moving-average kernel for trend extraction
    ff_hidden: int = 64         # feedforward hidden width
    seed: int = 0

    def validate(self) -> None:
        for key in ("num_scales", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got "
                                  f"{getattr(self, key)}")
        if self.lookback < 2 ** self.num_scales * 2:
            raise ConfigError(
                f"lookback {self.lookback} too short for {self.num_scales} "
                f"scales (need >= {2 ** self.num_scales * 2})")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.channels < 1 or self.d_model < 1 or self.ff_hidden < 1:
            raise ConfigError("channels, d_model and ff_hidden must be >= 1")
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.decomp_kernel < 1 or self.decomp_kernel % 2 == 0:
            raise ConfigError(
                f"decomp_kernel must be odd positive, got {self.decomp_kernel}")

    def scale_lengths(self) -> list[int]:
        return [self.lookback // (2 ** m) for m in range(self.num_scales + 1)]


@dataclass
class NormStats:
    """Per-sample, per-channel statistics retained for denormalization."""
    mean: np.ndarray   # (batch, channels)
    std: np.ndarray    # (batch, channels), floored at _STD_FLOOR


def instance_normalize(x: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Standardize each window of a (B, P, C) batch per channel (population
    divisor), returning the stats that invert it. Constant channels get a
    floored std, so the output is simply zero there."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1)
    sd = np.maximum(x.std(axis=1), _STD_FLOOR)
    return (x - mu[:, None, :]) / sd[:, None, :], NormStats(mean=mu, std=sd)


def denormalize(y: np.ndarray, stats: NormStats) -> np.ndarray:
    """Invert instance normalization of a (B, F) forecast, using channel 0
    (the volatility target)."""
    y = np.asarray(y, dtype=np.float64)
    return y * stats.std[:, 0:1] + stats.mean[:, 0:1]


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, derived from the config alone."""
    config.validate()
    lens = config.scale_lengths()
    d, h = config.d_model, config.ff_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "embed.W": (config.channels, d),
        "embed.b": (d,),
    }
    for layer in range(config.num_blocks):
        pre = f"block{layer}"
        for m in range(1, config.num_scales + 1):
            shapes[f"{pre}.bottom_up{m}.W"] = (lens[m - 1], lens[m])
            shapes[f"{pre}.bottom_up{m}.b"] = (lens[m],)
        for m in range(config.num_scales):
            shapes[f"{pre}.top_down{m}.W"] = (lens[m + 1], lens[m])
            shapes[f"{pre}.top_down{m}.b"] = (lens[m],)
        for m in range(config.num_scales + 1):
            shapes[f"{pre}.ff{m}.W1"] = (d, h)
            shapes[f"{pre}.ff{m}.b1"] = (h,)
            shapes[f"{pre}.ff{m}.W2"] = (h, d)
            shapes[f"{pre}.ff{m}.b2"] = (d,)
    for m in range(config.num_scales + 1):
        shapes[f"head.pred{m}.W"] = (lens[m], config.horizon)
    shapes["out.W"] = (d, 1)
    shapes["out.b"] = (1,)
    return shapes


def _manifest(config: ModelConfig) -> list[dict]:
    """The one layout of ``flat`` for init, save and load: each parameter's
    name, shape and offset, in ``parameter_shapes`` order."""
    manifest, offset = [], 0
    for name, shape in parameter_shapes(config).items():
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    return manifest


@functools.lru_cache(maxsize=64)
def _stack_maps(lookback: int, num_scales: int,
                kernel: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``time_linear`` matrices of the stacked scale family
    (scales stacked finest first along time): the (P, ΣT) ladder and the
    block-diagonal (ΣT, ΣT) seasonal and trend parts of every scale.

    They are ``build_multiscale`` and ``series_decomp`` applied to identity
    matrices, so the per-scale reference functions define them. They build
    on a workspace of their own, so that their scratch is not left in the
    workspace of the call that first asks for them.
    """
    with ad.Workspace():
        ladder = np.concatenate([s.values.T for s in build_multiscale(
            Tensor(np.eye(lookback)), num_scales)], axis=1)
        total = ladder.shape[1]
        season, trend = np.zeros((total, total)), np.zeros((total, total))
        start = 0
        for m in range(num_scales + 1):
            t_len = lookback // 2 ** m
            parts = series_decomp(Tensor(np.eye(t_len)), kernel)
            for out, part in zip((season, trend), parts):
                out[start:start + t_len, start:start + t_len] = part.values.T
            start += t_len
    for array in (ladder, season, trend):
        array.setflags(write=False)
    return ladder, season, trend


def _weights_only_group(name: str) -> str | None:
    """The weights-only value a parameter feeds: its block's time map and
    bias (the mixing weights of ``block<l>``), the stacked ``head``, or
    None. Each group's parameters are consecutive in ``_manifest``."""
    pre, kind = name.split(".")[:2]
    if kind.startswith(("bottom_up", "top_down")):
        return pre
    return "head" if pre == "head" else None


def _chunk_windows(config: ModelConfig) -> int:
    """Windows per chunk of a forward-only pass: as many as keep the widest
    (windows, ΣT, max(d_model, ff_hidden)) activation within ``_CHUNK_BYTES``,
    and at least one."""
    width = sum(config.scale_lengths()) * max(config.d_model, config.ff_hidden)
    return max(1, _CHUNK_BYTES // (8 * width))


class TimeMixerModel:
    """Forecaster with deterministic seeded initialization.

    Weights are uniform in +-1/sqrt(fan_in); biases start at zero. Predictor
    maps in the head are bias-free so the head is exactly linear.

    Each ``params[name]`` is a ``Parameter`` whose ``values`` is a view into
    one float64 vector, ``flat``, laid out by ``_manifest``: writing to a
    parameter, in place or by assigning to ``values``, writes ``flat``, so
    ``flat`` is the one place a parameter lives. Their gradients go to the
    same slots of a second vector, ``grad_flat``: a reached parameter's
    ``grad`` is a view into it.

    Outside a tape, each block's time map and bias and the stacked head are
    built once per state of the weights they depend on (see
    ``_weights_only``), not once per call.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        manifest = _manifest(config)
        self.flat = np.zeros(sum(math.prod(e["shape"]) for e in manifest))
        self.grad_flat = np.zeros_like(self.flat)
        self.params: dict[str, Parameter] = {}
        # the slice of ``flat`` behind each weights-only value, and that
        # value with the bytes of the slice it was built from
        self._spans: dict[str, slice] = {}
        self._built: dict[str, tuple[bytes, tuple[Tensor, ...]]] = {}
        # the chunk workspace of ``forward``, kept from call to call
        self._forward_pool = ad.Workspace()
        for entry in manifest:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
            span = slice(start, start + math.prod(shape))
            values = self.flat[span].reshape(shape)
            if not (name.endswith(".b") or ".b1" in name or ".b2" in name):
                bound = 1.0 / np.sqrt(shape[0])
                values[...] = rng.uniform(-bound, bound, size=shape)
            self.params[name] = Parameter(
                values, grad_buffer=self.grad_flat[span].reshape(shape))
            group = _weights_only_group(name)
            if group is not None:
                first = self._spans.get(group, span)
                self._spans[group] = slice(first.start, span.stop)
        # each block's parameters for ``pdm_forward``; bound to ``flat`` for life
        scales = range(1, config.num_scales + 1)
        groups = ([f"bottom_up{m}.W" for m in scales],
                  [f"bottom_up{m}.b" for m in scales],
                  [f"top_down{m - 1}.W" for m in scales],
                  [f"top_down{m - 1}.b" for m in scales],
                  *([f"ff{m}.{w}" for m in range(config.num_scales + 1)]
                    for w in ("W1", "b1", "W2", "b2")))
        self._blocks = [
            tuple(tuple(self.params[f"block{layer}.{name}"] for name in names)
                  for names in groups)
            for layer in range(config.num_blocks)]

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def _weights_only(self, group: str, build) -> tuple[Tensor, ...]:
        """``build()``, the tensors that depend only on ``group``'s weights.

        Under a tape it runs every call, so that its ops are recorded.
        Otherwise its result is kept with the bytes of ``group``'s slice of
        ``flat`` and reused while that slice holds the same bytes: any write
        to ``flat``, an Adam step, a restored snapshot or a write to a
        parameter, makes the next call build again. It builds on a
        workspace of its own, dropped on exit, so that neither what is kept
        nor the build's scratch is left in the caller's workspace; the kept
        arrays are the build's own, made read-only, in tape-free tensors.
        """
        if ad.active_tape() is not None:
            return build()
        # a block of a one-scale model has no mixing weights
        key = self.flat[self._spans.get(group, slice(0, 0))].tobytes()
        kept = self._built.get(group)
        if kept is None or kept[0] != key:
            # checked, also in an unchecked pass, so that a non-finite value
            # is named and never kept
            with ad.Workspace(), ad.checks(True):
                values = [t.values for t in build()]
            for array in values:
                array.setflags(write=False)
            kept = self._built[group] = key, tuple(map(Tensor, values))
        return kept[1]

    # -- forward ------------------------------------------------------------

    def pdm_forward(self, layer: int, stack: Tensor) -> Tensor:
        """One past-decomposable-mixing block over the stacked scales.

        Each scale is split into seasonal and trend parts; seasonal parts mix
        fine-to-coarse, trend parts coarse-to-fine, then a residual channel
        feedforward, with each scale's own weights, recombines them: one
        ``residual_feedforward`` op. Up to the feedforward the block is
        linear in the stack: one (ΣT, ΣT) time map plus a ΣT bias, built
        from the mixing weights by ``cascade``; outside a tape, once per
        state of those weights.
        """
        lengths = self.config.scale_lengths()
        up_w, up_b, down_w, down_b, w1, b1, w2, b2 = self._blocks[layer]
        _, season, trend = _stack_maps(self.config.lookback,
                                       self.config.num_scales,
                                       self.config.decomp_kernel)
        mixing, bias = self._weights_only(f"block{layer}", lambda: ad.cascade(
            season, up_w, up_b, trend, down_w, down_b))
        mix = ad.time_linear(stack, mixing, bias)
        return ad.residual_feedforward(stack, mix, w1, b1, w2, b2, lengths)

    def fmm_forward(self, stack: Tensor) -> Tensor:
        """Sum of per-scale linear predictors mapping each time length to F:
        one time map by the stacked (ΣT, F) predictor weights, which
        ``concat`` stacks; outside a tape, once per state of the head."""
        lengths = self.config.scale_lengths()
        (head,) = self._weights_only("head", lambda: (ad.concat(
            [self.params[f"head.pred{m}.W"] for m in range(len(lengths))]),))
        return ad.time_linear(stack, head)

    def forward_normalized(self, x_norm: np.ndarray) -> Tensor:
        """Forward pass on an already-normalized batch (B, P, C) -> (B, F).

        The scale family is one (B, ΣT, d) tensor, scales stacked finest
        first along time. The ladder only averages time steps, so it
        commutes with the per-step embedding and runs first, on C channels.
        """
        x_norm = self._check_windows(x_norm)
        ladder, _, _ = _stack_maps(self.config.lookback, self.config.num_scales,
                                   self.config.decomp_kernel)
        stack = ad.linear(ad.time_linear(Tensor(x_norm), ladder),
                          self.params["embed.W"], self.params["embed.b"])
        for layer in range(self.config.num_blocks):
            stack = self.pdm_forward(layer, stack)
        fused = self.fmm_forward(stack)                        # (B, F, d)
        y = ad.linear(fused, self.params["out.W"], self.params["out.b"])
        return ad.reshape(y, (x_norm.shape[0], self.config.horizon))

    def _check_windows(self, x_norm) -> np.ndarray:
        """``x_norm`` as float64, once it is seen to be (B, P, C)."""
        x_norm = np.asarray(x_norm, dtype=np.float64)
        if x_norm.ndim != 3 or x_norm.shape[1:] != (self.config.lookback,
                                                    self.config.channels):
            raise ad.ShapeError(
                f"expected (batch, {self.config.lookback}, "
                f"{self.config.channels}), got {x_norm.shape}")
        return x_norm

    def predict_normalized(self, x_norm: np.ndarray) -> np.ndarray:
        """``forward_normalized(x_norm).values``: the forward-only pass of
        forecasts and validation.

        Without an active tape, a batch runs as ``forward_normalized`` calls
        of k = max(1, 1 MiB // (8 ΣT max(d_model, ff_hidden))) windows each,
        so that a chunk's activations stay in cache from op to op, on one
        workspace that is reset between chunks; the n mod k windows left
        over run once more, outside it. Each chunk's rows are copied into a
        fresh (B, F) array. Every op computes each window's rows on their
        own, so the result is byte-identical to a whole-batch pass. Under a
        tape the batch runs whole. The blocks' time maps and the head, built
        in the first chunk when the weights changed since the last call, are
        kept outside the workspace, so later chunks and calls reuse them.
        Outside a tape, each chunk's finiteness is checked once (see
        ``_checked_once``).
        """
        return self._predict(x_norm, ad.Workspace())

    def _predict(self, x_norm: np.ndarray, pool: ad.Workspace) -> np.ndarray:
        """``predict_normalized`` with the k-window chunks on ``pool``; the
        windows left over, a batch of fewer than k or the last n mod k, run
        once in the caller's context, so that ``pool`` only ever holds the
        buffers of k windows."""
        x_norm = self._check_windows(x_norm)
        n, k = x_norm.shape[0], _chunk_windows(self.config)
        if ad.active_tape() is not None:
            return self.forward_normalized(x_norm).values
        out = np.empty((n, self.config.horizon))
        whole = n - n % k
        with pool:
            for lo in range(0, whole, k):
                pool.reset()
                out[lo:lo + k] = self._checked_once(x_norm[lo:lo + k])
        if whole < n:
            out[whole:] = self._checked_once(x_norm[whole:])
        return out

    def _checked_once(self, x_norm: np.ndarray) -> np.ndarray:
        """``forward_normalized(x_norm).values`` with the per-op checks and
        NumPy's warnings off, checked once: every op turns a non-finite input
        element into a non-finite output. Only a non-finite result, or a
        failed weights-only build, runs the pure pass again with every op
        checked, on a workspace of its own, to raise ``NumericError`` naming
        the op."""
        try:
            with ad.checks(False), np.errstate(all="ignore"):
                y = self.forward_normalized(x_norm).values
        except ad.NumericError:
            y = None
        if y is not None and np.isfinite(y).all():
            return y
        with ad.Workspace():
            self.forward_normalized(x_norm)
        raise ad.NumericError("non-finite forecast")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forecast raw windows: (B, P, C) -> (B, F), or (P, C) -> (F,).

        Any other shape raises ``ShapeError`` before normalizing. A
        non-finite forecast raises ``NumericError``: naming the op that made
        it, or ``denormalize`` when a window's statistics overflow. Unlike
        ``predict_normalized``, whose chunk workspace is freed when it
        returns, a forecast keeps its chunk workspace (14 buffers, 4.9 MiB at
        the default config) for the model's next call, so that a model serving
        batches does not give its heap back and fault it in again on every
        call.
        """
        x = np.asarray(x, dtype=np.float64)
        p, c = self.config.lookback, self.config.channels
        if x.ndim not in (2, 3) or x.shape[-2:] != (p, c):
            raise ad.ShapeError(f"expected ({p}, {c}) or (batch, {p}, {c}), "
                                f"got {x.shape}")
        x_norm, stats = instance_normalize(x[None] if x.ndim == 2 else x)
        out = denormalize(self._predict(x_norm, self._forward_pool), stats)
        if not np.isfinite(out).all():
            # a finite normalized forecast: a window's mean or std overflowed
            raise ad.NumericError("non-finite values produced by "
                                  "'denormalize'")
        return out[0] if x.ndim == 2 else out

    # -- checkpointing ------------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned checkpoint: JSON header, then ``flat`` as LE f8.
        The header holds the payload's sha256."""
        payload = self.flat.astype("<f8").tobytes()
        header = json.dumps({
            "format_version": _FORMAT_VERSION,
            "config": asdict(self.config),
            "manifest": _manifest(self.config),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }).encode()
        write_atomic(path, b"".join([_MAGIC, struct.pack("<I", len(header)),
                                     header, payload]))

    @classmethod
    def load(cls, path) -> "TimeMixerModel":
        """Read a checkpoint written by ``save``.

        Raises ``CheckpointError`` for any malformed file: bad magic, a
        truncated or undecodable header, missing or ill-typed header fields,
        an unsupported version, a manifest that differs from the config's
        layout, a payload of the wrong length, a parameter holding NaN or
        infinity and, from version 2 on, a payload whose sha256 differs from
        the header's. Version 1 files, which carry no hash, are still read.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            return cls._from_bytes(blob)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid checkpoint: {exc}") from exc

    @classmethod
    def _from_bytes(cls, blob: bytes) -> "TimeMixerModel":
        """Decode ``save``'s bytes; a malformed file raises ``ValueError``,
        ``KeyError`` or ``TypeError``, which ``load`` turns into
        ``CheckpointError``."""
        if blob[:8] != _MAGIC:
            raise ValueError("not a volmixer checkpoint")
        if len(blob) < 12:
            raise ValueError(f"file ends after {len(blob)} bytes, before the "
                             f"header length")
        (hlen,) = struct.unpack_from("<I", blob, 8)
        if len(blob) < 12 + hlen:
            raise ValueError(f"header of {hlen} bytes is cut off after "
                             f"{len(blob) - 12}")
        header = json.loads(blob[12:12 + hlen])
        if header["format_version"] not in (1, _FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version "
                             f"{header['format_version']}")
        config = ModelConfig(**header["config"])
        expected = _manifest(config)
        if header["manifest"] != expected:
            pairs = itertools.zip_longest(header["manifest"], expected)
            i, (found, want) = next((i, p) for i, p in enumerate(pairs)
                                    if p[0] != p[1])
            raise ValueError(f"manifest entry {i} is {found}, expected {want}")
        size = sum(math.prod(e["shape"]) for e in expected)
        payload = blob[12 + hlen:]
        if len(payload) != 8 * size:
            raise ValueError(f"payload holds {len(payload)} bytes, expected "
                             f"{8 * size}")
        model = cls(config)
        model.flat[...] = np.frombuffer(payload, dtype="<f8")
        for name, tensor in model.params.items():
            if not np.isfinite(tensor.values).all():
                raise ValueError(f"{name} holds NaN or infinity")
        # after the scan above, which names a parameter holding NaN
        if (header["format_version"] > 1 and header["payload_sha256"]
                != hashlib.sha256(payload).hexdigest()):
            raise ValueError("payload does not match its sha256")
        return model
