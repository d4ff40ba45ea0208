"""Multiscale mixing forecaster: embedding, decomposable mixing blocks,
a multi-predictor head, and per-window instance normalization.

Layout conventions: activations are (batch, time, channels); mixing layers
act along the time axis and are shared across channels; the feedforward acts
along channels and is shared across time.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from volmixer import autodiff as ad
from volmixer.atomic import write_atomic
from volmixer.autodiff import Tensor
from volmixer.multiscale import ConfigError, build_multiscale, series_decomp

_MAGIC = b"VOLMIXCK"
_FORMAT_VERSION = 1
_STD_FLOOR = 1e-8


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

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class NormStats:
    """Per-sample, per-channel statistics retained for denormalization."""
    mean: np.ndarray   # (batch, channels)
    std: np.ndarray    # (batch, channels), floored at _STD_FLOOR


def instance_normalize(x: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Standardize each window per channel (population divisor).

    Accepts (P, C) or (B, P, C); returns the same shape plus the stats
    needed to invert the transform. Constant channels get a floored std so
    the output is simply zero there.
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    mu = x.mean(axis=1)
    sd = np.maximum(x.std(axis=1), _STD_FLOOR)
    out = (x - mu[:, None, :]) / sd[:, None, :]
    if squeeze:
        out = out[0]
    return out, NormStats(mean=mu, std=sd)


def denormalize(y: np.ndarray, stats: NormStats, channel: int = 0) -> np.ndarray:
    """Invert instance normalization for one channel of the forecast."""
    y = np.asarray(y, dtype=np.float64)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[None]
    out = y * stats.std[:, channel:channel + 1] + stats.mean[:, channel:channel + 1]
    return out[0] if squeeze else out


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


class TimeMixerModel:
    """Forecaster with deterministic seeded initialization.

    Weights are uniform in +-1/sqrt(fan_in); biases start at zero. Predictor
    maps in the head are bias-free so the head is exactly linear.
    """

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in parameter_shapes(config).items():
            if name.endswith(".b") or ".b1" in name or ".b2" in name:
                values = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                values = rng.uniform(-bound, bound, size=shape)
            self.params[name] = Tensor(values, requires_grad=True)

    # -- parameter access ---------------------------------------------------

    def parameter_vector(self) -> np.ndarray:
        return np.concatenate([t.values.ravel() for t in self.params.values()])

    def load_parameter_values(self, values: dict[str, np.ndarray]) -> None:
        for name, tensor in self.params.items():
            tensor.values = np.asarray(values[name], dtype=np.float64).copy()

    def snapshot_parameters(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.params.items()}

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    # -- forward ------------------------------------------------------------

    def pdm_forward(self, layer: int, scales: list[Tensor]) -> list[Tensor]:
        """One past-decomposable-mixing block over the scale family.

        Each scale is split into seasonal and trend parts; seasonal parts mix
        fine-to-coarse, trend parts coarse-to-fine, then a residual channel
        feedforward recombines them.
        """
        cfg = self.config
        expected = cfg.scale_lengths()
        got = [s.shape[-2] for s in scales]
        if got != expected:
            raise ad.ShapeError(f"scale ladder {got} != expected {expected}")
        p = self.params
        pre = f"block{layer}"
        seasonal, trend = [], []
        for s in scales:
            se, tr = series_decomp(s, cfg.decomp_kernel)
            seasonal.append(se)
            trend.append(tr)
        for m in range(1, cfg.num_scales + 1):
            mixed = ad.time_linear(seasonal[m - 1], p[f"{pre}.bottom_up{m}.W"],
                                   p[f"{pre}.bottom_up{m}.b"])
            seasonal[m] = ad.add(seasonal[m], mixed)
        for m in range(cfg.num_scales - 1, -1, -1):
            mixed = ad.time_linear(trend[m + 1], p[f"{pre}.top_down{m}.W"],
                                   p[f"{pre}.top_down{m}.b"])
            trend[m] = ad.add(trend[m], mixed)
        out = []
        for m, x in enumerate(scales):
            mix = ad.add(seasonal[m], trend[m])
            hidden = ad.gelu(ad.linear(mix, p[f"{pre}.ff{m}.W1"], p[f"{pre}.ff{m}.b1"]))
            ff = ad.linear(hidden, p[f"{pre}.ff{m}.W2"], p[f"{pre}.ff{m}.b2"])
            out.append(ad.add(x, ff))
        return out

    def fmm_forward(self, scales: list[Tensor]) -> Tensor:
        """Sum of per-scale linear predictors mapping each time length to F."""
        cfg = self.config
        expected = cfg.scale_lengths()
        got = [s.shape[-2] for s in scales]
        if got != expected:
            raise ad.ShapeError(f"scale ladder {got} != expected {expected}")
        total: Optional[Tensor] = None
        for m, x in enumerate(scales):
            pred = ad.time_linear(x, self.params[f"head.pred{m}.W"])
            total = pred if total is None else ad.add(total, pred)
        return total

    def forward_normalized(self, x_norm: np.ndarray) -> Tensor:
        """Forward pass on an already-normalized batch (B, P, C) -> (B, F)."""
        x_norm = np.asarray(x_norm, dtype=np.float64)
        if x_norm.ndim != 3 or x_norm.shape[1:] != (self.config.lookback,
                                                    self.config.channels):
            raise ad.ShapeError(
                f"expected (batch, {self.config.lookback}, "
                f"{self.config.channels}), got {x_norm.shape}")
        h = ad.linear(Tensor(x_norm), self.params["embed.W"], self.params["embed.b"])
        scales = build_multiscale(h, self.config.num_scales)
        for layer in range(self.config.num_blocks):
            scales = self.pdm_forward(layer, scales)
        fused = self.fmm_forward(scales)                       # (B, F, d)
        y = ad.linear(fused, self.params["out.W"], self.params["out.b"])
        return ad.reshape(y, (x_norm.shape[0], self.config.horizon))

    def forward(self, x: np.ndarray, denorm: bool = True) -> np.ndarray:
        """Predict from raw windows; (P, C) or (B, P, C) -> (F,) or (B, F)."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 2
        if squeeze:
            x = x[None]
        x_norm, stats = instance_normalize(x)
        out = self.forward_normalized(x_norm).values
        if denorm:
            out = denormalize(out, stats)
        return out[0] if squeeze else out

    # -- checkpointing ------------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned checkpoint: JSON header plus raw LE float64."""
        manifest = []
        offset = 0
        for name, tensor in self.params.items():
            manifest.append({"name": name, "shape": list(tensor.shape),
                             "offset": offset})
            offset += tensor.size
        header = json.dumps({
            "format_version": _FORMAT_VERSION,
            "config": asdict(self.config),
            "manifest": manifest,
        }).encode()
        payload = np.concatenate(
            [t.values.ravel() for t in self.params.values()]
        ).astype("<f8").tobytes()
        write_atomic(path, b"".join(
            [_MAGIC, struct.pack("<I", len(header)), header, payload]))

    @classmethod
    def load(cls, path) -> "TimeMixerModel":
        """Read a checkpoint written by ``save``.

        Raises ``CheckpointError`` for any malformed file: bad magic, a
        truncated or undecodable header, missing or ill-typed header fields,
        an unsupported version, a manifest that differs from the config's
        parameters, and a payload of the wrong length.
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
        if header["format_version"] != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version "
                             f"{header['format_version']}")
        config = ModelConfig(**header["config"])
        expected = parameter_shapes(config)
        found = [(entry["name"], tuple(entry["shape"]))
                 for entry in header["manifest"]]
        if sorted(found) != sorted(expected.items()):
            mismatched = sorted(set(found) ^ set(expected.items()))
            raise ValueError(f"manifest does not match config: {len(found)} "
                             f"entries for {len(expected)} parameters, "
                             f"mismatched {mismatched}")
        size = sum(int(np.prod(shape)) for shape in expected.values())
        payload = blob[12 + hlen:]
        if len(payload) != 8 * size:
            raise ValueError(f"payload holds {len(payload)} bytes, expected "
                             f"{8 * size}")
        flat = np.frombuffer(payload, dtype="<f8")
        model = cls(config)
        start = 0
        for entry in header["manifest"]:
            name = entry["name"]
            if entry["offset"] != start:
                raise ValueError(f"{name} at offset {entry['offset']}, "
                                 f"expected {start}")
            n = int(np.prod(expected[name]))
            model.params[name].values = flat[start:start + n].reshape(
                expected[name]).copy()
            start += n
        return model
