"""Encoder-decoder segmentation network with swappable skip fusion.

Each encoder level runs [conv3x3, ReLU] twice then pools; the decoder
mirrors it with a 2x2 upconvolution and a per-level skip fusion that is
either channel concatenation, windowed attention (which replaces the
concat, so the following convs see C channels, not 2C), or nothing.
Channel width doubles per level: base * 2^i, bottleneck base * 2^depth.

ModelState carries an insertion-ordered flat name -> Tensor map used by
optimizers and checkpoints, plus the structured layer objects used by
forward.  Checkpoints refuse to load into a differently-shaped network by
comparing an architecture fingerprint.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .attention import LfamConfig, LfamParams, init_lfam_params, lfam_forward
from .costmodel import attention_flops_local, fusion_levels
from .errors import CheckpointError, ConfigError, ContractError, ShapeError
from .ops import ConvParams, NormParams, channel_norm, conv2d, he_conv, init_norm, maxpool2x2, upconv2x2
from .rng import make_rng
from .tensor import Tensor, concat_channels, relu, tensor_from_bytes, tensor_to_bytes

_SKIP_KINDS = ("concat", "lfam", "none")


@dataclass(frozen=True)
class SkipSpec:
    """Fusion choice for one decoder level; lfam settings exactly when kind is 'lfam'."""

    kind: str = "concat"
    lfam: LfamConfig | None = None

    def __post_init__(self):
        if self.kind not in _SKIP_KINDS:
            raise ConfigError(f"skip kind must be one of {_SKIP_KINDS}, got {self.kind!r}")
        if (self.kind == "lfam") != (self.lfam is not None):
            raise ConfigError("lfam settings are required exactly when kind is 'lfam'")


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 1
    num_classes: int = 2
    base_channels: int = 8
    depth: int = 4
    skips: tuple[SkipSpec, ...] | None = None
    channel_norm: bool = False

    def __post_init__(self):
        if self.in_channels < 1 or self.num_classes < 2:
            raise ConfigError(f"need in_channels >= 1 and num_classes >= 2, "
                              f"got {self.in_channels}, {self.num_classes}")
        if self.base_channels < 1 or self.depth < 1:
            raise ConfigError(f"need base_channels >= 1 and depth >= 1, "
                              f"got {self.base_channels}, {self.depth}")
        if self.skips is None:
            object.__setattr__(self, "skips", tuple(SkipSpec() for _ in range(self.depth)))
        elif len(self.skips) != self.depth:
            raise ConfigError(f"{len(self.skips)} skip specs for depth {self.depth}")

    def level_width(self, i: int) -> int:
        return self.base_channels << i

    @property
    def bottleneck_width(self) -> int:
        return self.base_channels << self.depth


def _skip_token(s: SkipSpec) -> str:
    if s.kind != "lfam":
        return s.kind
    lf = s.lfam
    # fuse=0 is the removed fuse_concat flag; keeping it keeps existing checkpoints' fingerprints
    return (f"lfam(m={lf.local_range},res={lf.residual_source.value},"
            f"proj={lf.proj_channels},scale={int(lf.scale_logits)},"
            f"swap={int(lf.swap_qkv)},fuse=0)")


def config_fingerprint(cfg: UNetConfig) -> str:
    text = (f"in={cfg.in_channels};classes={cfg.num_classes};base={cfg.base_channels};"
            f"depth={cfg.depth};norm={int(cfg.channel_norm)};"
            + ";".join(_skip_token(s) for s in cfg.skips))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(eq=False)
class ModelState:
    config: UNetConfig
    layers: dict[str, object]
    params: dict[str, Tensor] = field(repr=False)
    fingerprint: str = ""

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy named arrays into the parameter Tensors' data in place.

        The Tensors stay the same objects, so the layers forward reads see
        the new values.  The names must be exactly this model's parameters,
        each with its parameter's shape; nothing is written unless all match.
        """
        unknown = sorted(arrays.keys() - self.params.keys())
        missing = sorted(self.params.keys() - arrays.keys())
        if unknown or missing:
            raise ContractError(f"parameter names do not match the model: "
                                f"unknown {unknown[:3]}, missing {missing[:3]}")
        for name, t in self.params.items():
            if np.shape(arrays[name]) != t.shape:
                raise ShapeError(f"parameter {name!r} has shape {np.shape(arrays[name])}, "
                                 f"expected {t.shape}")
        for name, t in self.params.items():
            t.data[...] = arrays[name]


def _fusion_in_channels(cfg: UNetConfig, i: int) -> int:
    width = cfg.level_width(i)
    s = cfg.skips[i]
    if s.kind == "concat":
        return 2 * width
    if s.kind == "none":
        return width
    return s.lfam.proj_channels or width


def build_unet(cfg: UNetConfig, seed: int, dtype=np.float32) -> ModelState:
    """Deterministically initialize all layers; one RNG stream per layer."""
    layers: dict[str, object] = {}
    stream = [0]

    def rng():
        stream[0] += 1
        return make_rng(seed, stream=stream[0])

    def conv_block(prefix: str, c_in: int, c_out: int):
        layers[f"{prefix}.conv1"] = he_conv(c_in, c_out, 3, rng(), dtype=dtype)
        if cfg.channel_norm:
            layers[f"{prefix}.norm1"] = init_norm(c_out, dtype=dtype)
        layers[f"{prefix}.conv2"] = he_conv(c_out, c_out, 3, rng(), dtype=dtype)
        if cfg.channel_norm:
            layers[f"{prefix}.norm2"] = init_norm(c_out, dtype=dtype)

    for i in range(cfg.depth):
        c_in = cfg.in_channels if i == 0 else cfg.level_width(i - 1)
        conv_block(f"enc{i}", c_in, cfg.level_width(i))
    conv_block("bottleneck", cfg.level_width(cfg.depth - 1), cfg.bottleneck_width)

    for i in reversed(range(cfg.depth)):
        width = cfg.level_width(i)
        above = cfg.bottleneck_width if i == cfg.depth - 1 else cfg.level_width(i + 1)
        layers[f"dec{i}.up"] = he_conv(above, width, 2, rng(), dtype=dtype)
        if cfg.skips[i].kind == "lfam":
            layers[f"dec{i}.fuse"] = init_lfam_params(width, rng(),
                                                      proj_channels=cfg.skips[i].lfam.proj_channels,
                                                      dtype=dtype)
        conv_block(f"dec{i}", _fusion_in_channels(cfg, i), width)
    layers["head"] = he_conv(cfg.level_width(0), cfg.num_classes, 1, rng(), dtype=dtype)

    params: dict[str, Tensor] = {}
    for name, layer in layers.items():
        if isinstance(layer, ConvParams):
            params[f"{name}.weight"] = layer.weight
            params[f"{name}.bias"] = layer.bias
        elif isinstance(layer, NormParams):
            params[f"{name}.scale"] = layer.scale
            params[f"{name}.shift"] = layer.shift
        elif isinstance(layer, LfamParams):
            for role in ("query", "key", "value"):
                proj: ConvParams = getattr(layer, role)
                params[f"{name}.{role}.weight"] = proj.weight
                params[f"{name}.{role}.bias"] = proj.bias
    return ModelState(config=cfg, layers=layers, params=params,
                      fingerprint=config_fingerprint(cfg))


def forward(model: ModelState, x: Tensor, lfam_fn=None) -> Tensor:
    """Per-pixel class logits with the input's spatial dims.

    lfam_fn substitutes the fusion implementation (same signature as
    lfam_forward); used to swap in reference evaluations.
    """
    cfg = model.config
    if lfam_fn is None:
        lfam_fn = lfam_forward
    n, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ShapeError(f"input has {c} channels, model expects {cfg.in_channels}")
    factor = 1 << cfg.depth
    if h % factor or w % factor:
        raise ShapeError(f"spatial dims {h}x{w} must be divisible by {factor}")

    def conv_block(t: Tensor, prefix: str) -> Tensor:
        for j in (1, 2):
            t = conv2d(t, model.layers[f"{prefix}.conv{j}"])
            if cfg.channel_norm:
                t = channel_norm(t, model.layers[f"{prefix}.norm{j}"])
            t = relu(t, overwrite=True)  # no vjp reads the conv or norm output
        return t

    skips: list[Tensor] = []
    t = x
    for i in range(cfg.depth):
        t = conv_block(t, f"enc{i}")
        skips.append(t)
        t = maxpool2x2(t)
    t = conv_block(t, "bottleneck")

    for i in reversed(range(cfg.depth)):
        t = upconv2x2(t, model.layers[f"dec{i}.up"])
        spec = cfg.skips[i]
        if spec.kind == "concat":
            t = concat_channels(skips[i], t)
        elif spec.kind == "lfam":
            t = lfam_fn(skips[i], t, model.layers[f"dec{i}.fuse"], spec.lfam)
        t = conv_block(t, f"dec{i}")
    return conv2d(t, model.layers["head"])


def count_flops_and_params(model: ModelState, input_size: int) -> tuple[int, int]:
    """Analytic forward cost for one square image of side input_size, and parameter count.

    Counts multiply-add work only (1 MAC = 2 flops): convolutions,
    upconvolutions, attention projections, and the windowed attention
    terms from the cost model.  Pooling, ReLU, normalization, and residual
    adds are free under this convention.
    """
    cfg = model.config
    levels = fusion_levels(cfg, input_size)

    def conv_cost(p: ConvParams, side: int) -> int:
        return 2 * p.out_channels * p.in_channels * p.kernel * p.kernel * side * side

    def block_cost(prefix: str, side: int) -> int:
        return sum(conv_cost(model.layers[f"{prefix}.conv{j}"], side) for j in (1, 2))

    flops = block_cost("bottleneck", input_size >> cfg.depth)
    for i in range(cfg.depth):
        side = input_size >> i
        flops += block_cost(f"enc{i}", side) + block_cost(f"dec{i}", side)
        up: ConvParams = model.layers[f"dec{i}.up"]
        flops += 2 * up.out_channels * up.in_channels * 4 * (side >> 1) ** 2
        lv = levels.get(i)
        if lv is not None:
            flops += 3 * 2 * lv.channels * cfg.level_width(i) * side * side
            flops += attention_flops_local(lv.height, lv.width, lv.channels, lv.local_range)
    flops += conv_cost(model.layers["head"], input_size)
    return flops, model.parameter_count()


# ---------------------------------------------------------------------------
# checkpoints: "LFCK", u32 version, 32-byte fingerprint digest, named records

_CKPT_MAGIC = b"LFCK"
_CKPT_VERSION = 1
_CKPT_HEADER = 44  # magic, version, digest, record count


def save_checkpoint(path, model: ModelState) -> None:
    chunks = [_CKPT_MAGIC, struct.pack("<I", _CKPT_VERSION),
              bytes.fromhex(model.fingerprint),
              struct.pack("<I", len(model.params))]
    for name, t in model.params.items():
        raw = name.encode()
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(tensor_to_bytes(t))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path, cfg: UNetConfig) -> ModelState:
    """Rebuild a model for cfg and restore its parameters bit-for-bit."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if buf[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(buf) < _CKPT_HEADER:
        raise CheckpointError(f"truncated checkpoint {path}: {len(buf)} bytes, "
                              f"shorter than the {_CKPT_HEADER}-byte header")
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digest = buf[8:40].hex()
    want = config_fingerprint(cfg)
    if digest != want:
        raise CheckpointError("checkpoint architecture fingerprint does not match the config "
                              f"({digest[:12]}... vs {want[:12]}...)")
    (count,) = struct.unpack_from("<I", buf, 40)

    model = build_unet(cfg, seed=0)
    offset = _CKPT_HEADER
    arrays = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", buf, offset)
            offset += 2
            name = buf[offset:offset + name_len].decode()
            offset += name_len
            t, offset = tensor_from_bytes(buf, offset)
            arrays[name] = t.data
    except (struct.error, IndexError, UnicodeDecodeError, ContractError) as exc:
        raise CheckpointError(f"truncated or corrupt checkpoint {path}") from exc
    try:
        model.load_arrays(arrays)
    except (ContractError, ShapeError) as exc:
        raise CheckpointError(f"checkpoint {path} does not fit the model: {exc}") from exc
    return model
