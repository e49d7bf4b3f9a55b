"""Encoder-decoder segmentation network with swappable skip fusion.

Each encoder level runs [conv3x3, ReLU] twice then pools; the decoder
mirrors it with a 2x2 upconvolution and a per-level skip fusion that is
either channel concatenation, windowed attention (which replaces the
concat, so the following convs see C channels, not 2C), or nothing.
Channel width doubles per level: base * 2^i, bottleneck base * 2^depth.

ModelState carries the structured layer objects used by forward and an
insertion-ordered name -> Tensor map, used by optimizers and checkpoints, whose
values and gradients live in two flat buffers.  Checkpoints refuse to load into
a differently-shaped network by comparing an architecture fingerprint.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import LfamConfig, ResidualSource, init_lfam_params, lfam_forward
from .costmodel import attention_flops_local, fusion_levels
from .errors import CheckpointError, ConfigError, ContractError, ShapeError
from .ops import ConvParams, channel_norm, conv2d, he_conv, init_norm, maxpool2x2, upconv2x2
from .rng import make_rng
from .tensor import (Tape, Tensor, _active_tape, _apply, concat_channels, leaf_grads, relu,
                     tensor_from_bytes, tensor_to_bytes)

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
        for i, s in enumerate(self.skips):
            # the residual adds the level's map to the fused one, so they must agree in width
            if (s.lfam is not None and s.lfam.residual_source is not ResidualSource.NONE
                    and s.lfam.proj_channels not in (None, self.level_width(i))):
                raise ConfigError(f"level {i}'s lfam skip adds a residual, so proj_channels must "
                                  f"be unset or its width {self.level_width(i)}, "
                                  f"got {s.lfam.proj_channels}")

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
    """Layers and named parameters.  data and grad hold every parameter's values
    and gradient, flat, in params order and the parameters' one dtype; each
    parameter Tensor's .data and .grad are views of them, never rebound."""

    config: UNetConfig
    layers: dict[str, object]
    params: dict[str, Tensor] = field(repr=False)
    fingerprint: str = ""
    data: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.concatenate([t.data.ravel() for t in self.params.values()])
        if any(t.dtype != self.data.dtype for t in self.params.values()):
            raise ContractError("parameters must share one dtype, got "
                                f"{sorted({str(t.dtype) for t in self.params.values()})}")
        self.grad = np.zeros_like(self.data)
        ends = np.cumsum([t.size for t in self.params.values()])[:-1]
        for t, d, g in zip(self.params.values(), np.split(self.data, ends), np.split(self.grad, ends)):
            t.data, t.grad = d.reshape(t.shape), g.reshape(t.shape)

    def zero_grads(self) -> None:
        self.grad.fill(0)

    def parameter_count(self) -> int:
        return self.data.size

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy arrays named and shaped as this model's parameters into data.
        On any mismatch it raises and writes nothing."""
        unknown = sorted(arrays.keys() - self.params.keys())
        missing = sorted(self.params.keys() - arrays.keys())
        if unknown or missing:
            raise ContractError(f"parameter names do not match the model: "
                                f"unknown {unknown[:3]}, missing {missing[:3]}")
        for name, t in self.params.items():
            if np.shape(arrays[name]) != t.shape:
                raise ShapeError(f"parameter {name!r} has shape {np.shape(arrays[name])}, "
                                 f"expected {t.shape}")
        self.data[...] = np.concatenate([np.ravel(arrays[name]) for name in self.params])


def _fusion_in_channels(cfg: UNetConfig, i: int) -> int:
    width = cfg.level_width(i)
    s = cfg.skips[i]
    if s.kind == "concat":
        return 2 * width
    if s.kind == "none":
        return width
    return s.lfam.proj_channels or width


def _named_tensors(prefix: str, layer):
    """(name, Tensor) per Tensor field of a layer, nested ones too: dec0.fuse.query.weight."""
    for f in fields(layer):
        value, name = getattr(layer, f.name), f"{prefix}.{f.name}"
        yield from [(name, value)] if isinstance(value, Tensor) else _named_tensors(name, value)


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

    params = {name: t for key, layer in layers.items() for name, t in _named_tensors(key, layer)}
    return ModelState(config=cfg, layers=layers, params=params,
                      fingerprint=config_fingerprint(cfg))


# Each shard of a split forward holds at least this many pixels (images x h x w),
# with or without a tape.  On small shards, handing the interpreter lock back
# and forth between the two threads on many short ops costs more than the
# second core gives.  Serial -> split on two cores, perfbench's network in
# float32, medians of interleaved calls in one process:
#
#   n, side, m   pixels per shard   no-tape forward (ms)   taped step (ms)
#   2, 128, 7    16384              42.4 -> 24.0           116.7 -> 75.3
#   6, 64, 7     12288              33.9 -> 19.4
#   4, 64, 16    8192                                      105.8 -> 46.7
#   4, 64, 7     8192               22.3 -> 15.6            57.2 -> 41.2
#   16, 32, 4    8192               17.1 -> 12.2            58.2 -> 52.6
#   8, 32, 4     4096                8.3 ->  9.6            21.8 -> 22.8
#   2, 64, 7     4096                9.9 -> 12.2
#
# The taped step is forward, focal-IoU loss and backward.  So wide16's
# (4, 64x64) splits, while desk32's (8, 32x32) and tier-1 batches stay whole.
_SHARD_MIN_PIXELS = 8192

_helper = None  # the shard helper's ThreadPoolExecutor
_helper_lock = threading.Lock()


def _shard_helper():
    """The one worker thread that runs second shards, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            # imported here, as concurrent.futures adds about 6 ms to importing lfam
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lfam-shard")
        return _helper


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


def _run_shards(fn, first, second) -> tuple:
    """(fn(first), fn(second)), concurrently when two cores are usable.

    fn(first) runs in the calling thread and fn(second) on the helper; with
    one usable core both run in the caller, one after the other.  The helper
    is joined before this returns or raises; when both calls fail, the
    first call's exception is raised.
    """
    if _cores() < 2:
        return fn(first), fn(second)
    future = _shard_helper().submit(fn, second)
    try:
        head = fn(first)
    finally:
        future.exception()  # waits for the helper; its error is raised below or dropped
    return head, future.result()


def forward(model: ModelState, x: Tensor, lfam_fn=None) -> Tensor:
    """Per-pixel class logits with the input's spatial dims.

    lfam_fn substitutes the fusion implementation (same signature as
    lfam_forward); used to swap in reference evaluations.

    With the built-in fusion (lfam_fn None), a batch whose first ceil(n/2)
    images hold at least _SHARD_MIN_PIXELS pixels is split there, and the
    halves run as shards through _split_forward.  No layer couples images,
    so the logits are bitwise those of the whole batch.  The split depends
    only on x's shape; the number of cores only decides whether the shards
    run concurrently or one after the other.  A substituted lfam_fn always
    runs serially in the calling thread, since it need not be thread-safe.

    Under an active tape each shard records on its own sub-tape (with no
    tape, none is opened), and the active tape gets one "unet_shards" node
    whose inputs are the parameters, plus x when it requires a gradient.
    Its vjp walks both sub-tapes through _run_shards and adds their
    parameter gradients in shard order.  Each weight gradient's sum over
    the batch is so taken as two halves, which moves it at float rounding
    from the unsplit batch's.
    """
    cfg = model.config
    n, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ShapeError(f"input has {c} channels, model expects {cfg.in_channels}")
    factor = 1 << cfg.depth
    if h % factor or w % factor:
        raise ShapeError(f"spatial dims {h}x{w} must be divisible by {factor}")
    half = (n + 1) // 2
    if lfam_fn is not None or n < 2 or half * h * w < _SHARD_MIN_PIXELS:
        return _forward_layers(model, x, lfam_fn or lfam_forward)
    return _split_forward(model, x, half)


def _split_forward(model: ModelState, x: Tensor, half: int) -> Tensor:
    """The network on x[:half] and x[half:] as two shards; see forward."""
    taped = _active_tape() is not None

    def shard_forward(t: Tensor) -> tuple[Tape | None, Tensor]:
        with Tape() if taped else contextlib.nullcontext() as tape:
            return tape, _forward_layers(model, t, lfam_forward)

    xs = (Tensor(x.data[:half], requires_grad=x.requires_grad),
          Tensor(x.data[half:], requires_grad=x.requires_grad))
    shards = _run_shards(shard_forward, *xs)
    logits = np.concatenate([out.data for _, out in shards])
    if not taped:
        return Tensor(logits)
    for (_, out), part in zip(shards, (logits[:half], logits[half:])):
        out.data = part  # the tape then holds one copy of the logits, not two
    params = [p for p in model.params.values() if p.requires_grad]
    inputs = params + [x] if x.requires_grad else params

    def vjp(g):
        def shard_grads(shard):
            tape, out, seed = shard
            return {id(t): gt for t, gt in leaf_grads(tape, out, seed)}

        found = _run_shards(shard_grads, (*shards[0], g[:half]), (*shards[1], g[half:]))
        grads = [found[0][id(p)] + found[1][id(p)] for p in params]
        if x.requires_grad:
            grads.append(np.concatenate([f[id(t)] for f, t in zip(found, xs)]))
        return grads

    return _apply("unet_shards", inputs, logits, vjp)


def _forward_layers(model: ModelState, x: Tensor, lfam_fn) -> Tensor:
    """The network on one batch, in the calling thread; forward checks x first."""
    cfg = model.config

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
    if not (np.isfinite(model.data.min()) and np.isfinite(model.data.max())):
        name = next(n for n, t in model.params.items() if not np.isfinite(t.data).all())
        raise CheckpointError(f"checkpoint {path} holds a non-finite value in parameter {name!r}")
    return model
