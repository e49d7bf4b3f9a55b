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

import atexit
import contextlib
import functools
import hashlib
import itertools
import os
import signal
import struct
import threading
import traceback
import warnings
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from . import BLAS_PINNED, blas_in_effect
from .attention import LfamConfig, ResidualSource, init_lfam_params, lfam_forward
from .costmodel import attention_flops_local, fusion_levels
from .errors import CheckpointError, ConfigError, ContractError, ShapeError, ShardWorkerError
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
# with or without a tape.  Serial -> split with the second shard in the
# worker process, perfbench's network in float32, medians of 21 interleaved
# calls in one process on a shared 2-vCPU host:
#
#   n, side, m   pixels per shard   no-tape forward (ms)   taped step (ms)
#   2, 128, 7    16384              21.2 -> 13.4            72.0 -> 42.4
#   6, 64, 7     12288              17.9 -> 13.4            57.5 -> 36.6
#   4, 64, 16    8192               21.2 -> 11.3            65.8 -> 32.9
#   4, 64, 7     8192               15.4 ->  9.1            49.1 -> 25.1
#   16, 32, 4    8192               14.7 ->  8.7            44.9 -> 24.3
#   8, 32, 4     4096                5.3 ->  5.3            13.7 -> 13.3
#   2, 64, 7     4096                8.2 ->  5.2            21.9 -> 13.8
#
# The taped step is forward, focal-IoU loss and backward.  So wide16's
# (4, 64x64) splits, while desk32's (8, 32x32) and tier-1 batches stay whole.
# A lower floor would split desk32 and move its bits (each weight gradient
# summed as two halves), so it waits for a change of its own.
_SHARD_MIN_PIXELS = 8192

# A split's second shard runs in one worker process, forked at the first
# split and fed over a pipe.  The worker keeps a copy of each caller model,
# loaded from the caller's model.data at every forward, and the sub-tape of
# each taped shard until the caller releases it.
_POLL_S = 0.2  # how often a wait on the pipe checks that the other end lives
_keys = itertools.count()  # names models and shards to the worker
_released: list[int] = []  # keys whose caller-side owner was collected, sent with the next request
_model_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_worker = None  # the _Worker last forked
_worker_lock = threading.Lock()  # one request and its reply at a time, across caller threads
_WARNED: dict = {}  # warn_explicit's registry for the worker's warnings


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity call
        return os.cpu_count() or 1


@functools.cache
def _fork_refusal() -> str | None:
    """Why a second shard may not run in a forked worker, or None.

    A forked process keeps only the thread that forked it, so a BLAS with a
    thread pool of its own may hang there: forking needs a BLAS on one thread.
    """
    if not hasattr(os, "fork"):
        return "this platform has no fork"
    threads = blas_in_effect()["threads"]
    if threads is None and not BLAS_PINNED:
        return "numpy was imported before lfam, and its BLAS thread count is unknown"
    if threads not in (None, 1):
        return f"numpy's BLAS runs {threads} threads"
    return None


def shard_mode() -> str:
    """How a split forward runs its second shard: "worker", or why in the caller."""
    if _cores() < 2:
        return "in the caller: one usable core"
    refusal = _fork_refusal()
    return f"in the caller: {refusal}" if refusal else "worker"


def _exit_reason(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"


class _RemoteTraceback(Exception):
    """The worker's traceback, chained to the exception it raised."""

    def __str__(self):
        return self.args[0]


class _Worker:
    """The caller's end of the shard worker: the pipe and the forked pid."""

    def __init__(self, conn, pid: int):
        self.conn, self.pid = conn, pid
        self.ended: str | None = None  # how the worker ended, once the caller knows

    def call(self, request: tuple, local):
        """(local(), the worker's reply): the request goes first, so both run at once.

        The reply is always read, so the pipe stays in step; when both fail,
        local's error wins.
        """
        with _worker_lock:
            self._send(request)
            try:
                mine = local()
            except BaseException:
                with contextlib.suppress(Exception):
                    self._receive()
                raise
            return mine, self._receive()

    def _send(self, request: tuple) -> None:
        drop = []
        while _released:
            drop.append(_released.pop())
        self._check(block=False)
        try:
            self.conn.send((drop, np.geterr()) + request)
        except OSError:
            self._check(block=True)
            raise
        except BaseException:  # cut off mid-message: the pipe is out of step
            self.stop()
            raise

    def _receive(self):
        try:
            while not self.conn.poll(_POLL_S):
                self._check(block=False)
            ok, value, extra = self.conn.recv()
        except (EOFError, OSError):
            self._check(block=True)
            raise
        except BaseException:
            self.stop()
            raise
        if not ok:
            raise value from _RemoteTraceback(extra)
        for message, category, filename, lineno in extra:  # the worker's warnings
            warnings.warn_explicit(message, category, filename, lineno, registry=_WARNED)
        return value

    def _check(self, block: bool) -> None:
        """Raise ShardWorkerError once the worker has ended.  block, used once
        its end of the pipe is gone, kills it if need be and waits for it."""
        if self.ended is None:
            if block:  # a worker with no pipe left is dying; never wait on one that is not
                os.kill(self.pid, signal.SIGKILL)
            pid, status = os.waitpid(self.pid, 0 if block else os.WNOHANG)
            if not pid:
                return
            self.conn.close()
            self.ended = _exit_reason(status)
        raise ShardWorkerError(f"the shard worker process (pid {self.pid}) {self.ended}")

    def stop(self) -> None:
        """End the worker and reap it; every later call raises ShardWorkerError."""
        if self.ended is None:
            self.conn.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.ended = "was stopped by the caller"


def _shard_worker() -> _Worker | None:
    """The shard worker, forked on first use and after it ends; None where
    forking is refused (_fork_refusal)."""
    global _worker
    if _fork_refusal():
        return None
    with _worker_lock:
        if _worker is None or _worker.ended:
            from multiprocessing.connection import Pipe  # imported here: it adds ~10 ms to importing lfam

            caller_end, worker_end = Pipe()
            caller = os.getpid()
            try:
                pid = os.fork()
            except OSError as exc:
                caller_end.close()
                worker_end.close()
                raise ShardWorkerError(f"cannot start the shard worker: {exc}") from exc
            if pid == 0:
                _worker_main(worker_end, caller_end, caller)
            worker_end.close()
            _worker = _Worker(caller_end, pid)
        return _worker


@atexit.register
def _stop_worker() -> None:
    if _worker is not None:
        _worker.stop()


def _worker_main(conn, caller_end, caller: int) -> None:
    """The forked worker's whole life; it leaves by os._exit, so it never
    flushes or finalizes a copy of the caller's state."""
    code = 1
    try:
        caller_end.close()  # so the caller's exit is end of file here
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to act on
        # the caller's stdout and stderr may be a reader's pipe that waits for
        # end of file: never hold them
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        os.close(devnull)
        _serve(conn, caller)
        code = 0
    finally:
        os._exit(code)


def _serve(conn, caller: int) -> None:
    """Answer shard requests on conn until it closes or the process's parent
    is no longer caller.

    A request is (released keys, numpy error state, kind, *args).  The reply
    is (True, value, [warning fields]) or (False, exception, traceback text).
    """
    models: dict[int, ModelState] = {}
    shards: dict[int, tuple] = {}
    while True:
        try:
            while not conn.poll(_POLL_S):
                if os.getppid() != caller:
                    return
            drop, err, kind, *args = conn.recv()
        except (EOFError, OSError):
            return
        for key in drop:
            models.pop(key, None)
            shards.pop(key, None)
        try:
            with np.errstate(**err), warnings.catch_warnings(record=True) as seen:
                if kind == "forward":
                    value = _serve_forward(models, shards, *args)
                else:
                    value = _serve_backward(shards, *args)
            reply = (True, value, [(str(w.message), w.category, w.filename, w.lineno)
                                   for w in seen])
        except Exception as exc:
            reply = (False, exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception:  # an exception the pipe cannot carry goes as its type and message
            error = ShardWorkerError(f"{type(reply[1]).__name__}: {reply[1]}")
            conn.send((False, error, reply[2]))


def _serve_forward(models, shards, model_key, cfg, data, flags, x, x_grad, shard_key):
    model = models.get(model_key)
    if model is None:
        model = models[model_key] = build_unet(cfg, seed=0, dtype=data.dtype)
    model.data[...] = data
    for p, flag in zip(model.params.values(), flags):
        p.requires_grad = flag
    x = Tensor(x, requires_grad=x_grad)
    if shard_key is None:
        return _forward_layers(model, x, lfam_forward).data
    with Tape() as tape:
        out = _forward_layers(model, x, lfam_forward)
    shards[shard_key] = ((tape, out, x), model)
    return out.data


def _serve_backward(shards, shard_key, g):
    shard, model = shards[shard_key]
    return _shard_grads(shard, g, model)


def _shard_grads(shard, g: np.ndarray, model: ModelState):
    """A shard's gradients: its model's, flat in params order, and its input's (or None)."""
    tape, out, x = shard
    found = {id(t): gt for t, gt in leaf_grads(tape, out, g)}
    flat = np.concatenate([found[id(p)].ravel() for p in model.params.values() if p.requires_grad])
    return flat, found.get(id(x))


def _model_key(model: ModelState) -> int:
    key = _model_keys.get(model)
    if key is None:
        key = _model_keys[model] = next(_keys)
        weakref.finalize(model, _released.append, key)
    return key


def forward(model: ModelState, x: Tensor, lfam_fn=None) -> Tensor:
    """Per-pixel class logits with the input's spatial dims.

    lfam_fn substitutes the fusion implementation (same signature as
    lfam_forward); used to swap in reference evaluations.

    With the built-in fusion (lfam_fn None), a batch whose first ceil(n/2)
    images hold at least _SHARD_MIN_PIXELS pixels is split there, and the
    halves run as shards through _split_forward.  No layer couples images,
    so the logits are bitwise those of the whole batch.  The split depends
    only on x's shape; the host only decides where the second shard runs.
    A substituted lfam_fn always runs serially in the calling process.

    Under an active tape each shard records on its own sub-tape (with no
    tape, none is opened), and the active tape gets one "unet_shards" node
    whose inputs are the parameters, plus x when it requires a gradient.
    Its vjp walks both sub-tapes and adds their flat parameter gradients
    in shard order.  Each weight gradient's sum over the batch is so taken
    as two halves, which moves it at float rounding from the unsplit
    batch's.
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
    """The network on x[:half] and x[half:] as two shards; see forward.

    The caller runs the first shard.  The second runs in the shard worker
    at the same time, or after the first in the caller when the host has
    one usable core or refuses to fork (shard_mode); the bits are the same.
    """
    taped = _active_tape() is not None
    xs = (Tensor(x.data[:half], requires_grad=x.requires_grad),
          Tensor(x.data[half:], requires_grad=x.requires_grad))

    def local(t: Tensor) -> tuple:
        with Tape() if taped else contextlib.nullcontext() as tape:
            return tape, _forward_layers(model, t, lfam_forward), t

    worker = _shard_worker() if _cores() > 1 else None
    if worker is None:
        shards = [local(xs[0]), local(xs[1])]
        tail = shards[1][1].data
    else:
        key = next(_keys) if taped else None
        flags = tuple(p.requires_grad for p in model.params.values())
        request = ("forward", _model_key(model), model.config, model.data, flags,
                   xs[1].data, x.requires_grad, key)
        try:
            head, tail = worker.call(request, lambda: local(xs[0]))
        except BaseException:
            if key is not None:
                _released.append(key)
            raise
        shards = [head]
    logits = np.concatenate([shards[0][1].data, tail])
    if not taped:
        return Tensor(logits)
    for (_, out, _), part in zip(shards, (logits[:half], logits[half:])):
        out.data = part  # the tape then holds one copy of the logits, not two
    params = [p for p in model.params.values() if p.requires_grad]
    inputs = params + [x] if x.requires_grad else params
    ends = np.cumsum([p.size for p in params])

    def vjp(g):
        if worker is None:
            (flat, gx), (flat2, gx2) = (_shard_grads(s, gs, model)
                                        for s, gs in zip(shards, (g[:half], g[half:])))
        else:
            (flat, gx), (flat2, gx2) = worker.call(
                ("backward", key, g[half:]),
                lambda: _shard_grads(shards[0], g[:half], model))
        flat = flat + flat2
        grads = [flat[end - p.size:end].reshape(p.shape) for p, end in zip(params, ends)]
        if x.requires_grad:
            grads.append(np.concatenate([gx, gx2]))
        return grads

    if worker is not None:
        weakref.finalize(vjp, _released.append, key)
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
    if offset != len(buf):
        raise CheckpointError(f"corrupt checkpoint {path}: {len(buf) - offset} bytes "
                              f"after its last record (ends at byte {offset})")
    try:
        model.load_arrays(arrays)
    except (ContractError, ShapeError) as exc:
        raise CheckpointError(f"checkpoint {path} does not fit the model: {exc}") from exc
    if not (np.isfinite(model.data.min()) and np.isfinite(model.data.max())):
        name = next(n for n, t in model.params.items() if not np.isfinite(t.data).all())
        raise CheckpointError(f"checkpoint {path} holds a non-finite value in parameter {name!r}")
    return model
