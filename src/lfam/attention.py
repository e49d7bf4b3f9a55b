"""Windowed source-target attention between two equal-shape feature maps.

The encoder map supplies queries and the decoder map supplies keys and
values (a config flag swaps those roles).  Both maps are cut into disjoint
m-by-m windows anchored at (0, 0); attention runs inside each window only,
so cost scales with m^4 per window instead of (h*w)^2 for the whole map.
Maps whose sides are not multiples of m are zero-padded at the bottom and
right; padded key positions receive exactly zero attention weight and
padded query rows are cropped away at the end.

The window layout lives here too: window_partition checks a tiling once,
as a WindowGrid, and pad_bottom_right, window_split (to the channel-last
(n, N, m*m, c) rows the core reads), window_merge (from them) and
crop_top_left take that grid.  The row order is written once, in
_map_to_rows, which also builds the key mask.

Two independent references live here as well: a per-window direct
evaluation with explicit score matrices, and a global all-pairs oracle for
the single-window limit.  Both are plain numpy, sharing nothing with the
taped path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, ScaleGuardError, ShapeError
from .ops import ConvParams, conv2d, he_conv
from .tensor import (
    Tensor,
    _active_tape,
    _apply,
    _softmax_grad,
    add,
    bmm,
    masked_softmax,
    permute,
    reshape,  # not called here: perfbench's tracer wraps lfam.attention.reshape by name
)

# the global oracle is quadratic in pixel count; refuse anything big
_ORACLE_PIXEL_LIMIT = 4096

# the window-attention core runs as many windows at once as fit their scores
# in this many bytes: half of one core's 2 MiB L2, leaving room for the
# block's q, k, v and gradient rows
_BLOCK_BYTES = 1 << 20

# per thread, the score buffer of a forward that keeps no P; kept across
# calls, since freeing it each call lets glibc hand its pages back and
# fault them in again on the next call
_SCRATCH = threading.local()


class ResidualSource(Enum):
    """Which input map is added back onto the attention output."""

    ENCODER = "encoder"
    DECODER = "decoder"
    NONE = "none"


@dataclass(frozen=True)
class LfamConfig:
    """Settings for one fusion module.

    local_range is the window side m.  proj_channels sets the projection
    width d; None keeps the input channel count, which is required whenever
    a residual is added.  scale_logits divides scores by sqrt(d) before the
    softmax.  swap_qkv makes the decoder supply queries instead.
    """

    local_range: int = 7
    residual_source: ResidualSource = ResidualSource.ENCODER
    proj_channels: int | None = None
    scale_logits: bool = False
    swap_qkv: bool = False

    def __post_init__(self):
        if self.local_range < 1:
            raise ConfigError(f"local_range must be >= 1, got {self.local_range}")
        if self.proj_channels is not None and self.proj_channels < 1:
            raise ConfigError(f"proj_channels must be >= 1, got {self.proj_channels}")


@dataclass(eq=False)
class WindowGrid:
    """Window tiling of an (h, w) map with side m, anchored at (0, 0).

    pad_mask is (rows*m, cols*m), True on real pixels.  key_mask is the same
    information regrouped per window: (n_windows, 1, 1, m*m), window pixels
    in row-major order.
    """

    h: int
    w: int
    m: int
    rows: int
    cols: int
    n_windows: int
    pad_mask: np.ndarray
    key_mask: np.ndarray = field(repr=False)

    @property
    def padded(self) -> bool:
        """True when the windows reach past the map at the bottom or right."""
        return self.pad_mask.shape != (self.h, self.w)


def window_partition(h: int, w: int, m: int) -> WindowGrid:
    if h < 1 or w < 1 or m < 1:
        raise ConfigError(f"window_partition needs positive h, w, m, got ({h}, {w}, {m})")
    rows = -(-h // m)
    cols = -(-w // m)
    pad_mask = np.zeros((rows * m, cols * m), dtype=bool)
    pad_mask[:h, :w] = True
    key_mask = _map_to_rows(pad_mask[None, None], m).reshape(rows * cols, 1, 1, m * m)
    return WindowGrid(h=h, w=w, m=m, rows=rows, cols=cols,
                      n_windows=rows * cols, pad_mask=pad_mask, key_mask=key_mask)


def _map_to_rows(x: np.ndarray, m: int) -> np.ndarray:
    """(n, c, rows*m, cols*m) map -> (n, rows*cols, m*m, c) window rows, row-major throughout."""
    n, c, hh, ww = x.shape
    return (x.reshape(n, c, hh // m, m, ww // m, m)
            .transpose(0, 2, 4, 3, 5, 1)
            .reshape(n, -1, m * m, c))


def _rows_to_map(r: np.ndarray, rows: int, cols: int, m: int) -> np.ndarray:
    """Inverse of _map_to_rows: rows of rows x cols windows per image back to the map."""
    n, _, _, c = r.shape
    return (r.reshape(n, rows, cols, m, m, c)
            .transpose(0, 5, 1, 3, 2, 4)
            .reshape(n, c, rows * m, cols * m))


# The four window ops' vjps capture integers, not the grid: a taped node
# outlives its fusion call, and the grid's two masks need not live as long.

def pad_bottom_right(a: Tensor, grid: WindowGrid) -> Tensor:
    """Zero-pad an (n, c, h, w) map at the bottom and right to whole windows."""
    h, w = grid.h, grid.w
    hh, ww = grid.pad_mask.shape
    out = np.pad(a.data, ((0, 0), (0, 0), (0, hh - h), (0, ww - w)))
    return _apply("pad_bottom_right", (a,), out, lambda g: (g[:, :, :h, :w],))


def window_split(a: Tensor, grid: WindowGrid) -> Tensor:
    """Cut an (n, c, rows*m, cols*m) map into contiguous channel-last window rows (n, N, m*m, c)."""
    rows, cols, m = grid.rows, grid.cols, grid.m
    return _apply("window_split", (a,), _map_to_rows(a.data, m),
                  lambda g: (_rows_to_map(g, rows, cols, m),))


def window_merge(r: Tensor, grid: WindowGrid) -> Tensor:
    """Inverse of window_split: window rows (n, N, m*m, c) back to (n, c, rows*m, cols*m)."""
    m = grid.m
    return _apply("window_merge", (r,), _rows_to_map(r.data, grid.rows, grid.cols, m),
                  lambda g: (_map_to_rows(g, m),))


def crop_top_left(a: Tensor, grid: WindowGrid) -> Tensor:
    """Inverse of pad_bottom_right: the (n, c, h, w) map inside its whole windows."""
    h, w = grid.h, grid.w
    hh, ww = grid.pad_mask.shape
    return _apply("crop_top_left", (a,), a.data[:, :, :h, :w].copy(),
                  lambda g: (np.pad(g, ((0, 0), (0, 0), (0, hh - h), (0, ww - w))),))


@dataclass
class LfamParams:
    """Three pointwise projections producing query, key, and value maps."""

    query: ConvParams
    key: ConvParams
    value: ConvParams

    def __post_init__(self):
        for name, p in (("query", self.query), ("key", self.key), ("value", self.value)):
            if p.kernel != 1:
                raise ConfigError(f"{name} projection must be a plain 1x1 conv")
        if len({p.in_channels for p in (self.query, self.key, self.value)}) != 1:
            raise ConfigError("projections disagree on input channels")
        if len({p.out_channels for p in (self.query, self.key, self.value)}) != 1:
            raise ConfigError("projections disagree on output channels")

    @property
    def in_channels(self) -> int:
        return self.query.in_channels

    @property
    def proj_channels(self) -> int:
        return self.query.out_channels

    def tensors(self) -> tuple[Tensor, ...]:
        return self.query.tensors() + self.key.tensors() + self.value.tensors()


def init_lfam_params(in_channels: int, rng: np.random.Generator,
                     proj_channels: int | None = None, dtype=np.float32) -> LfamParams:
    d = in_channels if proj_channels is None else proj_channels
    return LfamParams(query=he_conv(in_channels, d, 1, rng, dtype=dtype),
                      key=he_conv(in_channels, d, 1, rng, dtype=dtype),
                      value=he_conv(in_channels, d, 1, rng, dtype=dtype))


@dataclass(eq=False)
class AttentionWeights:
    """Post-softmax scores, (n, n_windows, m*m, m*m): [batch, window, query, key].

    Pixel (i, j) lives in window (i // m) * cols + (j // m) at in-window
    position (i % m) * m + (j % m); positions continue past h, w into the
    padding.  Padded key columns are exactly zero.
    """

    grid: WindowGrid
    weights: np.ndarray

    def window_of(self, i: int, j: int) -> int:
        return (i // self.grid.m) * self.grid.cols + (j // self.grid.m)

    def position_in_window(self, i: int, j: int) -> int:
        return (i % self.grid.m) * self.grid.m + (j % self.grid.m)


def _validate_pair(encoder: Tensor, decoder: Tensor, params: LfamParams, cfg: LfamConfig) -> None:
    if encoder.shape != decoder.shape:
        raise ShapeError(f"fusion inputs differ: encoder {encoder.shape} vs decoder {decoder.shape}")
    c = encoder.shape[1]
    if params.in_channels != c:
        raise ShapeError(f"projections expect {params.in_channels} channels, maps have {c}")
    if cfg.proj_channels is not None and cfg.proj_channels != params.proj_channels:
        raise ConfigError(f"config wants proj_channels={cfg.proj_channels}, "
                          f"params have {params.proj_channels}")
    if cfg.residual_source is not ResidualSource.NONE and params.proj_channels != c:
        raise ConfigError(f"residual needs proj_channels == input channels, "
                          f"got {params.proj_channels} vs {c}")


def _scratch(nbytes: int) -> np.ndarray:
    """This thread's kept score buffer, grown to at least nbytes."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        buf = _SCRATCH.buf = np.empty(nbytes, dtype=np.uint8)
    return buf


def _window_core(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None,
                 scale: float | None, keep_p: bool = True) -> tuple[Tensor, np.ndarray | None]:
    """softmax(q kᵀ * scale) v over (n, N, m*m, d) window rows, as one tape node.

    Returns the gathered rows and P.  Each window's softmax is independent,
    so forward and vjp both run the n*N windows in blocks whose scores fit
    _BLOCK_BYTES; a block's mask rows are those of its flat windows b*N + w.
    The forward calls this module's bmm, permute and masked_softmax on
    untracked views, which perfbench's tracer times.  A block's scores go
    into its slice of a full-size P when P is kept (keep_p, or a tape that
    records the node, whose vjp reads P); otherwise into this thread's kept
    scratch buffer, and P is returned as None.  The softmax overwrites the
    scores and P·V goes into the block's rows of the output.

    The vjp reuses one block-sized buffer for every block's dP = g vᵀ,
    turns it into dS in place and writes dq and dk into their outputs;
    dv = Pᵀ g is one product formed after the buffer is freed.  Every
    product is still one BLAS call per window and every reduction runs along
    the same row, so the bits do not depend on the block size.
    """
    n, nw, mm, d = q.shape
    rows = n * nw
    dtype = q.dtype
    keep_p = keep_p or (_active_tape() is not None and any(t.requires_grad for t in (q, k, v)))
    per = max(1, _BLOCK_BYTES // (mm * mm * dtype.itemsize))  # windows per block
    # the loop sees every operand as (1, n*N, ...): window b*N + w of image b
    out = np.empty(q.shape, dtype=dtype)
    if keep_p:
        p = np.empty((n, nw, mm, mm), dtype=dtype)
        pf = p.reshape(1, rows, mm, mm)
    else:
        p = None
        nbytes = min(per, rows) * mm * mm * dtype.itemsize
        # cut to nbytes before the view: a float32 call may leave a length
        # that is no multiple of 8
        pf = _scratch(nbytes)[:nbytes].view(dtype).reshape(1, -1, mm, mm)
    qf, vf, of = (x.reshape(1, rows, mm, d) for x in (q.data, v.data, out))
    kt = permute(Tensor(k.data.reshape(1, rows, mm, d)), (0, 1, 3, 2)).data
    if mask is not None:
        mask = np.broadcast_to(mask, (n, nw) + mask.shape[2:]).reshape(1, rows, *mask.shape[2:])
    for lo in range(0, rows, per):
        hi = min(lo + per, rows)
        dst = pf[:, lo:hi] if keep_p else pf[:, :hi - lo]
        scores = bmm(Tensor(qf[:, lo:hi]), Tensor(kt[:, lo:hi]), out=dst)
        if scale is not None:
            scores.data *= scale
        probs = masked_softmax(scores, None if mask is None else mask[:, lo:hi], overwrite=True)
        bmm(probs, Tensor(vf[:, lo:hi]), out=of[:, lo:hi])
    if not keep_p:  # no tape records the node, so nothing reads P
        return Tensor(out), None

    def vjp(g):
        # views are formed here, not captured, so the closure holds only q, k, v, P and scale
        qf, kf, vf, gf = (x.reshape(-1, *q.shape[2:]) for x in (q.data, k.data, v.data, g))
        pf = p.reshape(-1, *p.shape[2:])
        rows = len(pf)
        per = max(1, _BLOCK_BYTES // pf[0].nbytes)  # windows per block
        buf = np.empty((min(per, rows),) + pf.shape[1:], dtype=g.dtype)
        for lo in range(0, rows, per):
            hi = min(lo + per, rows)
            ds = np.matmul(gf[lo:hi], vf[lo:hi].swapaxes(-1, -2), out=buf[:hi - lo])
            _softmax_grad(ds[None], pf[lo:hi][None], 3, overwrite=True)
            if scale is not None:
                ds *= scale
            if lo == 0:  # after the first block's row-dot temporary is freed
                dq = np.empty(qf.shape, dtype=g.dtype)
                dkt = np.empty(qf.swapaxes(-1, -2).shape, dtype=g.dtype)
            np.matmul(ds, kf[lo:hi], out=dq[lo:hi])
            np.matmul(qf[lo:hi].swapaxes(-1, -2), ds, out=dkt[lo:hi])
        del buf, ds
        return dq.reshape(q.shape), dkt.swapaxes(-1, -2).reshape(q.shape), p.swapaxes(-1, -2) @ g

    return _apply("window_attention", (q, k, v), out, vjp), p


def lfam_attention(encoder: Tensor, decoder: Tensor, params: LfamParams,
                   cfg: LfamConfig) -> tuple[Tensor, AttentionWeights]:
    """Fused map plus the attention weights that produced it."""
    fused, grid, weights = _fuse(encoder, decoder, params, cfg, keep_p=True)
    return fused, AttentionWeights(grid, weights)


def lfam_forward(encoder: Tensor, decoder: Tensor, params: LfamParams, cfg: LfamConfig) -> Tensor:
    """Windowed source-target attention between encoder and decoder maps."""
    return _fuse(encoder, decoder, params, cfg, keep_p=False)[0]


def _fuse(encoder: Tensor, decoder: Tensor, params: LfamParams, cfg: LfamConfig,
          keep_p: bool) -> tuple[Tensor, WindowGrid, np.ndarray | None]:
    """Fused map, window grid and P; P is None when neither keep_p nor a tape needs it."""
    _validate_pair(encoder, decoder, params, cfg)
    h, w = encoder.shape[2:]
    m = cfg.local_range
    d = params.proj_channels
    grid = window_partition(h, w, m)

    q_src, kv_src = (decoder, encoder) if cfg.swap_qkv else (encoder, decoder)
    q = conv2d(q_src, params.query)
    k = conv2d(kv_src, params.key)
    v = conv2d(kv_src, params.value)

    def rows_of(t: Tensor) -> Tensor:
        return window_split(pad_bottom_right(t, grid) if grid.padded else t, grid)

    # unpadded windows have only real keys; otherwise the (N, 1, 1, m*m) key
    # mask, viewed as (1, N, 1, m*m), broadcasts over batch and query rows
    mask = grid.key_mask.reshape(1, grid.n_windows, 1, m * m) if grid.padded else None
    scale = float(1.0 / np.sqrt(d)) if cfg.scale_logits else None  # keeps float32 data float32
    gathered, weights = _window_core(rows_of(q), rows_of(k), rows_of(v), mask, scale, keep_p)

    fused = window_merge(gathered, grid)
    if grid.padded:
        fused = crop_top_left(fused, grid)

    if cfg.residual_source is ResidualSource.ENCODER:
        fused = add(fused, encoder)
    elif cfg.residual_source is ResidualSource.DECODER:
        fused = add(fused, decoder)

    return fused, grid, weights


# ---------------------------------------------------------------------------
# independent references (plain numpy, no tape, no shared attention code)


def _project_pixels(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Per-pixel linear map, the direct meaning of a 1x1 conv."""
    return np.einsum("dc,nchw->ndhw", p.weight.data[:, :, 0, 0], x) + p.bias.data


def windowed_reference(encoder: Tensor, decoder: Tensor, params: LfamParams,
                       cfg: LfamConfig) -> np.ndarray:
    """Direct per-window evaluation with explicit score matrices.

    Walks the window grid, gathers the real pixels of each window, builds
    the full score matrix, and scatters results back.  Padding never enters:
    skipping padded pixels here must equal masking them there.
    """
    _validate_pair(encoder, decoder, params, cfg)
    n, c, h, w = encoder.shape
    m = cfg.local_range
    enc, dec = np.asarray(encoder.data, dtype=np.float64), np.asarray(decoder.data, dtype=np.float64)
    q_src, kv_src = (dec, enc) if cfg.swap_qkv else (enc, dec)
    q = _project_pixels(q_src, params.query)
    k = _project_pixels(kv_src, params.key)
    v = _project_pixels(kv_src, params.value)
    d = params.proj_channels

    out = np.zeros((n, d, h, w), dtype=np.float64)
    for ni in range(n):
        for i0 in range(0, h, m):
            for j0 in range(0, w, m):
                i1, j1 = min(i0 + m, h), min(j0 + m, w)
                qm = q[ni, :, i0:i1, j0:j1].reshape(d, -1).T
                km = k[ni, :, i0:i1, j0:j1].reshape(d, -1).T
                vm = v[ni, :, i0:i1, j0:j1].reshape(d, -1).T
                scores = qm @ km.T
                if cfg.scale_logits:
                    scores = scores / np.sqrt(d)
                scores = scores - scores.max(axis=1, keepdims=True)
                e = np.exp(scores)
                wgt = e / e.sum(axis=1, keepdims=True)
                out[ni, :, i0:i1, j0:j1] = (wgt @ vm).T.reshape(d, i1 - i0, j1 - j0)

    if cfg.residual_source is ResidualSource.ENCODER:
        out = out + enc
    elif cfg.residual_source is ResidualSource.DECODER:
        out = out + dec
    return out


def global_attention_oracle(encoder: Tensor, decoder: Tensor, params: LfamParams) -> Tensor:
    """All-pairs attention over the whole map, one query pixel at a time.

    Matches lfam_forward with residual none, no logit scaling, and a window
    covering the entire map.  Quadratic in pixel count, so maps beyond
    4096 pixels are refused.
    """
    if encoder.shape != decoder.shape:
        raise ShapeError(f"fusion inputs differ: encoder {encoder.shape} vs decoder {decoder.shape}")
    n, c, h, w = encoder.shape
    if h * w > _ORACLE_PIXEL_LIMIT:
        raise ScaleGuardError(f"global oracle refuses {h}x{w} = {h * w} pixels "
                              f"(limit {_ORACLE_PIXEL_LIMIT})")
    enc = np.asarray(encoder.data, dtype=np.float64)
    dec = np.asarray(decoder.data, dtype=np.float64)
    q = _project_pixels(enc, params.query)
    k = _project_pixels(dec, params.key)
    v = _project_pixels(dec, params.value)
    d = params.proj_channels

    out = np.zeros((n, d, h, w), dtype=np.float64)
    for ni in range(n):
        qf = q[ni].reshape(d, h * w).T
        kf = k[ni].reshape(d, h * w).T
        vf = v[ni].reshape(d, h * w).T
        yf = np.zeros((h * w, d))
        for pix in range(h * w):
            scores = kf @ qf[pix]
            scores = scores - scores.max()
            e = np.exp(scores)
            yf[pix] = (e / e.sum()) @ vf
        out[ni] = yf.T.reshape(d, h, w)
    return Tensor(out)
