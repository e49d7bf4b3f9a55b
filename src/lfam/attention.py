"""Windowed source-target attention between two equal-shape feature maps.

The encoder map supplies queries and the decoder map supplies keys and
values (a config flag swaps those roles).  Both maps are cut into disjoint
m-by-m windows anchored at (0, 0); attention runs inside each window only,
so cost scales with m^4 per window instead of (h*w)^2 for the whole map.
Windows that reach past the bottom or right edge hold zero rows there:
padded keys receive exactly zero attention weight and padded query rows
are dropped at the end.

Everything between the two maps and the fused map runs in channel-last
(n, N, m*m, c) window rows.  window_partition checks a tiling once, as a
WindowGrid.  window_split copies a map into rows once; the three 1x1
projections are products on those rows; the core attends within each
window; window_merge copies the rows back into a map once, dropping the
padding and adding the residual.  The row order is written once, in
_window_views.

Two independent references live here as well: a per-window direct
evaluation with explicit score matrices, and a global all-pairs oracle for
the single-window limit.  Both are plain numpy, sharing nothing with the
taped path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateWindowError, NumericalError, ScaleGuardError, ShapeError
from .ops import _BLOCK_BYTES, ConvParams, he_conv
from .tensor import Tensor, _active_tape, _apply

# Tracer-only names: nothing in this module calls conv2d, masked_softmax,
# permute, reshape, pad_bottom_right or crop_top_left (window_split pads and
# window_merge crops as they copy).  perfbench's tracer wraps each of them
# as lfam.attention.<name>, so the four imports here and the two ops
# defined after window_merge stay.
from .ops import conv2d
from .tensor import masked_softmax, permute, reshape

# the global oracle is quadratic in pixel count; refuse anything big
_ORACLE_PIXEL_LIMIT = 4096

# per thread, the score buffer of a forward that keeps no P, kept across
# calls.  It saves page faults only where lfam left malloc's thresholds
# alone (lfam.MALLOC_TUNING): there, freeing it each call lets glibc hand
# its pages back and fault them in on the next.  It stays everywhere so
# that peak_mib, which tracemalloc takes after warm-up, does not count it
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
    real = _to_rows(np.ones((1, 1, h, w), dtype=bool), m, rows * cols, padded=True)
    return WindowGrid(h=h, w=w, m=m, rows=rows, cols=cols, n_windows=rows * cols,
                      pad_mask=pad_mask, key_mask=real.reshape(rows * cols, 1, 1, m * m))


def _window_views(rows: np.ndarray, m: int, *maps: np.ndarray):
    """Yield matching views of window rows (n, N, m*m, c) and of (n, c, h, w) maps.

    The one place the row order is written: pixel (i, j) of image b is row
    [b, (i // m) * cols + j // m, (i % m) * m + j % m], channel last.  The
    views cover the map in up to four blocks (whole windows, then the
    partial ones at the right, the bottom and the corner); row positions
    past the map are not viewed.
    """
    n, c, h, w = maps[0].shape
    r = rows.reshape(n, -(-h // m), -(-w // m), m, m, c).transpose(0, 5, 1, 3, 2, 4)

    def parts(size):  # (window index, in-window index, map slice, split shape)
        whole, part = divmod(size, m)
        out = [(np.s_[:whole], np.s_[:], np.s_[:whole * m], (whole, m))] if whole else []
        return out + ([(whole, np.s_[:part], np.s_[whole * m:], (part,))] if part else [])

    for wi, pi, si, shape_i in parts(h):
        for wj, pj, sj, shape_j in parts(w):
            yield (r[:, :, wi, pi, wj, pj],
                   *(x[:, :, si, sj].reshape((n, c) + shape_i + shape_j) for x in maps))


def _to_rows(x: np.ndarray, m: int, n_windows: int, padded: bool) -> np.ndarray:
    """(n, c, h, w) map -> window rows (n, N, m*m, c), zero past the map."""
    n, c = x.shape[:2]
    rows = (np.zeros if padded else np.empty)((n, n_windows, m * m, c), x.dtype)
    for r, view in _window_views(rows, m, x):
        r[...] = view
    return rows


def _to_map(rows: np.ndarray, m: int, hw: tuple[int, int], add: np.ndarray | None = None):
    """Window rows (n, N, m*m, c) -> the (n, c, h, w) map, plus add if given."""
    out = np.empty(rows.shape[:1] + rows.shape[3:] + hw, rows.dtype)
    for r, view, *extra in _window_views(rows, m, out, *(() if add is None else (add,))):
        if extra:
            np.add(r, extra[0], out=view)
        else:
            view[...] = r
    return out


# The window ops' vjps capture integers, not the grid: a taped node outlives
# its fusion call, and the grid's masks need not live as long.

def window_split(a: Tensor, grid: WindowGrid) -> Tensor:
    """Copy an (n, c, h, w) map once into window rows (n, N, m*m, c), zero at the padding."""
    hw = a.shape[2:]
    if hw != (grid.h, grid.w):
        raise ShapeError(f"window_split: map is {hw}, grid is {(grid.h, grid.w)}")
    m = grid.m
    return _apply("window_split", (a,), _to_rows(a.data, m, grid.n_windows, grid.padded),
                  lambda g: (_to_map(g, m, hw),))


def window_merge(r: Tensor, grid: WindowGrid, residual: Tensor | None = None) -> Tensor:
    """Copy window rows (n, N, m*m, d) once into an (n, d, h, w) map, dropping the padding.

    A residual (n, d, h, w) map is added in the same copy.
    """
    m, nw, padded = grid.m, grid.n_windows, grid.padded
    inputs = (r,) if residual is None else (r, residual)
    out = _to_map(r.data, m, (grid.h, grid.w), None if residual is None else residual.data)
    return _apply("window_merge", inputs, out,
                  lambda g: (_to_rows(g, m, nw, padded),) + (g,) * (len(inputs) - 1))


# tracer-only (see the imports at the top of this module)

def pad_bottom_right(a: Tensor, grid: WindowGrid) -> Tensor:
    """Zero-pad an (n, c, h, w) map at the bottom and right to whole windows."""
    h, w = grid.h, grid.w
    hh, ww = grid.pad_mask.shape
    out = np.pad(a.data, ((0, 0), (0, 0), (0, hh - h), (0, ww - w)))
    return _apply("pad_bottom_right", (a,), out, lambda g: (g[:, :, :h, :w],))


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

    Windows and in-window positions follow window rows, whose order
    _window_views defines; positions continue past h, w into the padding.
    Padded key columns are exactly zero.
    """

    grid: WindowGrid
    weights: np.ndarray


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


def _project(rows: Tensor, p: ConvParams) -> Tensor:
    """The 1x1 conv p on window rows: rows·Wᵀ + b.

    Padded rows project to the bias.  The core gives padded keys exactly
    zero weight whatever their rows hold, and window_merge drops padded
    queries, so those rows reach no output and no gradient.
    """
    shape = rows.shape
    x = rows.data.reshape(-1, shape[3])
    wt = p.weight.data[:, :, 0, 0]  # (d, c)
    out = x @ wt.T
    # a window's rows at a time: a bias add over rows of d values alone pays
    # numpy's per-row overhead, about as much as the product
    per_window = out.reshape(-1, shape[2] * len(wt))
    per_window += np.tile(p.bias.data.reshape(-1), shape[2])
    w_shape, b_shape = p.weight.shape, p.bias.shape

    def vjp(g):
        g = g.reshape(-1, g.shape[3])
        # the weight and bias gradients contract over rows: with both
        # operands channel-major, as a conv's are, the float32 error stays a
        # conv's (rows-major operands took a less exact OpenBLAS path, up to
        # 10x the error at some row counts), and the bias takes numpy's
        # pairwise sum
        gt = np.ascontiguousarray(g.T)
        gw = gt @ np.ascontiguousarray(x.T).T
        return (g @ wt).reshape(shape), gw.reshape(w_shape), gt.sum(axis=1).reshape(b_shape)

    return _apply("window_project", (rows, p.weight, p.bias), out.reshape(shape[:3] + (-1,)), vjp)


def _scratch(nbytes: int) -> np.ndarray:
    """This thread's kept score buffer, grown to at least nbytes."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        buf = _SCRATCH.buf = np.empty(nbytes, dtype=np.uint8)
    return buf


def _exp_scores(s: np.ndarray, mask: np.ndarray | None, mask_all: bool, bound: float) -> None:
    """exp of a block's scores (b, m*m, m*m) in place, shifted only where needed.

    A window whose scores all lie in (-bound, bound), bound = ½·ln(dtype
    max), takes exp unshifted: nothing overflows and every row sum is at
    least e^-bound.  Any other window has its masked keys set to -inf and
    its row max subtracted first, per window, so that no window's bits
    depend on its block.  mask_all sets masked keys to -inf everywhere.
    """
    flat = s.reshape(len(s), -1)
    lo, hi = flat.min(axis=1), flat.max(axis=1)
    # NaN and -inf show in the min, +inf in the max
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise NumericalError("window attention: scores contain non-finite values")
    shift = (lo <= -bound) | (hi >= bound)
    if mask is not None and (mask_all or shift.any()):
        np.copyto(s, -np.inf, where=~mask)
    if shift.all():
        s -= s.max(axis=2, keepdims=True)
    elif shift.any():
        np.subtract(s, s.max(axis=2, keepdims=True), out=s, where=shift[:, None, None])
    np.exp(s, out=s)


def _scores_grad(dp: np.ndarray, p: np.ndarray, g: np.ndarray, o: np.ndarray) -> None:
    """Turn a block's dP = g·Vᵀ into the scores' gradient in place.

    dS = P ⊙ (dP - rowdot(g, O)): the row dot rowdot(dP, P) equals
    rowdot(g, P·V), which runs over O's d columns instead of P's m*m
    (FlashAttention-2, Dao 2023, arXiv 2307.08691).
    """
    dp -= np.einsum("wqd,wqd->wq", g, o)[..., None]
    dp *= p


def bmm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out over a leading batch axis: one of the core's two products per block.

    It exists so that perfbench's tracer can time the core's products by
    name: the tracer replaces lfam.attention.bmm, and _window_core looks the
    name up at each call.
    """
    return np.matmul(a, b, out=out)


def _window_core(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None,
                 scale: float | None, keep_p: bool = True) -> tuple[Tensor, np.ndarray | None]:
    """softmax(q kᵀ * scale) v over (n, N, m*m, d) window rows, as one tape node.

    Returns the output rows and P.  mask, broadcastable to (n, N, 1, m*m),
    marks real keys (None: all real); a window with no real key raises.
    The n*N windows run in blocks whose scores fit _BLOCK_BYTES, both
    products through this module's bmm, which perfbench's tracer times.
    Per block, with the scale folded into q, E = exp(q kᵀ) (_exp_scores),
    and one product E·[v | keys] gives E·v and the row sums l (keys is 1 at
    real keys, 0 at masked ones, whose v rows enter as 0); the output is
    E·v / l.  Where P is kept (keep_p, or a tape that records the node,
    whose vjp reads P), E goes into its slice of a full-size P, masked keys
    exactly 0, and is divided by l there; otherwise into this thread's kept
    scratch buffer, and P is returned as None.

    The vjp reuses one block-sized buffer for every block's dP = g vᵀ,
    turns it into dS in place (_scores_grad), writes dq and dk into their
    outputs, and forms dv = Pᵀ g after freeing the buffer.  Every product
    is one BLAS call per window and every reduction runs along one row, so
    the bits do not depend on the block size.
    """
    n, nw, mm, d = q.shape
    rows = n * nw
    dtype = q.dtype
    keep_p = keep_p or (_active_tape() is not None and any(t.requires_grad for t in (q, k, v)))
    per = max(1, _BLOCK_BYTES // (mm * mm * dtype.itemsize))  # windows per block
    blk = min(per, rows)
    # the loop sees every operand as (n*N, ...): window b*N + w of image b
    if mask is None:
        keys = np.broadcast_to(np.ones((1, 1, 1), dtype), (rows, mm, 1))
    else:
        mask = np.broadcast_to(mask, (n, nw, 1, mm)).reshape(rows, 1, mm)
        if not mask.any(axis=2).all():
            raise DegenerateWindowError("window attention: a window has every key masked")
        keys = mask.reshape(rows, mm, 1).astype(dtype)
    qs = q.data if scale is None else q.data * scale
    qf = qs.reshape(rows, mm, d)
    kt = k.data.reshape(rows, mm, d).swapaxes(-1, -2)
    vf = v.data.reshape(rows, mm, d)
    out = np.empty(q.shape, dtype=dtype)
    of = out.reshape(rows, mm, d)
    if keep_p:
        p = np.empty((n, nw, mm, mm), dtype=dtype)
        pf = p.reshape(rows, mm, mm)
    else:
        p = None
        nbytes = blk * mm * mm * dtype.itemsize
        # cut to nbytes before the view: a float32 call may leave a length
        # that is no multiple of 8
        pf = _scratch(nbytes)[:nbytes].view(dtype).reshape(-1, mm, mm)
    v1 = np.empty((blk, mm, d + 1), dtype=dtype)  # [v | keys]
    ev = np.empty((blk, mm, d + 1), dtype=dtype)  # [E·v | l]
    bound = 0.5 * math.log(float(np.finfo(dtype).max))  # 44.36 in float32, 354.9 in float64
    for lo in range(0, rows, per):
        hi = min(lo + per, rows)
        b = hi - lo
        e = pf[lo:hi] if keep_p else pf[:b]
        bmm(qf[lo:hi], kt[lo:hi], e)
        _exp_scores(e, None if mask is None else mask[lo:hi], keep_p, bound)
        np.multiply(vf[lo:hi], keys[lo:hi], out=v1[:b, :, :d])
        v1[:b, :, d:] = keys[lo:hi]
        bmm(e, v1[:b], ev[:b])
        # every row sum is at least e^-bound (see _exp_scores), so l > 0
        l = ev[:b, :, d:]
        np.divide(ev[:b, :, :d], l, out=of[lo:hi])
        if keep_p:
            e /= l
    if not keep_p:  # no tape records the node, so nothing reads P
        return Tensor(out), None

    def vjp(g):
        # views are formed here, not captured, so the closure holds only
        # the scaled q, k, v, the output, P and scale
        qf, kf, vf, of, gf = (x.reshape(rows, mm, d) for x in (qs, k.data, v.data, out, g))
        pf = p.reshape(rows, mm, mm)
        buf = np.empty((blk, mm, mm), dtype=g.dtype)
        for lo in range(0, rows, per):
            hi = min(lo + per, rows)
            ds = np.matmul(gf[lo:hi], vf[lo:hi].swapaxes(-1, -2), out=buf[:hi - lo])
            _scores_grad(ds, pf[lo:hi], gf[lo:hi], of[lo:hi])
            if lo == 0:  # after the first block's row-dot temporary is freed
                dq = np.empty(qf.shape, dtype=g.dtype)
                dkt = np.empty(qf.swapaxes(-1, -2).shape, dtype=g.dtype)
            np.matmul(ds, kf[lo:hi], out=dq[lo:hi])
            np.matmul(qf[lo:hi].swapaxes(-1, -2), ds, out=dkt[lo:hi])
        del buf, ds
        if scale is not None:  # S = (q * scale) kᵀ
            dq *= scale
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
    grid = window_partition(h, w, m)

    q_src, kv_src = (decoder, encoder) if cfg.swap_qkv else (encoder, decoder)
    # without a tape, each map's rows are freed once projected
    q = _project(window_split(q_src, grid), params.query)
    kv_rows = window_split(kv_src, grid)
    k = _project(kv_rows, params.key)
    v = _project(kv_rows, params.value)
    del kv_rows

    # unpadded windows have only real keys; otherwise the (N, 1, 1, m*m) key
    # mask, viewed as (1, N, 1, m*m), broadcasts over the batch
    mask = grid.key_mask.reshape(1, grid.n_windows, 1, m * m) if grid.padded else None
    d = params.proj_channels
    scale = float(1.0 / np.sqrt(d)) if cfg.scale_logits else None  # keeps float32 data float32
    gathered, weights = _window_core(q, k, v, mask, scale, keep_p)
    del q, k, v

    residual = {ResidualSource.ENCODER: encoder,
                ResidualSource.DECODER: decoder}.get(cfg.residual_source)
    return window_merge(gathered, grid, residual), grid, weights


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
