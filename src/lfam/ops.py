"""Convolution, pooling, and upconvolution layers over the tape.

Each op has one geometry, set by the op and its kernel: conv2d is a
stride-1 "same" conv with k 1 or 3 (zero padding p = k // 2); maxpool2x2
and upconv2x2 act on 2x2 blocks with stride 2.  No op builds an im2col
matrix.
conv2d computes k*k shifted GEMMs over a padded grid ("kn2row",
Vasudevan et al. 2017, arXiv 1704.04428; Anderson et al. 2017,
arXiv 1709.03395).  The input is copied once into a zero-padded
channel-major grid (ic, n, h+2p, w+2p), viewed flat as (ic, L); kernel tap
(di, dj) is then the column slice at offset di*(w+2p) + dj, which BLAS
reads in place.  The k*k products w[:, :, di, dj] @ slice sum into one
(oc, L) map on the padded grid, which is cropped to (n, oc, h, w).  The
sum runs in blocks of output columns, each block taking all k*k taps
before the next starts, so that its grid slice, its output slice and one
tap temporary, (ic + 2*oc) * itemsize bytes per column, stay within
_BLOCK_BYTES, half of one core's 2 MiB L2 (Anderson et al.).  The width
is rounded down to a multiple of 64 columns, which keeps every BLAS tail
where the unblocked product had it, so the bits do not depend on the
blocks; maps that fit, such as every 32x32 training map, run as one
block, and so does a sum with one output channel, whose taps are gemvs.
With one input channel the k*k products would be rank-1, so the tap
slices are stacked into a (k*k, L) operand and multiplied once, unblocked.
A 1x1 conv is one product with no padding, and over a channel-major input
it copies nothing; the conv output keeps that channel-major memory order.
Backward pads g once: the weight gradient is k*k products of padded g with
the same slices of the input grid, unblocked, and the input gradient is
the forward correlation, blocked alike, run on padded g with the weight
flipped in both spatial axes and its in/out axes swapped.  The vjp keeps
only the padded input grid.
upconv2x2 is one (n*h*w, ic) @ (ic, oc*4) product, and each of its two
gradients is one more; it is the exact adjoint of a stride-2 kernel-2
convolution with the in/out axes of the weight swapped.  maxpool2x2 takes
the maximum of the four strided corner views and breaks ties toward the
first corner in row-major block order, so forward and backward agree
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import (
    Tensor,
    _apply,
    add,
    mul,
    pow_const,
    sub,
    sum_axes,
)

# a conv column block, or a block of attention windows' scores, takes at
# most this many bytes: half of one core's 2 MiB L2, leaving room for the
# operands that stream past it
_BLOCK_BYTES = 1 << 20


@dataclass
class ConvParams:
    """Weights for one convolution: weight (out_ch, in_ch, k, k), bias (1, out_ch, 1, 1)."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        oc, ic, kh, kw = self.weight.shape
        if kh != kw or kh not in (1, 2, 3):
            raise ContractError(f"conv kernel must be square with k in (1, 2, 3), got {self.weight.shape}")
        if self.bias.shape != (1, oc, 1, 1):
            raise ShapeError(f"bias shape {self.bias.shape} does not match out_ch {oc}")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def tensors(self) -> tuple[Tensor, Tensor]:
        return (self.weight, self.bias)


def he_conv(in_ch: int, out_ch: int, k: int, rng: np.random.Generator, dtype=np.float32) -> ConvParams:
    """He-normal weight init, std sqrt(2 / fan_in) with fan_in = in_ch * k * k."""
    std = np.sqrt(2.0 / (in_ch * k * k))
    w = (rng.standard_normal((out_ch, in_ch, k, k)) * std).astype(dtype)
    b = np.zeros((1, out_ch, 1, 1), dtype=dtype)
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def _grid(a: np.ndarray, pad: int) -> np.ndarray:
    """(n, c, h, w) -> (c, n*hp*wp + tail) channel-major grid with zero padding pad.

    The tail of 2 * pad * (wp + 1) zero columns lets every tap offset take a
    full n*hp*wp-wide slice.  With pad 0 this is a reshape, which copies
    nothing when a is already channel-major.
    """
    n, c, h, w = a.shape
    t = a.transpose(1, 0, 2, 3)
    if not pad:
        return t.reshape(c, n * h * w)
    hp, wp = h + 2 * pad, w + 2 * pad
    span = n * hp * wp
    grid = np.zeros((c, span + 2 * pad * (wp + 1)), a.dtype)
    grid[:, :span].reshape(c, n, hp, wp)[:, :, pad:pad + h, pad:pad + w] = t
    return grid


def _block_columns(ic: int, oc: int, itemsize: int) -> int:
    """Output columns per _correlate block: a grid slice, an output block and
    a tap temporary fit _BLOCK_BYTES, in whole multiples of 64 columns."""
    return max(64, _BLOCK_BYTES // ((ic + 2 * oc) * itemsize) // 64 * 64)


def _correlate(wt: np.ndarray, grid: np.ndarray, offsets: list[int], span: int) -> np.ndarray:
    """out[:, b] = sum over taps t of wt[t] @ grid[:, b + offsets[t]], for b < span.

    wt is (taps, oc, ic).  With one input channel each tap would be a
    rank-1 product, so the tap slices are stacked and multiplied once.
    Otherwise the columns run in blocks of _block_columns, each summing its
    taps into its slice of out through one block-sized temporary.  With one
    output channel each tap is a BLAS gemv, whose float32 bits depend on
    its length, so it runs as one block.
    """
    _, oc, ic = wt.shape
    if ic == 1:
        return wt[:, :, 0].T @ np.stack([grid[0, o:o + span] for o in offsets])
    width = span if oc == 1 else min(_block_columns(ic, oc, grid.itemsize), span)
    out = np.empty((oc, span), grid.dtype)
    tmp = np.empty((oc, width), grid.dtype)
    for b in range(0, span, width):
        e = min(b + width, span)
        block, t = out[:, b:e], tmp[:, :e - b]
        np.matmul(wt[0], grid[:, b + offsets[0]:e + offsets[0]], out=block)
        for w_t, o in zip(wt[1:], offsets[1:]):
            block += np.matmul(w_t, grid[:, b + o:e + o], out=t)
    return out


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Stride-1 "same" cross-correlation: zero padding k // 2 keeps h and w."""
    oc, ic, k, _ = p.weight.shape
    if k % 2 == 0:
        raise ContractError(f"conv2d needs an odd kernel, got {k}x{k}")
    n, c, h, w = x.shape
    if c != ic:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {ic}")
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    span = n * hp * wp
    # output (m, i, j) sits at grid column (m*hp + i)*wp + j, its window's
    # top-left corner; tap (di, dj) reads di*wp + dj columns further on
    offsets = [di * wp + dj for di in range(k) for dj in range(k)]

    def crop(a):  # (ch, span) on the padded grid -> (n, ch, h, w) view
        return a.reshape(-1, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3)

    xg = _grid(x.data, pad)
    wt = p.weight.data.transpose(2, 3, 0, 1).reshape(k * k, oc, ic)
    # adding the bias copies the crop; the result stays channel-major
    out = crop(_correlate(wt, xg, offsets, span)) + p.bias.data
    need_gx = x.requires_grad  # else the vjp returns None for gx

    def vjp(g):
        gg = _grid(g, pad)  # g centred, so gg[:, b + pad*wp + pad] is g at b
        gb = gg.sum(axis=1).reshape(1, oc, 1, 1)
        centre = pad * wp + pad
        gc = gg[:, centre:centre + span]
        gw = np.stack([gc @ xg[:, o:o + span].T for o in offsets])
        gw = gw.reshape(k, k, oc, ic).transpose(2, 3, 0, 1)
        if not need_gx:
            return (None, gw, gb)
        # the input gradient is the same correlation of padded g with the
        # weight flipped in both spatial axes and its in/out axes swapped
        gx = crop(_correlate(wt[::-1].transpose(0, 2, 1), gg, offsets, span))
        return (gx, gw, gb)

    return _apply("conv2d", (x, p.weight, p.bias), out, vjp)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2.

    Each block's gradient goes to its first maximum in row-major order.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.shape}")
    corners = [x.data[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]  # row-major
    out = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))

    def vjp(g):
        gx = np.zeros(x.shape, x.dtype)
        free = np.ones(out.shape, dtype=bool)  # blocks not yet routed
        for (i, j), tap in zip(((0, 0), (0, 1), (1, 0), (1, 1)), corners):
            hit = free & (tap == out)
            np.copyto(gx[:, :, i::2, j::2], g, where=hit)
            free &= ~hit
        return (gx,)

    return _apply("maxpool2x2", (x,), out, vjp)


def upconv2x2(x: Tensor, p: ConvParams) -> Tensor:
    """Stride-2 transposed convolution with a 2x2 kernel, doubling h and w.

    With weight (out_ch, in_ch, 2, 2) this is the adjoint of a stride-2
    kernel-2 convolution whose weight has in/out axes swapped; blocks do
    not overlap, so each output pixel has exactly one source.
    """
    oc, ic, k, _ = p.weight.shape
    if k != 2:
        raise ContractError(f"upconv2x2 needs a 2x2 kernel, got {k}x{k}")
    n, c, h, w = x.shape
    if c != ic:
        raise ShapeError(f"upconv2x2: input has {c} channels, weight expects {ic}")
    wmat = p.weight.data.transpose(1, 0, 2, 3).reshape(ic, oc * 4)
    ymat = x.data.transpose(0, 2, 3, 1).reshape(n * h * w, ic) @ wmat
    out = (ymat.reshape(n, h, w, oc, 2, 2).transpose(0, 3, 1, 4, 2, 5)
           .reshape(n, oc, 2 * h, 2 * w) + p.bias.data)

    def vjp(g):
        gmat = (g.reshape(n, oc, h, 2, w, 2).transpose(0, 2, 4, 1, 3, 5)
                .reshape(n * h * w, oc * 4))
        gx = (gmat @ wmat.T).reshape(n, h, w, ic).transpose(0, 3, 1, 2)
        gw = (x.data.transpose(1, 0, 2, 3).reshape(ic, n * h * w) @ gmat
              ).reshape(ic, oc, 2, 2).transpose(1, 0, 2, 3)
        gb = g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
        return (gx, gw, gb)

    return _apply("upconv2x2", (x, p.weight, p.bias), out, vjp)


@dataclass
class NormParams:
    """Per-channel affine applied after spatial standardization."""

    scale: Tensor
    shift: Tensor


def init_norm(channels: int, dtype=np.float32) -> NormParams:
    return NormParams(Tensor(np.ones((1, channels, 1, 1), dtype=dtype), requires_grad=True),
                      Tensor(np.zeros((1, channels, 1, 1), dtype=dtype), requires_grad=True))


def channel_norm(x: Tensor, p: NormParams) -> Tensor:
    """Standardize each (sample, channel) plane over h, w, then scale and shift."""
    _, _, h, w = x.shape
    inv_hw = 1.0 / (h * w)
    mu = sum_axes(x, (2, 3)) * inv_hw
    xc = sub(x, mu)
    var = sum_axes(mul(xc, xc), (2, 3)) * inv_hw
    inv_std = pow_const(var + 1e-5, -0.5)  # the 1e-5 keeps a flat plane finite
    return add(mul(mul(xc, inv_std), p.scale), p.shift)
