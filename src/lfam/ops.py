"""Convolution, pooling, and upconvolution layers over the tape.

Each op has one geometry, set by the op and its kernel: conv2d is a
stride-1 "same" conv with k 1 or 3 (zero padding k // 2); maxpool2x2 and
upconv2x2 act on 2x2 blocks with stride 2.  Every contraction, forward
and backward, is one 2-D matrix product on contiguous operands
(im2col/col2im lowering, Chellapilla et al. 2006).
conv2d builds a channel-major im2col matrix cols of shape (k*k*ic, n*h*w)
with one np.ascontiguousarray over a sliding-window view of the
(ic, n, h, w) padded input, and computes wmat @ cols with wmat of shape
(oc, k*k*ic).  Its output keeps that channel-major memory order, so the
next conv's (ic, n, h, w) view is already contiguous; for a 1x1 conv that
view is cols itself and nothing is copied.  Backward forms the weight
gradient and the column gradients with one product each and scatters the
columns back with one loop per kernel tap.  upconv2x2 is one
(n*h*w, ic) @ (ic, oc*4) product, and each of its two gradients is one
more; it is the exact adjoint of a stride-2 kernel-2 convolution with the
in/out axes of the weight swapped.  maxpool2x2 takes the maximum of the
four strided corner views and breaks ties toward the first corner in
row-major block order, so forward and backward agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Stride-1 "same" cross-correlation: zero padding k // 2 keeps h and w."""
    oc, ic, k, _ = p.weight.shape
    if k % 2 == 0:
        raise ContractError(f"conv2d needs an odd kernel, got {k}x{k}")
    n, c, h, w = x.shape
    if c != ic:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {ic}")
    pad = k // 2

    xp = x.data.transpose(1, 0, 2, 3)  # (ic, n, h, w) view
    if pad:
        xp = np.pad(xp, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # (ic, n, h, w, k, k) window view, copied tap-major
    taps = sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(taps.transpose(4, 5, 0, 1, 2, 3)).reshape(k * k * ic, n * h * w)
    wmat = p.weight.data.transpose(0, 2, 3, 1).reshape(oc, k * k * ic)
    out = (wmat @ cols).reshape(oc, n, h, w).transpose(1, 0, 2, 3) + p.bias.data
    need_gx = x.requires_grad  # else the vjp returns None for gx

    def vjp(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(oc, n * h * w)
        gb = g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
        gw = (gmat @ cols.T).reshape(oc, k, k, ic).transpose(0, 3, 1, 2)
        if not need_gx:
            return (None, gw, gb)
        gcols = (wmat.T @ gmat).reshape(k, k, ic, n, h, w)
        gxp = np.zeros((ic, n, h + 2 * pad, w + 2 * pad), dtype=g.dtype)
        for di in range(k):
            for dj in range(k):
                gxp[:, :, di:di + h, dj:dj + w] += gcols[di, dj]
        gx = gxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)
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
