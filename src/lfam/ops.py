"""Convolution, pooling, and upconvolution layers over the tape.

Every contraction, forward and backward, is one 2-D matrix product on
contiguous operands (im2col/col2im lowering, Chellapilla et al. 2006).
conv2d builds a channel-major im2col matrix cols of shape
(kh*kw*ic, n*oh*ow) with one np.ascontiguousarray over a strided
sliding-window view of the (ic, n, h, w) padded input, and computes
wmat @ cols with wmat of shape (oc, kh*kw*ic).  Its output keeps that
channel-major memory order, so the next conv's (ic, n, h, w) view is
already contiguous; for a 1x1 stride-1 conv that view is cols itself and
nothing is copied.  Backward forms the weight gradient and the column
gradients with one product each and scatters the columns back with one
loop per kernel tap.  upconv2x2 is one (n*h*w, ic) @ (ic, oc*4) product,
and each of its two gradients is one more; it is the exact adjoint of a
stride-2 kernel-2 convolution with the in/out axes of the weight swapped.
maxpool2x2 breaks ties toward the first position in row-major block order
so forward and backward agree bit-for-bit.
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
    add_const,
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
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        oc, ic, kh, kw = self.weight.shape
        if kh != kw or kh not in (1, 2, 3):
            raise ContractError(f"conv kernel must be square with k in (1, 2, 3), got {self.weight.shape}")
        if self.bias.shape != (1, oc, 1, 1):
            raise ShapeError(f"bias shape {self.bias.shape} does not match out_ch {oc}")
        if self.stride < 1 or self.padding < 0:
            raise ContractError(f"invalid stride/padding ({self.stride}, {self.padding})")

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


def he_conv(in_ch: int, out_ch: int, k: int, rng: np.random.Generator,
            stride: int = 1, padding: int = 0, dtype=np.float32) -> ConvParams:
    """He-normal weight init, std sqrt(2 / fan_in) with fan_in = in_ch * k * k."""
    std = np.sqrt(2.0 / (in_ch * k * k))
    w = (rng.standard_normal((out_ch, in_ch, k, k)) * std).astype(dtype)
    b = np.zeros((1, out_ch, 1, 1), dtype=dtype)
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True),
                      stride=stride, padding=padding)


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """2-D convolution (cross-correlation) with symmetric zero padding."""
    oc, ic, kh, kw = p.weight.shape
    n, c, h, w = x.shape
    if c != ic:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {ic}")
    s, pad = p.stride, p.padding
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < kh or wp < kw or (hp - kh) % s or (wp - kw) % s:
        raise ShapeError(f"conv2d: input {x.shape} with k={kh} s={s} pad={pad} "
                         "gives a non-integer output size")
    oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1

    xp = x.data.transpose(1, 0, 2, 3)  # (ic, n, h, w) view
    if pad:
        xp = np.pad(xp, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # (ic, n, oh, ow, kh, kw) window view, copied tap-major
    taps = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    cols = np.ascontiguousarray(taps.transpose(4, 5, 0, 1, 2, 3)).reshape(kh * kw * ic, n * oh * ow)
    wmat = p.weight.data.transpose(0, 2, 3, 1).reshape(oc, kh * kw * ic)
    out = (wmat @ cols).reshape(oc, n, oh, ow).transpose(1, 0, 2, 3) + p.bias.data

    def vjp(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(oc, n * oh * ow)
        gb = g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)
        gw = (gmat @ cols.T).reshape(oc, kh, kw, ic).transpose(0, 3, 1, 2)
        gcols = (wmat.T @ gmat).reshape(kh, kw, ic, n, oh, ow)
        gxp = np.zeros((ic, n, hp, wp), dtype=g.dtype)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, :, di:di + oh * s:s, dj:dj + ow * s:s] += gcols[di, dj]
        gx = gxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)
        return (gx, gw, gb)

    return _apply("conv2d", (x, p.weight, p.bias), out, vjp)


def maxpool2x2(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """2x2 max pooling, stride 2.

    Returns the pooled tensor and an index array (n, c, h/2, w/2) whose
    values 0..3 name the argmax position inside each block in row-major
    order; ties go to the first position.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.shape}")
    blocks = (x.data.reshape(n, c, h // 2, 2, w // 2, 2)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h // 2, w // 2, 4))
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        gb = np.zeros_like(blocks)
        np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
        gx = (gb.reshape(n, c, h // 2, w // 2, 2, 2)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        return (gx,)

    return _apply("maxpool2x2", (x,), out, vjp), idx


def upconv2x2(x: Tensor, p: ConvParams) -> Tensor:
    """Stride-2 transposed convolution with a 2x2 kernel, doubling h and w.

    With weight (out_ch, in_ch, 2, 2) this is the adjoint of a stride-2
    kernel-2 convolution whose weight has in/out axes swapped; blocks do
    not overlap, so each output pixel has exactly one source.
    """
    oc, ic, kh, kw = p.weight.shape
    if kh != 2 or kw != 2 or p.stride != 2 or p.padding != 0:
        raise ContractError("upconv2x2 needs k=2, stride=2, padding=0 params")
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

    def tensors(self) -> tuple[Tensor, Tensor]:
        return (self.scale, self.shift)


def init_norm(channels: int, dtype=np.float32) -> NormParams:
    return NormParams(Tensor(np.ones((1, channels, 1, 1), dtype=dtype), requires_grad=True),
                      Tensor(np.zeros((1, channels, 1, 1), dtype=dtype), requires_grad=True))


def channel_norm(x: Tensor, p: NormParams, eps: float = 1e-5) -> Tensor:
    """Standardize each (sample, channel) plane over h, w, then scale and shift."""
    _, _, h, w = x.shape
    inv_hw = 1.0 / (h * w)
    mu = sum_axes(x, (2, 3)) * inv_hw
    xc = sub(x, mu)
    var = sum_axes(mul(xc, xc), (2, 3)) * inv_hw
    inv_std = pow_const(add_const(var, eps), -0.5)
    return add(mul(mul(xc, inv_std), p.scale), p.shift)
