"""Convolution, pooling, and upconvolution against direct-loop oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfam import ops
from lfam.errors import ContractError, ShapeError
from lfam.ops import (
    ConvParams,
    channel_norm,
    conv2d,
    he_conv,
    init_norm,
    maxpool2x2,
    upconv2x2,
)
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward, grad_check, mul, pow_const, sum_all

# (k, in_ch, out_ch, size, channel_major); conv2d pads k // 2.  in_ch 1 takes
# the stacked-tap product forward, out_ch 1 in the input gradient; the others
# take one GEMM per tap.  channel_major inputs are (c, n, h, w) in memory.
CONV_SPECS = [(1, 3, 2, 6, False), (1, 3, 2, 6, True), (3, 3, 2, 6, False),
              (3, 3, 2, 7, True), (3, 1, 2, 6, False), (3, 2, 1, 7, True)]


def conv_oracle(x, w, b, stride=1, pad=0):
    """Direct sliced-window convolution, one output element at a time."""
    n, ic, h, ww = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for ni in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, o, i, j] = (patch * w[o]).sum() + b[o]
    return out


def conv_vjp_oracle(x, w, g, stride=1, pad=0):
    """Adjoint of conv_oracle: scatter each output gradient back through its window."""
    n, _, h, ww = x.shape
    oc, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for ni in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    win = (ni, slice(None), slice(i * stride, i * stride + kh),
                           slice(j * stride, j * stride + kw))
                    gxp[win] += g[ni, o, i, j] * w[o]
                    gw[o] += g[ni, o, i, j] * xp[win]
    return gxp[:, :, pad:pad + h, pad:pad + ww], gw, g.sum(axis=(0, 2, 3)).reshape(1, oc, 1, 1)


def upconv_einsum_oracle(x, w, g):
    """upconv2x2 forward and vjp written as einsums over the (n, o, h, i, w, j) blocks."""
    n, _, h, ww = x.shape
    oc = w.shape[0]
    out = np.einsum("nchw,ocij->nohiwj", x, w).reshape(n, oc, 2 * h, 2 * ww)
    g6 = g.reshape(n, oc, h, 2, ww, 2)
    gx = np.einsum("nohiwj,ocij->nchw", g6, w)
    gw = np.einsum("nohiwj,nchw->ocij", g6, x)
    return out, gx, gw


def conv_input(rng, spec):
    """Float64 input of a CONV_SPECS entry, in the memory order it names."""
    _, ic, _, size, channel_major = spec
    x = rng.standard_normal((2, ic, size, size))
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3) if channel_major else x


def input_grads(op, x, p, g):
    """Run op under a tape with upstream gradient g; return (out, gx, gw, gb)."""
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = op(xt, p)
        loss = sum_all(mul(y, Tensor(g)))
    backward(tape, loss)
    return y.data, xt.grad, p.weight.grad, p.bias.grad


def make_params(rng, ic, oc, k, dtype=np.float64):
    w = rng.standard_normal((oc, ic, k, k)).astype(dtype)
    b = rng.standard_normal(oc).astype(dtype)
    return ConvParams(Tensor(w, requires_grad=True),
                      Tensor(b.reshape(1, oc, 1, 1), requires_grad=True))


def maxpool_argmax_oracle(x, g):
    """maxpool2x2 forward and vjp by argmax over row-major 4-element blocks."""
    n, c, h, w = x.shape
    blocks = (x.reshape(n, c, h // 2, 2, w // 2, 2)
              .transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h // 2, w // 2, 4))
    idx = blocks.argmax(axis=-1)[..., None]
    out = np.take_along_axis(blocks, idx, axis=-1)[..., 0]
    gb = np.zeros_like(blocks)
    np.put_along_axis(gb, idx, g[..., None], axis=-1)
    gx = (gb.reshape(n, c, h // 2, w // 2, 2, 2)
          .transpose(0, 1, 2, 4, 3, 5)
          .reshape(n, c, h, w))
    return out, gx


def pool_grad(x, g=None):
    """Forward and input gradient of maxpool2x2 under upstream gradient g (ones by default)."""
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = maxpool2x2(t)
        loss = sum_all(y if g is None else mul(y, Tensor(g)))
    backward(tape, loss)
    return y.data, t.grad


class TestConv2d:
    def test_constant_input_ones_kernel_interior(self):
        v = 0.7
        x = Tensor(np.full((1, 1, 5, 5), v, dtype=np.float64))
        p = ConvParams(Tensor(np.ones((1, 1, 3, 3), dtype=np.float64), requires_grad=True),
                       Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64), requires_grad=True))
        y = conv2d(x, p)
        assert y.shape == (1, 1, 5, 5)
        np.testing.assert_allclose(y.data[0, 0, 1:-1, 1:-1], 9 * v, rtol=1e-12)

    def test_parameter_count_small_conv(self):
        p = he_conv(2, 4, 3, make_rng(0))
        assert p.weight.size + p.bias.size == 76

    @given(st.integers(0, 2**32 - 1), st.sampled_from(CONV_SPECS))
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_loop(self, seed, spec):
        k, ic, oc = spec[:3]
        rng = make_rng(seed)
        x = conv_input(rng, spec)
        p = make_params(rng, ic, oc, k)
        got = conv2d(Tensor(x, dtype=np.float64), p).data
        want = conv_oracle(x, p.weight.data, p.bias.data.ravel(), pad=k // 2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec", CONV_SPECS)
    def test_vjp_matches_direct_loop_adjoint(self, spec):
        k, ic, oc = spec[:3]
        rng = make_rng(11 + k)
        x = conv_input(rng, spec)
        p = make_params(rng, ic, oc, k)
        out = conv_oracle(x, p.weight.data, p.bias.data.ravel(), pad=k // 2)
        g = rng.standard_normal(out.shape)
        _, gx, gw, gb = input_grads(conv2d, x, p, g)
        for got, want in zip((gx, gw, gb), conv_vjp_oracle(x, p.weight.data, g, pad=k // 2)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        p = make_params(make_rng(0), 3, 2, 3)
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 5, 5))), p)

    def test_even_kernel_rejected(self):
        p = make_params(make_rng(0), 3, 2, 2)
        with pytest.raises(ContractError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), p)

    def test_input_without_grad_skips_its_gradient(self):
        rng = make_rng(9)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        p = make_params(rng, 3, 4, 3, dtype=np.float32)
        g = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        grads = []
        for needs_grad in (False, True):
            with Tape() as tape:
                conv2d(Tensor(x, requires_grad=needs_grad), p)
            (node,) = tape.nodes
            grads.append(node.vjp(g))
        (gx, gw, gb), (gx_full, gw_full, gb_full) = grads
        assert gx is None and gx_full is not None
        assert gw.tobytes() == gw_full.tobytes() and gb.tobytes() == gb_full.tobytes()

    def test_gradients_all_inputs(self):
        rng = make_rng(2)
        x = rng.standard_normal((2, 2, 5, 5))
        p = make_params(rng, 2, 3, 3)

        def f(t, w, b):
            return sum_all(pow_const(conv2d(t, ConvParams(w, b)), 2.0))

        assert grad_check(f, Tensor(x, dtype=np.float64), p.weight, p.bias) < 1e-4

    def test_pointwise_conv_over_channel_major_map_copies_no_cols(self):
        # a conv output is channel-major, so its (ic, n, h, w) view already is
        # the 1x1 cols matrix; only the 2-channel output may be allocated
        rng = make_rng(7)
        x = conv2d(Tensor(rng.standard_normal((4, 1, 16, 16)).astype(np.float32)),
                   he_conv(1, 32, 1, rng))
        p = he_conv(32, 2, 1, rng)
        tracemalloc.start()
        try:
            with Tape():
                conv2d(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes // 4

    def test_vjp_keeps_less_than_twice_the_input_alive(self):
        # the tape holds the output and the vjp closure; an im2col closure
        # would hold nine copies of the input
        rng = make_rng(8)
        x = Tensor(rng.standard_normal((8, 8, 32, 32)).astype(np.float32), requires_grad=True)
        p = he_conv(8, 8, 3, rng)
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = conv2d(x, p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert held - y.data.nbytes < 2 * x.data.nbytes


def conv_and_input_grad(x, p, g):
    """conv2d's output and input gradient for upstream gradient g."""
    with Tape() as tape:
        y = conv2d(Tensor(x, requires_grad=True), p)
    gx, _, _ = tape.nodes[-1].vjp(g)
    return y.data, gx


class TestBlockedCorrelate:
    # (n, ic, oc, side): in float32 and float64, _block_columns leaves two or
    # more blocks, the last one ragged, for the forward sum and the input
    # gradient's; (2, 16, 16, 64) in float64 is 2688-column blocks, where a
    # width not a multiple of 64 (2730) moved bits; (2, 1, 16, 128) takes
    # the stacked forward, and its input gradient has one output channel,
    # a float32 gemv whose bits moved when it was blocked
    SHAPES = [(2, 16, 16, 64), (4, 8, 8, 128), (3, 16, 8, 64), (2, 8, 24, 70), (2, 3, 5, 128),
              (2, 1, 16, 128)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_blocks_keep_the_one_block_bits(self, monkeypatch, dtype, shape):
        n, ic, oc, side = shape
        rng = make_rng(sum(shape))
        x = rng.standard_normal((n, ic, side, side)).astype(dtype)
        p = make_params(rng, ic, oc, 3, dtype=dtype)
        g = rng.standard_normal((n, oc, side, side)).astype(dtype)
        span, itemsize = n * (side + 2) ** 2, np.dtype(dtype).itemsize
        for a, b in ((ic, oc), (oc, ic)):  # the forward sum, then the input gradient's
            width = ops._block_columns(a, b, itemsize)
            assert span > width and span % width
        blocked = conv_and_input_grad(x, p, g)
        monkeypatch.setattr(ops, "_BLOCK_BYTES", 1 << 62)  # one block
        assert ops._block_columns(ic, oc, itemsize) > span
        for got, want in zip(blocked, conv_and_input_grad(x, p, g)):
            assert got.tobytes() == want.tobytes()

    @given(st.integers(1, 5000), st.integers(1, 5000), st.sampled_from([4, 8]))
    def test_block_width_is_a_multiple_of_64(self, ic, oc, itemsize):
        width = ops._block_columns(ic, oc, itemsize)
        assert width >= 64 and width % 64 == 0
        assert width == 64 or width * (ic + 2 * oc) * itemsize <= ops._BLOCK_BYTES


class TestMaxpool:
    def test_known_blocks(self):
        x = np.array([[1.0, 2.0, 5.0, 5.0],
                      [3.0, 4.0, 5.0, 5.0],
                      [9.0, 8.0, 0.0, 3.0],
                      [7.0, 6.0, -2.0, 1.0]]).reshape(1, 1, 4, 4)
        y, gx = pool_grad(x)
        np.testing.assert_array_equal(y[0, 0], [[4.0, 5.0], [9.0, 3.0]])
        # the all-fives block ties; first row-major position wins
        np.testing.assert_array_equal(gx[0, 0], [[0.0, 0.0, 1.0, 0.0],
                                                 [0.0, 1.0, 0.0, 0.0],
                                                 [1.0, 0.0, 0.0, 1.0],
                                                 [0.0, 0.0, 0.0, 0.0]])

    def test_tie_after_corner_zero_routes_to_first_maximum(self):
        _, gx = pool_grad(np.array([[1.0, 5.0], [5.0, 5.0]]).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(gx[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=30, deadline=None)
    def test_matches_argmax_oracle_under_ties(self, seed, dtype):
        # values in 0..3 tie in most blocks
        rng = make_rng(seed)
        x = rng.integers(0, 4, size=(2, 3, 6, 8)).astype(dtype)
        g = rng.standard_normal((2, 3, 3, 4)).astype(dtype)
        y, gx = pool_grad(x, g)
        want_y, want_gx = maxpool_argmax_oracle(x, g)
        assert y.dtype == gx.dtype == dtype
        assert y.tobytes() == want_y.tobytes() and gx.tobytes() == want_gx.tobytes()

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))

    def test_gradient_routes_to_argmax_only(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        _, gx = pool_grad(x)
        np.testing.assert_array_equal(gx[0, 0], [[0.0, 0.0], [0.0, 1.0]])

    def test_tied_gradient_goes_to_first_position(self):
        x = np.full((1, 1, 2, 2), 2.5)
        _, gx = pool_grad(x)
        np.testing.assert_array_equal(gx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_gradient_numeric(self):
        rng = make_rng(8)
        # well-separated values keep the argmax stable under the probe eps
        x = rng.standard_normal((2, 3, 4, 4)) * 10
        assert grad_check(lambda t: sum_all(pow_const(maxpool2x2(t), 2.0)),
                          Tensor(x, dtype=np.float64)) < 1e-4


class TestUpconv:
    def test_shape_doubles(self):
        rng = make_rng(0)
        p = make_params(rng, 3, 2, 2)
        y = upconv2x2(Tensor(rng.standard_normal((2, 3, 4, 5)), dtype=np.float64), p)
        assert y.shape == (2, 2, 8, 10)

    def test_single_pixel_paints_kernel(self):
        w = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
        p = ConvParams(Tensor(w, requires_grad=True),
                       Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64), requires_grad=True))
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 0] = 2.0
        y = upconv2x2(Tensor(x, dtype=np.float64), p)
        want = np.zeros((1, 1, 4, 4))
        want[0, 0, 2:4, 0:2] = 2.0 * w[0, 0]
        np.testing.assert_array_equal(y.data, want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_adjoint_of_strided_conv(self, seed):
        # <conv(x), u> == <x, upconv(u)> when the upconv weight swaps in/out axes
        rng = make_rng(seed)
        w = rng.standard_normal((3, 2, 2, 2))
        up = ConvParams(Tensor(w.transpose(1, 0, 2, 3).copy(), requires_grad=True),
                        Tensor(np.zeros((1, 2, 1, 1), dtype=np.float64), requires_grad=True))
        x = rng.standard_normal((1, 2, 6, 6))
        u = rng.standard_normal((1, 3, 3, 3))
        lhs = (conv_oracle(x, w, np.zeros(3), stride=2) * u).sum()
        rhs = (x * upconv2x2(Tensor(u, dtype=np.float64), up).data).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_vjp_matches_einsum_oracle(self):
        rng = make_rng(12)
        x = rng.standard_normal((2, 3, 4, 5))
        p = make_params(rng, 3, 4, 2)
        g = rng.standard_normal((2, 4, 8, 10))
        got = input_grads(upconv2x2, x, p, g)
        out, gx, gw = upconv_einsum_oracle(x, p.weight.data, g)
        want = (out + p.bias.data, gx, gw, g.sum(axis=(0, 2, 3)).reshape(1, 4, 1, 1))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_wrong_kernel_rejected(self):
        rng = make_rng(0)
        with pytest.raises(ContractError):
            upconv2x2(Tensor(np.zeros((1, 3, 4, 4))), make_params(rng, 3, 2, 3))

    def test_gradients_all_inputs(self):
        rng = make_rng(3)
        x = rng.standard_normal((1, 2, 3, 3))
        p = make_params(rng, 2, 3, 2)

        def f(t, w, b):
            return sum_all(pow_const(upconv2x2(t, ConvParams(w, b)), 2.0))

        assert grad_check(f, Tensor(x, dtype=np.float64), p.weight, p.bias) < 1e-4

    def test_pool_then_upconv_restores_shape(self):
        rng = make_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        pooled = maxpool2x2(x)
        p = he_conv(3, 3, 2, rng)
        assert upconv2x2(pooled, p).shape == x.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, k", [(conv2d, 3), (conv2d, 1), (upconv2x2, 2)])
def test_outputs_and_gradients_keep_the_input_dtype(op, k, dtype):
    # read the vjp directly: accumulating into .grad would cast an upcast back
    rng = make_rng(13)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(dtype), requires_grad=True)
    p = make_params(rng, 3, 2, k, dtype=dtype)
    with Tape() as tape:
        out = op(x, p)
    (node,) = tape.nodes
    grads = node.vjp(np.ones_like(out.data))
    assert [a.dtype for a in (out.data, *grads)] == [dtype] * 4


class TestChannelNorm:
    def test_standardizes_each_plane(self):
        rng = make_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)) * 4 + 2, dtype=np.float64)
        y = channel_norm(x, init_norm(3, dtype=np.float64))
        np.testing.assert_allclose(y.data.mean(axis=(2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.data.std(axis=(2, 3)), 1.0, atol=1e-3)

    def test_gradient(self):
        rng = make_rng(2)
        x = rng.standard_normal((1, 2, 4, 4))
        norm = init_norm(2, dtype=np.float64)
        assert grad_check(lambda t: sum_all(pow_const(channel_norm(t, norm), 2.0)),
                          Tensor(x, dtype=np.float64)) < 1e-4


class TestInit:
    def test_he_scale_and_flags(self):
        rng = make_rng(0)
        p = he_conv(8, 16, 3, rng)
        assert p.weight.dtype == np.float32
        assert p.weight.requires_grad and p.bias.requires_grad
        np.testing.assert_array_equal(p.bias.data, 0.0)
        std = p.weight.data.std()
        want = np.sqrt(2.0 / (8 * 9))
        assert 0.8 * want < std < 1.2 * want
