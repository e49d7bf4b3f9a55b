"""Tensor construction, tape replay, primitive gradients, serialization."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfam.errors import ContractError, DegenerateWindowError, NumericalError, ShapeError
from lfam.rng import make_rng
from lfam.tensor import (
    Tape,
    Tensor,
    _apply,
    add,
    affine,
    backward,
    bmm,
    concat_channels,
    div,
    grad_check,
    log,
    masked_softmax,
    mul,
    permute,
    pow_const,
    relu,
    reshape,
    softmax,
    sub,
    sum_all,
    sum_axes,
    tensor_from_bytes,
    tensor_to_bytes,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product, independent of the library path."""
    r, k = a.shape
    k2, c = b.shape
    assert k == k2
    out = np.zeros((r, c), dtype=np.float64)
    for i in range(r):
        for j in range(c):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def softmax_oracle(x: np.ndarray, mask) -> np.ndarray:
    """The former three-np.where masked softmax over the last axis, the bitwise oracle."""
    if mask is None:
        e = np.exp(x - x.max(axis=3, keepdims=True))
    else:
        mb = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        rowmax = np.max(np.where(mb, x, -np.inf), axis=3, keepdims=True)
        e = np.where(mb, np.exp(np.where(mb, x - rowmax, 0.0)), 0.0)
    return e / e.sum(axis=3, keepdims=True)


def _window_mask(kind):
    """A (1, 3, 1, 16) per-window key mask broadcast over batch and query rows."""
    if kind is None:
        return None
    mask = np.ones((1, 3, 1, 16), dtype=bool)
    if kind == "padded":
        mask[0, 1, 0, 12:] = False
        mask[0, 2, 0, 3::4] = False
    return mask


class TestConstruction:
    def test_zeros_sum(self):
        t = Tensor(np.zeros((2, 3, 4, 4)))
        assert t.shape == (2, 3, 4, 4)
        assert sum_all(t).item() == 0.0

    def test_low_rank_input_left_pads(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (1, 1, 2, 2)

    def test_rank_five_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 2, 2)))

    def test_int_input_becomes_float32(self):
        assert Tensor([[1, 2], [3, 4]]).dtype == np.float32

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros((1, 1, 2, 2))).item()


class TestAffine:
    def test_scalar_sugar_records_one_affine_node_each(self):
        x = np.array([-1.5, 0.25, 3.0], dtype=np.float32)
        t = Tensor(x, requires_grad=True)
        cases = [(lambda a: a + 2.0, x + 2.0), (lambda a: a - 2.0, x - 2.0),
                 (lambda a: 2.0 - a, 2.0 - x), (lambda a: a * 3.0, x * 3.0)]
        for fn, want in cases:
            with Tape() as tape:
                out = fn(t)
            assert [node.op for node in tape.nodes] == ["affine"]
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out.data[0, 0, 0], want)

    def test_numpy_float64_constant_keeps_float32(self):
        t = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(affine(t, np.float64(0.3), np.float64(0.1)))
        assert loss.dtype == np.float32
        backward(tape, loss)
        assert t.grad.dtype == np.float32

    def test_pure_scale_keeps_signed_zeros(self):
        zeros = Tensor(np.array([-0.0, 0.0]), dtype=np.float64)
        np.testing.assert_array_equal(np.signbit(affine(zeros, 2.0).data.ravel()), [True, False])
        np.testing.assert_array_equal(np.signbit(affine(zeros, 1.0, 0.0).data.ravel()),
                                      [True, False])

    @pytest.mark.parametrize("layout", ["c_order", "channel_major", "strided"])
    def test_sum_all_is_a_bitwise_sum_axes_node(self, layout):
        x = make_rng(19).standard_normal((3, 5, 12, 18)).astype(np.float32)
        if layout == "channel_major":
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        elif layout == "strided":
            x = x[:, :, ::2, ::3]
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            total = sum_all(t)
        assert [node.op for node in tape.nodes] == ["sum_axes"]
        assert total.shape == (1, 1, 1, 1)
        np.testing.assert_array_equal(total.data.reshape(()), x.sum(dtype=x.dtype))


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(bmm(eye, b).data[0, 0], b.data[0, 0])

    def test_frozen_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = bmm(Tensor(a), Tensor(b)).data[0, 0]
        np.testing.assert_array_equal(got, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(got, matmul_oracle(a, b))

    @given(st.integers(0, 2**32 - 1))
    @example(seed=305)  # an element of -8.3e-06 after cancellation
    @settings(max_examples=20, deadline=None)
    def test_matches_triple_loop(self, seed):
        rng = make_rng(seed)
        r, k, c = rng.integers(1, 6, size=3)
        a = rng.standard_normal((r, k))
        b = rng.standard_normal((k, c))
        got = bmm(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data[0, 0]
        # each side is a k-term dot product within about k*eps/2 * (|a| @ |b|)
        # of the exact value, however much the sum cancels; allow twice their sum
        bound = 2 * k * np.finfo(np.float64).eps * (np.abs(a) @ np.abs(b))
        assert (np.abs(got - matmul_oracle(a, b)) <= bound).all()

    def test_inner_dim_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((1, 1, 2, 3)))
        b = Tensor(np.zeros((1, 1, 4, 2)))
        with pytest.raises(ShapeError, match=r"\(1, 1, 2, 3\).*\(1, 1, 4, 2\)"):
            bmm(a, b)

    def test_bmm_matches_per_slice_products(self):
        rng = make_rng(7)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 2))
        got = bmm(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(got[i, j], matmul_oracle(a[i, j], b[i, j]), rtol=1e-12)

    def test_bmm_leading_dim_mismatch(self):
        with pytest.raises(ShapeError):
            bmm(Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros((3, 1, 3, 3))))


class TestSoftmax:
    def test_two_way_frozen_values(self):
        logits = Tensor(np.array([0.0, np.log(3.0)]).reshape(1, 1, 1, 2), dtype=np.float64)
        p = masked_softmax(logits, None)
        np.testing.assert_allclose(p.data.ravel(), [0.25, 0.75], atol=1e-12)

    def test_masked_positions_are_exact_zero(self):
        rng = make_rng(0)
        x = Tensor(rng.standard_normal((2, 1, 3, 5)))
        mask = rng.random((2, 1, 3, 5)) < 0.6
        mask[..., 0] = True  # keep every row non-degenerate
        p = masked_softmax(x, mask)
        assert (p.data[~mask] == 0.0).all()
        np.testing.assert_allclose(p.data.sum(axis=3), 1.0, atol=1e-6)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed, shift):
        rng = make_rng(seed)
        x = rng.standard_normal((1, 2, 3, 4))
        p0 = masked_softmax(Tensor(x, dtype=np.float64), None)
        p1 = masked_softmax(Tensor(x + shift, dtype=np.float64), None)
        np.testing.assert_allclose(p0.data, p1.data, atol=1e-12)

    def test_fully_masked_row_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 3)))
        mask = np.ones((1, 1, 2, 3), dtype=bool)
        mask[0, 0, 1] = False
        with pytest.raises(DegenerateWindowError):
            masked_softmax(x, mask)

    def test_non_finite_logits_raise(self):
        x = np.zeros((1, 1, 1, 3))
        x[0, 0, 0, 1] = np.inf
        with pytest.raises(NumericalError):
            masked_softmax(Tensor(x), None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["padded", None])
    @pytest.mark.parametrize("at", [(0, 0, 2, 3), (1, 1, 5, 13)])  # the second is a masked key when padded
    def test_non_finite_logits_raise_on_both_paths(self, bad, kind, at):
        x = np.zeros((2, 3, 16, 16), dtype=np.float32)
        x[at] = bad
        with pytest.raises(NumericalError):
            masked_softmax(Tensor(x), _window_mask(kind))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_softmax_rejects_non_finite_logits(self, bad):
        x = np.zeros((2, 5, 3, 3), dtype=np.float32)
        x[1, 4, 2, 0] = bad
        with pytest.raises(NumericalError, match="^softmax:"):
            softmax(Tensor(x))

    def test_channel_softmax_sums_to_one(self):
        rng = make_rng(3)
        p = softmax(Tensor(rng.standard_normal((2, 5, 3, 3))))
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["padded", "all_true", None])
    def test_matches_three_where_formula_bitwise(self, dtype, kind):
        rng = make_rng(12)
        x = (4.0 * rng.standard_normal((2, 3, 16, 16))).astype(dtype)
        mask = _window_mask(kind)
        got = masked_softmax(Tensor(x), mask).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, softmax_oracle(x, mask))

    @pytest.mark.parametrize("fn,axis,kind", [(masked_softmax, 3, "padded"),
                                              (masked_softmax, 3, None),
                                              (lambda t, _: softmax(t), 1, None)])
    def test_vjp_matches_former_formula(self, fn, axis, kind):
        rng = make_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 16, 16)), requires_grad=True, dtype=np.float64)
        g = rng.standard_normal(x.shape)
        with Tape() as tape:
            p = fn(x, _window_mask(kind)).data
        (gx,) = tape.nodes[-1].vjp(g)
        np.testing.assert_allclose(gx, p * (g - (g * p).sum(axis=axis, keepdims=True)), rtol=1e-12)

    def test_extreme_logits_stay_finite(self):
        x = Tensor(np.array([1000.0, 0.0, -1000.0]).reshape(1, 1, 1, 3))
        p = masked_softmax(x, None)
        assert np.isfinite(p.data).all()
        np.testing.assert_allclose(p.data.ravel(), [1.0, 0.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize("kind", ["padded", "all_true", None])
    def test_leaves_the_input_untouched(self, kind):
        x = make_rng(15).standard_normal((2, 3, 16, 16)).astype(np.float32)
        logits = Tensor(x.copy())
        p = masked_softmax(logits, _window_mask(kind))
        np.testing.assert_array_equal(logits.data, x)
        assert not np.shares_memory(p.data, logits.data)


class TestOverwrite:
    """relu's overwrite=True reuses the input's buffer and changes no value."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_overwrite_is_bitwise_default_in_the_input_buffer(self, dtype):
        x = make_rng(18).standard_normal((2, 3, 5, 5)).astype(dtype)
        a = Tensor(x.copy())
        want = relu(Tensor(x.copy())).data
        got = relu(a, overwrite=True).data
        np.testing.assert_array_equal(got, want)
        assert got.dtype == dtype and np.shares_memory(got, a.data)

    def test_relu_default_leaves_the_input_untouched(self):
        x = make_rng(19).standard_normal((2, 3, 5, 5)).astype(np.float32)
        a = Tensor(x.copy())
        relu(a)
        np.testing.assert_array_equal(a.data, x)

    def test_relu_gradient_reads_only_the_output(self):
        x = Tensor(make_rng(20).standard_normal((2, 3, 5, 5)), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = sum_all(relu(affine(x, 1.0), overwrite=True))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, (x.data > 0).astype(np.float64))


class TestOwnedFlows:
    """A softmax gradient whose flow aliases another's stays exact for both."""

    @staticmethod
    def _softmax_into_add(view):
        # y feeds an op recorded before the softmax, so its flow still holds
        # the add's g (or the array a view of g belongs to) when the softmax
        # vjp runs; a vjp writing into g would corrupt y.grad
        rng = make_rng(21)
        x = Tensor(rng.standard_normal((1, 2, 3, 4)), requires_grad=True, dtype=np.float64)
        y = Tensor(rng.standard_normal((1, 2, 4, 3) if view == "permute" else (1, 2, 3, 4)),
                   requires_grad=True, dtype=np.float64)
        r = Tensor(rng.standard_normal(y.shape), dtype=np.float64)
        with Tape() as tape:
            z = affine(y, 3.0)
            w = masked_softmax(affine(x, 1.0), None)
            if view == "permute":
                w = permute(w, (0, 1, 3, 2))
            elif view == "reshape":
                w = reshape(w, y.shape)
            loss = add(sum_all(mul(add(w, y), r)), sum_all(z))
        backward(tape, loss)
        p = masked_softmax(Tensor(x.data), None).data
        gp = r.data.transpose(0, 1, 3, 2) if view == "permute" else r.data
        return x, y, r, p * (gp - (gp * p).sum(axis=3, keepdims=True))

    @pytest.mark.parametrize("view", [None, "reshape", "permute"])
    def test_softmax_gradient_shared_with_an_add(self, view):
        x, y, r, gx = self._softmax_into_add(view)
        np.testing.assert_array_equal(y.grad, r.data + 3.0)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-15)

    def test_one_fresh_array_returned_for_two_inputs_is_not_owned(self):
        rng = make_rng(23)
        x1, x2 = (Tensor(rng.standard_normal((1, 1, 3, 4)), requires_grad=True, dtype=np.float64)
                  for _ in range(2))
        r = Tensor(rng.standard_normal((1, 1, 3, 4)), dtype=np.float64)

        def both(g):
            shared = g * 1.0  # fresh, but handed to both inputs
            return (shared, shared)

        with Tape() as tape:
            w1 = masked_softmax(affine(x1, 1.0), None)
            w2 = masked_softmax(affine(x2, 1.0), None)
            loss = sum_all(mul(_apply("pair", (w1, w2), w1.data + w2.data, both), r))
        backward(tape, loss)
        for x in (x1, x2):
            p = masked_softmax(Tensor(x.data), None).data
            want = p * (r.data - (r.data * p).sum(axis=3, keepdims=True))
            np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kind", ["padded", None])
    def test_direct_vjp_call_leaves_g_unchanged(self, kind):
        rng = make_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 16, 16)), requires_grad=True, dtype=np.float64)
        g = rng.standard_normal(x.shape)
        with Tape() as tape:
            masked_softmax(affine(x, 1.0), _window_mask(kind))
        node = tape.nodes[-1]
        g0 = g.copy()
        node.vjp(g)
        np.testing.assert_array_equal(g, g0)


class TestBackward:
    def test_add_gives_unit_grads(self):
        a = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        b = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(a, b))
        backward(tape, loss)
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))
        np.testing.assert_array_equal(b.grad, np.ones_like(b.data))

    def test_second_backward_doubles_exactly(self):
        rng = make_rng(1)
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        once = x.grad.copy()
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_fanout_accumulates_through_shared_node(self):
        # d/dx of 8x when x feeds a doubling chain; a revisit bug would miscount
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape() as tape:
            b = add(x, x)
            c = add(b, b)
            d = add(c, c)
            loss = sum_all(d)
        backward(tape, loss)
        assert x.grad.ravel()[0] == 8.0
        assert len(tape.nodes) == 4

    def test_same_tensor_twice_in_one_op(self):
        x = Tensor(np.full((1, 1, 1, 1), 5.0), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
        assert x.grad.ravel()[0] == 10.0

    def test_grads_accumulate_across_tapes(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = sum_all(affine(x, 3.0))
            backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 6.0))

    def test_untracked_without_tape(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = mul(x, x)
        assert y.requires_grad is False

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_unused_branch_gets_no_grad(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            _orphan = mul(y, y)
            loss = sum_all(x)
        backward(tape, loss)
        assert y.grad is None

    def test_only_leaves_receive_grad(self):
        x = Tensor(np.array([[-1.0, 2.0], [3.0, 0.5]]), requires_grad=True, dtype=np.float64)
        w = Tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            y = mul(x, w)
            z = relu(y)
            loss = sum_all(mul(z, z))
        backward(tape, loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        # d/dx (relu(2x))^2 = 8x where x > 0; d/dw = 2 relu(wx) x
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 16.0], [24.0, 4.0]])
        np.testing.assert_array_equal(w.grad[0, 0], [[0.0, 16.0], [36.0, 1.0]])


class TestGradCheck:
    OPS = {
        "add": lambda x: sum_all(mul(add(x, x), x)),
        "sub": lambda x: sum_all(mul(sub(x, affine(x, 0.5)), x)),
        "mul": lambda x: sum_all(mul(x, x)),
        "div": lambda x: sum_all(div(x, affine(mul(x, x), 1.0, 2.0))),
        "affine_scale": lambda x: sum_all(mul(affine(x, -1.5), x)),
        "affine_shift": lambda x: sum_all(mul(affine(x, 1.0, 2.0), x)),
        "affine_rsub": lambda x: sum_all(mul(1.5 - x, x)),
        "pow2": lambda x: sum_all(pow_const(x, 2.0)),
        "pow0": lambda x: sum_all(mul(pow_const(x, 0.0), x)),
        "log": lambda x: sum_all(log(affine(mul(x, x), 1.0, 1.5))),
        "relu": lambda x: sum_all(mul(relu(x), x)),
        "sum_axes": lambda x: sum_all(mul(sum_axes(x, (1, 2)), sum_axes(x, (0, 3)))),
        "reshape": lambda x: sum_all(mul(reshape(x, (1, 1, 4, int(x.size // 4))), reshape(x, (1, 1, 4, int(x.size // 4))))),
        "permute": lambda x: sum_all(mul(permute(x, (1, 0, 3, 2)), permute(x, (1, 0, 3, 2)))),
        "softmax": lambda x: sum_all(pow_const(softmax(x), 2.0)),
        "masked_softmax": lambda x: sum_all(pow_const(masked_softmax(x, _MASK[: x.shape[0]]), 2.0)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_primitive_gradients(self, name):
        worst = 0.0
        for seed in range(3):
            rng = make_rng(seed, stream=17)
            x = Tensor(rng.standard_normal((2, 2, 4, 4)) + 0.1, dtype=np.float64)
            worst = max(worst, grad_check(self.OPS[name], x, eps=1e-5))
        assert worst < 1e-4, f"{name}: max relative error {worst}"

    def test_concat_gradient(self):
        rng = make_rng(5)
        a = rng.standard_normal((1, 2, 3, 3))
        b = Tensor(rng.standard_normal((1, 3, 3, 3)), dtype=np.float64)

        def f(x):
            return sum_all(pow_const(concat_channels(x, b), 2.0))

        assert grad_check(f, Tensor(a, dtype=np.float64)) < 1e-4

    def test_bmm_gradient_both_sides(self):
        rng = make_rng(9)
        a = rng.standard_normal((2, 2, 3, 4))
        b = rng.standard_normal((2, 2, 4, 3))

        def f(x, y):
            return sum_all(pow_const(bmm(x, y), 2.0))

        assert grad_check(f, Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)) < 1e-4

    def test_vjp_wrong_only_for_second_argument_is_caught(self):
        rng = make_rng(23)
        a = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=np.float64)
        b = Tensor(rng.standard_normal((1, 2, 3, 3)), dtype=np.float64)

        def bad_mul(x, y):  # b's gradient is doubled
            return _apply("bad_mul", (x, y), x.data * y.data,
                          lambda g: (g * y.data, 2.0 * g * x.data))

        assert grad_check(lambda x: sum_all(bad_mul(x, b)), a) < 1e-4
        assert grad_check(lambda x, y: sum_all(bad_mul(x, y)), a, b) > 0.1

    def test_no_tensor_to_check_is_contract_error(self):
        with pytest.raises(ContractError):
            grad_check(lambda: sum_all(Tensor(np.ones((1, 1, 1, 2)))))

    def test_eps_bounds_enforced(self):
        x = Tensor(np.ones((1, 1, 1, 2)), dtype=np.float64)
        with pytest.raises(ContractError):
            grad_check(lambda t: sum_all(t), x, eps=1e-2)
        with pytest.raises(ContractError):
            grad_check(lambda t: sum_all(t), x, eps=1e-7)


_MASK = np.ones((2, 2, 4, 4), dtype=bool)
_MASK[..., 3] = False


class TestSerialization:
    def test_roundtrip_bitwise(self):
        rng = make_rng(11)
        t = Tensor(rng.standard_normal((2, 3, 5, 7)).astype(np.float32))
        buf = tensor_to_bytes(t)
        back, end = tensor_from_bytes(buf)
        assert end == len(buf)
        assert back.shape == t.shape
        np.testing.assert_array_equal(back.data, t.data)

    def test_header_layout(self):
        t = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
        buf = tensor_to_bytes(t)
        assert buf[:4] == b"LFT1"
        assert np.frombuffer(buf[4:20], dtype="<u4").tolist() == [1, 2, 3, 4]
        assert len(buf) == 20 + 4 * 24

    def test_bad_magic_rejected(self):
        with pytest.raises(ContractError):
            tensor_from_bytes(b"XXXX" + bytes(16))

    def test_truncated_payload_rejected(self):
        t = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        buf = tensor_to_bytes(t)
        with pytest.raises(ContractError):
            tensor_from_bytes(buf[:-4])

    def test_element_count_past_int64_is_truncated_not_empty(self):
        # 65536**4 == 2**64: a wrapping int64 count would read 0 elements
        with pytest.raises(ContractError, match="truncated"):
            tensor_from_bytes(b"LFT1" + struct.pack("<4I", *(65536,) * 4))
