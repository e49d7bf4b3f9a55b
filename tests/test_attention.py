"""Windowed fusion against per-window and global references, plus locality."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfam.attention import (
    AttentionWeights,
    LfamConfig,
    LfamParams,
    ResidualSource,
    _project_pixels,
    global_attention_oracle,
    init_lfam_params,
    lfam_attention,
    lfam_forward,
    window_partition,
    windowed_reference,
)
from lfam.errors import ConfigError, ScaleGuardError, ShapeError
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward, grad_check, pow_const, sum_all


def random_pair(rng, n=1, c=3, h=8, w=8, dtype=np.float64):
    enc = Tensor(rng.standard_normal((n, c, h, w)), dtype=dtype)
    dec = Tensor(rng.standard_normal((n, c, h, w)), dtype=dtype)
    return enc, dec


class TestWindowPartition:
    def test_exact_tiling(self):
        grid = window_partition(14, 14, 7)
        assert (grid.rows, grid.cols, grid.n_windows) == (2, 2, 4)
        assert grid.pad_mask.all()
        assert grid.pad_mask.shape == (14, 14)

    def test_padded_tiling(self):
        grid = window_partition(32, 32, 7)
        assert grid.n_windows == 25
        assert grid.pad_mask.shape == (35, 35)
        assert grid.pad_mask[:32, :32].all()
        assert not grid.pad_mask[32:, :].any()
        assert not grid.pad_mask[:, 32:].any()

    def test_every_window_keeps_a_real_pixel(self):
        for h, w, m in [(1, 1, 7), (5, 9, 4), (10, 10, 3), (2, 13, 5)]:
            grid = window_partition(h, w, m)
            per_window = grid.key_mask.reshape(grid.n_windows, -1)
            assert per_window.any(axis=1).all()

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            window_partition(8, 8, 0)
        with pytest.raises(ConfigError):
            window_partition(0, 8, 3)


class TestAgainstReferences:
    @pytest.mark.parametrize("shape,m", [((2, 3, 10, 9), 4), ((1, 4, 7, 7), 7),
                                         ((1, 2, 8, 8), 3), ((1, 3, 5, 12), 5)])
    @pytest.mark.parametrize("residual", list(ResidualSource))
    def test_matches_windowed_reference(self, shape, m, residual):
        rng = make_rng(hash((shape, m)) % 2**32)
        n, c, h, w = shape
        enc = Tensor(rng.standard_normal(shape), dtype=np.float64)
        dec = Tensor(rng.standard_normal(shape), dtype=np.float64)
        params = init_lfam_params(c, rng, dtype=np.float64)
        cfg = LfamConfig(local_range=m, residual_source=residual)
        got = lfam_forward(enc, dec, params, cfg)
        want = windowed_reference(enc, dec, params, cfg)
        assert got.shape == shape
        np.testing.assert_allclose(got.data, want, atol=1e-6)

    @pytest.mark.parametrize("scale,swap", [(True, False), (False, True), (True, True)])
    def test_reference_honors_flags(self, scale, swap):
        rng = make_rng(77)
        enc, dec = random_pair(rng, n=2, c=3, h=9, w=6)
        params = init_lfam_params(3, rng, dtype=np.float64)
        cfg = LfamConfig(local_range=4, scale_logits=scale, swap_qkv=swap)
        got = lfam_forward(enc, dec, params, cfg)
        np.testing.assert_allclose(got.data, windowed_reference(enc, dec, params, cfg), atol=1e-6)

    @pytest.mark.parametrize("seed,hw", [(0, (8, 8)), (1, (6, 10)), (2, (5, 7))])
    def test_single_window_equals_global_oracle(self, seed, hw):
        rng = make_rng(seed)
        h, w = hw
        enc, dec = random_pair(rng, c=4, h=h, w=w)
        params = init_lfam_params(4, rng, dtype=np.float64)
        cfg = LfamConfig(local_range=max(h, w), residual_source=ResidualSource.NONE)
        got = lfam_forward(enc, dec, params, cfg)
        want = global_attention_oracle(enc, dec, params)
        np.testing.assert_allclose(got.data, want.data, atol=1e-6)

    def test_oversized_window_still_matches_oracle(self):
        # m larger than both sides pads heavily; masked keys must not leak in
        rng = make_rng(3)
        enc, dec = random_pair(rng, c=2, h=6, w=6)
        params = init_lfam_params(2, rng, dtype=np.float64)
        cfg = LfamConfig(local_range=11, residual_source=ResidualSource.NONE)
        got = lfam_forward(enc, dec, params, cfg)
        np.testing.assert_allclose(got.data, global_attention_oracle(enc, dec, params).data,
                                   atol=1e-6)

    def test_unit_window_returns_value_projection(self):
        rng = make_rng(4)
        enc, dec = random_pair(rng, c=3, h=5, w=4)
        params = init_lfam_params(3, rng, dtype=np.float64)
        out = lfam_forward(enc, dec, params, LfamConfig(local_range=1,
                                                        residual_source=ResidualSource.NONE))
        np.testing.assert_allclose(out.data, _project_pixels(dec.data, params.value), atol=1e-10)


class TestLocality:
    @pytest.mark.parametrize("perturb", ["encoder", "decoder"])
    def test_other_windows_bit_identical(self, perturb):
        rng = make_rng(10)
        n, c, h, w, m = 1, 3, 14, 14, 7
        enc = rng.standard_normal((n, c, h, w)).astype(np.float32)
        dec = rng.standard_normal((n, c, h, w)).astype(np.float32)
        params = init_lfam_params(c, make_rng(11))
        cfg = LfamConfig(local_range=m)
        base = lfam_forward(Tensor(enc), Tensor(dec), params, cfg).data

        enc2, dec2 = enc.copy(), dec.copy()
        target = enc2 if perturb == "encoder" else dec2
        target[0, 1, 2, 3] += 0.5  # inside window (0, 0)
        moved = lfam_forward(Tensor(enc2), Tensor(dec2), params, cfg).data

        assert not np.array_equal(moved[:, :, :7, :7], base[:, :, :7, :7])
        np.testing.assert_array_equal(moved[:, :, :7, 7:], base[:, :, :7, 7:])
        np.testing.assert_array_equal(moved[:, :, 7:, :7], base[:, :, 7:, :7])
        np.testing.assert_array_equal(moved[:, :, 7:, 7:], base[:, :, 7:, 7:])

    def test_batch_items_independent(self):
        rng = make_rng(12)
        enc = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        dec = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        params = init_lfam_params(3, make_rng(13))
        cfg = LfamConfig(local_range=3)
        both = lfam_forward(Tensor(enc), Tensor(dec), params, cfg).data
        solo = lfam_forward(Tensor(enc[1:]), Tensor(dec[1:]), params, cfg).data
        np.testing.assert_array_equal(both[1:], solo)


class TestPaddingSemantics:
    def test_padded_keys_get_zero_weight(self):
        rng = make_rng(20)
        enc, dec = random_pair(rng, c=2, h=10, w=10)
        params = init_lfam_params(2, rng, dtype=np.float64)
        _, attn = lfam_attention(enc, dec, params, LfamConfig(local_range=7))
        n, nw, mm, _ = attn.weights.shape
        key_real = attn.grid.key_mask.reshape(nw, mm)
        for wi in range(nw):
            dead = attn.weights[:, wi, :, ~key_real[wi]]
            np.testing.assert_array_equal(dead, 0.0)

    def test_real_query_rows_sum_to_one(self):
        rng = make_rng(21)
        enc, dec = random_pair(rng, c=2, h=9, w=11)
        params = init_lfam_params(2, rng, dtype=np.float64)
        _, attn = lfam_attention(enc, dec, params, LfamConfig(local_range=4))
        sums = attn.weights.sum(axis=3)
        nw, mm = attn.weights.shape[1:3]
        query_real = attn.grid.key_mask.reshape(nw, mm)
        for wi in range(nw):
            np.testing.assert_allclose(sums[:, wi, query_real[wi]], 1.0, atol=1e-6)

    def test_weight_indexing_helpers(self):
        grid = window_partition(10, 10, 7)
        attn = AttentionWeights(grid, np.zeros((1, grid.n_windows, 49, 49)))
        assert attn.window_of(0, 0) == 0
        assert attn.window_of(9, 9) == 3
        assert attn.position_in_window(8, 9) == 1 * 7 + 2


class TestResidualAndShape:
    def test_residual_modes_differ_by_the_added_map(self):
        rng = make_rng(30)
        enc, dec = random_pair(rng, c=3, h=6, w=6)
        params = init_lfam_params(3, rng, dtype=np.float64)
        outs = {}
        for mode in ResidualSource:
            outs[mode] = lfam_forward(enc, dec, params,
                                      LfamConfig(local_range=3, residual_source=mode)).data
        np.testing.assert_array_equal(outs[ResidualSource.ENCODER],
                                      outs[ResidualSource.NONE] + enc.data)
        np.testing.assert_array_equal(outs[ResidualSource.DECODER],
                                      outs[ResidualSource.NONE] + dec.data)

    def test_swap_exchanges_the_maps(self):
        rng = make_rng(31)
        enc, dec = random_pair(rng, c=3, h=6, w=6)
        params = init_lfam_params(3, rng, dtype=np.float64)
        a = lfam_forward(enc, dec, params,
                         LfamConfig(local_range=3, residual_source=ResidualSource.NONE,
                                    swap_qkv=True))
        b = lfam_forward(dec, enc, params,
                         LfamConfig(local_range=3, residual_source=ResidualSource.NONE))
        np.testing.assert_array_equal(a.data, b.data)

    def test_narrow_projection_changes_output_channels(self):
        rng = make_rng(32)
        enc, dec = random_pair(rng, c=4, h=6, w=6)
        params = init_lfam_params(4, rng, proj_channels=2, dtype=np.float64)
        cfg = LfamConfig(local_range=3, residual_source=ResidualSource.NONE, proj_channels=2)
        assert lfam_forward(enc, dec, params, cfg).shape == (1, 2, 6, 6)

    def test_residual_requires_matching_width(self):
        rng = make_rng(33)
        enc, dec = random_pair(rng, c=4, h=6, w=6)
        params = init_lfam_params(4, rng, proj_channels=2, dtype=np.float64)
        with pytest.raises(ConfigError):
            lfam_forward(enc, dec, params, LfamConfig(local_range=3, proj_channels=2))

    def test_mismatched_maps_rejected(self):
        rng = make_rng(34)
        params = init_lfam_params(3, rng)
        with pytest.raises(ShapeError):
            lfam_forward(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((1, 3, 8, 6))),
                         params, LfamConfig())

    def test_zero_local_range_rejected(self):
        with pytest.raises(ConfigError):
            LfamConfig(local_range=0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(3, 12), st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_output_shape_always_matches_input(self, seed, m, h, w):
        rng = make_rng(seed)
        enc = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        dec = Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        params = init_lfam_params(2, rng)
        out = lfam_forward(enc, dec, params, LfamConfig(local_range=m))
        assert out.shape == enc.shape


class TestTapeSize:
    def test_unpadded_call_records_sixteen_nodes(self):
        # 3 projections, 3 x (split, view), key transpose, 2 bmm, softmax,
        # view, merge, residual add
        rng = make_rng(36)
        enc, dec = random_pair(rng, c=4, h=8, w=8, dtype=np.float32)
        with Tape() as tape:
            lfam_forward(enc, dec, init_lfam_params(4, rng), LfamConfig(local_range=4))
        assert len(tape.nodes) == 16


class TestBufferReuse:
    @pytest.mark.parametrize("h", [8, 7])  # unpadded and padded windows
    def test_softmax_writes_into_the_score_buffer(self, h):
        rng = make_rng(37)
        enc, dec = random_pair(rng, c=4, h=h, w=h, dtype=np.float32)
        with Tape() as tape:
            lfam_forward(enc, dec, init_lfam_params(4, rng), LfamConfig(local_range=4))
        (softmax,) = [node for node in tape.nodes if node.op == "masked_softmax"]
        (scores,) = [node for node in tape.nodes if node.out is softmax.inputs[0]]
        assert scores.op == "bmm"
        assert np.shares_memory(scores.out.data, softmax.out.data)

    @pytest.mark.parametrize("h", [8, 7])
    def test_second_backward_doubles_every_gradient_exactly(self, h):
        rng = make_rng(38)
        enc, dec = random_pair(rng, c=4, h=h, w=h, dtype=np.float32)
        enc.requires_grad = dec.requires_grad = True
        params = init_lfam_params(4, rng)
        with Tape() as tape:
            loss = sum_all(pow_const(lfam_forward(enc, dec, params, LfamConfig(local_range=4)), 2.0))
        leaves = (enc, dec) + params.tensors()
        backward(tape, loss)
        once = [t.grad.copy() for t in leaves]
        backward(tape, loss)
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2 * g)

    def test_wide16_fusion_step_peaks_under_three_score_buffers(self):
        # one level-0 wide16 call: scores and probabilities are (2, 16, 256, 256)
        # float32, 8 MiB each; keeping both alive and a fresh softmax gradient
        # peaked at 4.4 of them
        rng = make_rng(39)
        enc, dec = random_pair(rng, n=2, c=8, h=64, w=64, dtype=np.float32)
        enc.requires_grad = dec.requires_grad = True
        params = init_lfam_params(8, rng)
        score_bytes = 2 * 16 * 256 * 256 * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = sum_all(lfam_forward(enc, dec, params, LfamConfig(local_range=16)))
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * score_bytes


class TestOracleGuard:
    def test_refuses_large_maps(self):
        big = Tensor(np.zeros((1, 1, 70, 70)))
        params = init_lfam_params(1, make_rng(0))
        with pytest.raises(ScaleGuardError):
            global_attention_oracle(big, big, params)


class TestGradients:
    def test_inputs_and_one_projection(self):
        rng = make_rng(40)
        enc = rng.standard_normal((1, 3, 5, 5))
        dec = rng.standard_normal((1, 3, 5, 5))
        params = init_lfam_params(3, rng, dtype=np.float64)
        cfg = LfamConfig(local_range=3)

        def wrt_enc(t):
            return sum_all(pow_const(lfam_forward(t, Tensor(dec, dtype=np.float64), params, cfg), 2.0))

        def wrt_dec(t):
            return sum_all(pow_const(lfam_forward(Tensor(enc, dtype=np.float64), t, params, cfg), 2.0))

        def wrt_wq(t):
            from lfam.ops import ConvParams
            q = LfamParams(ConvParams(t, params.query.bias), params.key, params.value)
            return sum_all(pow_const(
                lfam_forward(Tensor(enc, dtype=np.float64), Tensor(dec, dtype=np.float64), q, cfg), 2.0))

        assert grad_check(wrt_enc, Tensor(enc, dtype=np.float64)) < 1e-4
        assert grad_check(wrt_dec, Tensor(dec, dtype=np.float64)) < 1e-4
        assert grad_check(wrt_wq, params.query.weight) < 1e-4
