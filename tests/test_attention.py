"""Windowed fusion against per-window and global references, plus locality."""

import contextlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfam import attention
from lfam.attention import (
    LfamConfig,
    LfamParams,
    ResidualSource,
    _project_pixels,
    _window_core,
    crop_top_left,
    global_attention_oracle,
    init_lfam_params,
    lfam_attention,
    lfam_forward,
    pad_bottom_right,
    window_merge,
    window_partition,
    window_split,
    windowed_reference,
)
from lfam.errors import (
    ConfigError,
    DegenerateWindowError,
    NumericalError,
    ScaleGuardError,
    ShapeError,
)
from lfam.rng import make_rng
from lfam.tensor import (
    Tape,
    Tensor,
    affine,
    backward,
    bmm,
    grad_check,
    masked_softmax,
    mul,
    permute,
    pow_const,
    sum_all,
)


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


# (h, w, m) of every fusion call in the benchmark workloads (desk32 m=4,
# wide16 m=16, eval128 m=7; two levels each), plus a non-square map
FUSION_GEOMETRIES = [(32, 32, 4), (16, 16, 4), (64, 64, 16), (32, 32, 16),
                     (128, 128, 7), (64, 64, 7), (13, 30, 7)]

# a 4x5 map padded unevenly, by (2, 1), to 6x6, and a 4x4 map cut into four
# unpadded windows, with fixed weights on their (2, 4, 9, 2) and (2, 4, 4, 2)
# window rows
_GRID_PAD = window_partition(4, 5, 3)
_GRID_2 = window_partition(4, 4, 2)
_PAD_ROW_WEIGHTS = Tensor(make_rng(6).standard_normal((2, 4, 9, 2)))
_ROW_WEIGHTS = Tensor(make_rng(5).standard_normal((2, 4, 4, 2)))
_RESIDUAL = Tensor(make_rng(7).standard_normal((2, 2, 4, 5)))


class TestWindows:
    """The window ops, each taking the grid that window_partition checked."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_split_merge_roundtrip_bitwise(self, seed, m):
        rng = make_rng(seed)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        grid = window_partition(8, 8, m)
        back = window_merge(window_split(Tensor(x), grid), grid)
        np.testing.assert_array_equal(back.data, x)

    def test_window_rows_row_major(self):
        # two images, two channels: image b's window w is row [b, w], its
        # pixels in row-major order, channel last
        x = np.arange(64, dtype=np.float32).reshape(2, 2, 4, 4)
        r = window_split(Tensor(x), window_partition(4, 4, 2))
        assert r.shape == (2, 4, 4, 2) and r.data.flags.c_contiguous
        np.testing.assert_array_equal(r.data[0, 0, :, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(r.data[0, 1, :, 0], [2, 3, 6, 7])
        np.testing.assert_array_equal(r.data[0, 2, :, 0], [8, 9, 12, 13])
        np.testing.assert_array_equal(r.data[0, 3, :, 1], [26, 27, 30, 31])
        np.testing.assert_array_equal(r.data[1, 1, :, 0], [34, 35, 38, 39])

    @pytest.mark.parametrize("h, w, m", FUSION_GEOMETRIES)
    def test_split_merge_is_the_identity_with_zero_rows_at_the_padding(self, h, w, m):
        x = make_rng(h * w + m).standard_normal((2, 3, h, w)).astype(np.float32)
        grid = window_partition(h, w, m)
        r = window_split(Tensor(x), grid)
        assert r.shape == (2, grid.n_windows, m * m, 3)
        # the rows are those of the padded map, cut by the former formula
        padded = pad_bottom_right(Tensor(x), grid).data
        rows, cols = grid.rows, grid.cols
        former = (padded.reshape(2, 3, rows, m, cols, m).transpose(0, 2, 4, 3, 5, 1)
                  .reshape(2, grid.n_windows, m * m, 3))
        assert r.data.tobytes() == former.tobytes()
        back = window_merge(r, grid)
        assert back.shape == x.shape and back.dtype == x.dtype
        assert back.data.tobytes() == x.tobytes()
        res = make_rng(h + w).standard_normal(x.shape).astype(np.float32)
        np.testing.assert_array_equal(window_merge(r, grid, Tensor(res)).data, x + res)

    def test_split_rejects_a_map_of_another_size(self):
        with pytest.raises(ShapeError):
            window_split(Tensor(np.zeros((1, 1, 6, 6))), _GRID_PAD)

    @pytest.mark.parametrize("h, w, m", FUSION_GEOMETRIES)
    def test_key_mask_matches_the_former_formula(self, h, w, m):
        grid = window_partition(h, w, m)
        rows, cols = grid.rows, grid.cols
        former = (grid.pad_mask.reshape(rows, m, cols, m)
                  .transpose(0, 2, 1, 3)
                  .reshape(rows * cols, 1, 1, m * m))
        assert grid.key_mask.shape == former.shape and grid.key_mask.dtype == former.dtype
        assert grid.key_mask.tobytes() == former.tobytes()
        # the key mask marks exactly the row positions a map of ones fills
        ones = window_split(Tensor(np.ones((1, 1, h, w))), grid).data
        np.testing.assert_array_equal(ones.reshape(former.shape) == 1, former)

    # name -> (function of x, shape of x).  The padding is uneven, so a
    # row/column swap in a vjp gives a wrongly shaped gradient; crop runs on
    # its own too, because in pad_crop pad's vjp slices such a gradient back.
    # The rows are weighted per entry, so a split or merge vjp that put a
    # pixel in another row position would show; the padded rows' weights
    # must reach nothing.
    OPS = {
        "pad_crop": (lambda x: sum_all(mul(crop_top_left(pad_bottom_right(x, _GRID_PAD), _GRID_PAD), x)),
                     (2, 2, 4, 5)),
        "crop": (lambda x: sum_all(pow_const(crop_top_left(x, _GRID_PAD), 2.0)), (2, 2, 6, 6)),
        "windows": (lambda x: sum_all(pow_const(
            window_merge(mul(window_split(x, _GRID_2), _ROW_WEIGHTS), _GRID_2), 2.0)), (2, 2, 4, 4)),
        "padded_windows": (lambda x: sum_all(pow_const(window_merge(
            mul(window_split(x, _GRID_PAD), _PAD_ROW_WEIGHTS), _GRID_PAD, x), 2.0)), (2, 2, 4, 5)),
        "residual": (lambda x: sum_all(pow_const(window_merge(
            mul(window_split(_RESIDUAL, _GRID_PAD), _PAD_ROW_WEIGHTS), _GRID_PAD, x), 2.0)),
            (2, 2, 4, 5)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_gradients(self, name):
        fn, shape = self.OPS[name]
        worst = 0.0
        for seed in range(3):
            rng = make_rng(seed, stream=17)
            x = Tensor(rng.standard_normal(shape) + 0.1, dtype=np.float64)
            worst = max(worst, grad_check(fn, x, eps=1e-5))
        assert worst < 1e-4, f"{name}: max relative error {worst}"


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

    @pytest.mark.parametrize("taped", [False, True])
    def test_padded_rows_with_nonzero_biases_reach_nothing(self, taped):
        # a padded row projects to the bias; padded keys must still get zero
        # weight and padded queries be dropped
        rng = make_rng(78)
        enc, dec = random_pair(rng, n=2, c=3, h=9, w=6)
        params = init_lfam_params(3, rng, dtype=np.float64)
        for t in (params.query.bias, params.key.bias, params.value.bias):
            t.data[...] = 5 * rng.standard_normal(t.shape)
        cfg = LfamConfig(local_range=4)
        with Tape() if taped else contextlib.nullcontext():
            got = lfam_forward(enc, dec, params, cfg)
        np.testing.assert_allclose(got.data, windowed_reference(enc, dec, params, cfg), atol=1e-10)
        _, attn = lfam_attention(enc, dec, params, cfg)
        dead = ~attn.grid.key_mask.reshape(attn.grid.n_windows, 16)
        assert (attn.weights.transpose(0, 1, 3, 2)[:, dead] == 0).all()

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

    @pytest.mark.parametrize("h,w,m", [(10, 10, 7), (14, 14, 7), (9, 16, 4)])
    def test_window_rows_follow_the_documented_order(self, h, w, m):
        grid = window_partition(h, w, m)
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        x = np.stack([np.stack([ii, jj]) + 100 * b for b in range(2)]).astype(np.float64)
        rows = attention._to_rows(x, m, grid.n_windows, grid.padded)
        for i in range(h):
            for j in range(w):
                win, pos = (i // m) * grid.cols + j // m, (i % m) * m + j % m
                np.testing.assert_array_equal(rows[:, win, pos], x[:, :, i, j])
        real = grid.key_mask.reshape(grid.n_windows, m * m)
        assert real.sum() == h * w
        np.testing.assert_array_equal(rows[:, ~real], 0.0)
        if (h, w, m) == (10, 10, 7):  # pixel (9, 9) is in the last window, (8, 9) at 1 * 7 + 2
            np.testing.assert_array_equal(rows[0, 3, 2 * 7 + 2], [9, 9])
            np.testing.assert_array_equal(rows[0, 3, 1 * 7 + 2], [8, 9])


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
    @staticmethod
    def _ops(side, m):
        rng = make_rng(36)
        enc, dec = random_pair(rng, c=4, h=side, w=side, dtype=np.float32)
        enc.requires_grad = dec.requires_grad = True  # as a U-Net's maps do
        with Tape() as tape:
            lfam_forward(enc, dec, init_lfam_params(4, rng), LfamConfig(local_range=m))
        return [node.op for node in tape.nodes]

    # each map copied into rows once, 3 projections on rows, the window core,
    # and one merge that crops and adds the residual
    SEVEN = ["window_split", "window_project", "window_split", "window_project",
             "window_project", "window_attention", "window_merge"]

    def test_unpadded_call_records_seven_nodes(self):
        assert self._ops(8, 4) == self.SEVEN

    def test_padded_call_records_seven_nodes(self):
        assert self._ops(7, 4) == self.SEVEN


class TestWindowCore:
    """_window_core is one tape node with the values and gradients of the taped chain."""

    batch = 2

    def _rows(self, seed, dtype, padded):
        rng = make_rng(seed)
        grid = window_partition(7, 7, 4) if padded else window_partition(8, 8, 4)
        nw = grid.n_windows
        q, k, v = (Tensor(rng.standard_normal((self.batch, nw, 16, 3)), requires_grad=True,
                          dtype=dtype)
                   for _ in range(3))
        mask = grid.key_mask.reshape(1, nw, 1, 16) if padded else None
        return rng, q, k, v, mask

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("scale_logits", [False, True])
    def test_matches_one_block_bitwise_and_the_taped_chain_closely(self, monkeypatch, dtype,
                                                                   padded, scale_logits):
        rng, q, k, v, mask = self._rows(41, dtype, padded)
        r = Tensor(rng.standard_normal(q.shape), dtype=dtype)
        scale = float(1.0 / np.sqrt(3)) if scale_logits else None

        def core(q, k, v):
            with Tape() as tape:
                out, p = _window_core(q, k, v, mask, scale)
                loss = sum_all(mul(out, r))
            assert [node.op for node in tape.nodes[:1]] == ["window_attention"]
            backward(tape, loss)
            return out, p

        def fresh():
            return [Tensor(t.data.copy(), requires_grad=True) for t in (q, k, v)]

        out, p = core(q, k, v)
        monkeypatch.setattr(attention, "_BLOCK_BYTES", 1 << 30)
        whole = fresh()
        out1, p1 = core(*whole)  # one block
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, out1.data)
        np.testing.assert_array_equal(p, p1)
        for got, ref in zip((q, k, v), whole):
            np.testing.assert_array_equal(got.grad, ref.grad)

        # the chain shifts by the row max and normalises P; the core
        # normalises E·v and folds the scale into q, so they agree to rounding
        chain = fresh()
        q2, k2, v2 = chain
        with Tape() as tape:
            scores = bmm(q2, permute(k2, (0, 1, 3, 2)))
            if scale is not None:
                scores = affine(scores, scale)
            weights = masked_softmax(scores, mask)
            want = bmm(weights, v2)
            loss = sum_all(mul(want, r))
        backward(tape, loss)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out.data, want.data, rtol=tol, atol=tol)
        np.testing.assert_allclose(p, weights.data, rtol=tol, atol=tol)
        if padded:  # masked keys: exactly zero weight and zero gradient
            dead = ~np.broadcast_to(mask, p.shape[:2] + (1, 16))[:, :, 0]
            assert (p.transpose(0, 1, 3, 2)[dead] == 0).all()
            assert (k.grad[dead] == 0).all() and (v.grad[dead] == 0).all()
        for got, ref in zip((q, k, v), chain):
            np.testing.assert_allclose(got.grad, ref.grad, rtol=tol, atol=tol)

    @pytest.mark.parametrize("padded", [False, True])
    def test_vjp_leaves_g_unchanged(self, padded):
        rng, q, k, v, mask = self._rows(42, np.float64, padded)
        with Tape() as tape:
            out, _ = _window_core(q, k, v, mask, 0.5)
        (node,) = tape.nodes
        g = rng.standard_normal(out.shape)
        g0 = g.copy()
        node.vjp(g)
        np.testing.assert_array_equal(g, g0)

    @pytest.mark.parametrize("padded", [False, True])
    def test_nonfinite_score_in_the_last_window_raises(self, padded):
        _, q, k, v, mask = self._rows(44, np.float32, padded)
        q.data[-1, -1, 0, 0] = np.inf
        with Tape() as tape:
            with pytest.raises(NumericalError):
                _window_core(q, k, v, mask, None)
        assert tape.nodes == []

    def test_fully_masked_row_in_the_last_window_raises(self):
        _, q, k, v, mask = self._rows(45, np.float32, True)
        mask = np.broadcast_to(mask, (self.batch,) + mask.shape[1:]).copy()
        mask[-1, -1] = False
        with Tape() as tape:
            with pytest.raises(DegenerateWindowError):
                _window_core(q, k, v, mask, None)
        assert tape.nodes == []


class TestWindowCoreInBlocks(TestWindowCore):
    """The same checks with the vjp's 16 windows split into ragged blocks.

    Blocks of 7 * 16 * 16 float32 scores hold 7, 7 and 2 windows; in float64
    they hold 3, 3, 3, 3, 3 and 1.
    """

    batch = 4

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(attention, "_BLOCK_BYTES", 7 * 16 * 16 * 4)

    @pytest.mark.parametrize("dtype, sizes", [(np.float32, [7, 7, 2]),
                                              (np.float64, [3, 3, 3, 3, 3, 1])])
    def test_vjp_runs_the_softmax_gradient_once_per_block(self, monkeypatch, dtype, sizes):
        seen = []
        scores_grad = attention._scores_grad

        def recording(dp, p, g, o):
            seen.append(len(dp))
            return scores_grad(dp, p, g, o)

        monkeypatch.setattr(attention, "_scores_grad", recording)
        rng, q, k, v, mask = self._rows(43, dtype, True)
        with Tape() as tape:
            out, _ = _window_core(q, k, v, mask, None)
        tape.nodes[0].vjp(rng.standard_normal(out.shape).astype(dtype))
        assert seen == sizes


class TestScoreRange:
    """The core takes exp without the row shift only in windows whose scores
    all lie in (-b, b), b = ½·ln(dtype max); every other window is masked
    with -inf and shifted by its row max, as a softmax was before."""

    @staticmethod
    def _core(q, k, v, mask, scale=None, keep_p=True, taped=False):
        # overflow in exp or a 0/0 in the normaliser would raise here
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if not taped:
                return _window_core(q, k, v, mask, scale, keep_p)
            with Tape() as tape:
                out, p = _window_core(q, k, v, mask, scale, keep_p)
                loss = sum_all(mul(out, out))
            backward(tape, loss)
            return out, p

    @staticmethod
    def _outer(qs, ks, dtype=np.float32):
        """One window whose scores are the outer product of qs and ks (d = 1)."""
        q = Tensor(np.asarray(qs, dtype=dtype).reshape(1, 1, -1, 1), requires_grad=True)
        k = Tensor(np.asarray(ks, dtype=dtype).reshape(1, 1, -1, 1), requires_grad=True)
        v = Tensor(make_rng(60).standard_normal(k.shape).astype(dtype), requires_grad=True)
        return q, k, v

    def test_bounds_follow_the_dtype(self):
        assert 0.5 * np.log(np.finfo(np.float32).max) == pytest.approx(44.36, abs=0.01)
        assert 0.5 * np.log(np.finfo(np.float64).max) == pytest.approx(354.9, abs=0.1)

    @pytest.mark.parametrize("taped", [False, True])
    def test_scores_at_plus_and_minus_a_thousand(self, taped):
        q, k, v = self._outer([1.0, 1.0, -1.0, 0.5], [1000.0, -1000.0, 1000.0, -1000.0])
        out, p = self._core(q, k, v, None, taped=taped)
        assert np.isfinite(out.data).all() and np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=3), 1.0, rtol=1e-6)
        np.testing.assert_array_equal(p[0, 0, 0], [0.5, 0.0, 0.5, 0.0])
        np.testing.assert_array_equal(p[0, 0, 2], [0.0, 0.5, 0.0, 0.5])
        if taped:
            for t in (q, k, v):
                assert np.isfinite(t.grad).all()

    @pytest.mark.parametrize("keep_p", [False, True])
    def test_a_row_wholly_at_minus_two_hundred(self, keep_p):
        # unshifted, float32 exp(-200) is 0 and the row would be 0/0
        q, k, v = self._outer([1.0, 1e-3, 2e-3, 3e-3], [-200.0] * 4)
        out, p = self._core(q, k, v, None, keep_p=keep_p)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 0, 0, 0], v.data.mean(), rtol=1e-6)
        if keep_p:
            np.testing.assert_allclose(p.sum(axis=3), 1.0, rtol=1e-6)
            np.testing.assert_array_equal(p[0, 0, 0], np.full(4, 0.25, np.float32))

    @pytest.mark.parametrize("keep_p", [False, True])
    @pytest.mark.parametrize("taped", [False, True])
    def test_padded_window_whose_real_scores_are_far_below_zero(self, keep_p, taped):
        # 7x7 map, m=4: window 3 has one real key.  Real keys score -300,
        # padded keys 0 (their k rows are zero), so a row max taken before
        # masking would be 0 and every real weight would underflow.
        grid = window_partition(7, 7, 4)
        real = grid.key_mask.reshape(4, 16)
        q = Tensor(np.ones((2, 4, 16, 1), np.float32), requires_grad=True)
        k = Tensor(np.where(real, -300.0, 0.0).reshape(1, 4, 16, 1).repeat(2, axis=0)
                   .astype(np.float32), requires_grad=True)
        v = Tensor(make_rng(61).standard_normal((2, 4, 16, 1)).astype(np.float32) * real[..., None],
                   requires_grad=True)
        mask = grid.key_mask.reshape(1, 4, 1, 16)
        out, p = self._core(q, k, v, mask, keep_p=keep_p, taped=taped)
        assert np.isfinite(out.data).all()
        means = v.data[..., 0].sum(axis=2) / real.sum(axis=1)
        np.testing.assert_allclose(out.data[..., 0], np.repeat(means[..., None], 16, axis=2),
                                   rtol=1e-5, atol=1e-6)
        if p is not None:
            np.testing.assert_allclose(p.sum(axis=3), 1.0, rtol=1e-6)
            assert (p.transpose(0, 1, 3, 2)[:, ~real] == 0).all()
        if taped:
            assert np.isfinite(k.grad).all() and np.isfinite(v.grad).all()
            assert (k.grad[:, ~real] == 0).all() and (v.grad[:, ~real] == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("scale", [None, 0.5])
    @pytest.mark.parametrize("keep_p", [False, True])
    def test_small_scores_equal_the_unshifted_formula_bitwise(self, dtype, padded, scale, keep_p):
        rng = make_rng(62)
        grid = window_partition(7, 7, 4) if padded else window_partition(8, 8, 4)
        q, k, v = (Tensor(rng.standard_normal((3, 4, 16, 3)), dtype=dtype) for _ in range(3))
        mask = grid.key_mask.reshape(1, 4, 1, 16) if padded else None
        out, p = self._core(q, k, v, mask, scale, keep_p)

        # E = exp(q kᵀ), with the scale in q; E·[v | keys] gives E·v and the row sums
        keys = (np.ones((1, 4, 16, 1), dtype) if mask is None
                else mask.reshape(1, 4, 16, 1).astype(dtype))
        keys = np.broadcast_to(keys, (3, 4, 16, 1))
        qs = q.data if scale is None else q.data * scale
        e = np.exp(np.matmul(qs, k.data.swapaxes(-1, -2)))
        ev = np.matmul(e, np.concatenate([v.data * keys, keys], axis=3))
        np.testing.assert_array_equal(out.data, ev[..., :3] / ev[..., 3:])
        if keep_p:
            real = np.broadcast_to(keys.swapaxes(-1, -2) == 1, e.shape)
            np.testing.assert_array_equal(p, np.where(real, e, 0) / ev[..., 3:])


class TestNoTapeForwardInBlocks:
    """Without a tape the core keeps no P: each block's scores go into this
    thread's kept scratch buffer, and the output is bitwise that of a call
    that keeps P.

    Maps of 3 images with 4 windows each (8x8 or 7x7, m=4) give 12 windows;
    blocks of 5 hold windows 0-4, 5-9 and 10-11, so the first two cross a
    batch boundary and take mask rows from two images.
    """

    @staticmethod
    def _blocks_of_five(monkeypatch, dtype):
        monkeypatch.setattr(attention, "_BLOCK_BYTES", 5 * 16 * 16 * np.dtype(dtype).itemsize)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [8, 7])
    @pytest.mark.parametrize("scale_logits", [False, True])
    def test_matches_attention_and_a_taped_call_bitwise(self, monkeypatch, dtype, side,
                                                         scale_logits):
        self._blocks_of_five(monkeypatch, dtype)
        rng = make_rng(47)
        enc, dec = random_pair(rng, n=3, c=3, h=side, w=side, dtype=dtype)
        params = init_lfam_params(3, rng, dtype=dtype)
        cfg = LfamConfig(local_range=4, scale_logits=scale_logits)
        got = lfam_forward(enc, dec, params, cfg)
        kept, weights = lfam_attention(enc, dec, params, cfg)
        assert weights.weights.shape == (3, 4, 16, 16)
        enc.requires_grad = True
        with Tape() as tape:
            taped = lfam_forward(enc, dec, params, cfg)
        assert "window_attention" in [node.op for node in tape.nodes]
        monkeypatch.setattr(attention, "_BLOCK_BYTES", 1 << 20)
        whole = lfam_forward(enc, dec, params, cfg)  # one block
        assert got.dtype == dtype
        for want in (kept, taped, whole):
            np.testing.assert_array_equal(got.data, want.data)
        # the paths above share the block loop; the reference shares nothing
        np.testing.assert_allclose(got.data, windowed_reference(enc, dec, params, cfg),
                                   atol=1e-5 if dtype == np.float32 else 1e-10)

    def _rows(self, padded, dtype=np.float32):
        rng = make_rng(48)
        grid = window_partition(7, 7, 4) if padded else window_partition(8, 8, 4)
        q, k, v = (Tensor(rng.standard_normal((3, 4, 16, 3)), requires_grad=True, dtype=dtype)
                   for _ in range(3))
        mask = grid.key_mask.reshape(1, 4, 1, 16) if padded else None
        return q, k, v, mask

    @pytest.mark.parametrize("padded", [False, True])
    def test_core_keeps_p_only_when_asked_or_taped(self, monkeypatch, padded):
        self._blocks_of_five(monkeypatch, np.float32)
        q, k, v, mask = self._rows(padded)
        out, p = _window_core(q, k, v, mask, 0.5, keep_p=False)
        assert p is None
        want, p = _window_core(q, k, v, mask, 0.5)
        assert p.shape == (3, 4, 16, 16)
        np.testing.assert_array_equal(out.data, want.data)
        with Tape() as tape:
            taped, p = _window_core(q, k, v, mask, 0.5, keep_p=False)
        assert p is not None and len(tape.nodes) == 1
        np.testing.assert_array_equal(taped.data, want.data)

    @pytest.mark.parametrize("padded", [False, True])
    def test_nonfinite_score_in_the_last_block_raises(self, monkeypatch, padded):
        self._blocks_of_five(monkeypatch, np.float32)
        q, k, v, mask = self._rows(padded)
        q.data[-1, -1, 0, 0] = np.inf  # window 11: only the last block sees it
        with pytest.raises(NumericalError):
            _window_core(q, k, v, mask, None, keep_p=False)

    def test_fully_masked_row_in_the_last_block_raises(self, monkeypatch):
        self._blocks_of_five(monkeypatch, np.float32)
        q, k, v, mask = self._rows(True)
        mask = np.broadcast_to(mask, (3,) + mask.shape[1:]).copy()
        mask[-1, -1] = False
        with pytest.raises(DegenerateWindowError):
            _window_core(q, k, v, mask, None, keep_p=False)

    def test_scratch_left_by_float32_serves_float64(self):
        # on a new thread: 5 float32 windows of 9 keys leave a 1620-byte
        # buffer, which a 2-window float64 call (1296 bytes) then reuses
        def calls():
            rng = make_rng(51)
            for n, dtype in ((5, np.float32), (2, np.float64)):
                enc, dec = random_pair(rng, n=n, c=2, h=3, w=3, dtype=dtype)
                params = init_lfam_params(2, rng, dtype=dtype)
                cfg = LfamConfig(local_range=3)
                kept, _ = lfam_attention(enc, dec, params, cfg)
                np.testing.assert_array_equal(lfam_forward(enc, dec, params, cfg).data, kept.data)
            return attention._SCRATCH.buf.nbytes

        with ThreadPoolExecutor(1) as pool:
            assert pool.submit(calls).result(timeout=60) == 5 * 81 * 4

    def test_threads_match_a_serial_run_and_keep_their_own_scratch(self, monkeypatch):
        # three threads on two cores, switching often; blocks of 11, 3 and 1
        # windows at m=5, 7 and 8, so the threads' blocks interleave and a
        # shared buffer would mix their scores
        monkeypatch.setattr(attention, "_BLOCK_BYTES", 3 * 49 * 49 * 4)
        rng = make_rng(49)
        params = init_lfam_params(4, rng)
        cases = [(random_pair(rng, n=2, c=4, h=side, w=side, dtype=np.float32),
                  LfamConfig(local_range=m)) for side, m in ((12, 5), (20, 7), (16, 8))]
        serial = [lfam_forward(enc, dec, params, cfg).data for (enc, dec), cfg in cases]
        barrier = threading.Barrier(len(cases))

        def work(case):
            (enc, dec), cfg = case
            barrier.wait(timeout=60)
            outs = [lfam_forward(enc, dec, params, cfg).data for _ in range(20)]
            return outs, attention._SCRATCH.buf

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(cases)) as pool:
                results = list(pool.map(work, cases, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for want, (outs, _) in zip(serial, results):
            for out in outs:
                np.testing.assert_array_equal(out, want)
        buffers = [buf for _, buf in results] + [attention._SCRATCH.buf]
        for i, a in enumerate(buffers):
            for b in buffers[i + 1:]:
                assert not np.shares_memory(a, b)


class TestBufferReuse:
    def test_no_tape_forward_holds_one_score_buffer(self):
        # one level-0 wide16 call: the scores are (2, 16, 256, 256) float32,
        # 8 MiB; a softmax that did not write into them would hold two
        rng = make_rng(37)
        enc, dec = random_pair(rng, n=2, c=8, h=64, w=64, dtype=np.float32)
        params = init_lfam_params(8, rng)
        score_bytes = 2 * 16 * 256 * 256 * 4
        tracemalloc.start()
        try:
            lfam_forward(enc, dec, params, LfamConfig(local_range=16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * score_bytes

    @staticmethod
    def _cold_no_tape_peak(side, m):
        """tracemalloc peak of one no-tape (2, 8, side², m) call, in score buffers.

        The call runs on a new thread, which has no scratch buffer yet.
        """
        rng = make_rng(50)
        enc, dec = random_pair(rng, n=2, c=8, h=side, w=side, dtype=np.float32)
        params = init_lfam_params(8, rng)
        score_bytes = 2 * (-(-side // m)) ** 2 * (m * m) ** 2 * 4

        def call():
            tracemalloc.start()
            try:
                lfam_forward(enc, dec, params, LfamConfig(local_range=m))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with ThreadPoolExecutor(1) as pool:
            return pool.submit(call).result() / score_bytes

    def test_cold_no_tape_wide16_call_peaks_under_half_a_score_buffer(self):
        # the 8 MiB of (2, 16, 256, 256) scores pass 1 MiB at a time through
        # the new scratch buffer: 0.35 buffers, against 1.22 for a full-size P
        assert self._cold_no_tape_peak(64, 16) < 0.5

    def test_cold_no_tape_eval128_call_peaks_under_one_and_a_half_score_buffers(self):
        # (2, 361, 49, 49) float32 scores, 6.6 MiB: 1.28 buffers with the
        # scratch, 2.11 with a full-size P
        assert self._cold_no_tape_peak(128, 7) < 1.5

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

    @staticmethod
    def _wide16_fusion_step_peak():
        """tracemalloc peak of one level-0 wide16 call plus backward, in score buffers.

        The scores and probabilities are (2, 16, 256, 256) float32, 8 MiB each.
        """
        rng = make_rng(39)
        enc, dec = random_pair(rng, n=2, c=8, h=64, w=64, dtype=np.float32)
        enc.requires_grad = dec.requires_grad = True
        params = init_lfam_params(8, rng)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = sum_all(lfam_forward(enc, dec, params, LfamConfig(local_range=16)))
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (2 * 16 * 256 * 256 * 4)

    def test_wide16_fusion_step_peaks_under_three_score_buffers(self):
        # keeping scores and probabilities alive and a fresh softmax gradient
        # peaked at 4.4 of them
        assert self._wide16_fusion_step_peak() < 3

    def test_wide16_fusion_step_peaks_under_two_score_buffers(self):
        # the core keeps P and forms the scores' gradient one 1 MiB block at a
        # time; a full-size gradient peaked at 2.44 buffers
        assert self._wide16_fusion_step_peak() < 2

    def test_single_block_core_holds_p_ds_and_three_row_buffers(self):
        # desk32's level-0 rows fit one block: forward then backward peaks at
        # P and dS (512 KiB each) plus the output, dq and dk (256 KiB each);
        # the softmax gradient's 32 KiB row-dot temporary is freed before dq
        # and dk are allocated
        rng = make_rng(46)
        q, k, v = (Tensor(rng.standard_normal((8, 64, 16, 8)), requires_grad=True,
                          dtype=np.float32) for _ in range(3))
        g = rng.standard_normal(q.shape).astype(np.float32)
        score_bytes, row_bytes = 8 * 64 * 16 * 16 * 4, q.data.nbytes
        tracemalloc.start()
        try:
            with Tape() as tape:
                _window_core(q, k, v, None, None)
            tape.nodes[0].vjp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * score_bytes + 3 * row_bytes + 16 * 1024


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

        def f(e, d, wq):
            from lfam.ops import ConvParams
            q = LfamParams(ConvParams(wq, params.query.bias), params.key, params.value)
            return sum_all(pow_const(lfam_forward(e, d, q, cfg), 2.0))

        assert grad_check(f, Tensor(enc, dtype=np.float64), Tensor(dec, dtype=np.float64),
                          params.query.weight) < 1e-4
