"""Network assembly, forward shapes, flop counting, checkpoints."""

import struct

import numpy as np
import pytest

from lfam.attention import LfamConfig, ResidualSource, global_attention_oracle
from lfam.errors import CheckpointError, ConfigError, ContractError, ShapeError
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward, grad_check, pow_const, sum_all
from lfam.unet import (
    ModelState,
    SkipSpec,
    UNetConfig,
    build_unet,
    config_fingerprint,
    count_flops_and_params,
    forward,
    load_checkpoint,
    save_checkpoint,
)

LFAM4 = SkipSpec(kind="lfam", lfam=LfamConfig(local_range=4))


def small_cfg(skip="concat", **kw):
    if skip == "lfam":
        skips = (LFAM4, LFAM4)
    else:
        skips = (SkipSpec(kind=skip), SkipSpec(kind=skip))
    return UNetConfig(in_channels=1, num_classes=3, base_channels=2, depth=2,
                      skips=skips, **kw)


class TestConfig:
    def test_width_doubling_rule(self):
        cfg = UNetConfig(base_channels=64, depth=4, num_classes=5)
        assert [cfg.level_width(i) for i in range(4)] == [64, 128, 256, 512]
        assert cfg.bottleneck_width == 1024

    def test_default_skips_are_concat(self):
        cfg = UNetConfig(depth=3)
        assert len(cfg.skips) == 3
        assert all(s.kind == "concat" for s in cfg.skips)

    def test_skip_count_must_match_depth(self):
        with pytest.raises(ConfigError):
            UNetConfig(depth=3, skips=(SkipSpec(),))

    def test_lfam_spec_needs_settings(self):
        with pytest.raises(ConfigError):
            SkipSpec(kind="lfam")
        with pytest.raises(ConfigError):
            SkipSpec(kind="concat", lfam=LfamConfig())

    def test_fingerprint_tracks_architecture(self):
        a = config_fingerprint(small_cfg("concat"))
        b = config_fingerprint(small_cfg("lfam"))
        c = config_fingerprint(small_cfg("concat"))
        assert a == c and a != b


class TestBuild:
    def test_deterministic_per_seed(self):
        m1 = build_unet(small_cfg("lfam"), seed=3)
        m2 = build_unet(small_cfg("lfam"), seed=3)
        m3 = build_unet(small_cfg("lfam"), seed=4)
        assert m1.params.keys() == m2.params.keys()
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)
        assert any(not np.array_equal(m1.params[n].data, m3.params[n].data) for n in m1.params)

    def test_depth1_parameter_hand_count(self):
        cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=1, depth=1)
        model = build_unet(cfg, seed=0)
        # conv blocks 1->1, 1->1 | 1->2, 2->2 | up 2->1 | concat 2->1, 1->1 | head 1->2
        expected = (9 + 1) + (9 + 1) + (18 + 2) + (36 + 2) + (8 + 1) + (18 + 1) + (9 + 1) + (2 + 2)
        assert model.parameter_count() == expected

    def test_lfam_projection_names_present(self):
        model = build_unet(small_cfg("lfam"), seed=0)
        assert "dec0.fuse.query.weight" in model.params
        assert "dec1.fuse.value.bias" in model.params

    def test_concat_doubles_decoder_conv_input(self):
        concat = build_unet(small_cfg("concat"), seed=0)
        fused = build_unet(small_cfg("lfam"), seed=0)
        assert concat.layers["dec0.conv1"].in_channels == 4
        assert fused.layers["dec0.conv1"].in_channels == 2


class TestForward:
    @pytest.mark.parametrize("skip", ["concat", "lfam", "none"])
    def test_logit_shape(self, skip):
        model = build_unet(small_cfg(skip), seed=1)
        x = Tensor(make_rng(2).standard_normal((2, 1, 16, 16)).astype(np.float32))
        assert forward(model, x).shape == (2, 3, 16, 16)

    def test_indivisible_input_rejected(self):
        model = build_unet(small_cfg(), seed=0)
        with pytest.raises(ShapeError):
            forward(model, Tensor(np.zeros((1, 1, 18, 18))))

    def test_wrong_channels_rejected(self):
        model = build_unet(small_cfg(), seed=0)
        with pytest.raises(ShapeError):
            forward(model, Tensor(np.zeros((1, 2, 16, 16))))

    def test_zero_parameters_give_zero_logits(self):
        model = build_unet(small_cfg("lfam"), seed=0)
        for t in model.params.values():
            t.data[...] = 0.0
        x = Tensor(make_rng(3).standard_normal((1, 1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(forward(model, x).data, 0.0)

    @pytest.mark.parametrize("norm", [False, True])
    def test_relu_writes_into_the_conv_or_norm_output(self, norm):
        model = build_unet(small_cfg("lfam", channel_norm=norm), seed=8)
        x = Tensor(make_rng(9).standard_normal((1, 1, 16, 16)).astype(np.float32))
        with Tape() as tape:
            forward(model, x)
        made = {id(node.out): node.op for node in tape.nodes}
        relus = [node for node in tape.nodes if node.op == "relu"]
        assert len(relus) == 10  # 2 per block: 2 encoder, bottleneck, 2 decoder
        for node in relus:
            assert made[id(node.inputs[0])] == ("add" if norm else "conv2d")
            assert np.shares_memory(node.out.data, node.inputs[0].data)

    def test_forward_deterministic(self):
        x = Tensor(make_rng(4).standard_normal((1, 1, 16, 16)).astype(np.float32))
        a = forward(build_unet(small_cfg("lfam"), seed=5), x)
        b = forward(build_unet(small_cfg("lfam"), seed=5), x)
        np.testing.assert_array_equal(a.data, b.data)

    def test_oracle_substitution_matches(self):
        # windows at least as large as every level make fusion globally attentive
        spec = SkipSpec(kind="lfam", lfam=LfamConfig(local_range=16))
        cfg = UNetConfig(in_channels=1, num_classes=3, base_channels=2, depth=2,
                         skips=(spec, spec))
        model = build_unet(cfg, seed=6, dtype=np.float64)
        x = Tensor(make_rng(7).standard_normal((1, 1, 16, 16)), dtype=np.float64)

        def oracle_fusion(enc, dec, params, lfcfg):
            y = global_attention_oracle(enc, dec, params)
            assert lfcfg.residual_source is ResidualSource.ENCODER
            return Tensor(y.data + enc.data)

        got = forward(model, x)
        want = forward(model, x, lfam_fn=oracle_fusion)
        np.testing.assert_allclose(got.data, want.data, atol=1e-5)

    def test_gradients_reach_every_parameter(self):
        model = build_unet(small_cfg("lfam"), seed=8)
        x = Tensor(make_rng(9).standard_normal((1, 1, 8, 8)).astype(np.float32))
        with Tape() as tape:
            loss = sum_all(pow_const(forward(model, x), 2.0))
        backward(tape, loss)
        for name, t in model.params.items():
            assert t.grad is not None, f"{name} got no gradient"
            assert np.isfinite(t.grad).all(), f"{name} gradient not finite"

    def test_scaled_logits_stay_float32(self):
        scaled = SkipSpec(kind="lfam", lfam=LfamConfig(local_range=4, scale_logits=True))
        model = build_unet(UNetConfig(num_classes=3, base_channels=2, depth=2,
                                      skips=(scaled, scaled)), seed=8)
        x = Tensor(make_rng(9).standard_normal((1, 1, 8, 8)).astype(np.float32))
        with Tape() as tape:
            logits = forward(model, x)
            loss = sum_all(pow_const(logits, 2.0))
        backward(tape, loss)
        assert logits.dtype == np.float32
        for name, t in model.params.items():
            assert t.grad.dtype == np.float32, f"{name} gradient is {t.grad.dtype}"

    def test_channel_norm_variant_runs(self):
        model = build_unet(small_cfg("lfam", channel_norm=True), seed=10)
        x = Tensor(make_rng(11).standard_normal((1, 1, 8, 8)).astype(np.float32))
        out = forward(model, x)
        assert out.shape == (1, 3, 8, 8)
        assert np.isfinite(out.data).all()

    def test_end_to_end_gradient(self):
        cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=2, depth=2,
                         skips=(LFAM4, LFAM4))
        model = build_unet(cfg, seed=12, dtype=np.float64)
        x = make_rng(13).standard_normal((1, 1, 8, 8))

        def f(t):
            return sum_all(pow_const(forward(model, t), 2.0))

        assert grad_check(f, Tensor(x, dtype=np.float64)) < 1e-3


class TestFlops:
    def test_single_conv_instantiation(self):
        from lfam.ops import he_conv
        p = he_conv(2, 3, 1, make_rng(0))
        assert 2 * p.out_channels * p.in_channels * 1 * 1 * 16 == 192

    def test_depth1_hand_walk(self):
        cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=2, depth=1)
        model = build_unet(cfg, seed=0)
        flops, params = count_flops_and_params(model, 4)
        expected = sum([
            2 * 2 * 1 * 9 * 16,   # enc0.conv1
            2 * 2 * 2 * 9 * 16,   # enc0.conv2
            2 * 4 * 2 * 9 * 4,    # bottleneck.conv1 at 2x2
            2 * 4 * 4 * 9 * 4,    # bottleneck.conv2
            2 * 2 * 4 * 4 * 4,    # dec0.up from 2x2
            2 * 2 * 4 * 9 * 16,   # dec0.conv1 (concat input)
            2 * 2 * 2 * 9 * 16,   # dec0.conv2
            2 * 2 * 2 * 1 * 16,   # head
        ])
        assert flops == expected
        assert params == model.parameter_count()

    def test_lfam_adds_projection_and_window_terms(self):
        from lfam.costmodel import attention_flops_local, network_cost_report
        base = build_unet(small_cfg("none"), seed=0)
        fused = build_unet(small_cfg("lfam"), seed=0)
        f_base, _ = count_flops_and_params(base, 8)
        f_fused, _ = count_flops_and_params(fused, 8)
        projections = windows = 0
        for i, side in ((0, 8), (1, 4)):
            width = 2 << i
            projections += 3 * 2 * width * width * side * side
            windows += attention_flops_local(side, side, width, 4)
        assert f_fused - f_base == projections + windows
        assert windows == network_cost_report(fused.config, 8).total_local

    def test_param_example_3x3(self):
        from lfam.ops import he_conv
        p = he_conv(2, 4, 3, make_rng(0))
        assert p.weight.size + p.bias.size == 76


class TestLoadArrays:
    def test_forward_reproduces_loaded_parameters(self):
        source = build_unet(small_cfg("lfam"), seed=30)
        target = build_unet(small_cfg("lfam"), seed=31)
        x = Tensor(make_rng(32).standard_normal((2, 1, 8, 8)).astype(np.float32))
        want = forward(source, x).data
        assert not np.array_equal(forward(target, x).data, want)
        target.load_arrays({name: t.data.copy() for name, t in source.params.items()})
        np.testing.assert_array_equal(forward(target, x).data, want)

    def test_mismatch_rejected_and_model_untouched(self):
        model = build_unet(small_cfg(), seed=33)
        before = {name: t.data.copy() for name, t in model.params.items()}
        arrays = {name: np.zeros_like(a) for name, a in before.items()}
        wrong_shape = dict(arrays, **{"head.bias": np.zeros(3, dtype=np.float32)})
        with pytest.raises(ShapeError):
            model.load_arrays(wrong_shape)
        missing = dict(arrays)
        del missing["head.bias"]
        with pytest.raises(ContractError):
            model.load_arrays(missing)
        with pytest.raises(ContractError):
            model.load_arrays(dict(arrays, extra=np.zeros(1)))
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[name])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = small_cfg("lfam")
        model = build_unet(cfg, seed=20)
        x = Tensor(make_rng(21).standard_normal((1, 1, 8, 8)).astype(np.float32))
        before = forward(model, x).data.copy()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        restored = load_checkpoint(path, cfg)
        for name in model.params:
            np.testing.assert_array_equal(restored.params[name].data, model.params[name].data)
        np.testing.assert_array_equal(forward(restored, x).data, before)

    def test_default_run_config_fingerprint_is_frozen(self):
        # checkpoints written by earlier versions must keep loading
        from lfam.cli import RunConfig
        assert config_fingerprint(RunConfig().unet_config()) == (
            "805382e0ac577d7d379812c4db53359bfb53788e090588330bf352340c9a4fd5")

    def test_wrong_architecture_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_unet(small_cfg("lfam"), seed=0))
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, small_cfg("concat"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt", small_cfg())

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_unet(small_cfg(), seed=0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, small_cfg())

    def test_file_shorter_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"LFCK\x01")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, small_cfg())

    def test_record_whose_element_count_overflows_int64_rejected(self, tmp_path):
        # 65536**4 is 2**64, which np.prod wraps to 0 elements
        path = tmp_path / "model.ckpt"
        model = build_unet(small_cfg(), seed=0)
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        dims_at = 44 + 2 + len(next(iter(model.params)).encode()) + 4
        data[dims_at:dims_at + 16] = struct.pack("<4I", *(65536,) * 4)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, small_cfg())

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, small_cfg())
