"""Network assembly, forward shapes, the split forward and training step, flop counting, checkpoints."""

import os
import struct
import sys
import threading
from multiprocessing.connection import Pipe

import numpy as np
import pytest

from lfam import attention, ops, unet
from lfam.attention import LfamConfig, ResidualSource, global_attention_oracle, lfam_forward
from lfam.errors import (CheckpointError, ConfigError, ContractError, NumericalError, ShapeError,
                         ShardWorkerError)
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward, grad_check, leaf_grads, pow_const, sum_all
from lfam.ops import he_conv
from lfam.train import FocalIouLoss, focal_iou_loss, init_optimizer, optimizer_step
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

    @pytest.mark.parametrize("depth, proj", [(1, 4), (2, 8)], ids=["level0", "level1"])
    @pytest.mark.parametrize("residual", [ResidualSource.ENCODER, ResidualSource.DECODER])
    def test_residual_skip_needs_its_level_width(self, depth, proj, residual):
        # base 8: level 0 is 8 wide and level 1 16, so proj 8 fits level 0 only
        spec = SkipSpec(kind="lfam", lfam=LfamConfig(residual_source=residual, proj_channels=proj))
        with pytest.raises(ConfigError, match=f"level {depth - 1}'s lfam skip"):
            UNetConfig(base_channels=8, depth=depth, skips=(spec,) * depth)

    @pytest.mark.parametrize("residual, proj", [(ResidualSource.ENCODER, 8),
                                                (ResidualSource.ENCODER, None),
                                                (ResidualSource.NONE, 4)])
    def test_projection_width_a_level_can_take(self, residual, proj):
        spec = SkipSpec(kind="lfam", lfam=LfamConfig(residual_source=residual, proj_channels=proj))
        UNetConfig(base_channels=8, depth=1, skips=(spec,))

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
        # every .grad is a view from build_unet on, so ask the tape what it reaches
        reached = {id(t) for t, _ in leaf_grads(tape, loss, np.ones_like(loss.data))}
        for name, t in model.params.items():
            assert id(t) in reached, f"{name} got no gradient"
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


def bench_cfg(m=7, skip="lfam", **kw):
    """perfbench's network: base 8, depth 2, 4 classes, encoder residual."""
    lf = LfamConfig(local_range=m, residual_source=ResidualSource.ENCODER)
    spec = SkipSpec(kind="lfam", lfam=lf) if skip == "lfam" else SkipSpec(kind=skip)
    return UNetConfig(in_channels=1, num_classes=4, base_channels=8, depth=2,
                      skips=(spec, spec), **kw)


class ThreadWorker(unet._Worker):
    """The shard worker's serve loop on a thread of this process, so that
    monkeypatches reach the second shard; records each request's kind."""

    def __init__(self):
        caller_end, self.worker_end = Pipe()
        super().__init__(caller_end, pid=None)
        self.sent = []
        self.thread = threading.Thread(target=unet._serve, args=(self.worker_end, os.getppid()),
                                       daemon=True)
        self.thread.start()

    def _send(self, request):
        self.sent.append(request[0])
        super()._send(request)

    def _check(self, block):
        if block or self.ended:
            self.conn.close()
            raise ShardWorkerError("the serving thread closed its pipe")

    def stop(self):
        self.conn.close()
        self.ended = "was stopped by the test"


@pytest.fixture
def worker(monkeypatch):
    """A thread-served shard worker on a host that reports two cores."""
    w = ThreadWorker()
    monkeypatch.setattr(unet, "_shard_worker", lambda: w)
    monkeypatch.setattr(unet, "_cores", lambda: 2)
    yield w
    w.stop()
    w.thread.join(timeout=10)
    w.worker_end.close()
    assert not w.thread.is_alive()


@pytest.fixture
def no_worker(monkeypatch):
    def refuse():
        raise AssertionError("the shard worker was used")
    monkeypatch.setattr(unet, "_shard_worker", refuse)
    monkeypatch.setattr(unet, "_cores", lambda: 2)


def images(n, side, seed=0, dtype=np.float32):
    return Tensor(make_rng(seed).random((n, 1, side, side)).astype(dtype), dtype=dtype)


class TestShardedForward:
    @pytest.mark.parametrize("n", [4, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_logits_equal_the_whole_batch_bitwise(self, worker, n, dtype):
        model = build_unet(bench_cfg(), seed=40, dtype=dtype)
        x = images(n, 128, seed=41, dtype=dtype)
        got = forward(model, x).data
        assert worker.sent == ["forward"] and got.dtype == dtype
        np.testing.assert_array_equal(got, unet._forward_layers(model, x, lfam_forward).data)

    @pytest.mark.parametrize("cfg", [bench_cfg(channel_norm=True), bench_cfg(skip="concat"),
                                     bench_cfg(skip="none"), bench_cfg(m=5)],
                             ids=["channel_norm", "concat", "none", "padded_m5"])
    def test_split_logits_equal_across_configs(self, worker, cfg):
        model = build_unet(cfg, seed=42)
        x = images(3, 128, seed=43)
        got = forward(model, x).data
        assert worker.sent == ["forward"]
        np.testing.assert_array_equal(got, unet._forward_layers(model, x, lfam_forward).data)

    def test_one_core_runs_both_halves_in_the_caller(self, no_worker, monkeypatch):
        monkeypatch.setattr(unet, "_cores", lambda: 1)
        model = build_unet(bench_cfg(), seed=44)
        x = images(3, 128, seed=45)
        np.testing.assert_array_equal(forward(model, x).data,
                                      unet._forward_layers(model, x, lfam_forward).data)

    def test_core_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        assert unet._cores() == (os.cpu_count() or 1)

    def test_taped_forward_below_the_floor_stays_serial(self, no_worker):
        # desk32's network and batch (m=4, unpadded, 8 x 32x32): 4096-pixel halves
        model = build_unet(bench_cfg(m=4), seed=46)
        with Tape() as tape:
            forward(model, images(8, 32, seed=47))
        assert len(tape.nodes) == 39

    def test_substituted_fusion_runs_in_the_calling_thread(self, no_worker):
        callers = []

        def recording(enc, dec, params, cfg):
            callers.append(threading.get_ident())
            return lfam_forward(enc, dec, params, cfg)

        model = build_unet(bench_cfg(), seed=48)
        x = images(4, 128, seed=49)
        got = forward(model, x, lfam_fn=recording).data
        assert callers == [threading.get_ident()] * 2  # one call per fusion level
        np.testing.assert_array_equal(got, unet._forward_layers(model, x, lfam_forward).data)

    @pytest.mark.parametrize("n, side", [(8, 32), (2, 64), (1, 128), (4, 16)])
    def test_below_the_pixel_floor_no_worker_is_used(self, no_worker, n, side):
        assert (n + 1) // 2 * side * side < unet._SHARD_MIN_PIXELS or n == 1
        forward(build_unet(bench_cfg(m=4), seed=50), images(n, side, seed=51))

    @pytest.mark.parametrize("n, side", [(4, 64), (6, 64)])
    def test_a_batch_at_or_above_the_pixel_floor_is_split(self, worker, n, side):
        assert (n + 1) // 2 * side * side >= unet._SHARD_MIN_PIXELS
        forward(build_unet(bench_cfg(m=4), seed=52), images(n, side, seed=53))
        assert worker.sent == ["forward"]

    @pytest.mark.parametrize("bad", [0, 3], ids=["first_half", "second_half"])
    def test_nonfinite_image_raises_and_the_worker_stays_in_step(self, worker, bad):
        model = build_unet(bench_cfg(), seed=54)
        x = images(4, 128, seed=55)
        poisoned = x.data.copy()
        poisoned[bad, 0, 5, 7] = np.nan
        with pytest.raises(NumericalError):
            forward(model, Tensor(poisoned))
        np.testing.assert_array_equal(forward(model, x).data,
                                      unet._forward_layers(model, x, lfam_forward).data)
        assert worker.sent == ["forward", "forward"]

    def test_when_both_halves_fail_the_first_half_error_wins(self, worker, monkeypatch):
        def failing(model, x, lfam_fn):
            raise ContractError(f"half of {x.shape[0]}")

        real = unet._forward_layers
        model, x = build_unet(bench_cfg(), seed=56), images(3, 128, seed=57)
        monkeypatch.setattr(unet, "_forward_layers", failing)
        with pytest.raises(ContractError, match="half of 2"):
            forward(model, x)
        monkeypatch.setattr(unet, "_forward_layers", real)
        # the worker's error was read, so the pipe is in step for the next split
        np.testing.assert_array_equal(forward(model, x).data, real(model, x, lfam_forward).data)
        assert worker.sent == ["forward", "forward"]

    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        # more caller threads than cores, switching often, through the forked worker
        monkeypatch.setattr(unet, "_cores", lambda: 2)
        model = build_unet(small_cfg("lfam"), seed=58)
        xs = [images(2, 128, seed=59 + i) for i in range(4)]
        want = [unet._forward_layers(model, x, lfam_forward).data for x in xs]
        got = [None] * len(xs)

        def call(i):
            got[i] = forward(model, xs[i]).data

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


# The window-attention key bias has an exact gradient of zero (a softmax is
# shift-invariant along its keys), so both steps give it rounding noise only.
KEY_BIASES = ("dec0.fuse.key.bias", "dec1.fuse.key.bias")


def taped_step(model, x, target, fn=None):
    """Forward (or fn), focal-IoU loss and backward; returns (tape, loss, logits, grads)."""
    model.zero_grads()
    with Tape() as tape:
        logits = fn(x) if fn else forward(model, x)
        loss = focal_iou_loss(logits, target, FocalIouLoss())
    backward(tape, loss)
    return tape, loss, logits, {k: p.grad.copy() for k, p in model.params.items()}


def test_every_desk32_conv_sum_runs_as_one_block(monkeypatch):
    # desk32's serial training step (m=4, 8 x 32x32): each conv's tap sum,
    # forward and input gradient, fits one _correlate column block
    seen = []
    correlate = ops._correlate

    def record(wt, grid, offsets, span):
        seen.append((wt.shape[2], wt.shape[1], grid.itemsize, span))
        return correlate(wt, grid, offsets, span)

    monkeypatch.setattr(ops, "_correlate", record)
    model = build_unet(bench_cfg(m=4), seed=48)
    taped_step(model, images(8, 32, seed=49), make_rng(50).integers(0, 4, size=(8, 32, 32)))
    assert len(seen) == 21 and max(span for *_, span in seen) == 8 * 34 * 34
    for ic, oc, itemsize, span in seen:
        assert ic == 1 or span <= ops._block_columns(ic, oc, itemsize), (ic, oc, span)


def serial_step(model, x, target):
    return taped_step(model, x, target, lambda t: unet._forward_layers(model, t, lfam_forward))


def assert_close_to_serial(got, want, dtype):
    """Each gradient within 1e-6 (float32) or 1e-12 (float64) of its own largest entry.

    A key bias is measured against the largest entry of all the gradients.
    """
    tol = 1e-6 if dtype == np.float32 else 1e-12
    top = max(float(np.abs(g).max()) for g in want.values())
    for name, g in want.items():
        scale = top if name in KEY_BIASES else float(np.abs(g).max())
        assert float(np.abs(got[name] - g).max()) <= tol * scale, name


def wide16_batch(n, seed, dtype=np.float32):
    """wide16's network (m=16) and an n-image 64x64 batch with labels."""
    model = build_unet(bench_cfg(m=16), seed=seed, dtype=dtype)
    target = make_rng(seed + 1).integers(0, 4, size=(n, 64, 64))
    return model, images(n, 64, seed=seed + 2, dtype=dtype), target


class TestShardedStep:
    @pytest.mark.parametrize("n", [4, 3], ids=["wide16", "odd"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_step_matches_the_serial_step(self, worker, n, dtype):
        model, x, target = wide16_batch(n, 70, dtype)
        _, loss0, logits0, want = serial_step(model, x, target)
        tape, loss, logits, got = taped_step(model, x, target)
        assert worker.sent == ["forward", "backward"]
        assert len(tape.nodes) == 1 + 1  # unet_shards, then the focal-IoU loss
        assert tape.nodes[0].op == "unet_shards" and logits.dtype == dtype
        np.testing.assert_array_equal(loss.data, loss0.data)
        np.testing.assert_array_equal(logits.data, logits0.data)
        assert_close_to_serial(got, want, dtype)

    def test_only_a_taped_split_opens_sub_tapes(self, worker, monkeypatch):
        # a no-tape forward (evaluation) must hold no sub-tape of either shard
        opened = []

        class CountingTape(Tape):
            def __init__(self):
                super().__init__()
                opened.append(self)

        monkeypatch.setattr(unet, "Tape", CountingTape)
        model, x, _ = wide16_batch(4, 78)
        forward(model, x)
        assert opened == [] and worker.sent == ["forward"]
        with Tape() as tape:
            forward(model, x)
        assert len(opened) == 2 and worker.sent == ["forward", "forward"]
        assert [node.op for node in tape.nodes] == ["unet_shards"]

    def test_many_attention_blocks_give_the_one_block_step_bitwise(self, worker, monkeypatch):
        # one window per block (32 blocks per shard at level 0) against one
        # block per fusion call
        model, x, target = wide16_batch(4, 77)
        steps = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(attention, "_BLOCK_BYTES", block_bytes)
            steps.append(taped_step(model, x, target))
        (_, loss_a, logits_a, grads_a), (_, loss_b, logits_b, grads_b) = steps
        np.testing.assert_array_equal(loss_a.data, loss_b.data)
        np.testing.assert_array_equal(logits_a.data, logits_b.data)
        for name in grads_b:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])

    def test_second_backward_doubles_every_gradient(self, worker):
        model, x, target = wide16_batch(4, 71)
        tape, loss, _, once = taped_step(model, x, target)
        backward(tape, loss)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.grad, 2 * once[name])

    def test_one_core_gives_the_two_core_gradients_bitwise(self, worker, monkeypatch):
        model, x, target = wide16_batch(3, 72)
        _, loss2, _, two = taped_step(model, x, target)
        monkeypatch.setattr(unet, "_cores", lambda: 1)
        _, loss1, _, one = taped_step(model, x, target)
        assert worker.sent == ["forward", "backward"]  # only the two-core step used the worker
        np.testing.assert_array_equal(loss1.data, loss2.data)
        for name in two:
            np.testing.assert_array_equal(one[name], two[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gets_the_serial_input_gradient(self, worker, dtype):
        model, x, target = wide16_batch(3, 73, dtype)
        x.requires_grad = True
        serial_step(model, x, target)
        want, x.grad = x.grad, None
        tape, _, _, _ = taped_step(model, x, target)
        assert tape.nodes[0].inputs[-1] is x
        assert_close_to_serial({"x": x.grad}, {"x": want}, dtype)

    def test_substituted_fusion_records_the_serial_step(self, no_worker):
        model, x, target = wide16_batch(4, 74)
        tape, _, _, _ = taped_step(model, x, target, lambda t: forward(model, t, lfam_forward))
        assert len(tape.nodes) == 40  # 39 forward, 1 loss

    def test_each_shard_sub_tape_records_the_serial_forward(self, worker, monkeypatch):
        made = []

        class RecordedTape(Tape):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(unet, "Tape", RecordedTape)
        model, x, target = wide16_batch(4, 78)
        taped_step(model, x, target)
        assert [len(t.nodes) for t in made] == [39, 39]

    @pytest.mark.parametrize("bad", [0, 3], ids=["first_half", "second_half"])
    def test_nonfinite_image_raises_and_records_nothing(self, worker, bad):
        model, x, target = wide16_batch(4, 75)
        poisoned = x.data.copy()
        poisoned[bad, 0, 5, 7] = np.nan
        with Tape() as tape:
            with pytest.raises(NumericalError):
                forward(model, Tensor(poisoned))
        assert tape.nodes == []
        _, loss0, _, want = serial_step(model, x, target)
        _, loss, _, got = taped_step(model, x, target)
        np.testing.assert_array_equal(loss.data, loss0.data)
        assert_close_to_serial(got, want, np.float32)

    @pytest.mark.parametrize("failing", [2, 1], ids=["first_shard", "second_shard"])
    def test_failing_shard_vjp_propagates_out_of_backward(self, worker, monkeypatch, failing):
        model, x, target = wide16_batch(3, 76)  # shards of 2 and 1 images
        real = unet.leaf_grads

        def leaf_grads(tape, out, seed):
            if out.shape[0] == failing:
                raise ContractError(f"shard of {failing} failed")
            return real(tape, out, seed)

        monkeypatch.setattr(unet, "leaf_grads", leaf_grads)
        with pytest.raises(ContractError, match=f"shard of {failing} failed"):
            taped_step(model, x, target)
        assert worker.sent == ["forward", "backward"]
        assert not model.grad.any()  # zero_grads' zeros, with nothing added
        monkeypatch.setattr(unet, "leaf_grads", real)
        _, _, _, want = serial_step(model, x, target)
        _, _, _, got = taped_step(model, x, target)
        assert_close_to_serial(got, want, np.float32)


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


def assert_views(model):
    """Each parameter's .data and .grad are its own slice of model.data and model.grad."""
    offset = 0
    for t in model.params.values():
        for buf, view in ((model.data, t.data), (model.grad, t.grad)):
            assert view.base is buf and view.shape == t.shape
            assert view.ctypes.data == buf.ctypes.data + offset * buf.itemsize
        offset += t.size
    assert offset == model.data.size == model.grad.size


class TestFlatBuffers:
    def test_parameter_names_and_order_are_pinned(self):
        # checkpoints store parameters by these names, in this order
        cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=2, depth=2,
                         channel_norm=True, skips=(LFAM4, SkipSpec(kind="concat")))
        blocks = {prefix: [f"{prefix}.{layer}" for layer in
                           ("conv1.weight conv1.bias norm1.scale norm1.shift "
                            "conv2.weight conv2.bias norm2.scale norm2.shift").split()]
                  for prefix in ("enc0", "enc1", "bottleneck", "dec1", "dec0")}
        assert list(build_unet(cfg, seed=0).params) == [
            *blocks["enc0"], *blocks["enc1"], *blocks["bottleneck"],
            "dec1.up.weight", "dec1.up.bias", *blocks["dec1"],
            "dec0.up.weight", "dec0.up.bias",
            "dec0.fuse.query.weight", "dec0.fuse.query.bias",
            "dec0.fuse.key.weight", "dec0.fuse.key.bias",
            "dec0.fuse.value.weight", "dec0.fuse.value.bias", *blocks["dec0"],
            "head.weight", "head.bias"]

    def test_parameters_are_views_after_training_steps(self):
        model = build_unet(small_cfg("lfam", channel_norm=True), seed=40)
        assert_views(model)
        rng = make_rng(41)
        opt = init_optimizer("adam")
        for _ in range(3):
            x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
            _, _, _, grads = taped_step(model, x, rng.integers(0, 3, size=(2, 8, 8)))
            assert model.grad.any()
            optimizer_step(opt, model.params, grads, 1e-3)
            assert_views(model)
        model.zero_grads()
        assert not model.grad.any()
        assert_views(model)

    def test_zero_grad_keeps_the_parameter_a_view(self):
        # zero_grad once set .grad to None, and the next backward gave the
        # parameter a fresh array that model.grad never saw
        model = build_unet(small_cfg("lfam"), seed=45)
        head = model.params["head.weight"]
        x = Tensor(make_rng(46).standard_normal((2, 1, 8, 8)).astype(np.float32))
        target = make_rng(47).integers(0, 3, size=(2, 8, 8))
        taped_step(model, x, target)
        head.zero_grad()
        assert not head.grad.any()
        assert_views(model)
        with Tape() as tape:
            loss = focal_iou_loss(forward(model, x), target, FocalIouLoss())
        backward(tape, loss)
        assert_views(model)
        assert head.grad.any() and np.shares_memory(head.grad, model.grad)

    def test_parameters_are_views_after_load_arrays(self):
        source = build_unet(small_cfg("lfam"), seed=42)
        model = build_unet(small_cfg("lfam"), seed=43)
        model.load_arrays({name: t.data.copy() for name, t in source.params.items()})
        np.testing.assert_array_equal(model.data, source.data)
        assert_views(model)

    def test_parameters_are_views_after_a_checkpoint_round_trip(self, tmp_path):
        model = build_unet(small_cfg("lfam"), seed=44)
        save_checkpoint(tmp_path / "model.ckpt", model)
        restored = load_checkpoint(tmp_path / "model.ckpt", model.config)
        np.testing.assert_array_equal(restored.data, model.data)
        assert_views(restored)

    def test_mixed_parameter_dtypes_rejected(self):
        layers = {"a": he_conv(1, 1, 1, make_rng(0)),
                  "b": he_conv(1, 1, 1, make_rng(0), dtype=np.float64)}
        params = {f"{k}.{f}": getattr(p, f) for k, p in layers.items() for f in ("weight", "bias")}
        with pytest.raises(ContractError, match="one dtype"):
            ModelState(config=small_cfg(), layers=layers, params=params)


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

    @pytest.mark.parametrize("name, value", [("head.weight", np.nan),
                                             ("enc0.conv1.weight", -np.inf)])
    def test_non_finite_parameter_rejected_by_name(self, tmp_path, name, value):
        # a NaN in head.weight used to evaluate to a plausible mean IoU
        path = tmp_path / "model.ckpt"
        model = build_unet(small_cfg(), seed=0)
        model.params[name].data[0, 0, 0, 0] = value
        save_checkpoint(path, model)
        with pytest.raises(CheckpointError, match=f"non-finite value in parameter '{name}'"):
            load_checkpoint(path, small_cfg())

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, small_cfg())
