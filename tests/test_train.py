"""Losses against hand-derived values, optimizer step algebra, schedule
endpoints, IoU counting, and training-loop determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfam.train
import lfam.unet
from lfam.attention import LfamConfig, ResidualSource
from lfam.data import LabeledImage, gen_synthetic
from lfam.errors import ConfigError, ContractError, LabelError, NumericalError
from lfam.tensor import Tape, Tensor, backward, grad_check
from lfam.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    EpochRecord,
    FocalIouLoss,
    IouAccumulator,
    ScheduleState,
    SgdState,
    TrainConfig,
    WeightedCeLoss,
    compute_loss,
    cosine_lr,
    evaluate,
    focal_iou_loss,
    format_epoch_line,
    init_optimizer,
    mean_iou,
    optimizer_step,
    predict_labels,
    train_loop,
    weighted_ce,
)
from lfam.unet import SkipSpec, UNetConfig, build_unet, forward, load_checkpoint


def softmax_np(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


FOCAL_ONLY = dict(iou_weight=0.0)
IOU_ONLY = dict(focal_weight=0.0)


class TestFocalTerm:
    def test_uniform_binary_pixel_gives_ln_two(self):
        # gamma=0 reduces to plain CE; p_t = 0.5 so the loss is ln 2
        logits = Tensor(np.zeros((1, 2, 1, 1)))
        loss = focal_iou_loss(logits, np.zeros((1, 1, 1), dtype=np.int64),
                              FocalIouLoss(gamma=0.0, **FOCAL_ONLY))
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)

    def test_confident_pixel_is_damped_by_gamma_two(self):
        # p_t = 0.9: (1 - 0.9)^2 * (-ln 0.9) = 0.01 * 0.10536..
        logits = Tensor(np.array([np.log(9.0), 0.0]).reshape(1, 2, 1, 1))
        loss = focal_iou_loss(logits, np.zeros((1, 1, 1), dtype=np.int64),
                              FocalIouLoss(gamma=2.0, **FOCAL_ONLY))
        np.testing.assert_allclose(loss.item(), 0.01 * -np.log(0.9), rtol=1e-9)

    def test_gamma_zero_equals_unit_weighted_ce(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(2, 3, 4, 4)))
        target = rng.integers(0, 3, size=(2, 4, 4))
        focal = focal_iou_loss(logits, target, FocalIouLoss(gamma=0.0, **FOCAL_ONLY))
        ce = weighted_ce(logits, target, (1.0, 1.0, 1.0))
        np.testing.assert_allclose(focal.item(), ce.item(), rtol=1e-12)

    def test_alpha_scales_linearly(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(1, 3, 4, 4)))
        target = rng.integers(0, 3, size=(1, 4, 4))
        one = focal_iou_loss(logits, target, FocalIouLoss(alpha=1.0, **FOCAL_ONLY))
        three = focal_iou_loss(logits, target, FocalIouLoss(alpha=3.0, **FOCAL_ONLY))
        np.testing.assert_allclose(three.item(), 3.0 * one.item(), rtol=1e-12)


@pytest.mark.parametrize("name", ["gamma", "alpha", "focal_weight", "iou_weight"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_focal_iou_settings_must_be_non_negative_and_finite(name, bad):
    # alpha=inf made the loss inf, and gamma=nan slipped past a plain `< 0`
    with pytest.raises(ConfigError, match=f"{name} must be >= 0 and finite"):
        FocalIouLoss(**{name: bad})


class TestSoftIouTerm:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(2, 3, 4, 4)))
        target = rng.integers(0, 3, size=(2, 4, 4))
        loss = focal_iou_loss(logits, target, FocalIouLoss(**IOU_ONLY))

        p = softmax_np(logits.data)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, target[:, None], 1.0, axis=1)
        inter = (p * onehot).sum(axis=(0, 2, 3))
        union = (p + onehot - p * onehot).sum(axis=(0, 2, 3))
        present = onehot.sum(axis=(0, 2, 3)) > 0
        expected = (1.0 - inter[present] / union[present]).mean()
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_absent_class_contributes_nothing(self):
        # identical prediction quality, with and without a never-used class
        rng = np.random.default_rng(6)
        base = rng.normal(size=(1, 2, 4, 4))
        target = rng.integers(0, 2, size=(1, 4, 4))
        expanded = np.concatenate([base, np.full((1, 1, 4, 4), -50.0)], axis=1)
        two = focal_iou_loss(Tensor(base), target, FocalIouLoss(**IOU_ONLY))
        three = focal_iou_loss(Tensor(expanded), target, FocalIouLoss(**IOU_ONLY))
        np.testing.assert_allclose(three.item(), two.item(), atol=1e-12)

    def test_absent_class_with_vanished_probability_stays_exact(self):
        # exp(-1000) is 0, so the absent class's union is 0 before its count bump
        rng = np.random.default_rng(6)
        base = rng.normal(size=(1, 2, 4, 4))
        target = rng.integers(0, 2, size=(1, 4, 4))
        expanded = Tensor(np.concatenate([base, np.full((1, 1, 4, 4), -1000.0)], axis=1),
                          requires_grad=True)
        two = focal_iou_loss(Tensor(base), target, FocalIouLoss(**IOU_ONLY))
        with Tape() as tape:
            three = focal_iou_loss(expanded, target, FocalIouLoss(**IOU_ONLY))
        backward(tape, three)
        np.testing.assert_allclose(three.item(), two.item(), atol=1e-12)
        assert np.isfinite(expanded.grad).all()

    def test_perfect_prediction_is_near_zero(self):
        target = np.array([[[0, 1], [1, 0]]], dtype=np.int64)
        logits = np.full((1, 3, 2, 2), -40.0)
        np.put_along_axis(logits, target[:, None], 40.0, axis=1)
        loss = focal_iou_loss(Tensor(logits), target, FocalIouLoss())
        assert loss.item() < 1e-6

    def test_per_image_matches_joint_for_single_image(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(1, 3, 4, 4)))
        target = rng.integers(0, 3, size=(1, 4, 4))
        joint = focal_iou_loss(logits, target, FocalIouLoss(**IOU_ONLY))
        split = focal_iou_loss(logits, target, FocalIouLoss(per_image=True, **IOU_ONLY))
        np.testing.assert_allclose(split.item(), joint.item(), rtol=1e-12)

    def test_per_image_differs_when_class_balance_differs(self):
        logits = Tensor(np.random.default_rng(8).normal(size=(2, 2, 4, 4)))
        target = np.zeros((2, 4, 4), dtype=np.int64)
        target[1, :2] = 1  # class 1 exists only in the second image
        joint = focal_iou_loss(logits, target, FocalIouLoss(**IOU_ONLY))
        split = focal_iou_loss(logits, target, FocalIouLoss(per_image=True, **IOU_ONLY))
        assert abs(joint.item() - split.item()) > 1e-6


class TestWeightedCe:
    def test_two_pixel_weighted_mean(self):
        z = np.array([[1.2, -0.3], [0.4, 0.9]]).T.reshape(1, 2, 1, 2)
        target = np.array([[[0, 1]]], dtype=np.int64)
        p = softmax_np(z)
        a, b = -np.log(p[0, 0, 0, 0]), -np.log(p[0, 1, 0, 1])
        loss = weighted_ce(Tensor(z), target, (1.0, 3.0))
        np.testing.assert_allclose(loss.item(), (a + 3 * b) / 4.0, rtol=1e-12)

    def test_scaling_all_weights_changes_nothing(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(2, 4, 3, 3)))
        target = rng.integers(0, 4, size=(2, 3, 3))
        w = (0.5, 1.0, 2.0, 4.0)
        base = weighted_ce(logits, target, w)
        scaled = weighted_ce(logits, target, tuple(7.0 * x for x in w))
        np.testing.assert_allclose(scaled.item(), base.item(), rtol=1e-12)

    def test_rejects_non_positive_weight(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        target = np.zeros((1, 2, 2), dtype=np.int64)
        with pytest.raises(ConfigError):
            weighted_ce(logits, target, (1.0, 0.0))
        with pytest.raises(ConfigError):
            WeightedCeLoss(class_weights=(1.0, -2.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_weight(self, bad):
        # an infinite weight made the loss NaN
        with pytest.raises(ConfigError, match="finite"):
            weighted_ce(Tensor(np.zeros((1, 2, 2, 2))), np.zeros((1, 2, 2), dtype=np.int64),
                        (bad, 1.0))
        with pytest.raises(ConfigError, match="finite"):
            WeightedCeLoss(class_weights=(bad, 1.0))

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ConfigError):
            weighted_ce(Tensor(np.zeros((1, 3, 2, 2))),
                        np.zeros((1, 2, 2), dtype=np.int64), (1.0, 2.0))


class TestTargetValidation:
    def test_out_of_range_label_rejected(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        bad = np.full((1, 2, 2), 2, dtype=np.int64)
        with pytest.raises(LabelError):
            focal_iou_loss(logits, bad, FocalIouLoss())
        with pytest.raises(LabelError):
            weighted_ce(logits, bad, (1.0, 1.0))

    def test_float_target_rejected(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(LabelError):
            focal_iou_loss(logits, np.zeros((1, 2, 2)), FocalIouLoss())

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            FocalIouLoss(gamma=-1.0)


class TestLossGradients:
    def test_focal_iou_gradient(self):
        rng = np.random.default_rng(11)
        target = rng.integers(0, 3, size=(1, 4, 4))
        cfg = FocalIouLoss(gamma=2.0)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        err = grad_check(lambda t: focal_iou_loss(t, target, cfg), x)
        assert err < 1e-4

    def test_per_image_iou_gradient(self):
        rng = np.random.default_rng(12)
        target = rng.integers(0, 3, size=(2, 4, 4))
        cfg = FocalIouLoss(per_image=True, **IOU_ONLY)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        err = grad_check(lambda t: focal_iou_loss(t, target, cfg), x)
        assert err < 1e-4

    def test_weighted_ce_gradient(self):
        rng = np.random.default_rng(13)
        target = rng.integers(0, 3, size=(1, 4, 4))
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        err = grad_check(lambda t: weighted_ce(t, target, (0.5, 1.0, 2.5)), x)
        assert err < 1e-4

    def test_gamma_below_one_on_a_saturated_pixel_has_finite_gradient(self):
        # a logit gap of 30 rounds p_t to exactly 1.0 in float32, where
        # (1 - p_t)**(gamma - 1) is inf and the incoming gradient c * ln 1 is 0
        x = Tensor(np.array([0.0, 30.0], dtype=np.float32).reshape(1, 2, 1, 1),
                   requires_grad=True)
        with Tape() as tape:
            loss = focal_iou_loss(x, np.ones((1, 1, 1), dtype=np.int64), FocalIouLoss(gamma=0.5))
        backward(tape, loss)
        assert np.isfinite(loss.item())
        assert np.isfinite(x.grad).all()


def test_desk_step_records_at_most_eighty_nodes():
    # the 32x32, base 8, depth 2, m=4 training step with lfam skips at both levels
    lf = LfamConfig(local_range=4, residual_source=ResidualSource.ENCODER)
    model = build_unet(UNetConfig(in_channels=1, num_classes=4, base_channels=8, depth=2,
                                  skips=(SkipSpec(kind="lfam", lfam=lf),) * 2), seed=0)
    rng = np.random.default_rng(14)
    x = Tensor(rng.random((1, 1, 32, 32)).astype(np.float32))
    with Tape() as tape:
        focal_iou_loss(forward(model, x), rng.integers(0, 4, size=(1, 32, 32)), FocalIouLoss())
    assert len(tape.nodes) <= 80


def test_focal_iou_loss_records_seventeen_nodes():
    # softmax, p*onehot, p_t, 1 - p_t, pow, log, mul, sum, scale; sum p, inter,
    # sub, add, div, sum, affine; focal + iou
    rng = np.random.default_rng(15)
    logits = Tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
    with Tape() as tape:
        focal_iou_loss(logits, rng.integers(0, 3, size=(2, 8, 8)), FocalIouLoss())
    assert len(tape.nodes) == 17


def test_desk_step_records_fifty_six_nodes():
    # the criterion-7 step: batch 8, 32x32, base 8, depth 2, m=4, encoder residual
    lf = LfamConfig(local_range=4, residual_source=ResidualSource.ENCODER)
    model = build_unet(UNetConfig(num_classes=4, base_channels=8, depth=2,
                                  skips=(SkipSpec(kind="lfam", lfam=lf),) * 2), seed=0)
    rng = np.random.default_rng(16)
    x = Tensor(rng.random((8, 1, 32, 32)).astype(np.float32))
    with Tape() as tape:
        logits = forward(model, x)
        forward_nodes = len(tape.nodes)
        focal_iou_loss(logits, rng.integers(0, 4, size=(8, 32, 32)), FocalIouLoss())
    assert (forward_nodes, len(tape.nodes)) == (39, 56)
    # the window ops hand the core its rows, and take them back, with no view between
    assert "reshape" not in {node.op for node in tape.nodes}


class TestSchedule:
    def test_cosine_endpoints(self):
        np.testing.assert_allclose(cosine_lr(ScheduleState(0.1, 0, 100)), 0.1, atol=1e-12)
        np.testing.assert_allclose(cosine_lr(ScheduleState(0.1, 50, 100)), 0.05, atol=1e-12)
        np.testing.assert_allclose(cosine_lr(ScheduleState(0.1, 100, 100)), 0.0, atol=1e-12)

    def test_constant_kind_ignores_epoch(self):
        for epoch in (0, 3, 7):
            assert cosine_lr(ScheduleState(0.2, epoch, 7, kind="constant")) == 0.2

    @given(max_epoch=st.integers(1, 60), lr=st.floats(1e-5, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_cosine_monotone_and_bounded(self, max_epoch, lr):
        values = [cosine_lr(ScheduleState(lr, e, max_epoch)) for e in range(max_epoch + 1)]
        assert all(0.0 <= v <= lr for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_invalid_states_rejected(self):
        with pytest.raises(ConfigError):
            ScheduleState(0.1, 5, 3)
        with pytest.raises(ConfigError):
            ScheduleState(0.0, 0, 3)
        with pytest.raises(ConfigError):
            ScheduleState(0.1, 0, 3, kind="linear")

    @pytest.mark.parametrize("lr", [math.inf, math.nan])
    def test_non_finite_base_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="positive and finite"):
            ScheduleState(lr, 0, 1)


class TestOptimizers:
    def test_sgd_single_step(self):
        p = {"w": Tensor(np.array(1.0))}
        opt = init_optimizer("sgd", momentum=0.0)
        optimizer_step(opt, p, {"w": np.ones((1, 1, 1, 1))}, lr=0.1)
        np.testing.assert_allclose(p["w"].item(), 0.9, rtol=1e-12)

    def test_sgd_momentum_two_steps(self):
        # v1 = 1, p -> 0.9; v2 = 0.9 + 1 = 1.9, p -> 0.9 - 0.19 = 0.71
        p = {"w": Tensor(np.array(1.0))}
        opt = init_optimizer("sgd", momentum=0.9)
        g = {"w": np.ones((1, 1, 1, 1))}
        optimizer_step(opt, p, g, lr=0.1)
        optimizer_step(opt, p, g, lr=0.1)
        np.testing.assert_allclose(p["w"].item(), 0.71, rtol=1e-12)

    def test_adam_first_step_is_signed_lr(self):
        p = {"w": Tensor(np.array(5.0))}
        opt = init_optimizer("adam")
        optimizer_step(opt, p, {"w": np.full((1, 1, 1, 1), 0.3)}, lr=1e-3)
        np.testing.assert_allclose(p["w"].item(), 5.0 - 1e-3, atol=1e-9)
        assert opt.step == 1

    def test_adam_state_persists_across_steps(self):
        p = {"w": Tensor(np.array(0.0))}
        opt = init_optimizer("adam")
        g = {"w": np.ones((1, 1, 1, 1))}
        optimizer_step(opt, p, g, lr=1e-3)
        optimizer_step(opt, p, g, lr=1e-3)
        assert opt.step == 2
        # two same-sign unit gradients keep the update near -lr each time
        np.testing.assert_allclose(p["w"].item(), -2e-3, atol=1e-6)

    def test_missing_gradient_rejected(self):
        p = {"w": Tensor(np.array(0.0)), "b": Tensor(np.array(0.0))}
        with pytest.raises(ContractError):
            optimizer_step(init_optimizer("sgd"), p, {"w": np.ones((1, 1, 1, 1))}, 0.1)

    def test_gradient_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros((1, 2, 1, 1)))}
        with pytest.raises(ContractError):
            optimizer_step(init_optimizer("adam"), p, {"w": np.zeros((1, 3, 1, 1))}, 0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            init_optimizer("rmsprop")

    @pytest.mark.parametrize("momentum", [math.nan, math.inf, 1.0, 5.0, -0.1])
    def test_momentum_outside_the_unit_interval_rejected(self, momentum):
        for make in (lambda: init_optimizer("sgd", momentum=momentum),
                     lambda: init_optimizer("adam", momentum=momentum),
                     lambda: TrainConfig(momentum=momentum)):
            with pytest.raises(ConfigError, match="momentum must be in"):
                make()

    def test_state_is_one_flat_array_per_moment(self):
        p = {"w": Tensor(np.zeros((1, 2, 1, 1))), "b": Tensor(np.zeros((1, 3, 1, 1)))}
        g = {"w": np.ones((1, 2, 1, 1)), "b": np.ones((1, 3, 1, 1))}
        sgd, adam = init_optimizer("sgd"), init_optimizer("adam")
        assert sgd.velocity is None and adam.m is None and adam.v is None
        optimizer_step(sgd, p, g, 0.1)
        optimizer_step(adam, p, g, 0.1)
        assert sgd.velocity.shape == adam.m.shape == adam.v.shape == (5,)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_a_state_of_another_length_is_rejected(self, kind):
        p = {"w": Tensor(np.zeros((1, 2, 1, 1))), "b": Tensor(np.zeros((1, 3, 1, 1)))}
        g = {"w": np.ones((1, 2, 1, 1)), "b": np.ones((1, 3, 1, 1))}
        opt = init_optimizer(kind)
        optimizer_step(opt, p, g, 0.1)
        before = p["w"].data.copy()
        del p["b"]
        with pytest.raises(ContractError, match="optimizer state holds 5 values, the gradients 2"):
            optimizer_step(opt, p, g, 0.1)
        np.testing.assert_array_equal(p["w"].data, before)


def per_array_steps(kind, data, grad_steps, lr):
    """The per-array SGD (momentum 0.9) or Adam update, step by step, on copies of data."""
    data = {name: a.copy() for name, a in data.items()}
    m, v = {}, {}
    for step, grads in enumerate(grad_steps, 1):
        for name, g in grads.items():
            if kind == "sgd":
                m[name] = 0.9 * m.get(name, np.zeros_like(g)) + g
                data[name] -= lr * m[name]
                continue
            m[name] = ADAM_BETA1 * m.get(name, np.zeros_like(g)) + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v.get(name, np.zeros_like(g)) + (1.0 - ADAM_BETA2) * g * g
            c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
            data[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
    return data


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_flat_update_is_the_per_array_update_bitwise(kind):
    # the criterion-7 (desk32) network: 38 float32 arrays
    lf = LfamConfig(local_range=4, residual_source=ResidualSource.ENCODER)
    model = build_unet(UNetConfig(num_classes=4, base_channels=8, depth=2,
                                  skips=(SkipSpec(kind="lfam", lfam=lf),) * 2), seed=0)
    rng = np.random.default_rng(17)
    grad_steps = [{name: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 1))
                   .astype(np.float32) for name, p in model.params.items()}
                  for _ in range(3)]
    want = per_array_steps(kind, {name: p.data for name, p in model.params.items()},
                           grad_steps, 3e-3)
    opt = init_optimizer(kind)
    for grads in grad_steps:
        optimizer_step(opt, model.params, grads, 3e-3)
    assert len(model.params) == 38
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data.view(np.uint32), want[name].view(np.uint32))


class TestIouAccumulator:
    def test_partial_overlap_counting(self):
        # class 0: pred covers 3, truth covers 2, overlap 2 -> 2/3
        # class 1: pred covers 1, truth covers 2, overlap 1 -> 1/2
        pred = np.array([[0, 0], [0, 1]])
        target = np.array([[0, 0], [1, 1]])
        acc = IouAccumulator(2)
        acc.update(pred, target)
        per_class, mean = mean_iou(acc)
        np.testing.assert_allclose(per_class, [2 / 3, 1 / 2])
        np.testing.assert_allclose(mean, 7 / 12)

    def test_perfect_prediction(self):
        target = np.random.default_rng(14).integers(0, 3, size=(2, 5, 5))
        acc = IouAccumulator(3)
        acc.update(target, target)
        per_class, mean = mean_iou(acc)
        np.testing.assert_allclose(per_class, 1.0)
        assert mean == 1.0

    def test_absent_class_is_nan_and_excluded(self):
        acc = IouAccumulator(3)
        acc.update(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))
        per_class, mean = mean_iou(acc)
        assert per_class[0] == 1.0 and np.isnan(per_class[1]) and np.isnan(per_class[2])
        assert mean == 1.0

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_streaming_equals_joint(self, seed, split):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, size=(13, 6))
        target = rng.integers(0, 4, size=(13, 6))
        joint = IouAccumulator(4)
        joint.update(pred, target)
        streamed = IouAccumulator(4)
        streamed.update(pred[:split], target[:split])
        streamed.update(pred[split:], target[split:])
        np.testing.assert_array_equal(streamed.intersection, joint.intersection)
        np.testing.assert_array_equal(streamed.union, joint.union)

    def test_relabeling_permutes_per_class_scores(self):
        rng = np.random.default_rng(15)
        pred = rng.integers(0, 3, size=(8, 8))
        target = rng.integers(0, 3, size=(8, 8))
        perm = np.array([2, 0, 1])
        a, b = IouAccumulator(3), IouAccumulator(3)
        a.update(pred, target)
        b.update(perm[pred], perm[target])
        pa, ma = mean_iou(a)
        pb, mb = mean_iou(b)
        np.testing.assert_allclose(pb[perm], pa)
        np.testing.assert_allclose(mb, ma)

    def test_label_out_of_range_rejected(self):
        acc = IouAccumulator(2)
        with pytest.raises(LabelError):
            acc.update(np.array([[2]]), np.array([[0]]))

    def test_argmax_ties_resolve_to_lowest_class(self):
        logits = np.zeros((1, 3, 2, 2))
        np.testing.assert_array_equal(predict_labels(logits), 0)
        logits[0, 2] = 1.0
        np.testing.assert_array_equal(predict_labels(Tensor(logits)), 2)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def tiny_setup(epochs=2, loss=None, n_images=8, seed=0):
    cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=2, depth=1)
    model = build_unet(cfg, seed=seed)
    images = gen_synthetic(n_images, size=8, num_classes=2, rare_class_frac=0.05, seed=1)
    train_cfg = TrainConfig(epochs=epochs, batch_size=4, lr_base=3e-3, seed=7,
                            loss=loss or FocalIouLoss())
    return model, (images[:6], images[6:]), train_cfg


class TestTrainLoop:
    def test_two_runs_are_byte_identical(self):
        logs = []
        for _ in range(2):
            model, data, cfg = tiny_setup()
            logs.append(train_loop(model, data, cfg).lines())
        assert logs[0] == logs[1]
        assert len(logs[0]) == 2

    def test_split_steps_are_byte_identical_on_any_core_count(self, monkeypatch):
        # 64x64 batches of 4 split into 8192-pixel shards, taped and not
        lf = LfamConfig(local_range=16, residual_source=ResidualSource.ENCODER)
        cfg = UNetConfig(num_classes=2, base_channels=8, depth=2,
                         skips=(SkipSpec(kind="lfam", lfam=lf),) * 2)
        images = gen_synthetic(8, size=64, num_classes=2, rare_class_frac=0.05, seed=2)
        train_cfg = TrainConfig(epochs=1, batch_size=4, lr_base=3e-3, seed=7)
        splits = []
        split_forward = lfam.unet._split_forward

        def counting(*args):
            if lfam.unet._active_tape() is not None:  # training steps, not validation
                splits.append(args[1].shape)
            return split_forward(*args)

        monkeypatch.setattr(lfam.unet, "_split_forward", counting)
        logs = []
        for cores in (2, 2, 1):
            monkeypatch.setattr(lfam.unet, "_cores", lambda cores=cores: cores)
            logs.append(train_loop(build_unet(cfg, seed=3), (images, images[:4]), train_cfg).lines())
        assert splits == [(4, 1, 64, 64)] * 6  # two batches per run
        assert logs[0] == logs[1] == logs[2]

    def test_zero_epochs_leaves_parameters_untouched(self):
        model, data, cfg = tiny_setup()
        before = {k: v.data.copy() for k, v in model.params.items()}
        run = train_loop(model, data, TrainConfig(epochs=0))
        assert run.records == [] and run.best_epoch == -1
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_lr_column_follows_cosine(self):
        model, data, cfg = tiny_setup(epochs=3)
        run = train_loop(model, data, cfg)
        for rec in run.records:
            expected = cosine_lr(ScheduleState(cfg.lr_base, rec.epoch, cfg.epochs))
            np.testing.assert_allclose(rec.lr, expected, rtol=1e-12)

    def test_loss_decreases_on_separable_intensities(self):
        model, data, cfg = tiny_setup(epochs=15)
        run = train_loop(model, data, cfg)
        assert run.records[-1].train_loss < run.records[0].train_loss

    def test_weighted_ce_loop_runs(self):
        model, data, _ = tiny_setup()
        cfg = TrainConfig(epochs=1, batch_size=4, loss=WeightedCeLoss((1.0, 1.0)))
        run = train_loop(model, data, cfg)
        assert np.isfinite(run.records[0].train_loss)

    def test_sgd_loop_runs(self):
        model, data, _ = tiny_setup()
        cfg = TrainConfig(epochs=1, batch_size=4, optimizer="sgd", lr_base=1e-2)
        run = train_loop(model, data, cfg)
        assert np.isfinite(run.records[0].train_loss)

    def test_outputs_written_and_best_checkpoint_loads(self, tmp_path):
        model, data, cfg = tiny_setup(epochs=3)
        run = train_loop(model, data, cfg, out_dir=tmp_path)
        lines = (tmp_path / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_mean_iou,iou_class0,iou_class1"
        assert lines[1:] == run.lines()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["epochs"] == 3 and summary["best_epoch"] == run.best_epoch

        restored = load_checkpoint(tmp_path / "best.ckpt", model.config)
        np.testing.assert_array_equal(restored.data, run.best_params)

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        model, data, cfg = tiny_setup(epochs=2)
        run = train_loop(model, data, cfg, out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def save_half_then_fail(path, _model):
            Path(path).write_bytes(before["best.ckpt"][:100])
            raise OSError("disk full")

        monkeypatch.setattr(lfam.train, "save_checkpoint", save_half_then_fail)
        for p in model.params.values():  # the writer saves the model as it is
            p.data += 1.0
        with pytest.raises(OSError, match="disk full"):
            lfam.train._write_run_outputs(tmp_path, model, run)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_model_is_left_at_the_best_epoch(self):
        model, data, cfg = tiny_setup(epochs=4)
        run = train_loop(model, data, cfg)
        np.testing.assert_array_equal(model.data, run.best_params)
        for name, p in model.params.items():  # each parameter reads its slice of the best copy
            assert np.shares_memory(p.data, model.data)

    def test_without_validation_the_last_epoch_is_kept(self, tmp_path):
        model, (train, _), cfg = tiny_setup(epochs=3)
        final = build_unet(model.config, seed=0)
        train_loop(final, (train, []), cfg)  # same seeds: same trajectory
        run = train_loop(model, (train, []), cfg, out_dir=tmp_path)
        assert run.best_epoch == cfg.epochs - 1
        restored = load_checkpoint(tmp_path / "best.ckpt", model.config)
        for name, p in restored.params.items():
            np.testing.assert_array_equal(p.data, final.params[name].data)
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["best_epoch"] == 2 and summary["best_val_mean_iou"] is None

    def test_best_tracking_prefers_highest_validation_iou(self):
        model, data, cfg = tiny_setup(epochs=4)
        run = train_loop(model, data, cfg)
        best = max(run.records, key=lambda r: r.val_mean_iou)
        assert run.best_val_mean_iou == best.val_mean_iou

    def test_non_finite_loss_aborts_with_location(self):
        model, data, cfg = tiny_setup()
        model.params["head.weight"].data[...] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="epoch 0"):
            train_loop(model, data, cfg)

    def test_empty_training_set_rejected(self):
        model, data, cfg = tiny_setup()
        with pytest.raises(ConfigError):
            train_loop(model, ([], data[1]), cfg)

    def test_evaluate_rejects_non_finite_logits(self):
        # a NaN in head.weight used to pass as a plausible mean IoU
        model, data, _ = tiny_setup()
        model.params["head.weight"].data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite logits"):
            evaluate(model, data[1], batch_size=2)

    def test_evaluate_counts_over_all_images(self):
        model, data, _ = tiny_setup()
        per_class, miou = evaluate(model, data[1], batch_size=2)
        assert per_class.shape == (2,)
        assert np.isnan(miou) or 0.0 <= miou <= 1.0

    def test_epoch_line_formatting_round_trips(self):
        rec = EpochRecord(epoch=3, lr=0.0125, train_loss=0.5,
                          val_mean_iou=0.75, per_class_iou=(1.0, 0.5))
        assert format_epoch_line(rec) == "3,0.0125,0.5,0.75,1.0,0.5"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="lion")
        with pytest.raises(ConfigError):
            TrainConfig(schedule="step")

    @pytest.mark.parametrize("lr", [math.inf, math.nan, 0.0])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ConfigError, match="lr_base must be positive and finite"):
            TrainConfig(lr_base=lr)


class TestCompute:
    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(16)
        logits = Tensor(rng.normal(size=(1, 2, 2, 2)))
        target = rng.integers(0, 2, size=(1, 2, 2))
        a = compute_loss(logits, target, FocalIouLoss())
        b = focal_iou_loss(logits, target, FocalIouLoss())
        np.testing.assert_allclose(a.item(), b.item(), rtol=1e-12)
        c = compute_loss(logits, target, WeightedCeLoss((1.0, 2.0)))
        d = weighted_ce(logits, target, (1.0, 2.0))
        np.testing.assert_allclose(c.item(), d.item(), rtol=1e-12)
