"""Double-precision gradient verification suite.

Every entry compares reverse-mode gradients against central finite
differences through grad_check.  Outputs are contracted with a fixed random
weighting so the scalar loss is sensitive to every output element; plain
sums would hide errors that cancel across positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import LfamConfig, LfamParams, ResidualSource, init_lfam_params, lfam_forward
from .ops import ConvParams, conv2d, he_conv, upconv2x2
from .rng import make_rng
from .tensor import Tensor, grad_check, masked_softmax, mul, sum_all
from .train import FocalIouLoss, focal_iou_loss, weighted_ce
from .unet import SkipSpec, UNetConfig, build_unet, forward

POINTWISE_THRESHOLD = 1e-4
END_TO_END_THRESHOLD = 1e-3


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold


def _weighted_sum(out: Tensor, weight: np.ndarray) -> Tensor:
    return sum_all(mul(out, Tensor(weight)))


def _check_masked_softmax(seed: int) -> float:
    rng = make_rng(seed, stream=1)
    x = Tensor(rng.normal(size=(2, 1, 4, 6)), requires_grad=True)
    mask = rng.random(size=(2, 1, 4, 6)) < 0.7
    mask[..., 0] = True  # keep every row alive
    w = rng.normal(size=(2, 1, 4, 6))
    return grad_check(lambda t: _weighted_sum(masked_softmax(t, mask), w), x)


def _check_conv2d(seed: int) -> float:
    rng = make_rng(seed, stream=2)
    p = he_conv(2, 3, 3, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = rng.normal(size=(1, 3, 5, 5))
    errs = [grad_check(lambda t: _weighted_sum(conv2d(t, p), w), x)]
    x_const = Tensor(x.data.copy())
    bias = Tensor(p.bias.data.copy())
    weight = Tensor(p.weight.data.copy(), requires_grad=True)

    def by_weight(wt):
        return _weighted_sum(conv2d(x_const, ConvParams(weight=wt, bias=bias)), w)

    def by_bias(b):
        return _weighted_sum(conv2d(x_const, ConvParams(weight=weight, bias=b)), w)

    errs.append(grad_check(by_weight, weight))
    errs.append(grad_check(by_bias, Tensor(bias.data.copy(), requires_grad=True)))
    return max(errs)


def _check_upconv(seed: int) -> float:
    rng = make_rng(seed, stream=3)
    up = he_conv(3, 2, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    w = rng.normal(size=(1, 2, 8, 8))
    errs = [grad_check(lambda t: _weighted_sum(upconv2x2(t, up), w), x)]
    x_const = Tensor(x.data.copy())

    def by_weight(wt):
        return _weighted_sum(
            upconv2x2(x_const, ConvParams(weight=wt, bias=up.bias)), w)

    errs.append(grad_check(by_weight, Tensor(up.weight.data.copy(), requires_grad=True)))
    return max(errs)


def _check_focal_iou(seed: int) -> float:
    rng = make_rng(seed, stream=4)
    target = rng.integers(0, 3, size=(1, 4, 4))
    x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    return grad_check(lambda t: focal_iou_loss(t, target, FocalIouLoss(gamma=2.0)), x)


def _check_weighted_ce(seed: int) -> float:
    rng = make_rng(seed, stream=5)
    target = rng.integers(0, 3, size=(1, 4, 4))
    x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    return grad_check(lambda t: weighted_ce(t, target, (0.5, 1.0, 2.0)), x)


def _check_lfam(seed: int, residual: ResidualSource, m: int) -> float:
    rng = make_rng(seed, stream=10 + m)
    cfg = LfamConfig(local_range=m, residual_source=residual)
    params = init_lfam_params(3, rng, dtype=np.float64)
    enc = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    dec = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    w = rng.normal(size=(1, 3, 6, 6))
    enc_c, dec_c = Tensor(enc.data.copy()), Tensor(dec.data.copy())

    errs = [
        grad_check(lambda t: _weighted_sum(lfam_forward(t, dec_c, params, cfg), w), enc),
        grad_check(lambda t: _weighted_sum(lfam_forward(enc_c, t, params, cfg), w), dec),
    ]

    def by_query_weight(wq):
        p = LfamParams(query=ConvParams(weight=wq, bias=params.query.bias),
                       key=params.key, value=params.value)
        return _weighted_sum(lfam_forward(enc_c, dec_c, p, cfg), w)

    errs.append(grad_check(by_query_weight,
                           Tensor(params.query.weight.data.copy(), requires_grad=True)))
    return max(errs)


def _check_end_to_end(seed: int) -> float:
    lfam = LfamConfig(local_range=4)
    cfg = UNetConfig(in_channels=1, num_classes=2, base_channels=2, depth=2,
                     skips=(SkipSpec(kind="lfam", lfam=lfam),
                            SkipSpec(kind="lfam", lfam=lfam)))
    model = build_unet(cfg, seed=seed, dtype=np.float64)
    rng = make_rng(seed, stream=6)
    target = rng.integers(0, 2, size=(1, 8, 8))
    x = Tensor(rng.normal(size=(1, 1, 8, 8)), requires_grad=True)
    return grad_check(lambda t: focal_iou_loss(forward(model, t), target, FocalIouLoss()), x)


def gradient_suite(seed: int = 0) -> list[SuiteResult]:
    """Run every gradient check and report each suite's max relative error."""
    results = [
        SuiteResult("masked_softmax", _check_masked_softmax(seed), POINTWISE_THRESHOLD),
        SuiteResult("conv2d", _check_conv2d(seed), POINTWISE_THRESHOLD),
        SuiteResult("upconv2x2", _check_upconv(seed), POINTWISE_THRESHOLD),
        SuiteResult("focal_iou_loss", _check_focal_iou(seed), POINTWISE_THRESHOLD),
        SuiteResult("weighted_ce", _check_weighted_ce(seed), POINTWISE_THRESHOLD),
    ]
    for residual in ResidualSource:
        for m in (1, 3, 4):
            name = f"lfam/{residual.name.lower()}/m{m}"
            results.append(SuiteResult(name, _check_lfam(seed, residual, m),
                                       POINTWISE_THRESHOLD))
    results.append(SuiteResult("unet-end-to-end", _check_end_to_end(seed),
                               END_TO_END_THRESHOLD))
    return results


def render_suite(results: list[SuiteResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  max rel err    threshold  status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {r.max_error:11.3e}  {r.threshold:9.0e}  {status}")
    return "\n".join(lines)
