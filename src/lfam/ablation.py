"""Skip-connection ablation: concatenation vs windowed attention variants.

Trains every variant on one shared synthetic dataset across several seeds
and reports the rare-class IoU on a held-out test split.  Whether the
encoder-residual placement comes out on top is recorded as an observation,
never asserted; at desk scale seed noise can dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import LfamConfig, ResidualSource
from .data import gen_synthetic
from .train import FocalIouLoss, TrainConfig, evaluate, train_loop
from .unet import SkipSpec, UNetConfig, build_unet


@dataclass(frozen=True)
class AblationConfig:
    n_images: int = 48
    image_size: int = 32
    num_classes: int = 4
    rare_class_frac: float = 0.02
    base_channels: int = 8
    depth: int = 2
    epochs: int = 30
    batch_size: int = 8
    lr_base: float = 2e-3
    seeds: tuple[int, ...] = (0, 1, 2)
    data_seed: int = 100
    local_ranges: tuple[int, ...] = (3, 5, 7)


@dataclass(frozen=True)
class VariantResult:
    name: str
    per_seed: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def spread(self) -> float:
        return float(np.max(self.per_seed) - np.min(self.per_seed))


@dataclass(frozen=True)
class AblationReport:
    config: AblationConfig
    variants: tuple[VariantResult, ...]
    encoder_best_observed: bool = field(init=False)

    def __post_init__(self):
        enc = [v.mean for v in self.variants if v.name.startswith("lfam-encoder")]
        rest = [v.mean for v in self.variants if not v.name.startswith("lfam-encoder")]
        observed = bool(enc) and bool(rest) and max(enc) >= max(rest)
        object.__setattr__(self, "encoder_best_observed", observed)


def _variant_specs(cfg: AblationConfig) -> list[tuple[str, str, LfamConfig | None]]:
    specs: list[tuple[str, str, LfamConfig | None]] = [("concat", "concat", None)]
    for m in cfg.local_ranges:
        specs.append((f"lfam-encoder-m{m}", "lfam",
                      LfamConfig(local_range=m, residual_source=ResidualSource.ENCODER)))
    widest = max(cfg.local_ranges)
    specs.append((f"lfam-decoder-m{widest}", "lfam",
                  LfamConfig(local_range=widest, residual_source=ResidualSource.DECODER)))
    specs.append((f"lfam-none-m{widest}", "lfam",
                  LfamConfig(local_range=widest, residual_source=ResidualSource.NONE)))
    return specs


def run_ablation(cfg: AblationConfig = AblationConfig()) -> AblationReport:
    """Train each skip variant on a shared dataset; collect rare-class test IoU."""
    images = gen_synthetic(cfg.n_images, cfg.image_size, cfg.num_classes,
                           cfg.rare_class_frac, seed=cfg.data_seed)
    n_train = round(0.6 * cfg.n_images)
    n_val = round(0.2 * cfg.n_images)
    train = images[:n_train]
    val = images[n_train:n_train + n_val]
    test = images[n_train + n_val:]
    rare = cfg.num_classes - 1

    variants = []
    for name, kind, lfam in _variant_specs(cfg):
        scores = []
        for seed in cfg.seeds:
            skip = SkipSpec(kind=kind, lfam=lfam)
            unet_cfg = UNetConfig(in_channels=1, num_classes=cfg.num_classes,
                                  base_channels=cfg.base_channels, depth=cfg.depth,
                                  skips=(skip,) * cfg.depth)
            model = build_unet(unet_cfg, seed=seed)
            # train_loop leaves the model at its best validation epoch
            train_loop(model, (train, val),
                       TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                   lr_base=cfg.lr_base, seed=seed, loss=FocalIouLoss()))
            per_class, _ = evaluate(model, test, cfg.batch_size)
            scores.append(float(per_class[rare]))
        variants.append(VariantResult(name=name, per_seed=tuple(scores)))
    return AblationReport(config=cfg, variants=tuple(variants))


def render_text(report: AblationReport) -> str:
    width = max(len(v.name) for v in report.variants)
    lines = [f"{'variant'.ljust(width)}  {'rare-class IoU (mean +- spread)':<33}per seed"]
    for v in report.variants:
        seeds = " ".join(f"{s:.3f}" for s in v.per_seed)
        lines.append(f"{v.name.ljust(width)}  {f'{v.mean:.3f} +- {v.spread:.3f}':<33}{seeds}")
    flag = "observed" if report.encoder_best_observed else "not observed"
    lines.append(f"encoder-residual placement best: {flag}")
    return "\n".join(lines)


def to_record(report: AblationReport) -> dict:
    return {
        "config": {
            "n_images": report.config.n_images,
            "image_size": report.config.image_size,
            "num_classes": report.config.num_classes,
            "rare_class_frac": report.config.rare_class_frac,
            "epochs": report.config.epochs,
            "seeds": list(report.config.seeds),
            "local_ranges": list(report.config.local_ranges),
        },
        "variants": [
            {"name": v.name, "per_seed": list(v.per_seed),
             "mean": v.mean, "spread": v.spread}
            for v in report.variants
        ],
        "encoder_best_observed": report.encoder_best_observed,
    }
