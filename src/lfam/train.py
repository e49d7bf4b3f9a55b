"""Losses, optimizers, learning-rate schedule, IoU metrics, training loop.

Both losses are compositions of tape primitives, so they are differentiable
end to end and pass the same gradient checks as the layers.  The soft IoU
term uses probability-weighted intersection and union; classes absent from
the target are excluded from its mean (their 0/0 ratio carries no signal).

The loop is deterministic per seed: shuffling comes from a counter-based
generator, every numeric step is plain numpy, and log lines format floats
with repr, so two runs with one seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import replace_atomically
from .errors import ConfigError, ContractError, LabelError, NumericalError, ShapeError
from .rng import make_rng
from .tensor import (
    Tape,
    Tensor,
    affine,
    backward,
    div,
    log,
    mul,
    pow_const,
    softmax,
    sum_all,
    sum_axes,
)
from .unet import ModelState, forward, save_checkpoint


# ---------------------------------------------------------------------------
# loss configuration


@dataclass(frozen=True)
class FocalIouLoss:
    """Focal term plus soft-IoU term, combined by the two weights.

    per_image computes the IoU term per sample then averages; the default
    pools the whole batch jointly.
    """

    gamma: float = 2.0
    alpha: float = 1.0
    focal_weight: float = 1.0
    iou_weight: float = 1.0
    per_image: bool = False

    def __post_init__(self):
        for name in ("gamma", "alpha", "focal_weight", "iou_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class WeightedCeLoss:
    class_weights: tuple[float, ...] = ()

    def __post_init__(self):
        if any(w <= 0 for w in self.class_weights):
            raise ConfigError(f"class weights must be strictly positive, got {self.class_weights}")


LossConfig = FocalIouLoss | WeightedCeLoss


def _check_target(logits: Tensor, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target)
    n, k, h, w = logits.shape
    if target.shape != (n, h, w):
        raise ShapeError(f"target shape {target.shape} does not match logits {logits.shape}")
    if not np.issubdtype(target.dtype, np.integer):
        raise LabelError(f"target must hold class indices, got dtype {target.dtype}")
    if target.min() < 0 or target.max() >= k:
        raise LabelError(f"target labels outside [0, {k}): "
                         f"min {target.min()}, max {target.max()}")
    return target


def _one_hot(target: np.ndarray, k: int, dtype) -> np.ndarray:
    n, h, w = target.shape
    out = np.zeros((n, k, h, w), dtype=dtype)
    np.put_along_axis(out, target[:, None], 1.0, axis=1)
    return out


def focal_iou_loss(logits: Tensor, target: np.ndarray, cfg: FocalIouLoss) -> Tensor:
    """focal_weight * mean(-alpha (1-p_t)^gamma ln p_t) + iou_weight * mean(1 - softIoU)."""
    target = _check_target(logits, target)
    n, k, h, w = logits.shape
    onehot = _one_hot(target, k, logits.dtype)
    p = softmax(logits)
    overlap = mul(p, Tensor(onehot))
    pt = sum_axes(overlap, (1,))

    # the minus sign of -ln p_t and the term weight ride on the constant factor
    focal = sum_all(mul(pow_const(1.0 - pt, cfg.gamma), log(pt)))
    focal = focal * (-cfg.alpha * cfg.focal_weight / (n * h * w))

    axes = (2, 3) if cfg.per_image else (0, 2, 3)
    count = onehot.sum(axis=axes, keepdims=True)
    # present: classes with at least one target pixel (per image when split)
    n_present = float((count > 0).sum())
    inter = sum_axes(overlap, axes)
    # sum(p + onehot - p*onehot); an absent class has inter exactly 0 and a
    # count bumped to 1, so its ratio is exactly 0 and drops out of the sum
    union = sum_axes(p, axes) - inter + Tensor(np.maximum(count, 1.0))
    # iou_weight * mean of 1 - iou over the present classes
    iou_loss = affine(sum_all(div(inter, union)), -cfg.iou_weight / n_present, cfg.iou_weight)

    return focal + iou_loss


def weighted_ce(logits: Tensor, target: np.ndarray, class_weights) -> Tensor:
    """Class-weighted cross entropy, normalized by the total weight in the batch."""
    target = _check_target(logits, target)
    weights = np.asarray(class_weights, dtype=logits.dtype)
    k = logits.shape[1]
    if weights.shape != (k,):
        raise ConfigError(f"need {k} class weights, got shape {weights.shape}")
    if (weights <= 0).any():
        raise ConfigError("class weights must be strictly positive")
    onehot = Tensor(_one_hot(target, k, logits.dtype))
    p = softmax(logits)
    pt = sum_axes(mul(p, onehot), (1,))
    wmap = weights[target][:, None]  # (n, 1, h, w)
    loss = sum_all(mul(Tensor(wmap), log(pt)))
    return loss * (-1.0 / float(wmap.sum()))


def compute_loss(logits: Tensor, target: np.ndarray, cfg: LossConfig) -> Tensor:
    if isinstance(cfg, FocalIouLoss):
        return focal_iou_loss(logits, target, cfg)
    if isinstance(cfg, WeightedCeLoss):
        return weighted_ce(logits, target, cfg.class_weights)
    raise ConfigError(f"unknown loss config {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class ScheduleState:
    lr_base: float
    epoch: int
    max_epoch: int
    kind: str = "cosine"

    def __post_init__(self):
        if self.lr_base <= 0:
            raise ConfigError(f"lr_base must be positive, got {self.lr_base}")
        if self.max_epoch < 1 or not (0 <= self.epoch <= self.max_epoch):
            raise ConfigError(f"need 0 <= epoch <= max_epoch, got {self.epoch}/{self.max_epoch}")
        if self.kind not in ("cosine", "constant"):
            raise ConfigError(f"schedule kind must be cosine or constant, got {self.kind!r}")


def cosine_lr(s: ScheduleState) -> float:
    if s.kind == "constant":
        return s.lr_base
    return float(s.lr_base * (np.cos(s.epoch / s.max_epoch * np.pi) + 1.0) / 2.0)


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class SgdState:
    momentum: float = 0.9
    velocity: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


OptimState = SgdState | AdamState


def init_optimizer(kind: str, momentum: float = 0.9) -> OptimState:
    if kind == "sgd":
        return SgdState(momentum=momentum)
    if kind == "adam":
        return AdamState()
    raise ConfigError(f"optimizer must be sgd or adam, got {kind!r}")


def optimizer_step(opt: OptimState, params: dict[str, Tensor],
                   grads: dict[str, np.ndarray], lr: float) -> None:
    """Update every parameter in place from its gradient."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ContractError(f"no gradient supplied for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} does not match "
                                f"parameter {name!r} shape {p.data.shape}")
    if isinstance(opt, SgdState):
        for name, p in params.items():
            v = opt.velocity.get(name)
            if v is None:
                v = np.zeros_like(p.data)
            v = opt.momentum * v + grads[name]
            opt.velocity[name] = v
            p.data[...] -= lr * v
        return
    opt.step += 1
    c1 = 1.0 - ADAM_BETA1 ** opt.step
    c2 = 1.0 - ADAM_BETA2 ** opt.step
    for name, p in params.items():
        g = grads[name]
        m = opt.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            opt.v[name] = np.zeros_like(p.data)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * g * g
        opt.m[name], opt.v[name] = m, v
        p.data[...] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# IoU metrics


@dataclass
class IouAccumulator:
    """Streaming per-class intersection and union counts over an evaluation."""

    num_classes: int
    intersection: np.ndarray = field(default=None, repr=False)
    union: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.intersection is None:
            self.intersection = np.zeros(self.num_classes, dtype=np.int64)
        if self.union is None:
            self.union = np.zeros(self.num_classes, dtype=np.int64)

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        pred, target = np.asarray(pred), np.asarray(target)
        if pred.shape != target.shape:
            raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
        k = self.num_classes
        if pred.min() < 0 or pred.max() >= k or target.min() < 0 or target.max() >= k:
            raise LabelError(f"labels outside [0, {k})")
        confusion = np.bincount(target.ravel() * k + pred.ravel(),
                                minlength=k * k).reshape(k, k)
        diag = np.diag(confusion)
        self.intersection += diag
        self.union += confusion.sum(axis=0) + confusion.sum(axis=1) - diag


def predict_labels(logits) -> np.ndarray:
    """Argmax over the class axis; ties resolve to the lowest class index."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(data, axis=1)


def nan_to_none(value: float) -> float | None:
    """An IoU for a JSON record: NaN (undefined) becomes None, written as null."""
    return None if np.isnan(value) else float(value)


def mean_iou(acc: IouAccumulator) -> tuple[np.ndarray, float]:
    """Per-class IoU (nan where the class never appears) and the mean over defined classes."""
    per_class = np.full(acc.num_classes, np.nan)
    defined = acc.union > 0
    per_class[defined] = acc.intersection[defined] / acc.union[defined]
    mean = float(per_class[defined].mean()) if defined.any() else float("nan")
    return per_class, mean


# ---------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr_base: float = 1e-3
    epochs: int = 100
    batch_size: int = 8
    schedule: str = "cosine"
    loss: LossConfig = FocalIouLoss()
    seed: int = 0
    momentum: float = 0.9  # SGD only; Adam uses the fixed ADAM_BETA1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError(f"need epochs >= 0 and batch_size >= 1, "
                              f"got {self.epochs}, {self.batch_size}")
        if not (self.lr_base > 0 and np.isfinite(self.lr_base)):
            raise ConfigError(f"lr_base must be positive and finite, got {self.lr_base}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be cosine or constant, got {self.schedule!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_mean_iou: float
    per_class_iou: tuple[float, ...]


def format_epoch_line(rec: EpochRecord) -> str:
    cells = [str(rec.epoch), repr(rec.lr), repr(rec.train_loss), repr(rec.val_mean_iou)]
    cells += [repr(v) for v in rec.per_class_iou]
    return ",".join(cells)


@dataclass
class RunLog:
    records: list[EpochRecord]
    best_epoch: int = -1
    best_val_mean_iou: float = float("nan")
    best_params: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def lines(self) -> list[str]:
        return [format_epoch_line(r) for r in self.records]

    def summary(self) -> dict:
        return {
            "epochs": len(self.records),
            "best_epoch": self.best_epoch,
            "best_val_mean_iou": nan_to_none(self.best_val_mean_iou),
            "final_train_loss": self.records[-1].train_loss if self.records else None,
        }


def _stack_batch(images) -> tuple[Tensor, np.ndarray]:
    shapes = {im.image.shape for im in images}
    if len(shapes) != 1:
        raise ShapeError(f"batch mixes image shapes: {sorted(shapes)}")
    x = np.concatenate([im.image.data for im in images], axis=0)
    t = np.stack([im.mask for im in images], axis=0)
    return Tensor(x), t


def evaluate(model: ModelState, images, batch_size: int = 8) -> tuple[np.ndarray, float]:
    """Per-class IoU and mean IoU of argmax predictions over a dataset."""
    acc = IouAccumulator(model.config.num_classes)
    for start in range(0, len(images), batch_size):
        x, t = _stack_batch(images[start:start + batch_size])
        logits = forward(model, x)
        acc.update(predict_labels(logits), t)
    return mean_iou(acc)


def train_loop(model: ModelState, data, cfg: TrainConfig, out_dir=None) -> RunLog:
    """Seeded shuffle, forward, loss, backward, step; tracks best validation IoU.

    data is a (train_images, val_images) pair of LabeledImage lists; with no
    validation images the last epoch counts as best.  The model is left
    holding the best epoch's parameters.  With out_dir set, writes log.csv,
    summary.json, and best.ckpt (the model as returned) there.
    """
    train_images, val_images = data
    if not train_images:
        raise ConfigError("training set is empty")
    shuffler = make_rng(cfg.seed, stream=1_000_003)
    opt = init_optimizer(cfg.optimizer, momentum=cfg.momentum)
    run = RunLog(records=[])

    for epoch in range(cfg.epochs):
        lr = cosine_lr(ScheduleState(cfg.lr_base, epoch, cfg.epochs, cfg.schedule))
        order = shuffler.permutation(len(train_images))
        seen, loss_sum = 0, 0.0
        for b_start in range(0, len(order), cfg.batch_size):
            batch = [train_images[i] for i in order[b_start:b_start + cfg.batch_size]]
            x, t = _stack_batch(batch)
            model.zero_grads()
            where = f"at epoch {epoch} batch {b_start // cfg.batch_size} (lr {lr!r})"
            try:
                with Tape() as tape:
                    logits = forward(model, x)
                    loss = compute_loss(logits, t, cfg.loss)
            except NumericalError as exc:
                raise NumericalError(f"{exc} {where}") from exc
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericalError(f"non-finite loss {loss_value} {where}")
            backward(tape, loss)
            optimizer_step(opt, model.params,
                           {name: p.grad for name, p in model.params.items()}, lr)
            seen += len(batch)
            loss_sum += loss_value * len(batch)

        if val_images:
            per_class, miou = evaluate(model, val_images, cfg.batch_size)
        else:
            per_class = np.full(model.config.num_classes, np.nan)
            miou = float("nan")
        run.records.append(EpochRecord(epoch=epoch, lr=float(lr),
                                       train_loss=loss_sum / seen,
                                       val_mean_iou=miou,
                                       per_class_iou=tuple(float(v) for v in per_class)))
        # with no validation set every IoU is NaN, and the last epoch is kept
        if run.best_params is None or miou > run.best_val_mean_iou or not val_images:
            run.best_epoch = epoch
            run.best_val_mean_iou = miou
            run.best_params = {name: p.data.copy() for name, p in model.params.items()}

    if run.best_params is not None:
        model.load_arrays(run.best_params)
    if out_dir is not None:
        _write_run_outputs(out_dir, model, run)
    return run


def _write_run_outputs(out_dir, model: ModelState, run: RunLog) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = model.config.num_classes
    header = "epoch,lr,train_loss,val_mean_iou," + ",".join(f"iou_class{i}" for i in range(k))
    log_text = "\n".join([header] + run.lines()) + "\n"
    summary_text = json.dumps(run.summary(), indent=2) + "\n"
    replace_atomically(out / "log.csv", lambda p: p.write_text(log_text))
    replace_atomically(out / "summary.json", lambda p: p.write_text(summary_text))
    if run.best_params is not None:
        replace_atomically(out / "best.ckpt", lambda p: save_checkpoint(p, model))
