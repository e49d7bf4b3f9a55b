"""Windowed source-target attention for U-Net skip connections.

A dependency-light segmentation library built on a small reverse-mode
autodiff tape: the attention fusion module with its window partitioning and
brute-force oracles, convolutional U-Net assembly, focal plus soft-IoU and
weighted cross-entropy losses, cosine schedule, SGD and Adam, IoU metrics,
an analytic attention flop model, a synthetic data pipeline with tiling and
k-fold planning, and a key=value-configured command line.
"""

__version__ = "0.1.0"

from .attention import (
    LfamConfig,
    LfamParams,
    ResidualSource,
    global_attention_oracle,
    init_lfam_params,
    lfam_attention,
    lfam_forward,
    window_partition,
    windowed_reference,
)
from .costmodel import (
    attention_flops_global,
    attention_flops_local,
    cost_report,
    network_cost_report,
    reference_levels,
    render_cost_table,
)
from .data import (
    LabeledImage,
    compute_class_weights,
    crop_tiles,
    gen_synthetic,
    kfold_split,
    load_dataset,
    save_dataset,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DatasetError,
    DegenerateWindowError,
    GenerationError,
    LabelError,
    LfamError,
    NumericalError,
    PgmError,
    ScaleGuardError,
    ShapeError,
)
from .ops import ConvParams, channel_norm, conv2d, he_conv, maxpool2x2, upconv2x2
from .rng import make_rng
from .tensor import Tape, Tensor, backward, grad_check, masked_softmax, softmax
from .train import (
    FocalIouLoss,
    IouAccumulator,
    ScheduleState,
    TrainConfig,
    WeightedCeLoss,
    cosine_lr,
    evaluate,
    focal_iou_loss,
    mean_iou,
    optimizer_step,
    predict_labels,
    train_loop,
    weighted_ce,
)
from .unet import (
    ModelState,
    SkipSpec,
    UNetConfig,
    build_unet,
    count_flops_and_params,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .verify import gradient_suite, render_suite

__all__ = [
    "__version__",
    "LfamConfig", "LfamParams", "ResidualSource", "global_attention_oracle",
    "init_lfam_params", "lfam_attention", "lfam_forward", "window_partition",
    "windowed_reference",
    "attention_flops_global", "attention_flops_local", "cost_report",
    "network_cost_report", "reference_levels", "render_cost_table",
    "LabeledImage", "compute_class_weights", "crop_tiles", "gen_synthetic",
    "kfold_split", "load_dataset", "save_dataset",
    "CheckpointError", "ConfigError", "ContractError", "DatasetError", "DegenerateWindowError",
    "GenerationError", "LabelError", "LfamError", "NumericalError",
    "PgmError", "ScaleGuardError", "ShapeError",
    "ConvParams", "channel_norm", "conv2d", "he_conv", "maxpool2x2", "upconv2x2",
    "make_rng",
    "Tape", "Tensor", "backward", "grad_check", "masked_softmax", "softmax",
    "FocalIouLoss", "IouAccumulator", "ScheduleState", "TrainConfig",
    "WeightedCeLoss", "cosine_lr", "evaluate", "focal_iou_loss", "mean_iou",
    "optimizer_step", "predict_labels", "train_loop", "weighted_ce",
    "ModelState", "SkipSpec", "UNetConfig", "build_unet",
    "count_flops_and_params", "forward", "load_checkpoint", "save_checkpoint",
    "gradient_suite", "render_suite",
]
