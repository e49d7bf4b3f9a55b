"""Windowed source-target attention for U-Net skip connections.

A dependency-light segmentation library built on a small reverse-mode
autodiff tape: the attention fusion module with its window partitioning and
brute-force oracles, convolutional U-Net assembly, focal plus soft-IoU and
weighted cross-entropy losses, cosine schedule, SGD and Adam, IoU metrics,
an analytic attention flop model, a synthetic data pipeline with tiling and
k-fold planning, and a key=value-configured command line.
"""

import os

# one BLAS thread unless the user chose a count: the U-Net forward and the
# training step run half-batch shards on two threads, and a BLAS that also
# starts one thread per core in each of them oversubscribes the cores.
# OpenBLAS reads these when numpy loads it, so this must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _raise_malloc_thresholds() -> str:
    """Keep freed conv and attention temporaries in the heap: "raised", or why not.

    A step frees and reallocates buffers of about 1 MiB.  By default glibc
    serves those with mmap or trims them off the heap top when freed, so
    each step faults their pages in again.  Raising both thresholds keeps
    them.  A user's own MALLOC_* or glibc.malloc tunable wins.
    """
    try:
        glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        glibc = False
    if not glibc:
        return "skipped: the C library is not glibc"
    user = sorted(k for k in os.environ if k.startswith("MALLOC_"))
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        user.append("GLIBC_TUNABLES")
    if user:
        return f"skipped: {', '.join(user)} set by the user"
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD to glibc's 64-bit maximum, M_TRIM_THRESHOLD to 1 GiB
    if not (mallopt(-3, 32 << 20) and mallopt(-1, 1 << 30)):
        return "skipped: mallopt returned 0"
    return "raised"


# what lfam did to glibc malloc's thresholds at import; run.json records it
MALLOC_TUNING = _raise_malloc_thresholds()

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
    "__version__", "MALLOC_TUNING",
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
