"""Command-line entry point: key=value configs dispatched to training,
evaluation, gradient checking, cost reporting, and data generation.

Config files are plain text, one `section.key=value` per line, `#` starts a
comment.  Unknown keys, duplicates, type errors, and constraint violations
all fail with the offending line number; silence never hides a typo.

Exit codes: 0 success, 1 internal error, 2 usage, 3 config error,
4 file error, 5 numerical error, 141 stdout closed by its reader
(128 + SIGPIPE, the code a shell reports for a process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import __version__
from .attention import LfamConfig, ResidualSource
from .costmodel import cost_report, network_cost_report, reference_levels, render_cost_table, report_record
from .data import compute_class_weights, crop_tiles, gen_synthetic, load_dataset, replace_atomically, save_dataset
from .errors import ConfigError, LfamError, NumericalError
from .rng import make_rng
from .train import FocalIouLoss, TrainConfig, WeightedCeLoss, evaluate, train_loop
from .unet import SkipSpec, UNetConfig, build_unet, load_checkpoint
from .verify import gradient_suite, render_suite

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_FILE = 4
EXIT_NUMERICAL = 5
EXIT_PIPE = 141

OUT_DIR_ENV = "LFAM_OUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the artifact, with its documented default."""

    seed: int = 0
    out_dir: str = "runs/latest"

    data_root: str = ""
    n_images: int = 64
    image_size: int = 32
    num_classes: int = 4
    rare_class_frac: float = 0.015
    val_frac: float = 0.25
    tile: int = 0

    base_channels: int = 8
    depth: int = 2
    channel_norm: bool = False
    skip: str = "lfam"

    local_range: int = 7
    residual_source: str = "encoder"
    proj_channels: int = 0
    scale_logits: bool = False
    swap_qkv: bool = False

    optimizer: str = "adam"
    lr_base: float = 1e-3
    epochs: int = 50
    batch_size: int = 8
    schedule: str = "cosine"
    momentum: float = 0.9

    loss_kind: str = "focal_iou"
    gamma: float = 2.0
    alpha: float = 1.0
    focal_weight: float = 1.0
    iou_weight: float = 1.0
    per_image: bool = False
    class_weights: str = ""

    checkpoint: str = ""

    cost_geometry: str = "reference"
    cost_input_size: int = 256

    def __post_init__(self):
        _validate_fields(self)

    # -- materializers ------------------------------------------------------

    def lfam_config(self) -> LfamConfig:
        return LfamConfig(local_range=self.local_range,
                          residual_source=ResidualSource[self.residual_source.upper()],
                          proj_channels=self.proj_channels or None,
                          scale_logits=self.scale_logits,
                          swap_qkv=self.swap_qkv)

    def unet_config(self) -> UNetConfig:
        if self.skip == "lfam":
            spec = SkipSpec(kind="lfam", lfam=self.lfam_config())
        else:
            spec = SkipSpec(kind=self.skip)
        return UNetConfig(num_classes=self.num_classes,
                          base_channels=self.base_channels, depth=self.depth,
                          skips=(spec,) * self.depth, channel_norm=self.channel_norm)

    def loss_config(self, fallback_weights=None):
        if self.loss_kind == "focal_iou":
            return FocalIouLoss(gamma=self.gamma, alpha=self.alpha,
                                focal_weight=self.focal_weight,
                                iou_weight=self.iou_weight, per_image=self.per_image)
        if self.class_weights:
            weights = tuple(float(v) for v in self.class_weights.split(","))
        elif fallback_weights is not None:
            weights = tuple(float(v) for v in fallback_weights)
        else:
            weights = (1.0,) * self.num_classes
        problem = _weight_count_error(len(weights), self.num_classes)
        if problem:
            raise ConfigError(problem)
        return WeightedCeLoss(class_weights=weights)

    def train_config(self, loss) -> TrainConfig:
        return TrainConfig(optimizer=self.optimizer, lr_base=self.lr_base,
                           epochs=self.epochs, batch_size=self.batch_size,
                           schedule=self.schedule, loss=loss, seed=self.seed,
                           momentum=self.momentum)


@dataclass(frozen=True)
class KeySpec:
    field: str
    kind: type
    valid: str = ""
    check: object = None
    allowed: tuple = ()


def _positive_floats(text: str) -> bool:
    try:
        return not text or all(0 < float(v) < math.inf for v in text.split(","))
    except ValueError:
        return False


KEYS: dict[str, KeySpec] = {
    "run.seed": KeySpec("seed", int, ">= 0", lambda v: v >= 0),
    "run.out_dir": KeySpec("out_dir", str),
    "data.root": KeySpec("data_root", str),
    "data.n_images": KeySpec("n_images", int, ">= 1", lambda v: v >= 1),
    "data.size": KeySpec("image_size", int, ">= 8", lambda v: v >= 8),
    "data.num_classes": KeySpec("num_classes", int, ">= 2", lambda v: v >= 2),
    "data.rare_class_frac": KeySpec("rare_class_frac", float, "in (0, 0.1)",
                                    lambda v: 0.0 < v < 0.1),
    "data.val_frac": KeySpec("val_frac", float, "in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "data.tile": KeySpec("tile", int, ">= 0 (0 disables tiling)", lambda v: v >= 0),
    "unet.base_channels": KeySpec("base_channels", int, ">= 1", lambda v: v >= 1),
    "unet.depth": KeySpec("depth", int, ">= 1", lambda v: v >= 1),
    "unet.channel_norm": KeySpec("channel_norm", bool),
    "unet.skip": KeySpec("skip", str, allowed=("concat", "lfam", "none")),
    "lfam.local_range": KeySpec("local_range", int, ">= 1", lambda v: v >= 1),
    "lfam.residual_source": KeySpec("residual_source", str,
                                    allowed=("encoder", "decoder", "none")),
    "lfam.proj_channels": KeySpec("proj_channels", int, ">= 0 (0 keeps input width)",
                                  lambda v: v >= 0),
    "lfam.scale_logits": KeySpec("scale_logits", bool),
    "lfam.swap_qkv": KeySpec("swap_qkv", bool),
    "train.optimizer": KeySpec("optimizer", str, allowed=("adam", "sgd")),
    "train.lr_base": KeySpec("lr_base", float, "> 0", lambda v: v > 0),
    "train.epochs": KeySpec("epochs", int, ">= 0", lambda v: v >= 0),
    "train.batch_size": KeySpec("batch_size", int, ">= 1", lambda v: v >= 1),
    "train.schedule": KeySpec("schedule", str, allowed=("cosine", "constant")),
    "train.momentum": KeySpec("momentum", float, "in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "loss.kind": KeySpec("loss_kind", str, allowed=("focal_iou", "weighted_ce")),
    "loss.gamma": KeySpec("gamma", float, ">= 0", lambda v: v >= 0),
    "loss.alpha": KeySpec("alpha", float, ">= 0", lambda v: v >= 0),
    "loss.focal_weight": KeySpec("focal_weight", float, ">= 0", lambda v: v >= 0),
    "loss.iou_weight": KeySpec("iou_weight", float, ">= 0", lambda v: v >= 0),
    "loss.per_image": KeySpec("per_image", bool),
    "loss.class_weights": KeySpec("class_weights", str,
                                  "empty or comma-separated finite floats > 0", _positive_floats),
    "eval.checkpoint": KeySpec("checkpoint", str),
    "cost.geometry": KeySpec("cost_geometry", str, allowed=("reference", "model")),
    "cost.input_size": KeySpec("cost_input_size", int, ">= 1", lambda v: v >= 1),
}

assert {spec.field for spec in KEYS.values()} == {f.name for f in fields(RunConfig)}


def _weight_count_error(count: int, num_classes: int) -> str | None:
    if count == num_classes:
        return None
    return f"loss.class_weights has {count} entries for {num_classes} classes (data.num_classes)"


def _value_error(key: str, spec: KeySpec, value) -> str | None:
    """Why value is not allowed for key, or None when it is."""
    if spec.allowed and value not in spec.allowed:
        return f"{key} must be one of {', '.join(spec.allowed)}, got {value!r}"
    if spec.check is not None and not spec.check(value):
        return f"{key} must be {spec.valid}, got {value!r}"
    return None


def _validate_fields(cfg: RunConfig) -> None:
    for key, spec in KEYS.items():
        problem = _value_error(key, spec, getattr(cfg, spec.field))
        if problem:
            raise ConfigError(problem)


def _convert(key: str, spec: KeySpec, value: str, where: str):
    if spec.kind is bool:
        if value == "true":
            return True
        if value == "false":
            return False
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    if spec.kind is str:
        return value
    try:
        return spec.kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} must be {spec.kind.__name__}, "
                          f"got {value!r}") from exc


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{origin}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        spec = KEYS.get(key)
        if spec is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{where}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        converted = _convert(key, spec, value, where)
        problem = _value_error(key, spec, converted)
        if problem:
            raise ConfigError(f"{where}: {problem}")
        values[spec.field] = converted
    if values.get("class_weights"):  # checked for every loss kind, before any output exists
        problem = _weight_count_error(len(values["class_weights"].split(",")),
                                      values.get("num_classes", RunConfig.num_classes))
        if problem:
            raise ConfigError(f"{origin}:{first_line['loss.class_weights']}: {problem}")
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    return parse_config_text(Path(path).read_text(), origin=str(path))


def emit_config(cfg: RunConfig) -> str:
    """Text form of a config; parse_config_text(emit_config(c)) == c."""
    lines = []
    for key in sorted(KEYS):
        value = getattr(cfg, KEYS[key].field)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


@functools.cache
def _version_string() -> str:
    """Package version plus the commit of the checkout the package lives in."""
    try:
        described = subprocess.run(["git", "describe", "--always", "--dirty"],
                                   cwd=Path(__file__).parent,
                                   capture_output=True, text=True, timeout=5)
        if described.returncode == 0 and described.stdout.strip():
            return f"lfam-{__version__}+{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        pass
    return f"lfam-{__version__}"


def _resolve_out_dir(cfg: RunConfig) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV) or cfg.out_dir)


def _write_text(path: Path, text: str) -> None:
    replace_atomically(path, lambda p: p.write_text(text))


def _write_provenance(out: Path, cfg: RunConfig, command: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.txt", emit_config(cfg))
    _write_text(out / "run.json", json.dumps(
        {"command": command, "seed": cfg.seed, "version": _version_string()},
        indent=2) + "\n")


def _load_images(cfg: RunConfig):
    # sizes the network cannot take fail here, before any data is generated
    factor = 1 << cfg.depth
    if cfg.tile % factor:
        raise ConfigError(f"data.tile must be a multiple of 2**unet.depth = {factor}, got {cfg.tile}")
    if not cfg.data_root and cfg.tile > cfg.image_size:
        raise ConfigError(f"data.tile must be at most data.size = {cfg.image_size}, got {cfg.tile}")
    if not cfg.data_root and not cfg.tile and cfg.image_size % factor:
        raise ConfigError(f"data.size must be a multiple of 2**unet.depth = {factor}, "
                          f"got {cfg.image_size}")
    if cfg.data_root:
        # tiles need images at least a tile wide; untiled images must fit the network
        images = load_dataset(cfg.data_root, cfg.num_classes,
                              side_multiple=1 if cfg.tile else factor, min_side=max(cfg.tile, 1))
    else:
        images = gen_synthetic(cfg.n_images, cfg.image_size, cfg.num_classes,
                               cfg.rare_class_frac, seed=cfg.seed)
    if cfg.tile > 0:
        images = [t for im in images for t in crop_tiles(im, cfg.tile)]
    return images


def _split_train_val(images, cfg: RunConfig):
    order = make_rng(cfg.seed, stream=2).permutation(len(images))
    n_val = round(cfg.val_frac * len(images))
    val = [images[i] for i in order[:n_val]]
    train = [images[i] for i in order[n_val:]]
    return train, val


def _cmd_train(cfg: RunConfig, out: Path) -> int:
    images = _load_images(cfg)
    train, val = _split_train_val(images, cfg)
    fallback = None
    if cfg.loss_kind == "weighted_ce" and not cfg.class_weights:
        fallback = compute_class_weights([im.mask for im in train], cfg.num_classes)
    loss = cfg.loss_config(fallback_weights=fallback)
    model = build_unet(cfg.unet_config(), seed=cfg.seed)
    run = train_loop(model, (train, val), cfg.train_config(loss), out_dir=out)
    print(f"trained {cfg.epochs} epochs on {len(train)} images "
          f"({len(val)} validation)")
    if run.records:
        print(f"best val mean IoU {run.best_val_mean_iou:.4f} at epoch {run.best_epoch}")
    print(f"outputs in {out}")
    return EXIT_OK


def _cmd_eval(cfg: RunConfig, out: Path) -> int:
    if not cfg.checkpoint:
        raise ConfigError("eval.checkpoint is required for the eval subcommand")
    model = load_checkpoint(cfg.checkpoint, cfg.unet_config())
    images = _load_images(cfg)
    per_class, miou = evaluate(model, images, cfg.batch_size)
    for i, v in enumerate(per_class):
        print(f"class {i} IoU: {v:.4f}")
    print(f"mean IoU: {miou:.4f} over {len(images)} images")
    _write_text(out / "eval.json", json.dumps(
        {"checkpoint": cfg.checkpoint, "mean_iou": miou,
         "per_class_iou": [float(v) for v in per_class]}, indent=2) + "\n")
    return EXIT_OK


def _cmd_gradcheck(cfg: RunConfig, out: Path) -> int:
    results = gradient_suite(seed=cfg.seed)
    print(render_suite(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def _cmd_cost(cfg: RunConfig, out: Path, json_output: bool) -> int:
    if cfg.cost_geometry == "reference":
        report = cost_report(reference_levels(cfg.local_range))
    else:
        report = network_cost_report(cfg.unet_config(), cfg.cost_input_size)
    if json_output:
        print(json.dumps(report_record(report), indent=2))
    else:
        print(render_cost_table(report))
    return EXIT_OK


def _cmd_gen_data(cfg: RunConfig, out: Path) -> int:
    root = Path(cfg.data_root) if cfg.data_root else out / "dataset"
    images = gen_synthetic(cfg.n_images, cfg.image_size, cfg.num_classes,
                           cfg.rare_class_frac, seed=cfg.seed)
    save_dataset(root, images)
    print(f"wrote {len(images)} images ({cfg.image_size}x{cfg.image_size}, "
          f"{cfg.num_classes} classes) to {root}")
    return EXIT_OK


def dispatch(subcommand: str, cfg: RunConfig, json_output: bool = False) -> int:
    known = ("train", "eval", "gradcheck", "cost", "gen-data")
    if subcommand not in known:
        print(f"unknown subcommand {subcommand!r}; expected one of {', '.join(known)}",
              file=sys.stderr)
        return EXIT_USAGE
    out = _resolve_out_dir(cfg)
    _write_provenance(out, cfg, subcommand)
    if subcommand == "train":
        return _cmd_train(cfg, out)
    if subcommand == "eval":
        return _cmd_eval(cfg, out)
    if subcommand == "gradcheck":
        return _cmd_gradcheck(cfg, out)
    if subcommand == "cost":
        return _cmd_cost(cfg, out, json_output)
    return _cmd_gen_data(cfg, out)


# ---------------------------------------------------------------------------
# argv plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfam",
        description="Windowed source-target attention for U-Net skip connections.")
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("train", "train a model and write logs plus the best checkpoint"),
            ("eval", "load a checkpoint and report per-class and mean IoU"),
            ("gradcheck", "run the double-precision gradient suite"),
            ("cost", "print the attention flop comparison table"),
            ("gen-data", "write a synthetic dataset to disk")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key=value config file (defaults apply without it)")
        p.add_argument("--out", help=f"output directory (env {OUT_DIR_ENV} overrides)")
        if name == "cost":
            p.add_argument("--json", action="store_true",
                           help="emit the report as JSON instead of a table")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.out:
            cfg = replace(cfg, out_dir=args.out)
        return dispatch(args.command, cfg, json_output=getattr(args, "json", False))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:  # e.g. `lfam cost --json | head -3`
        # point stdout at devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:  # includes CheckpointError
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LfamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
