"""Command-line entry point: key=value configs dispatched to training,
evaluation, gradient checking, cost reporting, and data generation.

Config files are plain text, one `section.key=value` per line, `#` starts a
comment.  Each key is declared once, on the RunConfig field it sets, with
its range check or choices.  Unknown keys, duplicates, type errors, and
constraint violations all fail with the offending line number; silence
never hides a typo.

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
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from . import MALLOC_TUNING, __version__, blas_in_effect
from .attention import LfamConfig, ResidualSource
from .costmodel import cost_report, network_cost_report, reference_levels, render_cost_table, report_record
from .data import (PGM_MAX_CLASSES, compute_class_weights, crop_tiles, gen_synthetic, load_dataset,
                   replace_atomically, save_dataset)
from .errors import ConfigError, LfamError, NumericalError
from .rng import SEED_LIMIT, make_rng
from .train import FocalIouLoss, TrainConfig, WeightedCeLoss, evaluate, nan_to_none, train_loop
from .unet import SkipSpec, UNetConfig, build_unet, load_checkpoint, shard_mode
from .verify import gradient_suite, render_suite

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_FILE = 4
EXIT_NUMERICAL = 5
EXIT_PIPE = 141


def _reparseable(text: str) -> bool:
    """True when text reads back unchanged from a `key=value` line."""
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


_REPARSEABLE = "free of '#' and line breaks, with no leading or trailing whitespace"


def _positive_floats(text: str) -> bool:
    try:
        return not text or all(0 < float(v) < math.inf for v in text.split(","))
    except ValueError:
        return False


def _key(key: str, default, valid: str = "", check=None, allowed: tuple = ()):
    """A RunConfig field set by config `key`, typed by its default; a value must
    be one of `allowed` if given and pass `check` (described by `valid`) if given."""
    return field(default=default,
                 metadata={"key": key, "valid": valid, "check": check, "allowed": allowed})


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the artifact, with its config key and documented default."""

    seed: int = _key("run.seed", 0, "in [0, 2**63)", lambda v: 0 <= v < SEED_LIMIT)
    out_dir: str = _key("run.out_dir", "runs/latest", _REPARSEABLE, _reparseable)

    data_root: str = _key("data.root", "", _REPARSEABLE, _reparseable)
    n_images: int = _key("data.n_images", 64, ">= 1", lambda v: v >= 1)
    image_size: int = _key("data.size", 32, ">= 8", lambda v: v >= 8)
    num_classes: int = _key("data.num_classes", 4, ">= 2", lambda v: v >= 2)
    rare_class_frac: float = _key("data.rare_class_frac", 0.015, "in (0, 0.1)",
                                  lambda v: 0.0 < v < 0.1)
    val_frac: float = _key("data.val_frac", 0.25, "in [0, 1)", lambda v: 0.0 <= v < 1.0)
    tile: int = _key("data.tile", 0, ">= 0 (0 disables tiling)", lambda v: v >= 0)

    base_channels: int = _key("unet.base_channels", 8, ">= 1", lambda v: v >= 1)
    depth: int = _key("unet.depth", 2, ">= 1", lambda v: v >= 1)
    channel_norm: bool = _key("unet.channel_norm", False)
    skip: str = _key("unet.skip", "lfam", allowed=("concat", "lfam", "none"))

    local_range: int = _key("lfam.local_range", 7, ">= 1", lambda v: v >= 1)
    residual_source: str = _key("lfam.residual_source", "encoder",
                                allowed=("encoder", "decoder", "none"))
    proj_channels: int = _key("lfam.proj_channels", 0, ">= 0 (0 keeps input width)",
                              lambda v: v >= 0)
    scale_logits: bool = _key("lfam.scale_logits", False)
    swap_qkv: bool = _key("lfam.swap_qkv", False)

    optimizer: str = _key("train.optimizer", "adam", allowed=("adam", "sgd"))
    lr_base: float = _key("train.lr_base", 1e-3, "> 0", lambda v: v > 0)
    epochs: int = _key("train.epochs", 50, ">= 0", lambda v: v >= 0)
    batch_size: int = _key("train.batch_size", 8, ">= 1", lambda v: v >= 1)
    schedule: str = _key("train.schedule", "cosine", allowed=("cosine", "constant"))
    momentum: float = _key("train.momentum", 0.9, "in [0, 1)", lambda v: 0.0 <= v < 1.0)

    loss_kind: str = _key("loss.kind", "focal_iou", allowed=("focal_iou", "weighted_ce"))
    gamma: float = _key("loss.gamma", 2.0, ">= 0", lambda v: v >= 0)
    alpha: float = _key("loss.alpha", 1.0, ">= 0", lambda v: v >= 0)
    focal_weight: float = _key("loss.focal_weight", 1.0, ">= 0", lambda v: v >= 0)
    iou_weight: float = _key("loss.iou_weight", 1.0, ">= 0", lambda v: v >= 0)
    per_image: bool = _key("loss.per_image", False)
    class_weights: str = _key("loss.class_weights", "",
                              "empty or comma-separated finite floats > 0", _positive_floats)

    checkpoint: str = _key("eval.checkpoint", "", _REPARSEABLE, _reparseable)

    cost_geometry: str = _key("cost.geometry", "reference", allowed=("reference", "model"))
    cost_input_size: int = _key("cost.input_size", 256, ">= 1", lambda v: v >= 1)

    def __post_init__(self):
        _validate_fields(self)
        self.unet_config()  # raises on a network no run could build

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


# config key -> the RunConfig field it sets, in declaration order
KEYS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _weight_count_error(count: int, num_classes: int) -> str | None:
    if count == num_classes:
        return None
    return f"loss.class_weights has {count} entries for {num_classes} classes (data.num_classes)"


def _value_error(f: Field, value) -> str | None:
    """Why value is not allowed for f's key, or None when it is."""
    key, allowed, check = f.metadata["key"], f.metadata["allowed"], f.metadata["check"]
    if isinstance(value, float) and not math.isfinite(value):  # inf passes "> 0" and ">= 0"
        return f"{key} must be finite, got {value!r}"
    if allowed and value not in allowed:
        return f"{key} must be one of {', '.join(allowed)}, got {value!r}"
    if check is not None and not check(value):
        return f"{key} must be {f.metadata['valid']}, got {value!r}"
    return None


def _validate_fields(cfg: RunConfig) -> None:
    for f in fields(cfg):
        problem = _value_error(f, getattr(cfg, f.name))
        if problem:
            raise ConfigError(problem)


def _convert(f: Field, value: str, where: str):
    key, kind = f.metadata["key"], type(f.default)
    if kind is bool:
        if value == "true":
            return True
        if value == "false":
            return False
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    if kind is str:
        return value
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} must be {kind.__name__}, "
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
        f = KEYS.get(key)
        if f is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{where}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        converted = _convert(f, value, where)
        problem = _value_error(f, converted)
        if problem:
            raise ConfigError(f"{where}: {problem}")
        values[f.name] = converted
    if values.get("class_weights"):  # checked for every loss kind, before any output exists
        problem = _weight_count_error(len(values["class_weights"].split(",")),
                                      values.get("num_classes", RunConfig.num_classes))
        if problem:
            raise ConfigError(f"{origin}:{first_line['loss.class_weights']}: {problem}")
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # main reports an OSError as a file error
        raise OSError(f"config file {path} is not UTF-8 text: "
                      f"{exc.reason} at byte {exc.start}") from None
    return parse_config_text(text, origin=str(path))


def emit_config(cfg: RunConfig) -> str:
    """Text form of a config; parse_config_text(emit_config(c)) == c."""
    lines = []
    for key in sorted(KEYS):
        value = getattr(cfg, KEYS[key].name)
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


def _write_text(path: Path, text: str) -> None:
    replace_atomically(path, lambda p: p.write_text(text))


def _write_provenance(out: Path, cfg: RunConfig, command: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.txt", emit_config(cfg))
    _write_text(out / "run.json", json.dumps(
        {"command": command, "seed": cfg.seed, "version": _version_string(),
         "malloc": MALLOC_TUNING, "blas": blas_in_effect(), "shards": shard_mode()},
        indent=2) + "\n")


def _check_fits_network(cfg: RunConfig, key: str, size: int) -> None:
    factor = 1 << cfg.depth
    if size % factor:
        raise ConfigError(f"{key} must be a multiple of 2**unet.depth = {factor}, got {size}")


def _load_images(cfg: RunConfig):
    # sizes the network cannot take fail here, before any data is generated
    _check_fits_network(cfg, "data.tile", cfg.tile)
    if not cfg.data_root and cfg.tile > cfg.image_size:
        raise ConfigError(f"data.tile must be at most data.size = {cfg.image_size}, got {cfg.tile}")
    if not cfg.data_root and not cfg.tile:
        _check_fits_network(cfg, "data.size", cfg.image_size)
    if cfg.data_root:
        # tiles need images at least a tile wide; untiled images must fit the
        # network and share one size, as batches stack them
        images = load_dataset(cfg.data_root, cfg.num_classes,
                              side_multiple=1 if cfg.tile else 1 << cfg.depth,
                              min_side=max(cfg.tile, 1), same_size=not cfg.tile)
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


def _cmd_train(cfg: RunConfig, out: Path, json_output: bool) -> Callable[[], int]:
    images = _load_images(cfg)
    train, val = _split_train_val(images, cfg)
    if not train:
        raise ConfigError(f"data.val_frac={cfg.val_frac!r} leaves no training image "
                          f"({len(images)} in validation)")
    fallback = None
    if cfg.loss_kind == "weighted_ce" and not cfg.class_weights:
        fallback = compute_class_weights([im.mask for im in train], cfg.num_classes)
    loss = cfg.loss_config(fallback_weights=fallback)
    model = build_unet(cfg.unet_config(), seed=cfg.seed)

    def step() -> int:
        run = train_loop(model, (train, val), cfg.train_config(loss), out_dir=out)
        print(f"trained {cfg.epochs} epochs on {len(train)} images "
              f"({len(val)} validation)")
        if run.records and val:
            print(f"best val mean IoU {run.best_val_mean_iou:.4f} at epoch {run.best_epoch}")
        print(f"outputs in {out}")
        return EXIT_OK
    return step


def _cmd_eval(cfg: RunConfig, out: Path, json_output: bool) -> Callable[[], int]:
    if not cfg.checkpoint:
        raise ConfigError("eval.checkpoint is required for the eval subcommand")
    model = load_checkpoint(cfg.checkpoint, cfg.unet_config())
    images = _load_images(cfg)

    def step() -> int:
        per_class, miou = evaluate(model, images, cfg.batch_size)
        for i, v in enumerate(per_class):
            print(f"class {i} IoU: {v:.4f}")
        print(f"mean IoU: {miou:.4f} over {len(images)} images")
        _write_text(out / "eval.json", json.dumps(
            {"checkpoint": cfg.checkpoint, "mean_iou": nan_to_none(miou),
             "per_class_iou": [nan_to_none(v) for v in per_class]}, indent=2) + "\n")
        return EXIT_OK
    return step


def _cmd_gradcheck(cfg: RunConfig, out: Path, json_output: bool) -> Callable[[], int]:
    def step() -> int:
        results = gradient_suite(seed=cfg.seed)
        print(render_suite(results))
        return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL
    return step


def _cmd_cost(cfg: RunConfig, out: Path, json_output: bool) -> Callable[[], int]:
    if cfg.cost_geometry == "reference":
        report = cost_report(reference_levels(cfg.local_range))
    else:
        if cfg.skip != "lfam":
            raise ConfigError(f"cost.geometry=model needs unet.skip=lfam, got {cfg.skip!r}")
        _check_fits_network(cfg, "cost.input_size", cfg.cost_input_size)
        report = network_cost_report(cfg.unet_config(), cfg.cost_input_size)

    def step() -> int:
        print(json.dumps(report_record(report), indent=2) if json_output
              else render_cost_table(report))
        return EXIT_OK
    return step


def _cmd_gen_data(cfg: RunConfig, out: Path, json_output: bool) -> Callable[[], int]:
    if cfg.num_classes > PGM_MAX_CLASSES:
        raise ConfigError(f"data.num_classes must be at most {PGM_MAX_CLASSES} for gen-data, "
                          f"whose PGM masks hold one byte per label, got {cfg.num_classes}")
    root = Path(cfg.data_root) if cfg.data_root else out / "dataset"
    images = gen_synthetic(cfg.n_images, cfg.image_size, cfg.num_classes,
                           cfg.rare_class_frac, seed=cfg.seed)

    def step() -> int:
        save_dataset(root, images)
        print(f"wrote {len(images)} images ({cfg.image_size}x{cfg.image_size}, "
              f"{cfg.num_classes} classes) to {root}")
        return EXIT_OK
    return step


# subcommand -> (help text, handler); every handler takes (cfg, out, json_output),
# checks the config, reads the inputs, and returns the step that does the work
COMMANDS = {
    "train": ("train a model and write logs plus the best checkpoint", _cmd_train),
    "eval": ("load a checkpoint and report per-class and mean IoU", _cmd_eval),
    "gradcheck": ("run the double-precision gradient suite", _cmd_gradcheck),
    "cost": ("print the attention flop comparison table", _cmd_cost),
    "gen-data": ("write a synthetic dataset to disk", _cmd_gen_data),
}


def dispatch(subcommand: str, cfg: RunConfig, json_output: bool = False) -> int:
    if subcommand not in COMMANDS:
        print(f"unknown subcommand {subcommand!r}; expected one of {', '.join(COMMANDS)}",
              file=sys.stderr)
        return EXIT_USAGE
    out = Path(cfg.out_dir)
    step = COMMANDS[subcommand][1](cfg, out, json_output)  # raises before any output exists
    _write_provenance(out, cfg, subcommand)
    return step()


# ---------------------------------------------------------------------------
# argv plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfam",
        description="Windowed source-target attention for U-Net skip connections.")
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key=value config file (defaults apply without it)")
        p.add_argument("--out", help="output directory (overrides run.out_dir)")
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
