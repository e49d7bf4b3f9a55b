#!/usr/bin/env python3
"""Train a small attention-skip U-Net on synthetic shapes and report test IoU.

Desk-scale demo of the full pipeline: data generation, train/val/test split,
training with the cosine schedule, and evaluation of the best checkpoint.
Writes log.csv, summary.json, and best.ckpt into the run directory.
"""

import argparse
import json
import time
from pathlib import Path

from lfam import (
    FocalIouLoss,
    LfamConfig,
    SkipSpec,
    TrainConfig,
    UNetConfig,
    build_unet,
    evaluate,
    gen_synthetic,
    train_loop,
)
from lfam.data import replace_atomically
from lfam.train import nan_to_none


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/desk", help="run output directory")
    ap.add_argument("--epochs", type=int, default=120)
    ap.add_argument("--n-images", type=int, default=80)
    ap.add_argument("--image-size", type=int, default=32)
    ap.add_argument("--num-classes", type=int, default=4)
    ap.add_argument("--local-range", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    images = gen_synthetic(args.n_images, args.image_size, args.num_classes,
                           rare_class_frac=0.015, seed=123)
    n_test = args.n_images // 5
    n_val = args.n_images // 5
    test = images[:n_test]
    val = images[n_test:n_test + n_val]
    train = images[n_test + n_val:]
    print(f"dataset: {len(train)} train / {len(val)} val / {len(test)} test, "
          f"{args.image_size}x{args.image_size}, {args.num_classes} classes")

    unet_cfg = UNetConfig(
        in_channels=1,
        num_classes=args.num_classes,
        base_channels=8,
        depth=2,
        skips=(SkipSpec(kind="lfam",
                        lfam=LfamConfig(local_range=args.local_range)),) * 2,
    )
    model = build_unet(unet_cfg, seed=args.seed)
    train_cfg = TrainConfig(optimizer="adam", lr_base=1e-3, epochs=args.epochs,
                            batch_size=8, schedule="cosine",
                            loss=FocalIouLoss(), seed=args.seed)

    t0 = time.monotonic()
    run = train_loop(model, (train, val), train_cfg, out_dir=out_dir)
    elapsed = time.monotonic() - t0
    print(f"trained {args.epochs} epochs in {elapsed:.1f}s; "
          f"best val mean IoU {run.best_val_mean_iou:.4f} "
          f"at epoch {run.best_epoch}")

    # train_loop leaves the model at its best validation epoch
    per_class, mean = evaluate(model, test, batch_size=train_cfg.batch_size)
    print("test per-class IoU:",
          " ".join(f"{v:.4f}" for v in per_class))
    print(f"test mean IoU: {mean:.4f}")

    record = {
        "best_epoch": run.best_epoch,
        "best_val_mean_iou": nan_to_none(run.best_val_mean_iou),
        "test_mean_iou": nan_to_none(mean),
        "test_per_class_iou": [nan_to_none(v) for v in per_class],
        "elapsed_seconds": elapsed,
    }
    text = json.dumps(record, indent=2) + "\n"
    replace_atomically(out_dir / "desk_result.json", lambda p: p.write_text(text))
    print(f"wrote {out_dir / 'desk_result.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
