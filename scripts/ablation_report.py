#!/usr/bin/env python3
"""Compare skip-connection variants on a shared synthetic dataset.

Trains concatenation skips against attention skips (window sizes 3/5/7,
residual from encoder/decoder/none) over several seeds, then prints a table
of test mean IoU and rare-class IoU and whether the encoder-residual
placement came out best.  Full run takes tens of minutes at default scale;
pass --quick for a structural smoke run.
"""

import argparse
import json
from pathlib import Path

from lfam.ablation import AblationConfig, render_text, run_ablation, to_record
from lfam.data import replace_atomically


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/ablation", help="output directory")
    ap.add_argument("--quick", action="store_true",
                    help="tiny dataset and epoch count, structure only")
    args = ap.parse_args()

    if args.quick:
        cfg = AblationConfig(n_images=12, image_size=16, num_classes=3,
                             rare_class_frac=0.04, base_channels=4, depth=2,
                             epochs=4, batch_size=4, seeds=(0,),
                             data_seed=50, local_ranges=(3, 5, 7))
    else:
        cfg = AblationConfig()

    report = run_ablation(cfg)
    text = render_text(report)
    print(text)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = json.dumps(to_record(report), indent=2) + "\n"
    replace_atomically(out_dir / "ablation.json", lambda p: p.write_text(record))
    replace_atomically(out_dir / "ablation.txt", lambda p: p.write_text(text + "\n"))
    print(f"wrote {out_dir / 'ablation.json'} and {out_dir / 'ablation.txt'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
