"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of BENCHMARK.json (run it to print the
file).  README.md gives, for every per-layer metric, the end-to-end metric
it is expected to move and the workload where the move should show.  It
imports nothing from numpy or lfam, so the entry script can read it before
the BLAS thread count is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SWEEP_SIZES = (32, 64, 128, 256)
SWEEP_RANGES = (3, 4, 7, 16)


@dataclass(frozen=True)
class Workload:
    """One benchmark input set; every workload uses base 8, depth 2, 4 classes
    and lfam skips with the encoder residual at both levels."""

    name: str
    size: int        # image side
    batch: int
    m: int           # window side (local_range)
    train: bool      # a unit is a training step, else an evaluation batch
    n_images: int    # images generated; units cycle through them in order
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("desk32", 32, 8, 4, True, 64,
             "criterion-7 training step (32x32, batch 8, m=4), the ROADMAP unit of work; "
             "conv and upconv backward and tape overhead dominate, attention is ~10%, no window padded"),
    Workload("wide16", 64, 4, 16, True, 32,
             "training step on 64x64, batch 4, m=16: attention is the largest forward layer "
             "and the tape holds ~150 MiB, so attention and memory work show here"),
    Workload("eval128", 128, 4, 7, False, 16,
             "forward-only evaluation on 128x128, batch 4, default m=7 with padded windows "
             "and no tape; backward and tape changes should leave it unchanged"),
)}

# Tiny variants for perfbench/selftest.py; not part of BENCHMARK.json.
SELFTEST_WORKLOADS = {w.name: w for w in (
    Workload("tiny-train", 16, 2, 4, True, 4, "self-test of the training path"),
    Workload("tiny-eval", 16, 2, 3, False, 4, "self-test of the evaluation path, padded windows"),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end only: allowed worsening, share of the parent median


# Timing bounds are the largest allowed: on a shared 2-vCPU host the medians
# of ten 30 s runs spread by 5-22% (quartile distance over median; see
# README.md), and longer runs were no steadier than shorter ones.
END_TO_END = (
    Metric("step_ms_p50", "ms", "lower", 0.25),
    Metric("step_ms_tail", "ms", "lower", 0.25),
    Metric("img_per_s", "img/s", "higher", 0.25),
    Metric("peak_mib", "MiB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    Metric("tensor.nodes", "count", "lower"),
    Metric("tensor.walk_ms", "ms", "lower"),
    Metric("tensor.tape_mib", "MiB", "lower"),
    Metric("tensor.relu.fwd_ms", "ms", "lower"),
    Metric("tensor.relu.bwd_ms", "ms", "lower"),
    Metric("ops.conv2d.fwd_ms", "ms", "lower"),
    Metric("ops.conv2d.bwd_ms", "ms", "lower"),
    Metric("ops.conv2d.calls", "count", "lower"),
    Metric("ops.upconv2x2.fwd_ms", "ms", "lower"),
    Metric("ops.upconv2x2.bwd_ms", "ms", "lower"),
    Metric("ops.maxpool2x2.fwd_ms", "ms", "lower"),
    Metric("ops.maxpool2x2.bwd_ms", "ms", "lower"),
    Metric("attention.fwd_ms", "ms", "lower"),
    Metric("attention.proj.fwd_ms", "ms", "lower"),
    Metric("attention.bmm.fwd_ms", "ms", "lower"),
    Metric("attention.softmax.fwd_ms", "ms", "lower"),
    Metric("attention.window.fwd_ms", "ms", "lower"),
    Metric("attention.bwd_ms", "ms", "lower"),
    Metric("attention.softmax.bwd_ms", "ms", "lower"),
    Metric("attention.bmm.bwd_ms", "ms", "lower"),
    Metric("attention.flops", "flop", "lower"),
    Metric("attention.gflops", "GFLOP/s", "higher"),
    Metric("unet.fwd_ms", "ms", "lower"),
    Metric("unet.fwd_gflops", "GFLOP/s", "higher"),
    Metric("train.loss.fwd_ms", "ms", "lower"),
    Metric("train.loss.bwd_ms", "ms", "lower"),
    Metric("train.optim_ms", "ms", "lower"),
    Metric("train.metrics_ms", "ms", "lower"),
    Metric("data.gen_ms", "ms", "lower"),
    Metric("data.batch_ms", "ms", "lower"),
    # tracing overhead: traced against untraced units interleaved in one run
    Metric("trace.step_ms_p50", "ms", "lower"),
    Metric("trace.untraced_step_ms_p50", "ms", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
) + tuple(
    # lfam_forward alone, beside costmodel.attention_cost_local; no end-to-end metric
    Metric(f"sweep.s{size}.m{m}.{what}", unit, better)
    for size in SWEEP_SIZES for m in SWEEP_RANGES
    for what, unit, better in (("fwd_ms", "ms", "lower"), ("bwd_ms", "ms", "lower"),
                               ("gflops", "GFLOP/s", "higher"))
)


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
