"""Set-up, timed loop, output checks and metrics for one workload.

A unit is one training step (forward, compute_loss, backward, Adam
optimizer_step) or one evaluation batch (forward, predict_labels,
IouAccumulator.update).  The loop is closed: one process, one unit at a
time, each batch assembled from the generated images when its unit starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import lfam
from lfam.attention import LfamConfig, ResidualSource, init_lfam_params, lfam_forward, windowed_reference
from lfam.costmodel import attention_cost_local
from lfam.data import gen_synthetic
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward, sum_all
from lfam.train import (FocalIouLoss, IouAccumulator, compute_loss, init_optimizer,
                        optimizer_step, predict_labels)
from lfam.unet import SkipSpec, UNetConfig, build_unet, count_flops_and_params, forward

from catalog import END_TO_END, PER_LAYER, SWEEP_RANGES, SWEEP_SIZES, Workload
from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

NUM_CLASSES = 4
RARE_CLASS_FRAC = 0.015   # CLI default
LR = 1e-3                 # CLI default base rate, held constant
LOSS = FocalIouLoss()     # CLI default loss
ORACLE_TOL = 1e-4         # float32 vs float64 through ~12 layers; observed <= 3e-6 over 36 seeds x workloads
MIN_EPOCHS = 2            # the loop sees every batch at least twice, for the loss-falls check
SETUP_REPEATS = {False: 4, True: 1}   # extra set-ups in fresh processes, untraced / traced
SWEEP_CHANNELS = 8
SWEEP_REPEATS, SWEEP_BUDGET_S = 3, 0.25

_NULL = NullTracer()


def model_config(wl: Workload) -> UNetConfig:
    lf = LfamConfig(local_range=wl.m, residual_source=ResidualSource.ENCODER)
    return UNetConfig(in_channels=1, num_classes=NUM_CLASSES, base_channels=8, depth=2,
                      skips=(SkipSpec(kind="lfam", lfam=lf),) * 2)


class Runner:
    """Generated data, model and optimizer state of one workload."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        t = perf_counter()
        images = gen_synthetic(wl.n_images, wl.size, NUM_CLASSES, RARE_CLASS_FRAC, seed=seed)
        self.gen_s = perf_counter() - t
        self.groups = [images[i:i + wl.batch] for i in range(0, len(images), wl.batch)]
        self.model = build_unet(model_config(wl), seed=seed)
        self.opt = init_optimizer("adam")
        self.acc = IouAccumulator(NUM_CLASSES)

    def unit(self, uid: int, tr=_NULL):
        """Run unit `uid` on batch uid mod the batch count; returns (x, loss or None, logits)."""
        with tr.unit(uid):
            with tr.span("data.batch"):
                group = self.groups[uid % len(self.groups)]
                x = Tensor(np.concatenate([im.image.data for im in group], axis=0))
                target = np.stack([im.mask for im in group])
            if not self.wl.train:
                with tr.span("unet.fwd"):
                    logits = forward(self.model, x, lfam_fn=tr.lfam_fn)
                with tr.span("train.metrics"):
                    self.acc.update(predict_labels(logits), target)
                if not np.isfinite(logits.data).all():
                    raise FloatingPointError("non-finite logits")
                return x, None, logits
            model = self.model
            model.zero_grads()
            with Tape() as tape:
                tr.tape = tape
                with tr.span("unet.fwd"):
                    logits = forward(model, x, lfam_fn=tr.lfam_fn)
                first = len(tape.nodes)
                with tr.span("train.loss.fwd"):
                    loss = compute_loss(logits, target, LOSS)
                tr.loss_range = (first, len(tape.nodes))
            tr.tape = None  # the tape must die with this unit, not live into the next
            value = loss.item()
            if not math.isfinite(value):
                raise FloatingPointError(f"non-finite loss {value}")
            tr.wrap_vjps(tape)
            with tr.span("tensor.backward"):
                backward(tape, loss)
            with tr.span("train.optim"):
                optimizer_step(self.opt, model.params,
                               {name: p.grad for name, p in model.params.items()}, LR)
            return x, value, logits


def fingerprint(loss, logits) -> str:
    """Bit-exact digest of a unit's outputs, compared across processes."""
    digest = hashlib.sha256(np.ascontiguousarray(logits.data).tobytes()).hexdigest()[:16]
    return digest if loss is None else f"{float(loss).hex()}/{digest}"


def prepare(wl: Workload, seed: int, t0: float):
    """Set-up as a user pays it: data, model, one warm-up unit (unit 0)."""
    if Path(lfam.__file__).resolve().parent != ROOT / "src" / "lfam":
        raise SystemExit(f"error: lfam imported from {lfam.__file__}, not from {ROOT / 'src'}")
    runner = Runner(wl, seed)
    x, loss, logits = runner.unit(0)
    runner.first = (x, loss, logits.data.copy())
    return runner, perf_counter() - t0


def setup_only(wl: Workload, seed: int, t0: float) -> int:
    runner, setup_s = prepare(wl, seed, t0)
    _, loss, logits = runner.first
    print(json.dumps({"setup_s": setup_s, "fingerprint": fingerprint(loss, Tensor(logits))}))
    return 0


def timed_loop(runner: Runner, seconds: float, tracer: Tracer | None):
    """Units until `seconds` have passed and every batch ran MIN_EPOCHS times.

    With a tracer, odd units are traced and even ones are not, so both
    halves see the same drift in machine load.
    """
    min_units = MIN_EPOCHS * len(runner.groups)
    times = {False: [], True: []}
    losses = [runner.first[1]]
    failed = attempted = 0
    start = perf_counter()
    while attempted < min_units or perf_counter() - start < seconds:
        uid = attempted + 1
        traced = tracer is not None and uid % 2 == 1
        attempted += 1
        t = perf_counter()
        try:
            _, loss, _ = runner.unit(uid, tracer if traced else _NULL)
        except Exception:  # a failed unit is counted and the run goes on
            failed += 1
            if failed <= 3:
                traceback.print_exc()
            continue
        times[traced].append(perf_counter() - t)
        losses.append(loss)
    return times, losses, attempted, failed, perf_counter() - start


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    s, n = sorted(times_ms), len(times_ms)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def peak_mib(runner: Runner, uid: int) -> float:
    """tracemalloc peak over one untimed unit, after warm-up."""
    tracemalloc.start()
    try:
        runner.unit(uid)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def more_setups(wl: Workload, seed: int, count: int) -> list[dict]:
    """Set-up repeated in fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl.name,
                               "--seed", str(seed), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def check_outputs(runner: Runner, losses: list, fingerprints: list[str]) -> list[tuple]:
    """(name, ok, detail) for every output check of the run."""
    wl = runner.wl
    checks = []
    x0, loss0, logits0 = runner.first

    def oracle(encoder, decoder, params, cfg):
        return Tensor(windowed_reference(encoder, decoder, params, cfg))

    ref = forward(build_unet(model_config(wl), seed=runner.seed), x0, lfam_fn=oracle).data
    err = float(np.abs(logits0 - ref).max())
    allowed = ORACLE_TOL * (1.0 + float(np.abs(ref).max()))
    checks.append(("oracle", err <= allowed,
                   f"first-unit logits vs float64 windowed_reference: max abs err {err:.3g} "
                   f"(allowed {allowed:.3g})"))

    mine = fingerprint(loss0, Tensor(logits0))
    same = all(f == mine for f in fingerprints)
    checks.append(("deterministic", same and bool(fingerprints),
                   f"warm-up {'loss and ' if wl.train else ''}logits identical in "
                   f"{len(fingerprints) + 1} processes" if same else
                   f"warm-up outputs differ: {[mine] + fingerprints}"))

    if wl.train:
        k = len(runner.groups)
        finite = all(math.isfinite(v) for v in losses)
        checks.append(("finite", finite, f"{len(losses)} losses finite"))
        if finite and len(losses) >= 2 * k:
            first, last = statistics.fmean(losses[:k]), statistics.fmean(losses[-k:])
            checks.append(("loss-falls", last < first,
                           f"mean loss over the first {k} units {first:.5f}, last {k} {last:.5f}"))
        else:
            checks.append(("loss-falls", False, f"only {len(losses)} losses for {k}-batch epochs"))
    else:
        acc = runner.acc
        ok = bool((acc.intersection <= acc.union).all() and acc.union.sum() > 0)
        checks.append(("iou", ok, f"intersection {acc.intersection.tolist()} "
                                  f"union {acc.union.tolist()}"))
    return checks


def attention_sweep(seed: int) -> tuple[dict, list[dict]]:
    """lfam_forward forward and backward alone, beside costmodel.attention_cost_local."""
    rng = make_rng(seed, stream=7)
    metrics, table = {}, []
    d = SWEEP_CHANNELS
    for size in SWEEP_SIZES:
        for m in SWEEP_RANGES:
            params = init_lfam_params(d, rng)
            cfg = LfamConfig(local_range=m)
            enc, dec = (Tensor(rng.standard_normal((1, d, size, size), dtype=np.float32),
                               requires_grad=True) for _ in range(2))
            leaves = (enc, dec) + params.tensors()
            fwd, bwd = [], []
            while len(fwd) < SWEEP_REPEATS and sum(fwd) + sum(bwd) < SWEEP_BUDGET_S:
                with Tape() as tape:
                    t0 = perf_counter()
                    out = lfam_forward(enc, dec, params, cfg)
                    t1 = perf_counter()
                    loss = sum_all(out)
                t2 = perf_counter()
                backward(tape, loss)
                bwd.append(perf_counter() - t2)
                fwd.append(t1 - t0)
                del tape, out, loss  # free this tape before the next one is built
                for t in leaves:
                    t.zero_grad()
            cost = attention_cost_local(size, size, d, m)
            f_s, b_s = statistics.median(fwd), statistics.median(bwd)
            key = f"sweep.s{size}.m{m}"
            metrics[f"{key}.fwd_ms"] = f_s * 1e3
            metrics[f"{key}.bwd_ms"] = b_s * 1e3
            metrics[f"{key}.gflops"] = cost.total / f_s / 1e9
            table.append({"size": size, "m": m, "channels": d, "repeats": len(fwd),
                          "fwd_ms": f_s * 1e3, "bwd_ms": b_s * 1e3,
                          "flops_matmul": cost.matmul, "flops_softmax": cost.softmax,
                          "flops_total": cost.total})
    return metrics, table


def layer_metrics(runner: Runner, tracer: Tracer) -> dict:
    """Per-layer means per traced unit (data.gen_ms: once per run)."""
    incl, own, calls = tracer.totals()
    n = len(tracer.ok_units)
    if n == 0:
        raise RuntimeError("no traced unit completed")
    counts = tracer.counts
    bwd_attention = sum(v for k, v in incl.items()
                        if k.startswith("attention.") and k.endswith(".bwd"))
    net_flops, _ = count_flops_and_params(runner.model, runner.wl.size)
    special = {
        "tensor.nodes": counts["tensor.nodes"] / n,
        "tensor.walk_ms": own["tensor.backward"] * 1e3 / n,
        "tensor.tape_mib": counts["tensor.tape_bytes"] / n / 2**20,
        "ops.conv2d.calls": calls["ops.conv2d.fwd"] / n,
        "attention.bwd_ms": bwd_attention * 1e3 / n,
        "attention.flops": counts["attention.flops"] / n,
        "attention.gflops": counts["attention.flops"]
        / (own["attention.bmm.fwd"] + own["attention.softmax.fwd"]) / 1e9,
        "unet.fwd_gflops": net_flops * runner.wl.batch * n / incl["unet.fwd"] / 1e9,
        "data.gen_ms": runner.gen_s * 1e3,
    }
    out = {}
    for m in PER_LAYER:
        if m.name in special:
            out[m.name] = special[m.name]
        elif m.name.endswith("_ms") and not m.name.startswith(("trace.", "sweep.")):
            out[m.name] = incl[m.name[:-3]] * 1e3 / n
    return out


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout's git directory, read from its files; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(wl: Workload, seed: int, seconds: float, trace: bool, t0: float) -> int:
    runner, setup_s = prepare(wl, seed, t0)
    tracer = Tracer() if trace else None
    times, losses, attempted, failed, wall = timed_loop(runner, seconds, tracer)
    if not trace:
        peak = peak_mib(runner, attempted + 1)

    extra = more_setups(wl, seed, SETUP_REPEATS[trace])
    checks = check_outputs(runner, losses, [e["fingerprint"] for e in extra])
    setups = [setup_s] + [e["setup_s"] for e in extra]

    plain_ms = [t * 1e3 for t in times[False]]
    details = {"units": {"attempted": attempted, "failed": failed,
                         "fail_ratio": failed / attempted, "loop_s": wall},
               "setup_s_samples": setups}
    if trace:
        traced_ms = [t * 1e3 for t in times[True]]
        metrics = layer_metrics(runner, tracer)
        metrics["trace.step_ms_p50"] = statistics.median(traced_ms)
        metrics["trace.untraced_step_ms_p50"] = statistics.median(plain_ms)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.step_ms_p50"]
                                                 / metrics["trace.untraced_step_ms_p50"] - 1.0)
        sweep, details["sweep"] = attention_sweep(seed)
        metrics.update(sweep)
        catalog = PER_LAYER
    else:
        value, pct, n = tail(plain_ms)
        details["step_ms_tail"] = {"percentile": pct, "samples": n}
        done = len(times[False])
        metrics = {"step_ms_p50": statistics.median(plain_ms), "step_ms_tail": value,
                   "img_per_s": done * wl.batch / wall, "peak_mib": peak,
                   "setup_s": statistics.median(setups)}
        catalog = END_TO_END

    env = environment(seed)
    units = {m.name: m.unit for m in catalog}
    result = {"correct": failed == 0 and all(ok for _, ok, _ in checks),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    write_results(wl, seed, trace, env, checks, details, result, tracer)

    print("env " + json.dumps(env))
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAIL'} - {detail}")
    print(f"units: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4g}")
    if not trace:
        print(f"step_ms_tail is p{pct:.1f} of {n} samples")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def write_results(wl, seed, trace, env, checks, details, result, tracer) -> None:
    """One JSON record per run, plus the span table of a traced run."""
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{seed}-trace{int(trace)}"
    record = {"workload": wl.name, "env": env,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "details": details, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        lines = ["id,unit,name,parent,start_s,end_s,inclusive_s,self_s"]
        lines += [",".join(map(str, row)) for row in tracer.span_table()]
        stem.with_name(stem.name + "-spans.csv").write_text("\n".join(lines) + "\n")
