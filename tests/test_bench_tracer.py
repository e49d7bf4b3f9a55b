"""The names perfbench's tracer wraps must stay in lfam.

perfbench/tracer.py swaps the names that lfam.unet and lfam.attention
imported for timing wrappers and passes a timing `lfam_fn` into
`unet.forward`.  A rename in lfam would only show when a traced benchmark
run dies with AttributeError, and an attention op the wrappers no longer
see would only show as wrong per-layer numbers; these checks catch both
in the unit tests.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

import lfam.attention
import lfam.unet
from lfam.attention import LfamConfig
from lfam.tensor import Tape, Tensor, backward, sum_all
from lfam.unet import SkipSpec, UNetConfig, build_unet, forward

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_of_its_module():
    spans = load_tracer()._FORWARD_SPANS
    assert set(spans) == {lfam.unet, lfam.attention}
    missing = [f"{mod.__name__}.{name}" for mod, names in spans.items() for name in names
               if not callable(getattr(mod, name, None))]
    assert not missing


def test_forward_takes_lfam_fn():
    assert "lfam_fn" in inspect.signature(lfam.unet.forward).parameters


def test_traced_unit_times_the_attention_core_under_attention_names():
    # bench.py divides attention.gflops by the bmm and softmax forward time
    # (the core calls no softmax, so by the bmm time alone), and charges a
    # fusion call's backward nodes by their tape index
    tracer = load_tracer().Tracer()
    lf = LfamConfig(local_range=4)
    model = build_unet(UNetConfig(base_channels=4, depth=2,
                                  skips=(SkipSpec(kind="lfam", lfam=lf),) * 2), seed=0)
    x = Tensor(np.random.default_rng(0).random((2, 1, 16, 16)).astype(np.float32))
    with tracer.unit(0):
        with Tape() as tape:
            tracer.tape = tape
            loss = sum_all(forward(model, x, lfam_fn=tracer.lfam_fn))
        tracer.tape = None
        tracer.wrap_vjps(tape)
        backward(tape, loss)
    names = {span[0] for span in tracer.spans}
    assert "attention.bmm.fwd" in names
    cores = [i for i, node in enumerate(tape.nodes) if node.op == "window_attention"]
    assert len(cores) == 2
    assert all(tracer._backward_name(i, "window_attention").startswith("attention.")
               for i in cores)
    assert "tensor.window_attention.bwd" not in names


def test_traced_no_tape_unit_with_padded_windows_reports_attention_gflops(monkeypatch):
    # a no-tape forward runs the core block by block through a kept scratch
    # buffer; its products must still pass through the wrapped bmm, or
    # bench.layer_metrics divides attention.flops by zero
    monkeypatch.syspath_prepend(str(TRACER.parent))
    bench = importlib.import_module("bench")
    from catalog import SELFTEST_WORKLOADS

    wl = SELFTEST_WORKLOADS["tiny-eval"]
    assert not wl.train and wl.size % wl.m  # no tape, padded windows
    runner = bench.Runner(wl, seed=0)
    tracer = bench.Tracer()
    runner.unit(1, tracer)
    names = {span[0] for span in tracer.spans}
    assert "attention.bmm.fwd" in names
    assert math.isfinite(bench.layer_metrics(runner, tracer)["attention.gflops"])
