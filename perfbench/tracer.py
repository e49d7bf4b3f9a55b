"""Per-layer tracing of lfam from outside the package.

Nothing in lfam is edited.  While a traced unit runs, the names that
lfam.unet and lfam.attention imported (conv2d, relu, bmm, masked_softmax,
window_split, ...) are replaced by timing wrappers, the fusion module is
passed in as a timing `lfam_fn`, and before `backward` every tape node's
vjp is wrapped and named after its `_Node.op`.  Tape-index ranges recorded
around the fusion calls and the loss assign backward nodes to attention
and to the loss; every other node is charged to the op that made it.

Spans (name, start, end, parent, unit) stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import numpy as np

import lfam.attention
import lfam.unet
from lfam.costmodel import attention_flops_local

# module -> {imported name: span name}
_FORWARD_SPANS = {
    lfam.unet: {
        "conv2d": "ops.conv2d.fwd",
        "upconv2x2": "ops.upconv2x2.fwd",
        "maxpool2x2": "ops.maxpool2x2.fwd",
        "relu": "tensor.relu.fwd",
    },
    lfam.attention: {
        "conv2d": "attention.proj.fwd",
        "bmm": "attention.bmm.fwd",
        "masked_softmax": "attention.softmax.fwd",
        **{name: "attention.window.fwd" for name in (
            "pad_bottom_right", "window_split", "permute", "reshape",
            "window_merge", "crop_top_left")},
    },
}

_ATTENTION_BWD = {"masked_softmax": "attention.softmax.bwd", "bmm": "attention.bmm.bwd",
                  "conv2d": "attention.proj.bwd"}
_WINDOW_OPS = frozenset(_FORWARD_SPANS[lfam.attention]) - {"conv2d", "bmm", "masked_softmax"}
_OPS_BWD = {"conv2d": "ops.conv2d.bwd", "upconv2x2": "ops.upconv2x2.bwd",
            "maxpool2x2": "ops.maxpool2x2.bwd"}


class NullTracer:
    """Stands in for a Tracer in untraced units: records nothing."""

    lfam_fn = None
    tape = None
    loss_range = (0, 0)

    def span(self, name):
        return contextlib.nullcontext()

    def unit(self, uid):
        return contextlib.nullcontext()

    def wrap_vjps(self, tape):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, unit id]
        self._stack: list[int] = []
        self._unit = -1
        self.ok_units: list[int] = []    # units that completed; others are dropped
        self.tape = None
        self.loss_range = (0, 0)
        self._attn_ranges: list[tuple[int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)   # summed over completed units
        self._unit_counts: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._unit]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    @contextlib.contextmanager
    def unit(self, uid: int):
        """Trace one unit: wrap lfam's imported names for its duration."""
        self._unit, self.tape, self.loss_range = uid, None, (0, 0)
        self._attn_ranges = []
        self._unit_counts = defaultdict(float)
        saved = [(mod, name, getattr(mod, name))
                 for mod, names in _FORWARD_SPANS.items() for name in names]
        for mod, name, fn in saved:
            setattr(mod, name, self._timed(_FORWARD_SPANS[mod][name], fn))
        try:
            with self.span("unit"):
                yield
            self.ok_units.append(uid)
            for key, value in self._unit_counts.items():
                self.counts[key] += value
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def lfam_fn(self, encoder, decoder, params, cfg):
        """Timing stand-in for lfam_forward; records the call's tape-index range."""
        first = len(self.tape.nodes) if self.tape is not None else 0
        with self.span("attention.fwd"):
            out = lfam.attention.lfam_forward(encoder, decoder, params, cfg)
        if self.tape is not None:
            self._attn_ranges.append((first, len(self.tape.nodes)))
        n, _, h, w = encoder.shape
        self._unit_counts["attention.flops"] += n * attention_flops_local(
            h, w, params.proj_channels, cfg.local_range)
        return out

    def _backward_name(self, index: int, op: str) -> str:
        if any(lo <= index < hi for lo, hi in self._attn_ranges):
            if op in _WINDOW_OPS:
                return "attention.window.bwd"
            return _ATTENTION_BWD.get(op, "attention.other.bwd")
        lo, hi = self.loss_range
        if lo <= index < hi:
            return "train.loss.bwd"
        return _OPS_BWD.get(op, f"tensor.{op}.bwd")

    def wrap_vjps(self, tape) -> None:
        """Time every node's vjp under a name chosen by op and tape index."""
        for i, node in enumerate(tape.nodes):
            node.vjp = self._timed(self._backward_name(i, node.op), node.vjp)
        self._unit_counts["tensor.nodes"] += len(tape.nodes)
        buffers = {}
        for node in tape.nodes:  # views share their base's buffer; count it once
            arr = node.out.data
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        self._unit_counts["tensor.tape_bytes"] += sum(buffers.values())

    # -- aggregation --------------------------------------------------------

    def span_table(self) -> list[tuple]:
        """(id, unit, name, parent id, start, end, inclusive, self) for completed units.

        Self time is the inclusive time minus the time of the direct children.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ok = set(self.ok_units)
        return [(i, unit, name, parent, start, end, end - start, end - start - child[i])
                for i, (name, start, end, parent, unit) in enumerate(self.spans)
                if unit in ok]

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and span count per name, over completed units."""
        incl, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for *_, name, _, _, _, inclusive, own in self.span_table():
            incl[name] += inclusive
            self_t[name] += own
            calls[name] += 1
        return incl, self_t, calls
