"""Dense 4-D tensors and a reverse-mode differentiation tape.

Tensors are 4-D arrays, mostly indexed (batch, channels, height, width);
their memory order is whatever the producing op left (conv outputs are
channel-major).  The one other layout, attention's window rows, is
defined in lfam.attention together with the ops that enter and leave it.
Operations executed while a Tape is active append nodes in creation
order; leaf_grads() replays the nodes once, in reverse, and returns the
gradient of every requires_grad tensor not produced on the tape, and
backward() accumulates those into .grad.  Without an active tape the same
functions are plain numpy computations.  unet's split training step runs
each half-batch on its own sub-tape, the second in a worker process, and
records one node over both; its vjp walks each sub-tape with leaf_grads,
which writes no .grad, and sums their gradients.

The generic ops here are mul, relu, masked_softmax, the sums,
concat_channels and the views; each layer of lfam.ops, the window-
attention core and each loss records one node of its own.

One op may reuse the buffer it consumes: relu takes overwrite=True to
write its result into its input's buffer, and unet's conv blocks pass it
for the conv or norm output.  No vjp reads that input (relu's vjp masks
with its output: out > 0 is a > 0; channel_norm's keeps its standardized
planes, not its output).  The window-attention core
(attention._window_core) calls no masked_softmax: it takes exp in its
own score buffer and normalises through its P·V product.  No vjp writes
into the gradient it is handed; the one in-place gradient write is inside
that core's vjp, which turns each block of windows' probability gradient
into their scores' gradient in one block-sized buffer that it formed and
reuses for every block.

Training code runs in float32; gradient checking must run in float64
because central differences are unreliable in single precision.
"""

from __future__ import annotations

import math
import struct
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateWindowError,
    NumericalError,
    ShapeError,
)


class Tensor:
    """Dense real array of shape (n, c, h, w) with an optional gradient slot.

    Lower-rank input is left-padded with singleton axes, so a plain nested
    list behaves as a (1, 1, r, c) matrix.  Tensors are immutable after
    construction except for gradient accumulation into .grad (and parameter
    updates, which require exclusive access).  backward fills .grad only on
    tensors not produced on the tape, such as parameters and inputs; a model's
    parameters' .data and .grad are views of unet.ModelState's flat buffers.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if dtype is None and arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ShapeError(f"tensor rank must be <= 4, got shape {arr.shape}")
        if arr.ndim < 4:
            arr = arr.reshape((1,) * (4 - arr.ndim) + arr.shape)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        """Zero .grad in place, so a model parameter's stays a view of ModelState.grad."""
        if self.grad is not None:
            self.grad.fill(0)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: output tensor plus a closure producing input grads.

    vjp(g) returns one gradient (or None) per input and never mutates g.
    """

    __slots__ = ("op", "inputs", "out", "vjp")

    def __init__(self, op: str, inputs: Sequence[Tensor], out: Tensor, vjp: Callable):
        self.op = op
        self.inputs = tuple(inputs)
        self.out = out
        self.vjp = vjp


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager; every op executed inside appends one node, so
    topological order equals creation order.  A tape and the tensors recorded
    on it form a single-owner group: safe to hand to another thread, not safe
    to mutate from two threads at once.  Independent tapes may record and be
    walked by leaf_grads in parallel (the active-tape stack is thread local),
    also when they share leaves such as parameters.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.stack.pop()
        assert popped is self, "tape stack corrupted"
        return False


class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []


_TAPE_STACK = _TapeStack()


def _active_tape() -> Tape | None:
    return _TAPE_STACK.stack[-1] if _TAPE_STACK.stack else None


def _apply(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, vjp: Callable) -> Tensor:
    """Wrap a forward result, recording the node if a tape is active."""
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.nodes.append(_Node(op, inputs, out, vjp))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad of every requires_grad leaf.

    Only leaves, the requires_grad tensors not produced on this tape, receive
    .grad; outputs of recorded nodes pass their gradient on and keep .grad
    None.  Gradients add to whatever is already in .grad; callers zero
    between steps.  No vjp writes into the gradient it is handed, so running
    backward twice over the same tape doubles every gradient exactly.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    for t, g in leaf_grads(tape, loss, np.ones_like(loss.data)):
        _accumulate(t, g)


def leaf_grads(tape: Tape, out: Tensor, seed: np.ndarray) -> list[tuple[Tensor, np.ndarray]]:
    """(leaf, gradient) pairs for seed flowing back from out through tape.

    Replays the nodes once, in reverse, and returns one pair per
    requires_grad tensor not produced on the tape that out depends on.
    Writes no .grad, so the caller decides how the gradients of tapes that
    share leaves combine.
    """
    # id -> (tensor, gradient flowing into it); every recorded output has
    # requires_grad, so that flag alone decides which inputs get a flow
    flows: dict[int, tuple[Tensor, np.ndarray]] = {id(out): (out, seed)}
    for node in reversed(tape.nodes):
        entry = flows.pop(id(node.out), None)
        if entry is None:
            continue  # output never reached out
        for t, gi in zip(node.inputs, node.vjp(entry[1])):
            if gi is None or not t.requires_grad:
                continue
            prev = flows.get(id(t))
            flows[id(t)] = (t, gi if prev is None else prev[1] + gi)
    # what is left are leaves: tensors never produced on this tape
    return [(t, g) for t, g in flows.values() if t.requires_grad]


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast input."""
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise ops


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes(a, b, "mul")
    return _apply("mul", (a, b), a.data * b.data,
                  lambda g: (_unbroadcast(g * b.data, a.shape),
                             _unbroadcast(g * a.data, b.shape)))


def relu(a: Tensor, *, overwrite: bool = False) -> Tensor:
    """max(a, 0); overwrite=True writes it into a's buffer, which the vjp never reads."""
    out = np.maximum(a.data, 0, out=a.data if overwrite else None)
    return _apply("relu", (a,), out, lambda g: (g * (out > 0),))


# ---------------------------------------------------------------------------
# reductions and data movement


def sum_all(a: Tensor) -> Tensor:
    return sum_axes(a, (0, 1, 2, 3))


def sum_axes(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Sum over the given axes, keeping singleton dims so rank stays 4."""
    if any(ax not in (0, 1, 2, 3) for ax in axes):
        raise ContractError(f"sum_axes: invalid axes {axes}")
    out = a.data.sum(axis=axes, keepdims=True)
    return _apply("sum_axes", (a,), out,
                  lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False),))


def reshape(a: Tensor, shape: tuple[int, int, int, int]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _apply("reshape", (a,), a.data.reshape(shape),
                  lambda g: (g.reshape(a.shape),))


def permute(a: Tensor, axes: tuple[int, int, int, int]) -> Tensor:
    if sorted(axes) != [0, 1, 2, 3]:
        raise ContractError(f"permute: {axes} is not a permutation of (0,1,2,3)")
    inv = tuple(int(np.argsort(axes)[i]) for i in range(4))
    return _apply("permute", (a,), a.data.transpose(axes),
                  lambda g: (g.transpose(inv),))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels: incompatible shapes {a.shape} and {b.shape}")
    ca = a.shape[1]
    return _apply("concat_channels", (a, b), np.concatenate([a.data, b.data], axis=1),
                  lambda g: (g[:, :ca], g[:, ca:]))


# ---------------------------------------------------------------------------
# softmax


def masked_softmax(logits: Tensor, mask: np.ndarray | None) -> Tensor:
    """Softmax over the last axis; masked positions output exactly 0.

    mask is a boolean array broadcastable to logits, True marking real
    positions, or None when every position is real.  Masked logits are set
    to -inf before the row max is subtracted, so exp gives them exactly 0
    and they add nothing to the row sum.  Unmasked outputs sum to 1 per
    row; a fully masked row is a degenerate window and raises.
    """
    x = logits.data
    # NaN and -inf show in the min, +inf in the max: no full-size bool scan
    row_max = x.max(axis=3, keepdims=True) if mask is None else None
    hi = x.max() if row_max is None else row_max.max()
    if not (np.isfinite(x.min()) and np.isfinite(hi)):
        raise NumericalError("masked_softmax: logits contain non-finite values")
    if mask is None:
        p = x - row_max
    else:
        mask = np.asarray(mask, dtype=bool)
        mask = mask.reshape((1,) * (x.ndim - mask.ndim) + mask.shape)
        np.broadcast_to(mask, x.shape)  # raises unless mask broadcasts to the logits
        if not mask.any(axis=3).all():
            raise DegenerateWindowError("masked_softmax: a row has every position masked")
        p = x.copy()
        np.copyto(p, -np.inf, where=~mask)
        p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=3, keepdims=True)

    def vjp(g):
        gx = g - np.einsum("abcd,abcd->abc", g, p)[..., None]
        gx *= p
        return (gx,)

    return _apply("masked_softmax", (logits,), p, vjp)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[..., Tensor], *xs: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    f must be a deterministic scalar-valued function of the tensors xs;
    one backward gives every argument's gradient, and every element of
    every argument is bumped while the others hold their values.  The
    check always runs in float64; the relative error for element i is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not xs:
        raise ContractError("grad_check: no tensor to check")
    if not (1e-6 <= eps <= 1e-3):
        raise ContractError(f"grad_check: eps {eps} outside [1e-6, 1e-3]")
    bases = [np.asarray(x.data, dtype=np.float64) for x in xs]
    leaves = [Tensor(base.copy(), requires_grad=True) for base in bases]
    with Tape() as tape:
        y = f(*leaves)
    if y.data.size != 1:
        raise ContractError(f"grad_check: f returned shape {y.shape}, expected scalar")
    if not np.isfinite(y.data).all():
        raise NumericalError("grad_check: f(x) is non-finite")
    backward(tape, y)
    analytic = np.concatenate([np.zeros(leaf.size) if leaf.grad is None else leaf.grad.ravel()
                               for leaf in leaves])
    if not np.isfinite(analytic).all():
        raise NumericalError("grad_check: analytic gradient is non-finite")

    numeric = []
    for j, base in enumerate(bases):
        args = [Tensor(b) for b in bases]
        args[j] = Tensor(base.copy())  # f sees each bump made through flat
        flat = args[j].data.reshape(-1)
        for k, value in enumerate(base.flat):
            flat[k] = value + eps
            fp = f(*args).item()
            flat[k] = value - eps
            fm = f(*args).item()
            flat[k] = value
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericalError(f"grad_check: non-finite evaluation at element {k} of xs[{j}]")
            numeric.append((fp - fm) / (2.0 * eps))
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# serialization: magic "LFT1", four little-endian uint32 dims, float32 payload

_MAGIC = b"LFT1"


def tensor_to_bytes(t: Tensor) -> bytes:
    n, c, h, w = t.shape
    return _MAGIC + struct.pack("<4I", n, c, h, w) + t.data.astype("<f4").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Decode one tensor record, returning it and the offset past the record."""
    if buf[offset:offset + 4] != _MAGIC:
        raise ContractError("tensor record: bad magic bytes")
    dims = struct.unpack_from("<4I", buf, offset + 4)
    count = math.prod(dims)  # a Python int: np.prod wraps at 2**64
    start = offset + 20
    end = start + 4 * count
    if end > len(buf):
        raise ContractError("tensor record: truncated payload")
    data = np.frombuffer(buf[start:end], dtype="<f4").reshape(dims)
    return Tensor(data.astype(np.float32)), end
