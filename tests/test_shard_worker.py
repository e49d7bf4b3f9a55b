"""The forked shard worker: its lifecycle, its errors, and the bits of the
steps it takes part in.  Each test here runs the real fork path; the
split's bitwise and near-serial checks are in test_unet.py."""

import gc
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lfam import unet
from lfam.attention import LfamConfig, ResidualSource
from lfam.errors import NumericalError, ShardWorkerError
from lfam.rng import make_rng
from lfam.tensor import Tape, Tensor, backward
from lfam.train import FocalIouLoss, focal_iou_loss
from lfam.unet import SkipSpec, UNetConfig, build_unet, forward

pytestmark = pytest.mark.skipif(unet._fork_refusal() is not None or not os.path.isdir("/proc/self"),
                                reason=f"no forked worker here: {unet._fork_refusal()}")

SRC = Path(__file__).resolve().parents[1] / "src"

# one forward whose halves (1 x 128x128) reach the split floor; with "loop"
# it goes on splitting until it is stopped, with "_exit" it leaves by
# os._exit, so that no exit handler stops the worker
SPLIT_SCRIPT = """
import os, sys
import numpy as np
from lfam import unet
from lfam.tensor import Tensor
unet._cores = lambda: 2
model = unet.build_unet(unet.UNetConfig(base_channels=2, depth=1), seed=0)
x = Tensor(np.zeros((2, 1, 128, 128), np.float32))
print("splitting")  # still in the caller's stdout buffer when the worker forks
unet.forward(model, x)
print(unet._worker.pid, flush=True)
while sys.argv[1:] == ["loop"]:
    unet.forward(model, x)
if sys.argv[1:] == ["_exit"]:
    os._exit(0)
"""

# splits once, then leaves a child that holds the caller's end of the pipe
# open, and dies: only the worker's parent check can end it
ORPHAN_SCRIPT = """
import os, signal, time
import numpy as np
from lfam import unet
from lfam.tensor import Tensor
unet._cores = lambda: 2
model = unet.build_unet(unet.UNetConfig(base_channels=2, depth=1), seed=0)
unet.forward(model, Tensor(np.zeros((2, 1, 128, 128), np.float32)))
sleeper = os.fork()
if sleeper == 0:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    time.sleep(60)
    os._exit(0)
print(unet._worker.pid, sleeper, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def script_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # the scripts' stdout holds a buffer when they fork
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def gone(pid: int) -> bool:
    """True once pid has exited; a zombie counts, as PID 1 may not reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def gone_within(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def wide16(n=4, seed=80, dtype=np.float32):
    lf = LfamConfig(local_range=16, residual_source=ResidualSource.ENCODER)
    cfg = UNetConfig(in_channels=1, num_classes=4, base_channels=8, depth=2,
                     skips=(SkipSpec(kind="lfam", lfam=lf),) * 2)
    x = Tensor(make_rng(seed).random((n, 1, 64, 64)).astype(dtype), dtype=dtype)
    return build_unet(cfg, seed=seed, dtype=dtype), x, make_rng(seed + 1).integers(0, 4, (n, 64, 64))


def step(model, x, target):
    model.zero_grads()
    with Tape() as tape:
        loss = focal_iou_loss(forward(model, x), target, FocalIouLoss())
    return tape, loss


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(unet, "_cores", lambda: 2)


class TestLifecycle:
    @pytest.mark.parametrize("how", [[], ["_exit"]], ids=["return", "os._exit"])
    def test_a_script_that_splits_once_exits_and_leaves_no_worker(self, how):
        proc = subprocess.run([sys.executable, "-c", SPLIT_SCRIPT, *how], env=script_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""  # no traceback and no resource_tracker warning
        words = proc.stdout.split()
        assert words[:-1] == ["splitting"]  # the worker flushed no copy of the buffer
        assert gone_within(int(words[-1]), 5)

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGINT], ids=["sigkill", "sigint"])
    def test_a_caller_stopped_mid_split_leaves_no_worker(self, sig):
        proc = subprocess.Popen([sys.executable, "-c", SPLIT_SCRIPT, "loop"], env=script_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            assert proc.stdout.readline() == "splitting\n"
            pid = int(proc.stdout.readline())
            time.sleep(0.3)  # into the loop of splits
            proc.send_signal(sig)
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdout.close()
        assert gone_within(pid, 5)

    def test_a_worker_outliving_its_caller_exits_though_its_pipe_stays_open(self):
        proc = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT], env=script_env(),
                              stdout=subprocess.PIPE, text=True, timeout=60)
        worker, sleeper = map(int, proc.stdout.split())
        try:
            assert proc.returncode == -signal.SIGKILL
            assert gone_within(worker, 5)
        finally:
            os.kill(sleeper, signal.SIGKILL)

    def test_closing_the_callers_end_of_the_pipe_ends_the_worker(self, two_cores):
        model, x, _ = wide16()
        forward(model, x)
        worker = unet._worker
        worker.conn.close()  # the parent stays, so only end of file can end the worker
        try:
            assert gone_within(worker.pid, 5)
        finally:
            worker.stop()

    def test_the_worker_ignores_sigint(self, two_cores):
        model, x, _ = wide16()
        forward(model, x)
        pid = unet._worker.pid
        os.kill(pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
        time.sleep(0.5)
        forward(model, x)
        assert unet._worker.pid == pid and unet._worker.ended is None

    def test_a_killed_worker_makes_the_next_split_raise_a_named_error(self, two_cores):
        model, x, _ = wide16()
        want = unet._forward_layers(model, x, unet.lfam_forward).data
        forward(model, x)
        pid = unet._worker.pid
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(ShardWorkerError, match=f"pid {pid}.* killed by SIGKILL"):
            forward(model, x)
        np.testing.assert_array_equal(forward(model, x).data, want)  # a new worker
        assert unet._worker.pid != pid

    def test_a_collected_tape_and_model_are_released_with_the_next_request(self, two_cores):
        model, x, _ = wide16()
        with Tape():
            forward(model, x)
        gc.collect()
        key = unet._model_keys[model]
        assert len(unet._released) == 1  # the shard's sub-tape
        del model
        gc.collect()
        assert key in unet._released
        other, x, _ = wide16(seed=81)
        forward(other, x)
        assert unet._released == []


class TestErrors:
    def test_a_second_shard_numerical_error_keeps_its_type(self, two_cores):
        model, x, _ = wide16()
        x.data[3, 0, 5, 7] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            forward(model, x)

    def test_the_second_shard_runs_under_the_callers_error_state(self, two_cores):
        # the only overflow is in the first conv of image 3, in the worker's
        # half; the worker is forked first, under numpy's default error state
        model, x, target = wide16()
        step(model, x, target)
        x.data[3] = 3e38
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            step(model, x, target)


class TestBits:
    def test_two_models_backpropagated_in_reverse_order(self, two_cores, monkeypatch):
        # each worker-side model copy keeps its own parameters for its sub-tape
        models = [wide16(seed=82), wide16(seed=84)]
        tapes = [step(model, x, target) for model, x, target in models]
        for (model, _, _), (tape, loss) in reversed(list(zip(models, tapes))):
            backward(tape, loss)
        got = [model.grad.copy() for model, _, _ in models]
        monkeypatch.setattr(unet, "_cores", lambda: 1)
        for (model, x, target), g in zip(models, got):
            backward(*step(model, x, target))
            np.testing.assert_array_equal(g, model.grad)


BLAS_FIRST = """
import numpy
from lfam import unet
print(unet.shard_mode())
"""


def test_fork_is_refused_when_numpy_loaded_a_threaded_blas_first():
    env = script_env()
    env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", BLAS_FIRST], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() in ("in the caller: numpy's BLAS runs 2 threads",
                                   "in the caller: numpy was imported before lfam, and its "
                                   "BLAS thread count is unknown")
