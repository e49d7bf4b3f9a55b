"""Importing lfam raises glibc malloc's thresholds and leaves a user's choice alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

try:
    GLIBC = bool(os.confstr("CS_GNU_LIBC_VERSION"))
except (AttributeError, ValueError, OSError):
    GLIBC = False


def run_python(code: str, **env_vars: str) -> list[str]:
    """stdout lines of code run in a fresh interpreter with no malloc settings but env_vars."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.split("\n")[:-1]


# a freed 4 MiB array goes back to the kernel under glibc's default
# thresholds, and each new one faults its 1,024 pages in again
FAULTS = """
import resource
import lfam, numpy as np
print(lfam.MALLOC_TUNING)
np.ones(1 << 19)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(40):
    a = np.empty(1 << 19)
    a.fill(1.0)
    del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

SHOW = "import lfam; print(lfam.MALLOC_TUNING)"


@pytest.mark.skipif(not GLIBC, reason="the C library is not glibc")
def test_freed_arrays_stay_in_the_heap():
    tuning, faults = run_python(FAULTS)
    assert tuning == "raised"
    assert int(faults) < 50


@pytest.mark.skipif(not GLIBC, reason="the C library is not glibc")
@pytest.mark.parametrize("var, value", [("MALLOC_TRIM_THRESHOLD_", "131072"),
                                        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072")])
def test_a_user_malloc_setting_is_left_alone(var, value):
    assert run_python(SHOW, **{var: value}) == [f"skipped: {var} set by the user"]


def test_a_library_without_glibc_is_skipped():
    fake = "import os\ndef confstr(name): raise ValueError(name)\nos.confstr = confstr\n"
    assert run_python(fake + SHOW) == ["skipped: the C library is not glibc"]


@pytest.mark.skipif(not GLIBC, reason="the C library is not glibc")
def test_a_refused_mallopt_is_reported():
    fake = ("import ctypes, types\n"
            "ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=lambda param, value: 0)\n")
    assert run_python(fake + SHOW) == ["skipped: mallopt returned 0"]
