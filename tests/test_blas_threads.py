"""Importing lfam defaults the BLAS to one thread and leaves a user's choice alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code: str, **env_vars: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip()


SHOW_VARS = f"import lfam, os; print(*(os.environ[v] for v in {VARS!r}))"

# numpy's Linux wheels bundle scipy-openblas, which exports its thread getter
OPENBLAS_THREADS = """
import ctypes, glob, os, sys
import lfam, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
if not libs:
    sys.exit(3)
print(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
"""


def test_import_sets_one_thread_when_unset():
    assert run_python(SHOW_VARS) == "1 1 1"


def test_import_leaves_a_user_choice_alone():
    assert run_python(SHOW_VARS, OPENBLAS_NUM_THREADS="3", MKL_NUM_THREADS="2") == "3 1 2"


def test_bundled_openblas_runs_one_thread():
    try:
        out = run_python(OPENBLAS_THREADS)
    except subprocess.CalledProcessError as err:
        if err.returncode == 3:
            pytest.skip("numpy does not bundle scipy-openblas here")
        raise
    assert out == "1"
