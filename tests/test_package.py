"""Importing recflow gives BLAS one thread unless the caller chose a count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recflow

THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS")
SRC = str(Path(recflow.__file__).resolve().parent.parent)


def run_python(code, caller_env):
    """Run ``code`` in a fresh interpreter whose environment holds none of
    the thread-count variables except ``caller_env``; return its JSON."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_COUNTS}
    env.update(caller_env, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *THREAD_COUNTS],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=60)
    return json.loads(done.stdout)


REPORT = """
import json, os, sys
import recflow
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "env": {k: os.environ[k] for k in sys.argv[1:]
                          if k in os.environ}}))
"""


def test_import_sets_one_blas_thread_without_importing_numpy():
    got = run_python(REPORT, {})
    assert got == {"numpy": False, "env": {"OPENBLAS_NUM_THREADS": "1"}}


@pytest.mark.parametrize("caller_env", [
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OMP_NUM_THREADS": "3"},
    {"GOTO_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"},
], ids=["openblas", "omp", "goto-mkl"])
def test_import_keeps_the_callers_thread_counts(caller_env):
    got = run_python(REPORT, caller_env)
    assert got == {"numpy": False, "env": caller_env}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads through /proc/self/task")
def test_numpy_imported_after_recflow_runs_one_thread():
    code = ("import json, os; import recflow; import numpy as np; "
            "a = np.ones((400, 400)); a @ a; "
            "print(json.dumps(len(os.listdir('/proc/self/task'))))")
    assert run_python(code, {}) == 1
