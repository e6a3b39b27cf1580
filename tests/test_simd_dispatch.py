"""The pinned output bytes do not depend on numpy's SIMD dispatch.

numpy picks, at import time, the fastest kernels the CPU supports among its
dispatch targets. With NPY_DISABLE_CPU_FEATURES naming every target, a child
process runs the acceptance gates and the pinned-digest tests on the
baseline kernels alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import neurof0

multiarray_umath = pytest.importorskip("numpy._core._multiarray_umath")

REPO = Path(__file__).resolve().parents[1]
CHILD = """
import sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
assert not enabled, f"NPY_DISABLE_CPU_FEATURES left {enabled} enabled"
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider",
                      "tests/test_acceptance.py", "tests/test_pinned_outputs.py"]))
"""


def test_pinned_outputs_on_baseline_kernels():
    src = str(Path(neurof0.__file__).parents[1])
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": " ".join(multiarray_umath.__cpu_dispatch__),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
