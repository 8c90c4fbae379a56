"""The layer kernel keeps its output bits for every schedule.

tests/data/kernel_sha256.txt was written by tests/kernel_digest.py under one
BLAS thread before the kernel stopped building a mask for decode steps and
started scanning each prefill mask once per run_layers call. OpenBLAS reads
its thread count once when numpy loads, so the digest is recomputed in a
subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_digest_matches_golden_under_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "kernel_digest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (ROOT / "tests" / "data" / "kernel_sha256.txt").read_text().strip()
