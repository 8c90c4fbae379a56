"""The layer kernel and the brute-force oracle keep their output bits.

Each digest script hashes one side's outputs; its pinned files under
tests/data hold the values under one and two BLAS threads. The kernel's
bits differ between the two (OpenBLAS splits some products by thread), so
kernel_sha256_two_blas_threads.txt holds its own value, written before the
softmax first ran tiles on a worker thread beside OpenBLAS's threads; the
oracle's bits are the same under both. kernel_sha256.txt covers
every schedule, collapsed visual groups and a migration at the last layer
included, and was written before `run_strategy` embedded the prompt once
and ran Vanilla through its runner table. oracle_sha256.txt was written
while reference_layer still looped over every row, head and key in Python.
OpenBLAS reads its thread count once when numpy loads, so each digest is
recomputed in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, blas_threads, pinned",
    [("kernel_digest.py", 1, "kernel_sha256.txt"),
     ("kernel_digest.py", 2, "kernel_sha256_two_blas_threads.txt"),
     ("oracle_digest.py", 1, "oracle_sha256.txt"),
     ("oracle_digest.py", 2, "oracle_sha256.txt")],
)
def test_digest_matches_golden(script, blas_threads, pinned):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (ROOT / "tests" / "data" / pinned).read_text().strip()
