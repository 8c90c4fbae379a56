"""The layer kernel and the brute-force oracle keep their output bits.

Each digest script hashes one side's outputs; its pinned file under
tests/data holds the value under one BLAS thread. kernel_sha256.txt covers
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
    "script, pinned",
    [("kernel_digest.py", "kernel_sha256.txt"), ("oracle_digest.py", "oracle_sha256.txt")],
)
def test_digest_matches_golden_under_one_blas_thread(script, pinned):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (ROOT / "tests" / "data" / pinned).read_text().strip()
