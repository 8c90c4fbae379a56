"""The brute-force oracle keeps its output bits.

tests/data/oracle_sha256.txt was written by tests/oracle_digest.py under one
BLAS thread while reference_layer still looped over every row, head and key
in Python; the vectorized steps must reproduce it. OpenBLAS reads its thread
count once when numpy loads, so the digest is recomputed in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_digest_matches_golden_under_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "oracle_digest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (ROOT / "tests" / "data" / "oracle_sha256.txt").read_text().strip()
