"""Serialized reports must stay byte-identical across refactors.

The files under tests/data were written by `serialize_report` for
demos/experiment.cfg with all five strategies: once as shipped; once with
64 visual tokens, 24 kept and 40 decode steps, so that decoding crosses at
least one capacity doubling in every cache layer and two in the smaller ones;
and once at the benchmark's head size (d = 64) with 300 visual tokens, where
a layer kernel that splits query rows differently changes the last bits of
the decode logits, which the two d = 32 cases do not show.

OpenBLAS splits large products by its thread count, which is read once when
numpy loads, so the cases are also run in subprocesses under 1 and 2 threads.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parvts.configfile import experiment_config_from, load_config
from parvts.harness import run_experiment, serialize_report
from parvts.scheduler import Strategy

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

CASES = {
    "experiment_all_strategies.txt": (),
    "experiment_long_decode.txt": (
        "tokens.visual=64", "partition.keep_count=24", "decode.steps=40",
    ),
    "experiment_d64_long_prompt.txt": (
        "model.hidden_dim=64", "model.mlp_dim=128", "tokens.visual=300",
        "partition.keep_count=40", "decode.steps=24",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name):
    resolved = load_config(str(ROOT / "demos" / "experiment.cfg"), CASES[name])
    config = dataclasses.replace(experiment_config_from(resolved), strategies=tuple(Strategy))
    report = serialize_report(run_experiment(config, resolved))
    assert report.encode("utf-8") == (DATA / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reports_match_golden_bytes_under_blas_threads(threads):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=threads,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    )
    code = (
        "import test_golden_reports as t\n"
        "for name in sorted(t.CASES):\n"
        "    t.test_report_matches_golden_bytes(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
