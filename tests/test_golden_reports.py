"""Serialized reports must stay byte-identical across refactors.

The files under tests/data were written by `serialize_report` for
demos/experiment.cfg with all five strategies: once as shipped, and once with
64 visual tokens, 24 kept and 40 decode steps, so that decoding crosses at
least one capacity doubling in every cache layer and two in the smaller ones.
"""

import dataclasses
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name):
    resolved = load_config(str(ROOT / "demos" / "experiment.cfg"), CASES[name])
    config = dataclasses.replace(experiment_config_from(resolved), strategies=tuple(Strategy))
    report = serialize_report(run_experiment(config, resolved))
    assert report.encode("utf-8") == (DATA / name).read_bytes()
