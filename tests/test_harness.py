import numpy as np
import pytest

from parvts.errors import InvalidArgumentError
from parvts.harness import (
    ExperimentConfig,
    batch_oracle_divergence,
    compare_states,
    run_experiment,
    serialize_report,
)
from parvts.model import ModelConfig
from parvts.numerics import RngState, seeded_uniform
from parvts.scheduler import ScheduleConfig, Strategy

ALL_STRATEGIES = (
    Strategy.VANILLA,
    Strategy.PARVTS_BATCH,
    Strategy.PARVTS_MASKED,
    Strategy.SUBJECT_FIRST,
    Strategy.NONSUBJECT_FIRST,
)


def experiment(**overrides):
    base = dict(
        model=ModelConfig(
            num_layers=3,
            hidden_dim=16,
            num_heads=2,
            mlp_dim=32,
            vocab_size=53,
            max_positions=32,
            master_seed=11,
        ),
        num_system=2,
        num_visual=8,
        num_question=4,
        saliency_source="toy",
        keep_count=3,
        schedule=ScheduleConfig(Strategy.PARVTS_BATCH, 2, 0.5, 0.5, 1),
        decode_steps=3,
        strategies=ALL_STRATEGIES,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCompareStates:
    def test_equal_inputs(self):
        a = np.ones((3, 3))
        assert compare_states(a, a) == 0.0

    def test_single_entry_difference(self):
        a = np.zeros((2, 2))
        b = a.copy()
        b[0, 1] = 3.0
        assert compare_states(a, b) == 3.0

    def test_matches_direct_recomputation(self):
        rng = RngState(4)
        a = seeded_uniform(rng, 5, 6, 1.0)
        b = seeded_uniform(rng, 5, 6, 1.0)
        assert compare_states(a, b) == np.abs(a - b).max()

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compare_states(np.ones((2, 2)), np.ones((3, 2)))


class TestRunExperiment:
    def test_vanilla_self_comparison(self):
        report = run_experiment(experiment(strategies=(Strategy.VANILLA,)))
        block = report.blocks[0]
        assert block.agreement_vs_vanilla == 1.0
        assert block.max_divergence_vs_vanilla == 0.0
        assert block.rho_prefill == 1.0

    def test_reduction_chain_agreement(self):
        config = experiment(
            keep_count=8,
            schedule=ScheduleConfig(Strategy.PARVTS_BATCH, 3, 0.0, 1.0, 1),
            strategies=(Strategy.VANILLA, Strategy.PARVTS_BATCH),
        )
        report = run_experiment(config)
        batch = report.blocks[1]
        assert batch.agreement_vs_vanilla == 1.0
        assert batch.max_divergence_vs_vanilla <= 1e-9

    def test_cache_counts_after_decoding(self):
        report = run_experiment(experiment())
        for block in report.blocks:
            if block.strategy in ("ParVTSBatch", "ParVTSMasked"):
                expected = 2 + 3 + 4 + 3  # |S| + k + |T| + M
                assert block.cache_entries_per_layer == [expected] * 3

    def test_masked_batch_gap_filled_for_both_modes(self):
        report = run_experiment(experiment())
        gaps = {
            block.strategy: block.masked_batch_gap
            for block in report.blocks
            if block.strategy in ("ParVTSBatch", "ParVTSMasked")
        }
        assert len(gaps) == 2
        assert all(g is not None and np.isfinite(g) for g in gaps.values())
        vanilla_block = report.blocks[0]
        assert vanilla_block.masked_batch_gap is None

    def test_oracle_divergence_reported_for_batch(self):
        assert batch_oracle_divergence(experiment()) <= 1e-6

    def test_run_does_not_call_the_oracle(self, monkeypatch):
        config = experiment()
        unpatched = serialize_report(run_experiment(config))

        def no_oracle(*args, **kwargs):
            raise AssertionError("run_experiment called the two-pass oracle")

        monkeypatch.setattr("parvts.harness.oracle_two_pass", no_oracle)
        assert serialize_report(run_experiment(config)) == unpatched

    def test_sequential_flops_do_not_exceed_vanilla(self):
        report = run_experiment(experiment())
        vanilla = report.blocks[0]
        for block in report.blocks[1:]:
            assert block.prefill_flops <= vanilla.prefill_flops
            assert block.rho_prefill >= 1.0

    def test_file_saliency_source(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("\n".join(str((i % 3) / 4) for i in range(8)) + "\n")
        report = run_experiment(experiment(saliency_source=str(path)))
        assert report.blocks  # parsed and ran

    def test_file_saliency_wrong_length(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n0.5\n")
        with pytest.raises(InvalidArgumentError):
            run_experiment(experiment(saliency_source=str(path)))

    def test_keep_count_validated(self):
        with pytest.raises(InvalidArgumentError, match="keep_count"):
            experiment(keep_count=9)

    def test_byte_identical_reports(self):
        config = experiment()
        first = serialize_report(run_experiment(config))
        second = serialize_report(run_experiment(config))
        assert first == second


class TestSerialization:
    def test_normative_fields_present(self):
        text = serialize_report(run_experiment(experiment()))
        for name in (
            "schema_version",
            "strategy =",
            "tokens_subject =",
            "tokens_nonsubject =",
            "prefill_flops =",
            "decoding_flops =",
            "rho_prefill =",
            "rho_decoding =",
            "cache_entries_per_layer =",
            "decoded_ids =",
            "agreement_vs_vanilla =",
            "max_divergence_vs_vanilla =",
            "masked_batch_gap =",
        ):
            assert name in text

    def test_config_echo_replayable(self):
        config = experiment()
        report = run_experiment(config)
        for key in ("model.layers", "tokens.visual", "schedule.strategy", "decode.steps"):
            assert key in report.config_echo
