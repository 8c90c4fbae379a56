"""All five prefill strategies on one seeded input, side by side.

The run report carries token accounting, analytic FLOPs, greedy decodes,
and divergence against the vanilla baseline; the batch schedule's divergence
from the brute-force two-pass oracle is computed separately, on request. The
interesting readout is the masked-vs-batch question gap: the two parallel
formulations agree exactly on system and subject rows but differ on question
rows by construction, since joint attention over both groups is not a
weighted average of attending to each group separately.
"""

from parvts import ExperimentConfig, ModelConfig, ScheduleConfig, Strategy, run_experiment
from parvts.harness import batch_oracle_divergence, serialize_report

config = ExperimentConfig(
    model=ModelConfig(
        num_layers=4,
        hidden_dim=32,
        num_heads=4,
        mlp_dim=64,
        vocab_size=97,
        max_positions=48,
        master_seed=3,
    ),
    num_system=4,
    num_visual=16,
    num_question=6,
    saliency_source="toy",
    keep_count=6,
    schedule=ScheduleConfig(Strategy.PARVTS_BATCH, migration_depth=2),
    decode_steps=6,
    strategies=(
        Strategy.VANILLA,
        Strategy.PARVTS_BATCH,
        Strategy.PARVTS_MASKED,
        Strategy.SUBJECT_FIRST,
        Strategy.NONSUBJECT_FIRST,
    ),
)

report = run_experiment(config)

print(f"{'strategy':<16} {'rho_pre':>8} {'agree':>6} {'max div':>10} {'cache/layer':>12}")
for block in report.blocks:
    cache = block.cache_entries_per_layer[0]
    print(
        f"{block.strategy:<16} {block.rho_prefill:>8.3f} "
        f"{block.agreement_vs_vanilla:>6.2f} {block.max_divergence_vs_vanilla:>10.2e} "
        f"{cache:>12}"
    )

batch = next(b for b in report.blocks if b.strategy == "ParVTSBatch")
print(f"\nbatch vs two-pass oracle, max |d| = {batch_oracle_divergence(config):.3e}")
print(f"masked vs batch question gap at the migration layer = {batch.masked_batch_gap:.3e}")

print("\nfull report document:\n")
print(serialize_report(report))
