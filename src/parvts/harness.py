"""Seeded experiment execution and machine-readable run reports.

An experiment builds one model, synthesizes one token sequence, partitions
the visual segment once, then runs every requested strategy on identical
inputs, decodes greedily from each prefill, and collects token accounting,
analytic FLOPs numbers, and divergence statistics against the vanilla run.
The toy model has no semantics, so agreement rates are descriptive, never
pass/fail thresholds. `seeded_inputs` and `decode_after` are the one
statement of those inputs and of where decoding starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .cost import CostParams, decoding_flops_vanilla, prefill_flops_vanilla, schedule_cost
from .errors import InvalidArgumentError, SaliencyFormatError
from .model import (
    Model, ModelConfig, SequenceLayout, build_model, embed, greedy_decode, output_logits,
)
from .numerics import RngState, seeded_integers
from .oracle import oracle_two_pass
from .saliency import Partition, SaliencyScores, load_saliency, partition_topk, toy_cls_attention
from .scheduler import PrefillResult, ScheduleConfig, Strategy, run_strategy

SCHEMA_VERSION = 1

# Token synthesis draws from a counter region far above the weight draws.
_TOKEN_STREAM_COUNTER = 2**32

@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    num_system: int
    num_visual: int
    num_question: int
    saliency_source: str  # "toy" or a path to a saliency file
    keep_count: int
    schedule: ScheduleConfig
    decode_steps: int
    strategies: tuple[Strategy, ...]

    def __post_init__(self):
        """The count rules, then room for every position, then the schedule."""
        if self.num_visual < 1:
            raise InvalidArgumentError("num_visual must be >= 1")
        if self.num_question < 1:
            raise InvalidArgumentError("num_question must be >= 1")
        if self.num_system < 0:
            raise InvalidArgumentError("num_system must be >= 0")
        if not 0 <= self.keep_count <= self.num_visual:
            raise InvalidArgumentError(
                f"keep_count {self.keep_count} outside [0, num_visual = {self.num_visual}]"
            )
        if self.decode_steps < 0:
            raise InvalidArgumentError("decode_steps must be >= 0")
        needed = self.num_system + self.num_visual + self.num_question + self.decode_steps
        if self.model.max_positions < needed:
            raise InvalidArgumentError(
                f"max_positions {self.model.max_positions} below the {needed} "
                "prompt and decode positions"
            )
        self.schedule.validate(self.model.num_layers)
        if not self.strategies:
            raise InvalidArgumentError("at least one strategy is required")

    def echo(self) -> dict[str, str]:
        """Fully-resolved configuration as dotted key/value pairs."""
        owners = {ModelConfig: self.model, ScheduleConfig: self.schedule, ExperimentConfig: self}
        echoed = {}
        for key, (owner, name, _) in RUN_KEYS.items():
            value = getattr(owners[owner], name)
            echoed[key] = value.value if isinstance(value, Strategy) else str(value)
        return echoed


# Every `run` config key: key -> (dataclass it sets, field name, default as
# text). configfile derives the schema, the value types, the constructor
# arguments and the key names in error messages from it; echo() its output.
RUN_KEYS: dict[str, tuple[type, str, str]] = {
    "model.layers": (ModelConfig, "num_layers", "4"),
    "model.hidden_dim": (ModelConfig, "hidden_dim", "32"),
    "model.heads": (ModelConfig, "num_heads", "4"),
    "model.mlp_dim": (ModelConfig, "mlp_dim", "64"),
    "model.vocab": (ModelConfig, "vocab_size", "101"),
    "model.seed": (ModelConfig, "master_seed", "0"),
    "tokens.system": (ExperimentConfig, "num_system", "4"),
    "tokens.visual": (ExperimentConfig, "num_visual", "16"),
    "tokens.question": (ExperimentConfig, "num_question", "6"),
    "schedule.strategy": (ScheduleConfig, "strategy", "ParVTSBatch"),
    "schedule.migration_depth": (ScheduleConfig, "migration_depth", "2"),
    "schedule.alpha": (ScheduleConfig, "alpha", "0.5"),
    "schedule.beta": (ScheduleConfig, "beta", "0.5"),
    "schedule.joint_prefix": (ScheduleConfig, "joint_prefix_layers", "1"),
    "partition.keep_count": (ExperimentConfig, "keep_count", "8"),
    "partition.saliency": (ExperimentConfig, "saliency_source", "toy"),
    "decode.steps": (ExperimentConfig, "decode_steps", "4"),
}


@dataclass
class StrategyReport:
    strategy: str
    n: int
    alpha: float
    beta: float
    tokens_subject: int
    tokens_nonsubject: int
    prefill_flops: float
    decoding_flops: float
    rho_prefill: float
    rho_decoding: float
    cache_entries_per_layer: list[int]
    decoded_ids: list[int]
    agreement_vs_vanilla: float
    max_divergence_vs_vanilla: float
    masked_batch_gap: float | None = None


@dataclass
class RunReport:
    schema_version: int
    config_echo: dict[str, str]
    blocks: list[StrategyReport]


def compare_states(a, b) -> float:
    """Max elementwise |a - b|."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def synthesize_token_ids(model_config: ModelConfig, count: int) -> np.ndarray:
    """Deterministic uniform token ids from the master seed."""
    rng = RngState(model_config.master_seed, counter=_TOKEN_STREAM_COUNTER)
    return seeded_integers(rng, count, 0, model_config.vocab_size)


def seeded_inputs(
    model_config: ModelConfig,
    num_system: int,
    num_visual: int,
    num_question: int,
    saliency_source: str = "toy",
) -> tuple[Model, SequenceLayout, np.ndarray, SaliencyScores]:
    """The model, layout, token ids and visual saliency a seeded experiment runs on.

    "toy" takes the [CLS]-attention saliency of the embedded visual ids; any
    other source is the path of a saliency file.
    """
    model = build_model(model_config)
    layout = SequenceLayout(num_system, num_visual, num_question)
    ids = synthesize_token_ids(model_config, layout.output_start)
    if saliency_source == "toy":
        visual_ids = ids[layout.visual_span[0] : layout.visual_span[1]]
        saliency = toy_cls_attention(embed(model, visual_ids), model_config.master_seed)
    else:
        try:
            saliency = load_saliency(saliency_source)
        except (OSError, SaliencyFormatError) as exc:
            raise InvalidArgumentError(f"partition.saliency: {exc}") from exc
        if len(saliency) != num_visual:
            raise InvalidArgumentError(
                f"partition.saliency has {len(saliency)} values for "
                f"tokens.visual = {num_visual}"
            )
    return model, layout, ids, saliency


def decode_after(model: Model, result: PrefillResult, steps: int) -> list[int]:
    """Greedy decode over result.cache, fed first the argmax of the last prefill row."""
    start_token = int(np.argmax(output_logits(model, result.hidden[-1:])[0]))
    return greedy_decode(model, result.cache, start_token, steps)


def _strategy_flops(
    strategy: Strategy, params: CostParams, partition: Partition
) -> tuple[float, float, float, float]:
    """(prefill, decoding, rho_prefill, rho_decoding) for one strategy; a sequential
    strategy costs the schedule whose first stage holds the group it runs first."""
    if strategy is Strategy.VANILLA:
        return prefill_flops_vanilla(params), decoding_flops_vanilla(params), 1.0, 1.0
    if strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED):
        return schedule_cost(params)
    if strategy is Strategy.SUBJECT_FIRST:
        return schedule_cost(params, first=partition.keep_count)
    return schedule_cost(params, first=partition.nonsubject_indices.size)


def run_experiment(config: ExperimentConfig, config_echo: dict[str, str] | None = None) -> RunReport:
    """Run every requested strategy on one seeded input and collect a report."""
    model, layout, ids, saliency = seeded_inputs(
        config.model, config.num_system, config.num_visual, config.num_question,
        config.saliency_source,
    )
    partition = partition_topk(saliency, config.keep_count)

    params = CostParams(
        p=partition.pruning_rate,
        n=config.schedule.migration_depth,
        N=config.model.num_layers,
        L_text=config.num_system + config.num_question,
        L_img=config.num_visual,
        M=config.decode_steps,
        d=config.model.hidden_dim,
        m=config.model.mlp_dim,
    )

    def run_one(strategy: Strategy):
        cfg = replace(config.schedule, strategy=strategy)
        result = run_strategy(model, ids, layout, partition, cfg)
        return result, decode_after(model, result, config.decode_steps)

    # one run per strategy, Vanilla first: it is the comparison baseline even
    # when its block is not requested
    runs = {s: run_one(s) for s in dict.fromkeys((Strategy.VANILLA, *config.strategies))}
    vanilla, vanilla_decoded = runs[Strategy.VANILLA]
    vanilla_question = vanilla.hidden[-config.num_question :]
    parvts_modes = (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED)
    gap = None
    if all(mode in runs for mode in parvts_modes):
        gap = compare_states(
            *(runs[mode][0].diagnostics["question_at_migration"] for mode in parvts_modes)
        )

    blocks: list[StrategyReport] = []
    for strategy in config.strategies:
        result, decoded = runs[strategy]
        max_abs = compare_states(result.hidden[-config.num_question :], vanilla_question)
        agreement = (
            float(np.mean(np.array(decoded) == np.array(vanilla_decoded)))
            if decoded
            else 1.0
        )

        pf, df, rho_p, rho_d = _strategy_flops(strategy, params, partition)
        blocks.append(
            StrategyReport(
                strategy=strategy.value,
                n=config.schedule.migration_depth,
                alpha=config.schedule.alpha,
                beta=config.schedule.beta,
                tokens_subject=int(partition.keep_count),
                tokens_nonsubject=int(config.num_visual - partition.keep_count),
                prefill_flops=pf,
                decoding_flops=df,
                rho_prefill=rho_p,
                rho_decoding=rho_d,
                cache_entries_per_layer=result.cache.entry_counts(),
                decoded_ids=list(decoded),
                agreement_vs_vanilla=agreement,
                max_divergence_vs_vanilla=max_abs,
                masked_batch_gap=gap if strategy in parvts_modes else None,
            )
        )

    return RunReport(
        schema_version=SCHEMA_VERSION,
        config_echo=config_echo if config_echo is not None else config.echo(),
        blocks=blocks,
    )


def batch_oracle_divergence(config: ExperimentConfig) -> float:
    """Max |ParVTSBatch - two-pass oracle| over the final hidden rows of the seeded input.

    The brute-force oracle is kept off `run_experiment`; this runs it on request.
    """
    model, layout, ids, saliency = seeded_inputs(
        config.model, config.num_system, config.num_visual, config.num_question,
        config.saliency_source,
    )
    partition = partition_topk(saliency, config.keep_count)
    cfg = replace(config.schedule, strategy=Strategy.PARVTS_BATCH)
    result = run_strategy(model, ids, layout, partition, cfg)
    reference = oracle_two_pass(model, ids, layout, partition, cfg)
    return compare_states(result.hidden, reference.hidden)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(map(_fmt, value))
    return str(value)


def serialize_report(report: RunReport) -> str:
    """Key/value text with nested blocks; byte-identical for identical runs."""
    lines = [f"schema_version = {report.schema_version}", "config {"]
    for key in sorted(report.config_echo):
        lines.append(f"  {key} = {report.config_echo[key]}")
    lines.append("}")
    for block in report.blocks:
        lines.append("strategy_block {")
        for f in fields(StrategyReport):
            lines.append(f"  {f.name} = {_fmt(getattr(block, f.name))}")
        lines.append("}")
    return "\n".join(lines) + "\n"
