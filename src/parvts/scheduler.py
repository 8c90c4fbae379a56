"""Execution strategies for the subject / non-subject visual-token split.

Five prefill schedules over the same toy decoder:

* Vanilla               -- full causal prefill, nothing pruned.
* ParVTSBatch           -- joint prefix, two parallel branches (one per
                           visual group, each with its own question copy),
                           weighted fusion of the question states at the
                           migration layer, then a subject-only continuation.
* ParVTSMasked          -- the single-pass variant: one sequence whose
                           attention mask makes the two visual groups
                           mutually invisible until the migration layer,
                           where the non-subject rows are dropped.
* SubjectFirst          -- subject tokens only in early layers, then the
                           visual slots are swapped for the non-subject
                           embeddings (system/question states persist).
* NonSubjectFirst       -- mirror image of SubjectFirst.

The two ParVTS modes are one runner, `_run_parvts`, that differs only in
layers j+1..n; with an empty visual group ParVTSBatch takes the masked pass.
Both end with no cache entry at a pruned position. Every runner picks its
rows, mask and cache drop from the partition's labels on the rows
(`row_groups`). Rows keep their original positions throughout so attention
geometry is identical across formulations.

`run_strategy` is the one entry for a scheduled prefill: it validates the
config and the inputs, embeds the ids once and runs the config's runner,
Vanilla's included. `run_vanilla` runs that runner from the ids alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .model import (
    KVCache,
    Model,
    SequenceLayout,
    causal_mask,
    embed,
    run_layers,
)
from .saliency import Partition


class Strategy(str, enum.Enum):
    VANILLA = "Vanilla"
    PARVTS_BATCH = "ParVTSBatch"
    PARVTS_MASKED = "ParVTSMasked"
    SUBJECT_FIRST = "SubjectFirst"
    NONSUBJECT_FIRST = "NonSubjectFirst"


def _check_fusion_weights(alpha: float, beta: float):
    # written so that a NaN weight fails: every comparison with NaN is False
    if not (alpha >= 0 and beta >= 0 and abs(alpha + beta - 1.0) <= 1e-12):
        raise InvalidArgumentError(f"alpha {alpha} and beta {beta} must be >= 0 and sum to 1")


@dataclass(frozen=True)
class ScheduleConfig:
    strategy: Strategy
    migration_depth: int
    alpha: float = 0.5
    beta: float = 0.5
    joint_prefix_layers: int = 1

    def validate(self, num_layers: int):
        """n in [1, N], j in [0, n] and convex weights, whatever the strategy."""
        n, j = self.migration_depth, self.joint_prefix_layers
        if not 1 <= n <= num_layers:
            raise InvalidArgumentError(f"migration_depth {n} outside [1, {num_layers}]")
        if not 0 <= j <= n:
            raise InvalidArgumentError(
                f"joint_prefix_layers {j} outside [0, migration_depth {n}]"
            )
        _check_fusion_weights(self.alpha, self.beta)


@dataclass
class PrefillResult:
    """Final hidden state of the retained rows plus the cache that decoding sees."""

    hidden: np.ndarray
    cache: KVCache | None
    positions: np.ndarray
    phase_token_counts: dict[str, int] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def row_groups(layout: SequenceLayout, partition: Partition) -> np.ndarray:
    """The partition's label (0 or 1) on each visual row, -1 on system and question rows."""
    groups = np.full(layout.output_start, -1, dtype=np.int64)
    groups[slice(*layout.visual_span)] = partition.groups
    return groups


def group_exclusive_mask(positions, groups) -> np.ndarray:
    """Causal mask with rows labelled 0 and rows labelled 1 blocked from seeing each other.

    `groups` holds one label per row, as `row_groups` gives them; rows in
    neither group (system and question, labelled -1) keep full causal
    visibility over both.
    """
    positions = np.asarray(positions, dtype=np.int64)
    groups = np.asarray(groups)
    if groups.shape != positions.shape:
        raise InvalidArgumentError(f"{groups.size} group labels for {positions.size} rows")
    allowed = causal_mask(positions)
    in_sub, in_non = groups == 0, groups == 1
    allowed &= ~((in_sub[:, None] & in_non) | (in_non[:, None] & in_sub))
    return allowed


def fuse_question_states(t_non, t_sub, alpha: float, beta: float) -> np.ndarray:
    """Weighted average alpha * t_non + beta * t_sub of the branch question states."""
    t_non = np.asarray(t_non, dtype=np.float64)
    t_sub = np.asarray(t_sub, dtype=np.float64)
    if t_non.shape != t_sub.shape:
        raise InvalidArgumentError(
            f"question-state shapes differ: {t_non.shape} vs {t_sub.shape}"
        )
    _check_fusion_weights(alpha, beta)
    return alpha * t_non + beta * t_sub


def prune_cache(cache: KVCache, drop_positions) -> KVCache:
    """Remove every cached entry at the given positions, preserving order."""
    drop = np.asarray(drop_positions, dtype=np.int64)
    unknown = np.setdiff1d(drop, cache.all_positions())
    if unknown.size:
        raise InvalidArgumentError(f"positions not present in cache: {unknown.tolist()}")
    return cache.drop_positions(drop)


def _check_inputs(token_ids, layout, partition=None, strategy=Strategy.VANILLA):
    """The ids as int64; a partition is optional for Vanilla only."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size != layout.total_prefill:
        raise InvalidArgumentError(
            f"{ids.size} token ids for a layout of {layout.total_prefill}"
        )
    if partition is None:
        if strategy is not Strategy.VANILLA:
            raise InvalidArgumentError(f"{strategy.value} needs a partition, got None")
    elif partition.num_visual != layout.num_visual:
        raise InvalidArgumentError("partition size does not match the visual span")
    return ids


def _causal_phase(model, hidden, positions, layer_range, cache, counts, phase):
    """Run `layer_range` over `positions` under a causal mask, caching every layer."""
    hidden = run_layers(model, hidden, positions, layer_range, causal_mask(positions), cache)
    counts[phase] = int(positions.size)
    return hidden


def _tail(model, hidden, positions, done, cache, counts, phase, diagnostics) -> PrefillResult:
    """Layers done+1..N over `positions` under a causal mask, then the result."""
    last = model.config.num_layers
    hidden = _causal_phase(model, hidden, positions, (done + 1, last), cache, counts, phase)
    return PrefillResult(hidden, cache, positions, counts, diagnostics)


def _at_migration(hidden: np.ndarray, num_q: int) -> dict:
    """Copies of the question rows and of the other rows at the migration layer."""
    split = hidden.shape[0] - num_q
    return {
        "question_at_migration": hidden[split:].copy(),
        "retained_at_migration": hidden[:split].copy(),
    }


def _run_vanilla(
    model: Model,
    embedded: np.ndarray,
    layout: SequenceLayout,
    partition: Partition | None,
    cfg: ScheduleConfig | None,
) -> PrefillResult:
    """Full causal prefill through every layer with a full cache."""
    positions = np.arange(embedded.shape[0], dtype=np.int64)
    return _tail(model, embedded, positions, 0, model.new_cache(), {}, "full", {})


def _run_parvts(
    model: Model,
    embedded: np.ndarray,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Joint prefix, the grouped layers j+1..n, then the migration step.

    Layers 1..j run every row under a causal mask. ParVTSBatch runs j+1..n as
    two parallel branches, one per visual group, each with its own question
    copy; branch inputs are rows of the joint-prefix output (the embedded rows
    when the joint prefix is empty) and the question states are fused at layer
    n. ParVTSMasked runs j+1..n as one pass under `group_exclusive_mask`, where
    question rows attend to both groups, so no fusion step exists. With an
    empty visual group the one branch is every row under a causal mask, which
    is that pass, so ParVTSBatch runs it too. At layer n the non-subject rows
    and their cache entries go, the question rows and the other retained rows
    are recorded in `diagnostics`, and the retained rows run n+1..N.
    """
    n, j = cfg.migration_depth, cfg.joint_prefix_layers
    groups = row_groups(layout, partition)
    num_sys, num_q = layout.num_system, layout.num_question

    cache = model.new_cache()
    counts: dict[str, int] = {}
    positions = np.arange(embedded.shape[0], dtype=np.int64)
    hidden = embedded
    if j >= 1:
        hidden = _causal_phase(model, hidden, positions, (1, j), cache, counts, "joint_prefix")

    batch = cfg.strategy is Strategy.PARVTS_BATCH
    identity_diffs: list[float] = []
    diagnostics = {"system_identity_max_diff": identity_diffs} if batch else {}
    if batch and 0 < partition.keep_count < partition.num_visual:
        positions, branch_non_pos = np.flatnonzero(groups != 1), np.flatnonzero(groups != 0)
        hidden, h_non = hidden[positions], hidden[branch_non_pos]
        mask_sub, mask_non = causal_mask(positions), causal_mask(branch_non_pos)
        for layer in range(j + 1, n + 1):
            h_non = run_layers(model, h_non, branch_non_pos, (layer, layer), mask_non)
            hidden = run_layers(model, hidden, positions, (layer, layer), mask_sub, cache)
            if num_sys:
                identity_diffs.append(float(np.max(np.abs(h_non[:num_sys] - hidden[:num_sys]))))
        counts["branch_nonsubject"] = int(branch_non_pos.size)
        counts["branch_subject"] = int(positions.size)
        q_sub, q_non = positions.size - num_q, branch_non_pos.size - num_q
        hidden[q_sub:] = fuse_question_states(h_non[q_non:], hidden[q_sub:], cfg.alpha, cfg.beta)
    elif n > j:
        exclusive = group_exclusive_mask(positions, groups)
        hidden = run_layers(model, hidden, positions, (j + 1, n), exclusive, cache)
        counts["exclusive_mask"] = int(positions.size)

    keep = groups[positions] != 1
    positions, hidden = positions[keep], hidden[keep]
    if partition.keep_count < partition.num_visual:
        cache = cache.drop_positions(np.flatnonzero(groups == 1))
    diagnostics.update(_at_migration(hidden, num_q))
    return _tail(model, hidden, positions, n, cache, counts, "continuation", diagnostics)


def _run_sequential(
    model: Model,
    embedded: np.ndarray,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """One visual group through layers 1..n, then the other through n+1..N.

    SubjectFirst starts with the subject group (label 0), NonSubjectFirst with
    the other; each stage holds the system rows, its group and the question.
    """
    n = cfg.migration_depth
    first, second = (0, 1) if cfg.strategy is Strategy.SUBJECT_FIRST else (1, 0)
    names = ("subject_stage", "nonsubject_stage")
    groups = row_groups(layout, partition)
    stage1_pos, stage2_pos = np.flatnonzero(groups != second), np.flatnonzero(groups != first)

    cache = model.new_cache()
    counts: dict[str, int] = {}
    h1 = _causal_phase(model, embedded[stage1_pos], stage1_pos, (1, n), cache, counts, names[first])

    # ReplaceVision: swap the visual slots for the other group's embeddings
    # while the system and question hidden states persist.
    h2 = embedded[stage2_pos]
    h2[groups[stage2_pos] == -1] = h1[groups[stage1_pos] == -1]
    diagnostics = _at_migration(h1, layout.num_question)
    return _tail(model, h2, stage2_pos, n, cache, counts, names[second], diagnostics)


_RUNNERS = {
    Strategy.VANILLA: _run_vanilla,
    Strategy.PARVTS_BATCH: _run_parvts,
    Strategy.PARVTS_MASKED: _run_parvts,
    Strategy.SUBJECT_FIRST: _run_sequential,
    Strategy.NONSUBJECT_FIRST: _run_sequential,
}


def run_strategy(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Validate cfg and the inputs, embed the ids once and run cfg.strategy's runner."""
    cfg.validate(model.config.num_layers)
    ids = _check_inputs(token_ids, layout, partition, cfg.strategy)
    return _RUNNERS[cfg.strategy](model, embed(model, ids), layout, partition, cfg)


def run_vanilla(model: Model, token_ids, layout: SequenceLayout) -> PrefillResult:
    """Full causal prefill through every layer with a full cache."""
    ids = _check_inputs(token_ids, layout)
    return _run_vanilla(model, embed(model, ids), layout, None, None)
