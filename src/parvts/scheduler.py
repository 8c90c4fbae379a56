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

All the non-vanilla schedules end with a cache that contains no entry at a
pruned position for the ParVTS modes; rows keep their original positions
throughout so attention geometry is identical across formulations.
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


@dataclass(frozen=True)
class ScheduleConfig:
    strategy: Strategy
    migration_depth: int
    alpha: float = 0.5
    beta: float = 0.5
    joint_prefix_layers: int = 1

    def validate(self, num_layers: int):
        if self.strategy is Strategy.VANILLA:
            return
        n, j = self.migration_depth, self.joint_prefix_layers
        if not 1 <= n <= num_layers:
            raise InvalidArgumentError(
                f"migration_depth {n} outside [1, {num_layers}]"
            )
        if not 0 <= j <= n:
            raise InvalidArgumentError(
                f"joint_prefix {j} outside [0, migration_depth {n}]"
            )
        if self.alpha < 0 or self.beta < 0 or abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise InvalidArgumentError("fusion weights must be >= 0 and sum to 1")


@dataclass
class PrefillResult:
    """Final hidden state of the retained rows plus the cache that decoding sees."""

    hidden: np.ndarray
    cache: KVCache | None
    positions: np.ndarray
    phase_token_counts: dict[str, int] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def subject_positions(layout: SequenceLayout, partition: Partition) -> np.ndarray:
    return layout.visual_span[0] + partition.subject_indices


def nonsubject_positions(layout: SequenceLayout, partition: Partition) -> np.ndarray:
    return layout.visual_span[0] + partition.nonsubject_indices


def group_exclusive_mask(positions, subject_pos, nonsubject_pos) -> np.ndarray:
    """Causal mask with the two visual groups blocked from seeing each other.

    Question rows (in neither group) keep full causal visibility over both.
    """
    positions = np.asarray(positions, dtype=np.int64)
    allowed = causal_mask(positions)
    in_sub = np.isin(positions, subject_pos)
    in_non = np.isin(positions, nonsubject_pos)
    allowed[np.ix_(in_sub, in_non)] = False
    allowed[np.ix_(in_non, in_sub)] = False
    return allowed


def fuse_question_states(t_non, t_sub, alpha: float, beta: float) -> np.ndarray:
    """Weighted average alpha * t_non + beta * t_sub of the branch question states."""
    t_non = np.asarray(t_non, dtype=np.float64)
    t_sub = np.asarray(t_sub, dtype=np.float64)
    if t_non.shape != t_sub.shape:
        raise InvalidArgumentError(
            f"question-state shapes differ: {t_non.shape} vs {t_sub.shape}"
        )
    if alpha < 0 or beta < 0 or abs(alpha + beta - 1.0) > 1e-12:
        raise InvalidArgumentError("fusion weights must be >= 0 and sum to 1")
    return alpha * t_non + beta * t_sub


def prune_cache(cache: KVCache, drop_positions) -> KVCache:
    """Remove every cached entry at the given positions, preserving order."""
    drop = np.asarray(drop_positions, dtype=np.int64)
    unknown = np.setdiff1d(drop, cache.all_positions())
    if unknown.size:
        raise InvalidArgumentError(f"positions not present in cache: {unknown.tolist()}")
    return cache.drop_positions(drop)


def _check_inputs(model, token_ids, layout, partition=None):
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size != layout.total_prefill:
        raise InvalidArgumentError(
            f"{ids.size} token ids for a layout of {layout.total_prefill}"
        )
    if partition is not None and partition.num_visual != layout.num_visual:
        raise InvalidArgumentError("partition size does not match the visual span")
    return ids


def _check_strategy(cfg: ScheduleConfig, expected: Strategy):
    if cfg.strategy is not expected:
        raise InvalidArgumentError(
            f"config names strategy {cfg.strategy.value}, runner expects {expected.value}"
        )


def run_vanilla(model: Model, token_ids, layout: SequenceLayout) -> PrefillResult:
    """Full causal prefill through every layer with a full cache."""
    ids = _check_inputs(model, token_ids, layout)
    positions = np.arange(ids.size, dtype=np.int64)
    cache = model.new_cache()
    hidden = run_layers(
        model,
        embed(model, ids),
        positions,
        (1, model.config.num_layers),
        causal_mask(positions),
        cache,
        record_cache=True,
    )
    return PrefillResult(
        hidden,
        cache,
        positions,
        phase_token_counts={"full": int(ids.size)},
        diagnostics={},
    )


def run_parvts_batch(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Reference two-branch schedule: joint prefix, parallel branches, fusion.

    Branch inputs are rows of the joint-prefix output (fresh embeddings when
    the joint prefix is empty). An empty visual group collapses the run to a
    single branch, reported in diagnostics rather than raised.
    """
    _check_strategy(cfg, Strategy.PARVTS_BATCH)
    cfg.validate(model.config.num_layers)
    ids = _check_inputs(model, token_ids, layout, partition)
    n, j = cfg.migration_depth, cfg.joint_prefix_layers
    num_layers = model.config.num_layers

    full_pos = np.arange(ids.size, dtype=np.int64)
    sub_pos = subject_positions(layout, partition)
    non_pos = nonsubject_positions(layout, partition)
    sys_pos = layout.system_positions()
    q_pos = layout.question_positions()
    num_sys, num_q = sys_pos.size, q_pos.size

    cache = model.new_cache()
    counts: dict[str, int] = {}
    hidden = embed(model, ids)
    if j >= 1:
        hidden = run_layers(
            model, hidden, full_pos, (1, j), causal_mask(full_pos), cache, True
        )
        counts["joint_prefix"] = int(ids.size)

    branch_sub_pos = np.concatenate([sys_pos, sub_pos, q_pos])
    branch_non_pos = np.concatenate([sys_pos, non_pos, q_pos])
    collapsed = None
    if partition.keep_count == 0:
        collapsed = "nonsubject-only"
    elif partition.nonsubject_indices.size == 0:
        collapsed = "subject-only"

    diagnostics: dict = {"collapsed": collapsed, "system_identity_max_diff": []}

    if collapsed is None:
        h_sub = hidden[branch_sub_pos]
        h_non = hidden[branch_non_pos]
        mask_sub = causal_mask(branch_sub_pos)
        mask_non = causal_mask(branch_non_pos)
        for layer in range(j + 1, n + 1):
            h_non = run_layers(model, h_non, branch_non_pos, (layer, layer), mask_non)
            h_sub = run_layers(
                model, h_sub, branch_sub_pos, (layer, layer), mask_sub, cache, True
            )
            if num_sys:
                diagnostics["system_identity_max_diff"].append(
                    float(np.max(np.abs(h_non[:num_sys] - h_sub[:num_sys])))
                )
        counts["branch_nonsubject"] = int(branch_non_pos.size)
        counts["branch_subject"] = int(branch_sub_pos.size)
        fused_t = fuse_question_states(
            h_non[-num_q:] if num_q else h_non[:0],
            h_sub[-num_q:] if num_q else h_sub[:0],
            cfg.alpha,
            cfg.beta,
        )
        retained = h_sub.copy()
    else:
        sole_pos = branch_sub_pos if collapsed == "subject-only" else branch_non_pos
        h_sole = hidden[sole_pos]
        mask_sole = causal_mask(sole_pos)
        h_sole = run_layers(model, h_sole, sole_pos, (j + 1, n), mask_sole, cache, True)
        counts["single_branch"] = int(sole_pos.size)
        fused_t = h_sole[-num_q:] if num_q else h_sole[:0]
        retained = h_sole
        if collapsed == "nonsubject-only":
            # visual rows of the sole branch are non-subject: drop them now
            keep = ~np.isin(sole_pos, non_pos)
            retained = retained[keep]

    keep_pos = np.concatenate([sys_pos, sub_pos, q_pos])
    if num_q:
        retained[-num_q:] = fused_t
    diagnostics["question_at_migration"] = fused_t.copy()
    diagnostics["retained_at_migration"] = retained[: retained.shape[0] - num_q].copy()

    hidden_out = run_layers(
        model, retained, keep_pos, (n + 1, num_layers), causal_mask(keep_pos), cache, True
    )
    counts["continuation"] = int(keep_pos.size)

    if non_pos.size:
        cache = cache.drop_positions(non_pos)
    return PrefillResult(hidden_out, cache, keep_pos, counts, diagnostics)


def run_parvts_masked(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Single-pass variant: one sequence, group-exclusive masking, mid-run drop.

    Question rows attend to both visual groups inside the masked layers, so
    no fusion step exists; the two groups never see each other there, and at
    the migration layer the non-subject rows and their cache entries vanish.
    """
    _check_strategy(cfg, Strategy.PARVTS_MASKED)
    cfg.validate(model.config.num_layers)
    ids = _check_inputs(model, token_ids, layout, partition)
    n, j = cfg.migration_depth, cfg.joint_prefix_layers
    num_layers = model.config.num_layers

    full_pos = np.arange(ids.size, dtype=np.int64)
    sub_pos = subject_positions(layout, partition)
    non_pos = nonsubject_positions(layout, partition)
    num_q = layout.question_span[1] - layout.question_span[0]

    cache = model.new_cache()
    counts: dict[str, int] = {}
    hidden = embed(model, ids)
    if j >= 1:
        hidden = run_layers(
            model, hidden, full_pos, (1, j), causal_mask(full_pos), cache, True
        )
        counts["joint_prefix"] = int(ids.size)
    if n > j:
        exclusive = group_exclusive_mask(full_pos, sub_pos, non_pos)
        hidden = run_layers(model, hidden, full_pos, (j + 1, n), exclusive, cache, True)
        counts["exclusive_mask"] = int(ids.size)

    keep = ~np.isin(full_pos, non_pos)
    keep_pos = full_pos[keep]
    hidden = hidden[keep]
    if non_pos.size:
        cache = cache.drop_positions(non_pos)

    diagnostics = {
        "collapsed": (
            "nonsubject-only"
            if partition.keep_count == 0
            else "subject-only" if partition.nonsubject_indices.size == 0 else None
        ),
        "question_at_migration": hidden[-num_q:].copy() if num_q else hidden[:0],
        "retained_at_migration": hidden[: hidden.shape[0] - num_q].copy(),
    }

    hidden = run_layers(
        model, hidden, keep_pos, (n + 1, num_layers), causal_mask(keep_pos), cache, True
    )
    counts["continuation"] = int(keep_pos.size)
    return PrefillResult(hidden, cache, keep_pos, counts, diagnostics)


def _run_sequential(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    first_group_pos: np.ndarray,
    second_group_pos: np.ndarray,
    cfg: ScheduleConfig,
    phase_names: tuple[str, str],
) -> PrefillResult:
    ids = _check_inputs(model, token_ids, layout)
    n = cfg.migration_depth
    num_layers = model.config.num_layers
    sys_pos = layout.system_positions()
    q_pos = layout.question_positions()
    num_q = q_pos.size

    stage1_pos = np.concatenate([sys_pos, first_group_pos, q_pos])
    cache = model.new_cache()
    h1 = run_layers(
        model,
        embed(model, ids[stage1_pos]),
        stage1_pos,
        (1, n),
        causal_mask(stage1_pos),
        cache,
        True,
    )

    # ReplaceVision: swap the visual slots for the other group's embeddings
    # while the system and question hidden states persist.
    stage2_pos = np.concatenate([sys_pos, second_group_pos, q_pos])
    h2 = np.empty((stage2_pos.size, model.config.hidden_dim), dtype=np.float64)
    h2[: sys_pos.size] = h1[: sys_pos.size]
    h2[sys_pos.size : sys_pos.size + second_group_pos.size] = embed(
        model, ids[second_group_pos]
    )
    if num_q:
        h2[-num_q:] = h1[-num_q:]

    diagnostics = {
        "collapsed": (
            "stage2-empty" if second_group_pos.size == 0
            else "stage1-empty" if first_group_pos.size == 0 else None
        ),
        "question_at_migration": h1[-num_q:].copy() if num_q else h1[:0],
        "retained_at_migration": h1[: h1.shape[0] - num_q].copy(),
    }

    hidden = run_layers(
        model, h2, stage2_pos, (n + 1, num_layers), causal_mask(stage2_pos), cache, True
    )
    counts = {
        phase_names[0]: int(stage1_pos.size),
        phase_names[1]: int(stage2_pos.size),
    }
    return PrefillResult(hidden, cache, stage2_pos, counts, diagnostics)


def run_subject_first(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Subject tokens through the early layers, non-subject embeddings after."""
    _check_strategy(cfg, Strategy.SUBJECT_FIRST)
    cfg.validate(model.config.num_layers)
    _check_inputs(model, token_ids, layout, partition)
    return _run_sequential(
        model,
        token_ids,
        layout,
        subject_positions(layout, partition),
        nonsubject_positions(layout, partition),
        cfg,
        ("subject_stage", "nonsubject_stage"),
    )


def run_nonsubject_first(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Mirror of SubjectFirst with the two visual groups exchanged."""
    _check_strategy(cfg, Strategy.NONSUBJECT_FIRST)
    cfg.validate(model.config.num_layers)
    _check_inputs(model, token_ids, layout, partition)
    return _run_sequential(
        model,
        token_ids,
        layout,
        nonsubject_positions(layout, partition),
        subject_positions(layout, partition),
        cfg,
        ("nonsubject_stage", "subject_stage"),
    )


_RUNNERS = {
    Strategy.PARVTS_BATCH: run_parvts_batch,
    Strategy.PARVTS_MASKED: run_parvts_masked,
    Strategy.SUBJECT_FIRST: run_subject_first,
    Strategy.NONSUBJECT_FIRST: run_nonsubject_first,
}


def run_strategy(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Dispatch to the runner named by cfg.strategy."""
    if cfg.strategy is Strategy.VANILLA:
        return run_vanilla(model, token_ids, layout)
    return _RUNNERS[cfg.strategy](model, token_ids, layout, partition, cfg)
