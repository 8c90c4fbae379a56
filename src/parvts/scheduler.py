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

`run_strategy` is the one entry for a scheduled prefill: it validates the
config and the inputs once and runs the schedule the config names.
`run_vanilla` builds the full-cache baseline from the token ids alone.
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
    if alpha < 0 or beta < 0 or abs(alpha + beta - 1.0) > 1e-12:
        raise InvalidArgumentError(f"alpha {alpha} and beta {beta} must be >= 0 and sum to 1")


@dataclass(frozen=True)
class ScheduleConfig:
    strategy: Strategy
    migration_depth: int
    alpha: float = 0.5
    beta: float = 0.5
    joint_prefix_layers: int = 1

    def check_depth(self, num_layers: int):
        """n in [1, N]; the cost model needs it of Vanilla runs too."""
        if not 1 <= self.migration_depth <= num_layers:
            raise InvalidArgumentError(
                f"migration_depth {self.migration_depth} outside [1, {num_layers}]"
            )

    def validate(self, num_layers: int):
        if self.strategy is Strategy.VANILLA:
            return
        self.check_depth(num_layers)
        n, j = self.migration_depth, self.joint_prefix_layers
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
    _check_fusion_weights(alpha, beta)
    return alpha * t_non + beta * t_sub


def prune_cache(cache: KVCache, drop_positions) -> KVCache:
    """Remove every cached entry at the given positions, preserving order."""
    drop = np.asarray(drop_positions, dtype=np.int64)
    unknown = np.setdiff1d(drop, cache.all_positions())
    if unknown.size:
        raise InvalidArgumentError(f"positions not present in cache: {unknown.tolist()}")
    return cache.drop_positions(drop)


def _check_inputs(token_ids, layout, partition=None):
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size != layout.total_prefill:
        raise InvalidArgumentError(
            f"{ids.size} token ids for a layout of {layout.total_prefill}"
        )
    if partition is not None and partition.num_visual != layout.num_visual:
        raise InvalidArgumentError("partition size does not match the visual span")
    return ids


def _collapsed(partition: Partition):
    """The visual group a ParVTS run is left with when the other is empty, else None."""
    if partition.keep_count == 0:
        return "nonsubject-only"
    if partition.nonsubject_indices.size == 0:
        return "subject-only"
    return None


def _causal_phase(model, hidden, positions, layer_range, cache, counts, phase):
    """Run `layer_range` over `positions` under a causal mask, caching every layer."""
    hidden = run_layers(model, hidden, positions, layer_range, causal_mask(positions), cache)
    counts[phase] = int(positions.size)
    return hidden


def _joint_prefix(model, ids, j, cache, counts):
    """Embed every row and run the first j layers over all of them."""
    full_pos = np.arange(ids.size, dtype=np.int64)
    hidden = embed(model, ids)
    if j >= 1:
        hidden = _causal_phase(model, hidden, full_pos, (1, j), cache, counts, "joint_prefix")
    return full_pos, hidden


def _continuation(model, hidden, positions, n, cache, counts, phase="continuation"):
    """Layers n+1..N over the rows that survive the migration layer."""
    return _causal_phase(
        model, hidden, positions, (n + 1, model.config.num_layers), cache, counts, phase
    )


def _at_migration(hidden: np.ndarray, num_q: int) -> dict:
    """Copies of the question rows and of the other rows at the migration layer."""
    split = hidden.shape[0] - num_q
    return {
        "question_at_migration": hidden[split:].copy(),
        "retained_at_migration": hidden[:split].copy(),
    }


def run_vanilla(model: Model, token_ids, layout: SequenceLayout) -> PrefillResult:
    """Full causal prefill through every layer with a full cache."""
    ids = _check_inputs(token_ids, layout)
    positions = np.arange(ids.size, dtype=np.int64)
    cache = model.new_cache()
    counts: dict[str, int] = {}
    hidden = _causal_phase(
        model, embed(model, ids), positions, (1, model.config.num_layers), cache, counts, "full"
    )
    return PrefillResult(hidden, cache, positions, counts, diagnostics={})


def _run_parvts_batch(
    model: Model,
    ids: np.ndarray,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Reference two-branch schedule: joint prefix, parallel branches, fusion.

    Branch inputs are rows of the joint-prefix output (fresh embeddings when
    the joint prefix is empty). An empty visual group collapses the run to a
    single branch rather than raising.
    """
    n, j = cfg.migration_depth, cfg.joint_prefix_layers

    sub_pos = subject_positions(layout, partition)
    non_pos = nonsubject_positions(layout, partition)
    sys_pos = layout.system_positions()
    q_pos = layout.question_positions()
    num_sys, num_q = sys_pos.size, q_pos.size

    cache = model.new_cache()
    counts: dict[str, int] = {}
    _, hidden = _joint_prefix(model, ids, j, cache, counts)

    branch_sub_pos = np.concatenate([sys_pos, sub_pos, q_pos])
    branch_non_pos = np.concatenate([sys_pos, non_pos, q_pos])
    collapsed = _collapsed(partition)
    identity_diffs: list[float] = []

    if collapsed is None:
        h_sub = hidden[branch_sub_pos]
        h_non = hidden[branch_non_pos]
        mask_sub = causal_mask(branch_sub_pos)
        mask_non = causal_mask(branch_non_pos)
        for layer in range(j + 1, n + 1):
            h_non = run_layers(model, h_non, branch_non_pos, (layer, layer), mask_non)
            h_sub = run_layers(model, h_sub, branch_sub_pos, (layer, layer), mask_sub, cache)
            if num_sys:
                identity_diffs.append(float(np.max(np.abs(h_non[:num_sys] - h_sub[:num_sys]))))
        counts["branch_nonsubject"] = int(branch_non_pos.size)
        counts["branch_subject"] = int(branch_sub_pos.size)
        retained = h_sub.copy()
        retained[num_sys + sub_pos.size :] = fuse_question_states(
            h_non[num_sys + non_pos.size :], h_sub[num_sys + sub_pos.size :], cfg.alpha, cfg.beta
        )
    else:
        sole_pos = branch_sub_pos if collapsed == "subject-only" else branch_non_pos
        retained = _causal_phase(
            model, hidden[sole_pos], sole_pos, (j + 1, n), cache, counts, "single_branch"
        )
        if collapsed == "nonsubject-only":
            # visual rows of the sole branch are non-subject: drop them now
            retained = retained[~np.isin(sole_pos, non_pos)]

    diagnostics = {"system_identity_max_diff": identity_diffs}
    diagnostics.update(_at_migration(retained, num_q))
    keep_pos = np.concatenate([sys_pos, sub_pos, q_pos])
    hidden_out = _continuation(model, retained, keep_pos, n, cache, counts)

    if non_pos.size:
        cache = cache.drop_positions(non_pos)
    return PrefillResult(hidden_out, cache, keep_pos, counts, diagnostics)


def _run_parvts_masked(
    model: Model,
    ids: np.ndarray,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Single-pass variant: one sequence, group-exclusive masking, mid-run drop.

    Question rows attend to both visual groups inside the masked layers, so
    no fusion step exists; the two groups never see each other there, and at
    the migration layer the non-subject rows and their cache entries vanish.
    """
    n, j = cfg.migration_depth, cfg.joint_prefix_layers

    sub_pos = subject_positions(layout, partition)
    non_pos = nonsubject_positions(layout, partition)
    num_q = layout.question_span[1] - layout.question_span[0]

    cache = model.new_cache()
    counts: dict[str, int] = {}
    full_pos, hidden = _joint_prefix(model, ids, j, cache, counts)
    if n > j:
        exclusive = group_exclusive_mask(full_pos, sub_pos, non_pos)
        hidden = run_layers(model, hidden, full_pos, (j + 1, n), exclusive, cache)
        counts["exclusive_mask"] = int(ids.size)

    keep = ~np.isin(full_pos, non_pos)
    keep_pos = full_pos[keep]
    hidden = hidden[keep]
    if non_pos.size:
        cache = cache.drop_positions(non_pos)

    diagnostics = _at_migration(hidden, num_q)
    hidden = _continuation(model, hidden, keep_pos, n, cache, counts)
    return PrefillResult(hidden, cache, keep_pos, counts, diagnostics)


def _run_sequential(
    model: Model,
    ids: np.ndarray,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """One visual group through layers 1..n, then the other through n+1..N.

    SubjectFirst starts with the subject group, NonSubjectFirst with the other.
    """
    groups = (subject_positions(layout, partition), nonsubject_positions(layout, partition))
    names = ("subject_stage", "nonsubject_stage")
    if cfg.strategy is Strategy.NONSUBJECT_FIRST:
        groups, names = groups[::-1], names[::-1]
    first_group_pos, second_group_pos = groups
    sys_pos = layout.system_positions()
    q_pos = layout.question_positions()
    num_sys, num_q = sys_pos.size, q_pos.size

    stage1_pos = np.concatenate([sys_pos, first_group_pos, q_pos])
    cache = model.new_cache()
    counts: dict[str, int] = {}
    h1 = _causal_phase(
        model, embed(model, ids[stage1_pos]), stage1_pos, (1, cfg.migration_depth),
        cache, counts, names[0],
    )

    # ReplaceVision: swap the visual slots for the other group's embeddings
    # while the system and question hidden states persist.
    stage2_pos = np.concatenate([sys_pos, second_group_pos, q_pos])
    h2 = np.concatenate(
        [h1[:num_sys], embed(model, ids[second_group_pos]), h1[num_sys + first_group_pos.size :]]
    )

    diagnostics = _at_migration(h1, num_q)
    hidden = _continuation(model, h2, stage2_pos, cfg.migration_depth, cache, counts, names[1])
    return PrefillResult(hidden, cache, stage2_pos, counts, diagnostics)


_RUNNERS = {
    Strategy.PARVTS_BATCH: _run_parvts_batch,
    Strategy.PARVTS_MASKED: _run_parvts_masked,
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
    """Validate cfg and the inputs once, then run the schedule cfg.strategy names."""
    if cfg.strategy is Strategy.VANILLA:
        return run_vanilla(model, token_ids, layout)
    cfg.validate(model.config.num_layers)
    ids = _check_inputs(token_ids, layout, partition)
    return _RUNNERS[cfg.strategy](model, ids, layout, partition, cfg)
