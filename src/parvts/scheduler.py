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

Each schedule is a plan (`_plan`): a short tuple of steps, each a phase
name, a layer range, the `row_groups` label whose rows sit it out, its mask
(causal or group-exclusive), whether the non-subject rows' cache entries go
before it, and whether it is the non-subject branch. One executor
(`_execute`) runs any plan through `run_layers` and keeps each position's
latest hidden row, so the joint prefix hands its rows to the branches and a
sequential schedule's system and question states outlive the swap. With an
empty visual group ParVTSBatch's plan is ParVTSMasked's. Both ParVTS modes
end with no cache entry at a pruned position. Rows keep their original
positions throughout so attention geometry is identical across formulations.

`run_strategy` is the one entry for a scheduled prefill: it validates the
config and the inputs, embeds the ids once and executes the config's plan,
Vanilla's included. `run_vanilla` executes Vanilla's plan from the ids alone.
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
    if ids.size != layout.output_start:
        raise InvalidArgumentError(f"{ids.size} token ids for a layout of {layout.output_start}")
    if partition is None:
        if strategy is not Strategy.VANILLA:
            raise InvalidArgumentError(f"{strategy.value} needs a partition, got None")
    elif partition.num_visual != layout.num_visual:
        raise InvalidArgumentError("partition size does not match the visual span")
    return ids


@dataclass(frozen=True)
class _Step:
    """One phase of a plan: layers first..last over every row not labelled `omit`."""

    phase: str
    layers: tuple[int, int]
    omit: int | None = None  # the row_groups label whose rows sit the step out
    exclusive: bool = False  # group_exclusive_mask in place of causal_mask
    drop: bool = False  # drop the non-subject rows' cache entries first
    branch: bool = False  # the non-subject branch, run beside the next step


def _plan(cfg: ScheduleConfig, partition: Partition | None, num_layers: int) -> tuple[_Step, ...]:
    """cfg.strategy's schedule as steps; a ParVTS plan ends with the migration at layer n.

    Layers 1..j run every row. ParVTSBatch runs j+1..n as two branches, one per
    visual group, each with the system rows and its own question copy; with
    an empty visual group the one branch is every row under a causal mask,
    which is ParVTSMasked's group-exclusive pass, so it takes that pass.
    """
    n, j = cfg.migration_depth, cfg.joint_prefix_layers
    if cfg.strategy is Strategy.VANILLA:
        return (_Step("full", (1, num_layers)),)
    if cfg.strategy in (Strategy.SUBJECT_FIRST, Strategy.NONSUBJECT_FIRST):
        first = int(cfg.strategy is Strategy.NONSUBJECT_FIRST)
        names = ("subject_stage", "nonsubject_stage")
        return (_Step(names[first], (1, n), omit=1 - first),
                _Step(names[1 - first], (n + 1, num_layers), omit=first))
    steps = [_Step("joint_prefix", (1, j))] if j >= 1 else []
    if cfg.strategy is Strategy.PARVTS_BATCH and 0 < partition.keep_count < partition.num_visual:
        steps += [_Step("branch_nonsubject", (j + 1, n), omit=0, branch=True),
                  _Step("branch_subject", (j + 1, n), omit=1)]
    elif n > j:
        steps.append(_Step("exclusive_mask", (j + 1, n), exclusive=True))
    drop = partition.keep_count < partition.num_visual
    return (*steps, _Step("continuation", (n + 1, num_layers), omit=1, drop=drop))


def _execute(model, embedded, layout, partition, cfg) -> PrefillResult:
    """Run cfg's plan through run_layers; every step but the non-subject branch fills the cache.

    `latest` holds each position's latest hidden row, from the embedding on;
    each step reads its rows from it and writes them back. So a sequential
    schedule's second stage takes the first stage's system and question rows
    and the other group's embeddings (ReplaceVision). The branch pair runs
    one layer at a time, then the question rows are fused into the subject
    branch, which alone writes back. Before the last step come its cache drop
    and the diagnostics at migration: the previous step's rows, less the
    dropped ones, as the question rows and the others.
    """
    plan = _plan(cfg, partition, model.config.num_layers)
    groups = None if partition is None else row_groups(layout, partition)
    latest, cache, counts = embedded, model.new_cache(), {}
    diagnostics = {"system_identity_max_diff": []} if cfg.strategy is Strategy.PARVTS_BATCH else {}
    num_sys, num_q = layout.num_system, layout.num_question
    branch = None  # the non-subject branch's rows, hidden rows and mask
    for step in plan:
        if step is plan[-1] and len(plan) > 1:
            if step.drop:
                cache = cache.drop_positions(np.flatnonzero(groups == 1))
                rows = rows[groups[rows] != 1]
            at_n, split = latest[rows], rows.size - num_q
            diagnostics["question_at_migration"] = at_n[split:]
            diagnostics["retained_at_migration"] = at_n[:split]
        if step.omit is None:  # every row: no copy in or out
            rows, hidden = np.arange(embedded.shape[0], dtype=np.int64), latest
        else:
            rows = np.flatnonzero(groups != step.omit)
            hidden = latest[rows]
        mask = group_exclusive_mask(rows, groups) if step.exclusive else causal_mask(rows)
        counts[step.phase] = int(rows.size)
        if step.branch:
            branch = rows, hidden, mask
            continue
        if branch is None:
            hidden = run_layers(model, hidden, rows, step.layers, mask, cache)
        else:
            (non, h_non, mask_non), branch = branch, None
            for layer in range(step.layers[0], step.layers[1] + 1):
                h_non = run_layers(model, h_non, non, (layer, layer), mask_non)
                hidden = run_layers(model, hidden, rows, (layer, layer), mask, cache)
                if num_sys:
                    diff = np.max(np.abs(h_non[:num_sys] - hidden[:num_sys]))
                    diagnostics["system_identity_max_diff"].append(float(diff))
            q_sub, q_non = rows.size - num_q, non.size - num_q
            hidden[q_sub:] = fuse_question_states(h_non[q_non:], hidden[q_sub:], cfg.alpha, cfg.beta)
        if step.omit is None:
            latest = hidden
        else:
            latest[rows] = hidden
    return PrefillResult(hidden, cache, rows, counts, diagnostics)


def run_strategy(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Validate cfg and the inputs, embed the ids once and execute cfg.strategy's plan."""
    cfg.validate(model.config.num_layers)
    ids = _check_inputs(token_ids, layout, partition, cfg.strategy)
    return _execute(model, embed(model, ids), layout, partition, cfg)


def run_vanilla(model: Model, token_ids, layout: SequenceLayout) -> PrefillResult:
    """Full causal prefill through every layer with a full cache."""
    ids = _check_inputs(token_ids, layout)
    cfg = ScheduleConfig(Strategy.VANILLA, model.config.num_layers)
    return _execute(model, embed(model, ids), layout, None, cfg)
