"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately written in a different style from the main
model and scheduler code: per-row loops, per-head loops, softmax over the
gathered allowed entries. It builds only on the public numerics primitives,
so agreement with the vectorized pipeline checks the orchestration, not the
arithmetic it shares.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .model import Model, SequenceLayout, causal_mask, embed
from .numerics import matmul, rms_norm, rope_apply
from .saliency import Partition
from .scheduler import PrefillResult, ScheduleConfig, Strategy


def _norm_rows(hidden: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return np.stack([rms_norm(hidden[r], gain) for r in range(hidden.shape[0])])


def reference_layer(model: Model, hidden, positions, mask, layer_index: int) -> np.ndarray:
    """One transformer layer, computed row by row and head by head."""
    cfg = model.config
    lw = model.layers[layer_index - 1]
    rows = hidden.shape[0]
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    normed = _norm_rows(hidden, lw.attn_gain)
    q_full = matmul(normed, lw.w_q)
    k_full = matmul(normed, lw.w_k)
    v_full = matmul(normed, lw.w_v)
    q = np.empty((rows, nh, dh))
    k = np.empty((rows, nh, dh))
    for r in range(rows):
        for h in range(nh):
            segment = slice(h * dh, (h + 1) * dh)
            q[r, h] = rope_apply(q_full[r, segment], int(positions[r]))
            k[r, h] = rope_apply(k_full[r, segment], int(positions[r]))
    v = v_full.reshape(rows, nh, dh)

    attn_out = np.empty((rows, nh * dh))
    for r in range(rows):
        allowed = np.flatnonzero(mask[r])
        pieces = []
        for h in range(nh):
            query = q[r, h]
            logits = np.array([float(query @ key) * scale for key in k[allowed, h]])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            # the weighted values added one key at a time, in key order
            pieces.append(np.cumsum(weights[:, None] * v[allowed, h], axis=0)[-1])
        attn_out[r] = np.concatenate(pieces)

    h1 = hidden + matmul(attn_out, lw.w_o)
    normed2 = _norm_rows(h1, lw.mlp_gain)
    gate = matmul(normed2, lw.w_gate)
    up = matmul(normed2, lw.w_up)
    return h1 + matmul(gate / (1.0 + np.exp(-gate)) * up, lw.w_down)


def reference_run(model: Model, hidden, positions, mask, first: int, last: int) -> np.ndarray:
    h = hidden
    for layer in range(first, last + 1):
        h = reference_layer(model, h, positions, mask, layer)
    return h


def reference_prefill(model: Model, token_ids) -> np.ndarray:
    """Full causal forward over all layers, the slow way."""
    ids = np.asarray(token_ids, dtype=np.int64)
    positions = np.arange(ids.size, dtype=np.int64)
    return reference_run(
        model, embed(model, ids), positions, causal_mask(positions), 1, model.config.num_layers
    )


def oracle_two_pass(
    model: Model,
    token_ids,
    layout: SequenceLayout,
    partition: Partition,
    cfg: ScheduleConfig,
) -> PrefillResult:
    """Literal two-forward reading of the parallel schedule.

    Joint prefix, then each branch as a standalone sequential prefill through
    the branch layers, weighted question-state average, continuation. Shares
    no orchestration code with the scheduler.
    """
    if cfg.strategy is not Strategy.PARVTS_BATCH:
        raise InvalidArgumentError("the two-pass oracle mirrors the batch strategy")
    cfg.validate(model.config.num_layers)
    ids = np.asarray(token_ids, dtype=np.int64)
    n, j = cfg.migration_depth, cfg.joint_prefix_layers

    full_pos = np.arange(ids.size, dtype=np.int64)
    sys_pos = layout.system_positions()
    q_pos = layout.question_positions()
    sub_pos = layout.visual_span[0] + partition.subject_indices
    non_pos = layout.visual_span[0] + partition.nonsubject_indices
    num_q = q_pos.size

    hidden = embed(model, ids)
    if j >= 1:
        hidden = reference_run(model, hidden, full_pos, causal_mask(full_pos), 1, j)

    pos_sub = np.concatenate([sys_pos, sub_pos, q_pos])
    pos_non = np.concatenate([sys_pos, non_pos, q_pos])

    if partition.keep_count == 0 or partition.nonsubject_indices.size == 0:
        sole = pos_sub if partition.keep_count else pos_non
        h = reference_run(model, hidden[sole], sole, causal_mask(sole), j + 1, n)
        fused_t = h[-num_q:] if num_q else h[:0]
        retained = h if partition.keep_count else h[~np.isin(sole, non_pos)]
    else:
        h_sub = reference_run(model, hidden[pos_sub], pos_sub, causal_mask(pos_sub), j + 1, n)
        h_non = reference_run(model, hidden[pos_non], pos_non, causal_mask(pos_non), j + 1, n)
        t_sub = h_sub[-num_q:] if num_q else h_sub[:0]
        t_non = h_non[-num_q:] if num_q else h_non[:0]
        fused_t = cfg.alpha * t_non + cfg.beta * t_sub
        retained = h_sub.copy()

    keep_pos = np.concatenate([sys_pos, sub_pos, q_pos])
    if num_q:
        retained[-num_q:] = fused_t
    final = reference_run(
        model, retained, keep_pos, causal_mask(keep_pos), n + 1, model.config.num_layers
    )
    return PrefillResult(
        final,
        None,
        keep_pos,
        phase_token_counts={"reference": int(keep_pos.size)},
        diagnostics={"question_at_migration": fused_t.copy()},
    )
