"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately written in a different style from the main
model and scheduler code: one Python loop per query row, softmax over the
row's gathered allowed keys, and the weighted values added one key at a time
in key order. Within a row each step is one numpy call over all its keys and
heads. The scores come from np.vecdot, which takes one dot product per
(key, head) exactly as a per-key `query @ key` loop would, so the bits do not
depend on how many keys or heads share the call; a matrix-vector product or
einsum would sum in another order. The softmax runs over the C-contiguous
(heads, keys) logits so that each head's sum is a contiguous pairwise sum.
It builds only on the public numerics primitives, so agreement with the
vectorized pipeline checks the orchestration, not the arithmetic it shares.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .model import Model, SequenceLayout, causal_mask, embed
from .numerics import matmul, rms_norm, rope_rotate_heads
from .saliency import Partition
from .scheduler import PrefillResult, ScheduleConfig, Strategy


def reference_layer(model: Model, hidden, positions, mask, layer_index: int) -> np.ndarray:
    """One transformer layer, with attention computed row by row."""
    cfg = model.config
    lw = model.layers[layer_index - 1]
    rows = hidden.shape[0]
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    normed = rms_norm(hidden, lw.attn_gain)
    q = rope_rotate_heads(matmul(normed, lw.w_q).reshape(rows, nh, dh), positions)
    k = rope_rotate_heads(matmul(normed, lw.w_k).reshape(rows, nh, dh), positions)
    v = matmul(normed, lw.w_v).reshape(rows, nh, dh)

    attn_out = np.empty((rows, nh * dh))
    for r in range(rows):
        allowed = np.flatnonzero(mask[r])
        logits = np.ascontiguousarray((np.vecdot(k[allowed], q[r]) * scale).T)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        # the weighted values added one key at a time, in key order
        attn_out[r] = np.cumsum(weights.T[:, :, None] * v[allowed], axis=0)[-1].ravel()

    h1 = hidden + matmul(attn_out, lw.w_o)
    normed2 = rms_norm(h1, lw.mlp_gain)
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
        final, None, keep_pos, diagnostics={"question_at_migration": fused_t.copy()}
    )
