import functools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parvts.model import build_model, causal_mask, decode_step, ModelConfig, SequenceLayout, embed
from parvts.harness import seeded_inputs, synthesize_token_ids
from parvts.numerics import SOFTMAX_UNTILED_ROWS, RngState, rms_norm, rope_apply, seeded_uniform
from parvts.oracle import oracle_two_pass, reference_layer, reference_prefill, reference_run
from parvts.saliency import Partition, partition_topk, toy_cls_attention
from parvts.scheduler import (
    ScheduleConfig,
    Strategy,
    group_exclusive_mask,
    row_groups,
    run_strategy,
    run_vanilla,
)


def setup():
    return seeded_inputs(
        ModelConfig(
            num_layers=4, hidden_dim=32, num_heads=4, mlp_dim=64,
            vocab_size=97, max_positions=48, master_seed=3,
        ),
        4, 16, 6,
    )


def test_reduces_to_vanilla():
    model, layout, ids, saliency = setup()
    all_kept = partition_topk(saliency, layout.num_visual)
    cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 4, 0.0, 1.0, 1)
    result = oracle_two_pass(model, ids, layout, all_kept, cfg)
    vanilla = run_vanilla(model, ids, layout)
    assert np.max(np.abs(result.hidden - vanilla.hidden)) <= 1e-9


def test_pure_function_repeatability():
    model, layout, ids, saliency = setup()
    partition = partition_topk(saliency, 6)
    cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 3, 0.5, 0.5, 1)
    first = oracle_two_pass(model, ids, layout, partition, cfg)
    second = oracle_two_pass(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(first.hidden, second.hidden)


def test_degenerate_partitions_collapse_like_scheduler():
    model, layout, ids, saliency = setup()
    for keep in (0, layout.num_visual):
        partition = partition_topk(saliency, keep)
        cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 3, 0.5, 0.5, 1)
        reference = oracle_two_pass(model, ids, layout, partition, cfg)
        fast = run_strategy(model, ids, layout, partition, cfg)
        np.testing.assert_array_equal(reference.positions, fast.positions)
        assert np.max(np.abs(reference.hidden - fast.hidden)) <= 1e-6


def test_reference_prefill_is_causal():
    model, layout, ids, _ = setup()
    base = reference_prefill(model, ids[:6])
    extended = reference_prefill(model, np.concatenate([ids[:6], ids[6:8]]))
    # earlier rows are untouched by appended tokens
    assert np.max(np.abs(extended[:6] - base)) == 0.0


def looped_layer(model, hidden, positions, mask, layer_index):
    """reference_layer as a loop over every row, head and key: a rope_apply per
    (row, head), a scalar `query @ key` per score, and a vector rms_norm per row."""
    cfg = model.config
    lw = model.layers[layer_index - 1]
    rows = hidden.shape[0]
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    def norm_rows(x, gain):
        return np.stack([rms_norm(x[r], gain) for r in range(x.shape[0])])

    normed = norm_rows(hidden, lw.attn_gain)
    q_full, k_full = normed @ lw.w_q, normed @ lw.w_k
    v = (normed @ lw.w_v).reshape(rows, nh, dh)
    q = np.empty((rows, nh, dh))
    k = np.empty((rows, nh, dh))
    for r in range(rows):
        for h in range(nh):
            segment = slice(h * dh, (h + 1) * dh)
            q[r, h] = rope_apply(q_full[r, segment], int(positions[r]))
            k[r, h] = rope_apply(k_full[r, segment], int(positions[r]))

    attn_out = np.empty((rows, nh * dh))
    for r in range(rows):
        allowed = np.flatnonzero(mask[r])
        pieces = []
        for h in range(nh):
            query = q[r, h]
            logits = np.array([float(query @ key) * scale for key in k[allowed, h]])
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            pieces.append(np.cumsum(weights[:, None] * v[allowed, h], axis=0)[-1])
        attn_out[r] = np.concatenate(pieces)

    h1 = hidden + attn_out @ lw.w_o
    normed2 = norm_rows(h1, lw.mlp_gain)
    gate, up = normed2 @ lw.w_gate, normed2 @ lw.w_up
    return h1 + (gate / (1.0 + np.exp(-gate)) * up) @ lw.w_down


@functools.cache
def looped_model(heads, head_dim):
    return build_model(ModelConfig(1, heads * head_dim, heads, 16, 7, 4096, heads + head_dim))


@settings(deadline=None, max_examples=25)
@given(
    heads=st.integers(1, 8),
    head_dim=st.sampled_from([2, 8, 16, 32]),
    rows=st.integers(1, 260),
    density=st.sampled_from([0.05, 0.5, 0.95]),
    single=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16 - 1),
)
@example(heads=8, head_dim=8, rows=260, density=0.5, single=0.3, seed=1)
@example(heads=1, head_dim=32, rows=3, density=0.5, single=1.0, seed=2)
def test_reference_layer_equals_looped_layer_bits(heads, head_dim, rows, density, single, seed):
    """Causal masks with holes, some rows with a single allowed key."""
    model = looped_model(heads, head_dim)
    gen = np.random.default_rng(seed)
    positions = np.sort(gen.choice(model.config.max_positions, rows, replace=False))
    mask = causal_mask(positions) & (gen.random((rows, rows)) < density)
    for r in np.flatnonzero((gen.random(rows) < single) | ~mask.any(axis=1)):
        mask[r] = False
        mask[r, gen.integers(0, r + 1)] = True
    hidden = seeded_uniform(RngState(seed), rows, model.config.hidden_dim, 1.0)
    np.testing.assert_array_equal(
        reference_layer(model, hidden, positions, mask, 1),
        looped_layer(model, hidden, positions, mask, 1),
    )


# Staged references for the strategies oracle_two_pass does not mirror. The
# layout has more rows than SOFTMAX_UNTILED_ROWS, so the masked phase and the
# non-subject stage take the row-tiled softmax.
STAGED_KEEP, STAGED_DEPTH = 16, 2


def staged_setup():
    model, layout, ids, saliency = seeded_inputs(
        ModelConfig(
            num_layers=4, hidden_dim=32, num_heads=2, mlp_dim=64,
            vocab_size=97, max_positions=256, master_seed=3,
        ),
        4, 200, 6,
    )
    assert layout.output_start > SOFTMAX_UNTILED_ROWS
    return model, layout, ids, partition_topk(saliency, STAGED_KEEP)


def hand_exclusive_mask(pos, sub_pos, non_pos):
    """Causal mask over pos with the two position sets blocked from each other."""
    mask = causal_mask(pos)
    in_sub, in_non = np.isin(pos, sub_pos), np.isin(pos, non_pos)
    mask[np.ix_(in_sub, in_non)] = False
    mask[np.ix_(in_non, in_sub)] = False
    return mask


@settings(deadline=None, max_examples=60)
@given(
    system=st.integers(0, 4),
    question=st.integers(0, 4),
    labels=st.lists(st.integers(0, 1), min_size=0, max_size=40),
)
@example(system=0, question=2, labels=[0, 1, 1, 0, 1])  # no system rows
@example(system=3, question=2, labels=[1, 1, 1, 1])  # no subject rows
@example(system=2, question=1, labels=[0, 0, 0])  # no non-subject rows
def test_group_exclusive_mask_equals_hand_built_mask(system, question, labels):
    layout = SequenceLayout(system, len(labels), question)
    partition = Partition(np.array(labels, dtype=np.int64))
    pos = np.arange(layout.output_start)
    lo = layout.visual_span[0]
    expected = hand_exclusive_mask(
        pos, lo + partition.subject_indices, lo + partition.nonsubject_indices
    )
    np.testing.assert_array_equal(
        group_exclusive_mask(pos, row_groups(layout, partition)), expected
    )


def staged_masked(model, ids, layout, partition, n, j):
    """(retained positions, final hidden) of ParVTSMasked, layer range by layer range."""
    pos = np.arange(ids.size)
    sub_pos = layout.visual_span[0] + partition.subject_indices
    non_pos = layout.visual_span[0] + partition.nonsubject_indices
    hidden = reference_run(model, embed(model, ids), pos, causal_mask(pos), 1, j)
    exclusive = hand_exclusive_mask(pos, sub_pos, non_pos)
    hidden = reference_run(model, hidden, pos, exclusive, j + 1, n)
    keep = ~np.isin(pos, non_pos)
    keep_pos = pos[keep]
    last = model.config.num_layers
    return keep_pos, reference_run(model, hidden[keep], keep_pos, causal_mask(keep_pos), n + 1, last)


def staged_sequential(model, ids, layout, partition, n, strategy):
    """(stage-2 positions, final hidden) of SubjectFirst or NonSubjectFirst."""
    sys_pos, q_pos = layout.system_positions(), layout.question_positions()
    first = layout.visual_span[0] + partition.subject_indices
    second = layout.visual_span[0] + partition.nonsubject_indices
    if strategy is Strategy.NONSUBJECT_FIRST:
        first, second = second, first

    stage1 = np.concatenate([sys_pos, first, q_pos])
    h1 = reference_run(model, embed(model, ids[stage1]), stage1, causal_mask(stage1), 1, n)
    # ReplaceVision: the other group's embeddings take the visual slots
    stage2 = np.concatenate([sys_pos, second, q_pos])
    h2 = np.concatenate(
        [h1[: sys_pos.size], embed(model, ids[second]), h1[sys_pos.size + first.size :]]
    )
    last = model.config.num_layers
    return stage2, reference_run(model, h2, stage2, causal_mask(stage2), n + 1, last)


def test_masked_strategy_matches_staged_reference():
    model, layout, ids, partition = staged_setup()
    cfg = ScheduleConfig(Strategy.PARVTS_MASKED, STAGED_DEPTH, 0.5, 0.5, 1)
    keep_pos, expected = staged_masked(model, ids, layout, partition, STAGED_DEPTH, 1)
    fast = run_strategy(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(fast.positions, keep_pos)
    np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy", [Strategy.SUBJECT_FIRST, Strategy.NONSUBJECT_FIRST])
def test_sequential_strategies_match_staged_reference(strategy):
    model, layout, ids, partition = staged_setup()
    cfg = ScheduleConfig(strategy, STAGED_DEPTH)
    stage2, expected = staged_sequential(model, ids, layout, partition, STAGED_DEPTH, strategy)
    fast = run_strategy(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(fast.positions, stage2)
    np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=1e-12)


# Edge layouts: |S| system, |V| visual and |T| question tokens, k of the
# visual tokens kept, N layers, migration depth n and a joint prefix of j.
class Edge(NamedTuple):
    system: int
    visual: int
    question: int
    keep: int
    layers: int
    n: int
    j: int


EDGE_MODELS = {
    layers: build_model(ModelConfig(layers, 16, 2, 32, 53, 32, 11)) for layers in (1, 2, 3)
}


@st.composite
def edges(draw):
    layers = draw(st.integers(1, 3))
    n = draw(st.integers(1, layers))
    visual = draw(st.integers(1, 8))
    return Edge(
        system=draw(st.integers(0, 3)), visual=visual, question=draw(st.integers(1, 3)),
        keep=draw(st.integers(0, visual)), layers=layers, n=n, j=draw(st.integers(0, n)),
    )


@settings(deadline=None, max_examples=50)
@given(edges())
@example(Edge(system=0, visual=5, question=2, keep=2, layers=3, n=2, j=1))  # |S| = 0
@example(Edge(system=2, visual=5, question=1, keep=2, layers=3, n=2, j=1))  # |T| = 1
@example(Edge(system=2, visual=5, question=2, keep=0, layers=3, n=2, j=1))  # k = 0
@example(Edge(system=2, visual=5, question=2, keep=5, layers=3, n=2, j=1))  # k = |V|
@example(Edge(system=2, visual=5, question=2, keep=2, layers=3, n=2, j=0))  # j = 0
@example(Edge(system=2, visual=5, question=2, keep=2, layers=3, n=3, j=1))  # n = N
@example(Edge(system=0, visual=1, question=1, keep=0, layers=1, n=1, j=0))  # all at once
def test_strategies_match_references_on_edge_layouts(edge):
    model = EDGE_MODELS[edge.layers]
    layout = SequenceLayout(edge.system, edge.visual, edge.question)
    ids = synthesize_token_ids(model.config, layout.output_start)
    lo, hi = layout.visual_span
    partition = partition_topk(toy_cls_attention(embed(model, ids[lo:hi]), 11), edge.keep)
    non_pos = lo + partition.nonsubject_indices

    for strategy in list(Strategy)[1:]:
        cfg = ScheduleConfig(strategy, edge.n, 0.5, 0.5, edge.j)
        fast = run_strategy(model, ids, layout, partition, cfg)
        if strategy is Strategy.PARVTS_BATCH:
            reference = oracle_two_pass(model, ids, layout, partition, cfg)
            positions, expected, atol = reference.positions, reference.hidden, 1e-6
        elif strategy is Strategy.PARVTS_MASKED:
            positions, expected = staged_masked(model, ids, layout, partition, edge.n, edge.j)
            atol = 1e-12
        else:
            positions, expected = staged_sequential(
                model, ids, layout, partition, edge.n, strategy
            )
            atol = 1e-12
        np.testing.assert_array_equal(fast.positions, positions)
        np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=atol)

        # the sequential schedules cache the second group's positions after layer n
        pruned = non_pos if strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED) else ()
        fast.cache.check_invariants(pruned=pruned)
        logits = decode_step(model, fast.cache, int(ids[-1]), layout.output_start)
        assert np.all(np.isfinite(logits))
